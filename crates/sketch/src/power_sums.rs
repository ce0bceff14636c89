//! The power-sum core of both sketch types: the sums
//! `p_i = Σ_x c(x)·(x+1)^i (mod p)`, `i = 1, …, len`, of a signed multiset
//! `c` over `{0, …, universe-1}` (shifted by one so that `0` is visible),
//! with the field choice, the ±1 update, pointwise merge and subtraction,
//! the locator root scan, verify-by-re-sketch and the wire layout of the
//! sums (`len` fields of `⌈log₂ p⌉` bits, reduced mod `p` when read).

use clique_sim::bits::{BitReader, BitString};

use crate::field::PrimeField;

/// The fields stay private: `field` is derived from `universe` and
/// `capacity`, and every sum is reduced mod its modulus.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct PowerSums {
    field: PrimeField,
    universe: u64,
    capacity: usize,
    /// `sums[i]` is the `(i+1)`-st power sum.
    sums: Vec<u64>,
}

impl PowerSums {
    /// All-zero sums `p_1, …, p_len` in the smallest prime field `F_p` with
    /// `p > max(universe + 1, capacity)`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `universe == 0`.
    pub(crate) fn new(universe: u64, capacity: usize, len: usize) -> Self {
        assert!(universe > 0, "universe must be non-empty");
        assert!(capacity > 0, "capacity must be positive");
        Self {
            field: PrimeField::for_universe(universe + 1, capacity as u64),
            universe,
            capacity,
            sums: vec![0; len],
        }
    }

    pub(crate) fn field(&self) -> PrimeField {
        self.field
    }

    pub(crate) fn universe(&self) -> u64 {
        self.universe
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn sums(&self) -> &[u64] {
        &self.sums
    }

    pub(crate) fn is_zero(&self) -> bool {
        self.sums.iter().all(|&s| s == 0)
    }

    /// Adds element `x` with multiplicity `+1` (`positive`) or `−1`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= universe`.
    pub(crate) fn update(&mut self, x: u64, positive: bool) {
        assert!(
            x < self.universe,
            "element {x} outside universe {}",
            self.universe
        );
        let shifted = self.field.reduce(x + 1);
        let mut power = 1u64;
        for sum in &mut self.sums {
            power = self.field.mul(power, shifted);
            *sum = if positive {
                self.field.add(*sum, power)
            } else {
                self.field.sub(*sum, power)
            };
        }
    }

    /// Pointwise `self + other` (`positive`) or `self − other`.
    ///
    /// # Panics
    ///
    /// Panics if the sums have different parameters.
    pub(crate) fn combine(&mut self, other: &PowerSums, positive: bool) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (s, &o) in self.sums.iter_mut().zip(&other.sums) {
            *s = if positive {
                self.field.add(*s, o)
            } else {
                self.field.sub(*s, o)
            };
        }
    }

    /// The `candidates` whose shifted values are roots of `locator`
    /// (constant term first), in candidate order; `None` unless there are
    /// exactly as many as its degree.
    pub(crate) fn roots(
        &self,
        locator: &[u64],
        candidates: impl IntoIterator<Item = u64>,
    ) -> Option<Vec<u64>> {
        let f = self.field;
        let degree = locator.len() - 1;
        let mut roots = Vec::with_capacity(degree);
        for x in candidates {
            debug_assert!(x < self.universe, "candidate outside universe");
            if f.eval_poly(locator, f.reduce(x + 1)) == 0 {
                roots.push(x);
                if roots.len() > degree {
                    return None;
                }
            }
        }
        (roots.len() == degree).then_some(roots)
    }

    /// Whether the signed set `(x, positive)` has exactly these sums — the
    /// check that rejects every decode whose roots do not re-sketch.
    pub(crate) fn reproduced_by(&self, set: impl IntoIterator<Item = (u64, bool)>) -> bool {
        let mut check = Self {
            sums: vec![0; self.sums.len()],
            ..*self
        };
        for (x, positive) in set {
            check.update(x, positive);
        }
        check.sums == self.sums
    }

    pub(crate) fn write(&self, out: &mut BitString) {
        out.push_fields(&self.sums, self.field.element_bits());
    }

    /// The sums [`Self::write`] wrote, each reduced mod `p`; `None` if the
    /// reader runs short.
    pub(crate) fn read(mut self, reader: &mut BitReader<'_>) -> Option<Self> {
        let (field, sums) = (self.field, &mut self.sums);
        reader.read_fields(sums.len(), field.element_bits(), |i, value| {
            sums[i] = field.reduce(value);
        })?;
        Some(self)
    }

    pub(crate) fn encoded_bits(&self) -> usize {
        self.sums.len() * self.field.element_bits()
    }
}
