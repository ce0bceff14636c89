//! The power-sum core of both sketch types: the sums
//! `p_i = Σ_x c(x)·(x+1)^i (mod p)`, `i = 1, …, len`, of a signed multiset
//! `c` over `{0, …, universe-1}` (shifted by one so that `0` is visible),
//! with the field choice, the ±1 update, pointwise merge, the locator root
//! scan, verify-by-re-sketch and the wire layout of the sums (`len` fields
//! of `⌈log₂ p⌉` bits, reduced mod `p` when read).

use clique_sim::bits::{BitReader, BitString};

use crate::field::{PrimeField, LANES};

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
            field: PrimeField::for_universe(universe.saturating_add(1), capacity as u64),
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

    /// Pointwise `self + other`.
    ///
    /// # Panics
    ///
    /// Panics if the sums have different parameters.
    pub(crate) fn merge(&mut self, other: &PowerSums) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (s, &o) in self.sums.iter_mut().zip(&other.sums) {
            *s = self.field.add(*s, o);
        }
    }

    /// The `candidates` whose shifted values are roots of `locator`
    /// (constant term first), in candidate order; `None` unless there are
    /// exactly as many as its degree, and as soon as there are more.
    ///
    /// The candidates stream in chunks of [`LANES`], each evaluated as
    /// that many independent Horner chains. A short last chunk is padded
    /// with the element `0` and its padded lanes are ignored.
    pub(crate) fn roots(
        &self,
        locator: &[u64],
        candidates: impl IntoIterator<Item = u64>,
    ) -> Option<Vec<u64>> {
        let f = self.field;
        let degree = locator.len() - 1;
        let mut roots = Vec::with_capacity(degree);
        let mut candidates = candidates.into_iter();
        loop {
            let mut chunk = [0u64; LANES];
            let mut filled = 0;
            while filled < LANES {
                let Some(x) = candidates.next() else { break };
                debug_assert!(x < self.universe, "candidate outside universe");
                chunk[filled] = x;
                filled += 1;
            }
            if filled == 0 {
                break;
            }
            let values = f.eval_poly(locator, chunk.map(|x| f.reduce(x + 1)));
            for (&x, &value) in chunk[..filled].iter().zip(&values) {
                if value == 0 {
                    roots.push(x);
                    if roots.len() > degree {
                        return None;
                    }
                }
            }
            if filled < LANES {
                break;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signed::SignedPowerSumSketch;
    use crate::sketch::PowerSumSketch;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The monic locator `Π (X − (r+1))` of `elements`, constant term first.
    fn locator_of(f: PrimeField, elements: &[u64]) -> Vec<u64> {
        let mut locator = vec![1u64];
        for &x in elements {
            let root = f.reduce(x + 1);
            let mut next = vec![0u64; locator.len() + 1];
            for (i, &c) in locator.iter().enumerate() {
                next[i + 1] = f.add(next[i + 1], c);
                next[i] = f.sub(next[i], f.mul(root, c));
            }
            locator = next;
        }
        locator
    }

    /// The scan one candidate at a time, evaluated in `u128` with `%`.
    fn scalar_roots(f: PrimeField, locator: &[u64], candidates: &[u64]) -> Option<Vec<u64>> {
        let p = u128::from(f.modulus());
        let degree = locator.len() - 1;
        let mut roots = Vec::new();
        for &x in candidates {
            let value = locator.iter().rev().fold(0u128, |acc, &c| {
                (acc * u128::from(x + 1) + u128::from(c)) % p
            });
            if value == 0 {
                roots.push(x);
                if roots.len() > degree {
                    return None;
                }
            }
        }
        (roots.len() == degree).then_some(roots)
    }

    #[test]
    fn four_lane_scan_matches_one_candidate_at_a_time() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x4A4E);
        let universe = 40u64;
        let sums = PowerSums::new(universe, 4, 8);
        let f = sums.field();
        for len in 0..=9usize {
            for trial in 0..200 {
                // Candidates avoid the padding element 0 half the time, so
                // a locator root at 0 lands only in the padded lanes.
                let mut candidates: Vec<u64> = (u64::from(trial % 2 == 0)..universe).collect();
                candidates.shuffle(&mut rng);
                candidates.truncate(len);
                candidates.sort_unstable();
                // Roots drawn from the candidates (the tail chunk included),
                // the padding element and elements outside the list.
                let mut pool = candidates.clone();
                pool.extend([0, rng.gen_range(0..universe)]);
                pool.sort_unstable();
                pool.dedup();
                pool.shuffle(&mut rng);
                let elements = &pool[..rng.gen_range(1..pool.len().min(4) + 1)];
                let locator = locator_of(f, elements);
                assert_eq!(
                    sums.roots(&locator, candidates.iter().copied()),
                    scalar_roots(f, &locator, &candidates),
                    "candidates {candidates:?}, roots {elements:?}"
                );
            }
            // The zero polynomial vanishes everywhere: more roots than its
            // degree as soon as the list is longer than it.
            for degree in 1..=3 {
                let zero = vec![0u64; degree + 1];
                let candidates: Vec<u64> = (0..len as u64).collect();
                let expected = scalar_roots(f, &zero, &candidates);
                assert_eq!(expected.is_some(), len == degree);
                assert_eq!(sums.roots(&zero, 0..len as u64), expected);
            }
        }
    }

    #[test]
    fn full_universe_decodes_when_its_size_is_not_a_multiple_of_four() {
        for universe in (1..=13u64).filter(|u| u % 4 != 0) {
            let mut sets: Vec<Vec<u64>> = vec![Vec::new()];
            for x in 0..universe {
                let extended: Vec<Vec<u64>> = sets
                    .iter()
                    .filter(|set| set.len() < 3)
                    .map(|set| [set.as_slice(), &[x]].concat())
                    .collect();
                sets.extend(extended);
            }
            for set in sets {
                let mut plain = PowerSumSketch::new(universe, 3);
                let mut signed = SignedPowerSumSketch::new(universe, 3);
                let mut expected = Vec::new();
                for (i, &x) in set.iter().enumerate() {
                    plain.add(x);
                    if i % 2 == 0 {
                        signed.add(x);
                        expected.push((x, 1i8));
                    } else {
                        signed.remove(x);
                        expected.push((x, -1i8));
                    }
                }
                assert_eq!(plain.decode(), Some(set.clone()), "universe {universe}");
                assert_eq!(signed.decode(), Some(expected), "universe {universe}");
            }
        }
    }
}
