//! The power-sum core of both sketch types: the sums
//! `p_i = Σ_x c(x)·(x+1)^i (mod p)`, `i = 1, …, len`, of a signed multiset
//! `c` over `{0, …, universe-1}` (shifted by one so that `0` is visible),
//! with the field choice, the lane-parallel accumulation of a whole signed
//! set, growth to a larger capacity, the ±1 update that peels one element,
//! pointwise merge, the locator root scan, verify-by-re-sketch and the
//! wire layout of the sums (`len` fields of `⌈log₂ p⌉` bits, reduced mod
//! `p` when read).
//!
//! Both kernels run [`LANES`] independent chains: the accumulation
//! advances that many elements' power chains together and reduces each
//! sum once per chunk, and the root scan evaluates the locator at that
//! many candidates per pass, stopping as soon as the roots found and the
//! candidates left can no longer reach its degree.
//!
//! The root scan comes in two forms that share that loop. The table scan
//! ([`PowerSums::roots_in`]) reads the first four powers of each
//! candidate's shifted value from a table, whole chunks at a time, and
//! evaluates the locator four coefficients per reduction
//! ([`PrimeField::eval_blocked`]): a caller that decodes many times
//! against one candidate list builds its powers once. The streamed scan
//! ([`PowerSums::roots`]) takes bare elements and evaluates each chunk as
//! that many Horner chains ([`PrimeField::eval_poly`]), with no powers to
//! compute.

use clique_sim::bits::{BitReader, BitString};

use crate::field::{Powers, PrimeField, LANES};

/// The table [`PowerSums::roots_in`] scans: the [`Powers`] of each
/// element's shifted value `x + 1` in `field`, in chunks of [`LANES`], the
/// last one padded with zeros so every chunk is evaluated in place.
pub(crate) fn power_table(field: PrimeField, elements: &[u64]) -> Vec<[Powers; LANES]> {
    let mut table = vec![[[0; 4]; LANES]; elements.len().div_ceil(LANES)];
    for (slot, &x) in table.as_flattened_mut().iter_mut().zip(elements) {
        *slot = field.powers(field.reduce(x + 1));
    }
    table
}

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

    /// All-zero sums of the same shape and field, without the search for a
    /// prime that [`Self::new`] runs.
    pub(crate) fn zeroed(&self) -> Self {
        Self {
            sums: vec![0; self.sums.len()],
            ..*self
        }
    }

    pub(crate) fn field(&self) -> PrimeField {
        self.field
    }

    pub(crate) fn universe(&self) -> u64 {
        self.universe
    }

    /// The whole universe in ascending order: the root scan of a decoder
    /// that knows no narrower candidate list.
    pub(crate) fn elements(&self) -> impl ExactSizeIterator<Item = u64> {
        // The field's range check keeps the universe below 2³¹.
        let universe = u32::try_from(self.universe).expect("universe below 2^31");
        (0..universe).map(u64::from)
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

    /// Adds element `x` with multiplicity `+1` (`positive`) or `−1`: the
    /// one-element step that peels a recovered element. Whole sets go
    /// through [`Self::accumulate`].
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

    /// Adds the signed set `(x, positive)` to the sums `p_{from+1}, …`, as
    /// an [`Self::update`] of each element would (elements may repeat).
    ///
    /// The elements stream in chunks of [`LANES`]. Each chunk starts its
    /// power chains at `(x+1)^from`, one exponentiation per element, and
    /// advances them side by side; a sum takes the chunk's signed powers in
    /// one `u64` addition and one reduction. A short last chunk is padded
    /// with the shifted value `0`, whose powers add nothing.
    ///
    /// # Panics
    ///
    /// Panics if an element is outside the universe or `from` exceeds the
    /// number of sums.
    pub(crate) fn accumulate(&mut self, from: usize, set: impl IntoIterator<Item = (u64, bool)>) {
        let f = self.field;
        let p = f.modulus();
        let tail = &mut self.sums[from..];
        let mut set = set.into_iter();
        loop {
            let mut shifted = [0u64; LANES];
            // All ones for a negative element: `(a ^ m) − m` is `−a` in
            // wrapping arithmetic, and `a` when `m` is zero.
            let mut negative = [0u64; LANES];
            let mut filled = 0;
            while filled < LANES {
                let Some((x, positive)) = set.next() else {
                    break;
                };
                assert!(
                    x < self.universe,
                    "element {x} outside universe {}",
                    self.universe
                );
                shifted[filled] = f.reduce(x + 1);
                negative[filled] = if positive { 0 } else { u64::MAX };
                filled += 1;
            }
            if filled == 0 {
                break;
            }
            let mut powers = shifted.map(|x| f.pow(x, from as u64));
            for sum in tail.iter_mut() {
                // Every lane adds or subtracts a power below p, so the
                // offset keeps the wrapping total in [0, (2·LANES + 1)·p),
                // far below 2⁶⁴.
                let mut total = *sum + LANES as u64 * p;
                for lane in 0..LANES {
                    powers[lane] = f.mul(powers[lane], shifted[lane]);
                    let signed = (powers[lane] ^ negative[lane]).wrapping_sub(negative[lane]);
                    total = total.wrapping_add(signed);
                }
                *sum = f.reduce(total);
            }
            if filled < LANES {
                break;
            }
        }
    }

    /// Grows sums of the signed `set` to `capacity` and `len` sums: the
    /// sums [`Self::new`] and [`Self::accumulate`] give `set` there. While
    /// `capacity` stays below the modulus the field is the same (the next
    /// prime above the larger floor is still `p`), so the sums held are the
    /// new prefix and only the tail is accumulated; otherwise they are
    /// rebuilt in the new field.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `len` shrinks, or if an element is outside
    /// the universe.
    pub(crate) fn grow(
        &mut self,
        capacity: usize,
        len: usize,
        set: impl IntoIterator<Item = (u64, bool)>,
    ) {
        assert!(
            capacity >= self.capacity && len >= self.sums.len(),
            "power sums only grow"
        );
        let from = if (capacity as u64) < self.field.modulus() {
            self.capacity = capacity;
            let from = self.sums.len();
            self.sums.resize(len, 0);
            from
        } else {
            *self = Self::new(self.universe, capacity, len);
            0
        };
        self.accumulate(from, set);
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
    /// exactly as many as its degree — as soon as there are more, and as
    /// soon as the roots found and the candidates left fall short of it.
    ///
    /// The streamed scan: the candidates stream in chunks of [`LANES`],
    /// each evaluated as that many independent Horner chains. A short last
    /// chunk is padded with the element `0` and its padded lanes are
    /// ignored.
    pub(crate) fn roots(
        &self,
        locator: &[u64],
        mut candidates: impl ExactSizeIterator<Item = u64>,
    ) -> Option<Vec<u64>> {
        let f = self.field;
        scan(locator.len() - 1, candidates.len(), |_| {
            let mut chunk = [0u64; LANES];
            for (slot, x) in chunk.iter_mut().zip(&mut candidates) {
                debug_assert!(x < self.universe, "candidate outside universe");
                *slot = x;
            }
            (chunk, f.eval_poly(locator, chunk.map(|x| f.reduce(x + 1))))
        })
    }

    /// [`Self::roots`] over the first `len` candidates of their
    /// [`power_table`] in this field, by position: the table scan, one
    /// blocked evaluation per chunk straight from the table and no other
    /// arithmetic.
    pub(crate) fn roots_in(
        &self,
        locator: &[u64],
        table: &[[Powers; LANES]],
        len: usize,
    ) -> Option<Vec<usize>> {
        debug_assert!(
            len <= table.len() * LANES,
            "the table holds every candidate"
        );
        scan(locator.len() - 1, len, |start| {
            let positions = std::array::from_fn(|lane| start + lane);
            (
                positions,
                self.field.eval_blocked(locator, &table[start / LANES]),
            )
        })
    }

    /// Whether the signed set `(x, positive)` has exactly these sums — the
    /// check that rejects every decode whose roots do not re-sketch.
    pub(crate) fn reproduced_by(&self, set: impl IntoIterator<Item = (u64, bool)>) -> bool {
        let mut check = self.zeroed();
        check.accumulate(0, set);
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

/// The loop both root scans share: `eval(start)` gives the candidates at
/// positions `start..start + LANES` of a list of `len` and the locator's
/// value at each, lanes past the end being padding it ignores, and the
/// candidates where it vanishes are the roots, in list order. `None` once
/// there are more roots than `degree`, and once the roots found and the
/// candidates left fall short of it.
fn scan<T: Copy>(
    degree: usize,
    len: usize,
    mut eval: impl FnMut(usize) -> ([T; LANES], [u64; LANES]),
) -> Option<Vec<T>> {
    let mut roots = Vec::with_capacity(degree);
    let mut start = 0;
    while start < len && roots.len() + (len - start) >= degree {
        let (candidates, values) = eval(start);
        let filled = LANES.min(len - start);
        for (&x, &value) in candidates[..filled].iter().zip(&values) {
            if value == 0 {
                roots.push(x);
                if roots.len() > degree {
                    return None;
                }
            }
        }
        start += filled;
    }
    (roots.len() == degree).then_some(roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signed::SignedPowerSumSketch;
    use crate::sketch::PowerSumSketch;
    use proptest::prelude::*;
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

    /// The scan one candidate at a time over the whole list, evaluated in
    /// `u128` with `%`.
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

    /// [`PowerSums::roots`] over `candidates`, and how many of them it
    /// took before it answered.
    fn counted_roots(
        sums: &PowerSums,
        locator: &[u64],
        candidates: &[u64],
    ) -> (Option<Vec<u64>>, usize) {
        let mut taken = 0;
        let roots = sums.roots(locator, candidates.iter().copied().inspect(|_| taken += 1));
        (roots, taken)
    }

    #[test]
    fn lane_scan_matches_one_candidate_at_a_time() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x4A4E);
        let universe = 8 * LANES as u64;
        let sums = PowerSums::new(universe, 4, 8);
        let f = sums.field();
        // Every list length through two full chunks and a partial third.
        for len in 0..=2 * LANES + 1 {
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
                let elements = &pool[..rng.gen_range(1..pool.len().min(LANES / 2 + 1) + 1)];
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
                assert_eq!(sums.roots(&zero, candidates.iter().copied()), expected);
            }
        }
    }

    #[test]
    fn the_scan_stops_once_the_degree_is_out_of_reach() {
        let universe = 8 * LANES as u64;
        let sums = PowerSums::new(universe, 4, 8);
        let f = sums.field();
        let list: Vec<u64> = (0..3 * LANES as u64).collect();

        // A list shorter than the degree: no candidate is evaluated, even
        // when every one of them is a root.
        let short = &list[..LANES];
        let locator = locator_of(f, &list[..LANES + 1]);
        assert_eq!(scalar_roots(f, &locator, short), None);
        assert_eq!(counted_roots(&sums, &locator, short), (None, 0));

        // Degree 2·LANES with no root in the list: after two chunks, the
        // LANES candidates left cannot supply 2·LANES roots.
        let outside: Vec<u64> = (3 * LANES as u64..6 * LANES as u64).collect();
        let locator = locator_of(f, &outside[..2 * LANES]);
        assert_eq!(scalar_roots(f, &locator, &list), None);
        assert_eq!(counted_roots(&sums, &locator, &list), (None, 2 * LANES));

        // Two roots at the front and 2·LANES + 1 missing: after the first
        // chunk the 2·LANES candidates left cannot complete the locator.
        let mut elements = list[..2].to_vec();
        elements.extend(&outside[..2 * LANES + 1]);
        let locator = locator_of(f, &elements);
        assert_eq!(scalar_roots(f, &locator, &list), None);
        assert_eq!(counted_roots(&sums, &locator, &list), (None, LANES));

        // Every root present: the whole list is scanned and all are found.
        let locator = locator_of(f, &list[LANES..]);
        let expected = Some(list[LANES..].to_vec());
        assert_eq!(scalar_roots(f, &locator, &list), expected);
        assert_eq!(
            counted_roots(&sums, &locator, &list),
            (expected, list.len())
        );

        // Random locators whose roots sit anywhere: the early answer is the
        // full scan's.
        let mut rng = ChaCha8Rng::seed_from_u64(0xE4);
        for _ in 0..2_000 {
            let len = rng.gen_range(0..list.len() + 1);
            let candidates = &list[..len];
            let degree = rng.gen_range(1..2 * LANES + 1);
            let mut elements: Vec<u64> = (0..universe).collect();
            elements.shuffle(&mut rng);
            let locator = locator_of(f, &elements[..degree]);
            let (roots, taken) = counted_roots(&sums, &locator, candidates);
            assert_eq!(roots, scalar_roots(f, &locator, candidates));
            assert!(taken <= len);
        }
    }

    /// [`PowerSums::roots_in`] over a table of the `candidates` in `sums`'
    /// field, by element.
    fn table_roots(sums: &PowerSums, locator: &[u64], candidates: &[u64]) -> Option<Vec<u64>> {
        let table = power_table(sums.field(), candidates);
        let roots = sums.roots_in(locator, &table, candidates.len())?;
        Some(roots.into_iter().map(|i| candidates[i]).collect())
    }

    #[test]
    fn table_scan_matches_the_streamed_scan() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x7AB1E);
        let universe = 8 * LANES as u64;
        let sums = PowerSums::new(universe, 4, 8);
        let f = sums.field();
        // Every list length through two full chunks and a partial third,
        // and locators of degree 1 to 16, with roots in and out of the
        // list.
        for len in 0..=2 * LANES + 1 {
            for _ in 0..300 {
                let mut candidates: Vec<u64> = (0..universe).collect();
                candidates.shuffle(&mut rng);
                candidates.truncate(len);
                candidates.sort_unstable();
                let mut pool = candidates.clone();
                pool.extend((0..4).map(|_| rng.gen_range(0..universe)));
                pool.sort_unstable();
                pool.dedup();
                pool.shuffle(&mut rng);
                let degree = rng.gen_range(1..pool.len().min(2 * LANES) + 1);
                let locator = locator_of(f, &pool[..degree]);
                let streamed = sums.roots(&locator, candidates.iter().copied());
                assert_eq!(streamed, scalar_roots(f, &locator, &candidates));
                assert_eq!(
                    table_roots(&sums, &locator, &candidates),
                    streamed,
                    "candidates {candidates:?}, roots {:?}",
                    &pool[..degree]
                );
            }
        }
    }

    #[test]
    fn full_universe_decodes_when_its_size_is_not_a_multiple_of_the_lanes() {
        for universe in (1..=2 * LANES as u64 + 5).filter(|u| u % LANES as u64 != 0) {
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

    /// A universe whose field is small (`F_7` up to capacity 6), mid-sized,
    /// or the largest a field accepts (`F_{2³¹−1}`).
    fn universe_of(kind: u8, rng: &mut ChaCha8Rng) -> u64 {
        match kind {
            0 => 5,
            1 => rng.gen_range(100..5_000),
            _ => (1 << 31) - 3,
        }
    }

    /// A signed multiset of `size` entries: repeats drawn from a small pool
    /// half the time, and each drawn element's opposite copy now and then,
    /// so entries cancel.
    fn signed_set(universe: u64, size: usize, rng: &mut ChaCha8Rng) -> Vec<(u64, bool)> {
        let pool: Vec<u64> = (0..4).map(|_| rng.gen_range(0..universe)).collect();
        let mut set = Vec::new();
        while set.len() < size {
            let x = if rng.gen_bool(0.5) {
                pool[rng.gen_range(0..pool.len())]
            } else {
                rng.gen_range(0..universe)
            };
            let positive = rng.gen_bool(0.5);
            set.push((x, positive));
            if set.len() < size && rng.gen_bool(0.2) {
                set.push((x, !positive));
            }
        }
        set
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Accumulating a signed set into `sums[from..]` equals a loop of
        /// one-element updates there, for any prior sums, repeated and
        /// cancelling entries, set sizes around multiples of `LANES`, and
        /// moduli up to `2³¹ − 1`.
        #[test]
        fn accumulation_equals_a_loop_of_updates(
            kind in 0u8..3,
            len in 1usize..3 * LANES,
            size in 0usize..4 * LANES + 2,
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let universe = universe_of(kind, &mut rng);
            let mut prior = PowerSums::new(universe, len, len);
            for (x, positive) in signed_set(universe, 3, &mut rng) {
                prior.update(x, positive);
            }
            let set = signed_set(universe, size, &mut rng);
            for from in [0, rng.gen_range(0..len + 1), len] {
                let mut expected = prior.clone();
                for &(x, positive) in &set {
                    expected.update(x, positive);
                }
                expected.sums[..from].copy_from_slice(&prior.sums[..from]);
                let mut accumulated = prior.clone();
                accumulated.accumulate(from, set.iter().copied());
                prop_assert_eq!(&accumulated, &expected, "from {}", from);
            }
        }

        /// Growing the sums of a set equals building them fresh at the new
        /// capacity, in the plain shape (`len = k`) and the signed one
        /// (`len = 2k`), whether the field stays or the new capacity
        /// reaches the modulus and moves it.
        #[test]
        fn growth_equals_a_fresh_build(
            kind in 0u8..3,
            capacity in 1usize..12,
            growth in 0usize..14,
            signed in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let universe = universe_of(kind, &mut rng);
            let set = signed_set(universe, rng.gen_range(0..2 * LANES + 2), &mut rng);
            let per_capacity = if signed { 2 } else { 1 };
            let build = |capacity: usize| {
                let mut sums = PowerSums::new(universe, capacity, per_capacity * capacity);
                for &(x, positive) in &set {
                    sums.update(x, positive);
                }
                sums
            };
            let mut grown = build(capacity);
            let target = capacity + growth;
            grown.grow(target, per_capacity * target, set.iter().copied());
            let fresh = build(target);
            if kind == 0 && capacity < 7 && target >= 7 {
                prop_assert_ne!(fresh.field(), build(capacity).field());
            }
            prop_assert_eq!(grown, fresh);
        }
    }

    #[test]
    fn growth_past_the_modulus_moves_the_field() {
        // Universe 5 sketches in F_7 up to capacity 6 and in F_11 at 9.
        let set = [(0, true), (4, false), (2, true)];
        let mut grown = PowerSums::new(5, 3, 6);
        grown.accumulate(0, set);
        assert_eq!(grown.field().modulus(), 7);
        grown.grow(9, 18, set);
        let mut fresh = PowerSums::new(5, 9, 18);
        fresh.accumulate(0, set);
        assert_eq!(fresh.field().modulus(), 11);
        assert_eq!(grown, fresh);
    }

    #[test]
    #[should_panic(expected = "only grow")]
    fn shrinking_is_rejected() {
        PowerSums::new(50, 4, 8).grow(2, 4, []);
    }
}
