//! Signed power-sum sketches for edge-incidence summaries.
//!
//! A [`SignedPowerSumSketch`] with capacity `k` summarises a *signed* set —
//! a function `c : {0, …, u-1} → {−1, 0, +1}` with at most `k` nonzero
//! entries — by the `2k` power sums `p_i = Σ_x c(x)·(x+1)^i (mod p)`. It is
//! the ingredient that turns Borůvka contraction into a one-broadcast
//! protocol: node `v` sketches its incident edges, counting edge `{v, u}`
//! with sign `+1` when `v < u` and `−1` when `v > u`. Summing the sketches
//! of all member vertices of a component then cancels every internal edge
//! (its two endpoints contribute opposite signs) and leaves exactly the
//! *cut* edges, each with multiplicity `±1` — the AGM graph-sketching
//! identity, here in deterministic exact form.
//!
//! Decoding no longer gets a support size for free (the signed count can be
//! zero for a nonempty set), so it runs Berlekamp–Massey on the `2k` sums
//! to find the minimal linear recurrence (`O(k²)`), reads the support off
//! the roots of its characteristic (locator) polynomial by scanning the `m`
//! candidate elements (`O(m·k)`), and solves the transposed Vandermonde
//! system for the signs in closed form from the locator's quotients
//! (`O(k²)`, no elimination). A final check that every sign is `±1` and a
//! re-sketch of all `2k` sums reject every inconsistent input. A whole
//! decode is `O(k² + m·k)` field operations, none of them a hardware
//! divide: every product is reduced by the field's Barrett step, the root
//! scan evaluates eight candidates per pass as independent Horner chains
//! and stops once the roots it found and the candidates it has left cannot
//! reach the locator's degree, and each Berlekamp–Massey discrepancy is
//! summed in `u128` and reduced once, by Barrett steps on its two words.
//! The root scan, the re-sketch, the set accumulation and the wire layout
//! of the sums are the ones [`PowerSumSketch`] uses, from the crate's
//! shared power-sum core.
//!
//! Because the power-sum map is linear, merging two disjoint summaries and
//! the incidence-cancellation above are pointwise field additions
//! ([`SignedPowerSumSketch::merge`]); peeling a recovered element is an
//! update of the opposite sign ([`SignedPowerSumSketch::remove`] of an
//! added element). A whole signed set is added in one lane-parallel pass
//! ([`SignedPowerSumSketch::add_all`]), and because the field is the same at
//! every capacity below its modulus, a sketch of capacity `k` holds the
//! first `2k` sums of the same set at any larger capacity:
//! [`SignedPowerSumSketch::grow`] computes only the new ones.
//!
//! The sketch owns its wire format: [`SignedPowerSumSketch::write`],
//! [`SignedPowerSumSketch::read_like`], which takes the field from a sketch
//! of the same shape the reader holds, and
//! [`SignedPowerSumSketch::encoded_bits`], its size.
//!
//! [`PowerSumSketch`]: crate::sketch::PowerSumSketch

use clique_sim::bits::{BitReader, BitString};

use crate::field::PrimeField;
use crate::power_sums::PowerSums;

/// A linear sketch of a signed set over `{0, …, universe-1}` (multiplicities
/// in `{−1, 0, +1}`) that can be decoded exactly while at most `capacity`
/// entries are nonzero.
///
/// # Examples
///
/// ```
/// use clique_sketch::signed::SignedPowerSumSketch;
///
/// // Decoding scans the keys that can occur; here the whole universe.
/// let keys: Vec<u64> = (0..100).collect();
/// let mut sketch = SignedPowerSumSketch::new(100, 3);
/// sketch.add(7);
/// sketch.add(42);
/// sketch.remove(13); // multiplicity −1, not an inverse of add
/// assert_eq!(sketch.decode_among(&keys), Some(vec![(7, 1), (13, -1), (42, 1)]));
///
/// // Oppositely signed copies cancel: the heart of cut sketching.
/// let mut mirror = SignedPowerSumSketch::new(100, 3);
/// mirror.remove(7);
/// sketch.merge(&mirror);
/// assert_eq!(sketch.decode_among(&keys), Some(vec![(13, -1), (42, 1)]));
///
/// // A whole signed set in one pass, grown to a larger capacity.
/// let mut bulk = SignedPowerSumSketch::new(100, 3);
/// let set = [(13, -1), (42, 1)];
/// bulk.add_all(&set);
/// assert_eq!(bulk, sketch);
/// bulk.grow(6, &set);
/// let mut fresh = SignedPowerSumSketch::new(100, 6);
/// fresh.add_all(&set);
/// assert_eq!(bulk, fresh);
///
/// // On the wire: the 2k power sums, read back in the field of a sketch
/// // of the same shape.
/// let payload = sketch.write();
/// assert_eq!(payload.len(), sketch.encoded_bits());
/// let shape = SignedPowerSumSketch::new(100, 3);
/// let read = SignedPowerSumSketch::read_like(&mut payload.reader(), &shape);
/// assert_eq!(read, Some(sketch));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedPowerSumSketch {
    /// The `2 * capacity` signed power sums, so Berlekamp–Massey can pin
    /// recurrences of order up to `capacity`.
    core: PowerSums,
}

impl SignedPowerSumSketch {
    /// Creates an all-zero sketch for signed sets over `{0, …, universe-1}`
    /// with at most `capacity` nonzero multiplicities.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `universe == 0`.
    pub fn new(universe: u64, capacity: usize) -> Self {
        Self {
            core: PowerSums::new(universe, capacity, 2 * capacity),
        }
    }

    /// The sketch capacity `k` (maximum decodable support size).
    pub(crate) fn capacity(&self) -> usize {
        self.core.capacity()
    }

    /// The underlying field.
    pub fn field(&self) -> PrimeField {
        self.core.field()
    }

    /// Returns `true` if the sketch is identically zero. For honestly
    /// signed inputs (all multiplicities in `{−1, 0, +1}`) with support at
    /// most `2 · capacity` this happens *only* for the empty signed set:
    /// the `2k` power sums of ≤ 2k distinct nonzero field elements form a
    /// full-rank Vandermonde system, which has no nonzero kernel.
    pub(crate) fn is_zero(&self) -> bool {
        self.core.is_zero()
    }

    /// Adds element `x` with multiplicity `+1`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= universe`.
    pub fn add(&mut self, x: u64) {
        self.core.update(x, true);
    }

    /// Adds element `x` with multiplicity `−1`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= universe`.
    pub fn remove(&mut self, x: u64) {
        self.core.update(x, false);
    }

    /// Adds every `(element, ±1)` of `set`, as [`Self::add`] and
    /// [`Self::remove`] would one at a time, in one lane-parallel pass over
    /// the sums. `set` has the shape [`Self::decode_among`] returns, and
    /// elements may repeat.
    ///
    /// # Panics
    ///
    /// Panics if an element is outside the universe or a sign is not `±1`.
    pub fn add_all(&mut self, set: &[(u64, i8)]) {
        self.core.accumulate(0, set.iter().map(positive));
    }

    /// Grows this sketch of the signed `set` to `capacity`: the result
    /// equals a fresh sketch of `set` at `capacity`. While `capacity` stays
    /// below the modulus the field is unchanged and the `2k` sums held are
    /// the new sketch's first ones, so only the `2·capacity − 2k` new sums
    /// are computed, with one exponentiation per element for its starting
    /// power; a capacity that reaches the modulus rebuilds the sketch in its
    /// larger field.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is below the current capacity, an element is
    /// outside the universe or a sign is not `±1`. Debug builds also check
    /// that the sketch held is `set`'s.
    pub fn grow(&mut self, capacity: usize, set: &[(u64, i8)]) {
        debug_assert!(
            self.core.reproduced_by(set.iter().map(positive)),
            "grow needs the sketch of the set it grows"
        );
        self.core
            .grow(capacity, 2 * capacity, set.iter().map(positive));
    }

    /// Pointwise sum `self + other`: the sketch of the multiplicity-wise
    /// sum of the two signed sets (linearity).
    ///
    /// # Panics
    ///
    /// Panics if the sketches have different parameters.
    pub fn merge(&mut self, other: &SignedPowerSumSketch) {
        self.core.merge(&other.core);
    }

    /// Decodes the signed set by scanning the whole universe for roots:
    /// the tests' oracle for [`Self::decode_among`].
    #[cfg(test)]
    pub(crate) fn decode(&self) -> Option<Vec<(u64, i8)>> {
        self.decode_scan(self.core.elements())
    }

    /// Decodes the signed set, restricting the root scan to `candidates`.
    ///
    /// Returns the `(element, sign)` pairs sorted by element, or `None`
    /// when the sketch does not correspond to a signed set of at most
    /// `capacity` elements with multiplicities `±1` inside `candidates`.
    /// A full scan of the universe gives the same answer whenever the true
    /// support is a subset of `candidates` (the verification step rejects
    /// any decode that does not reproduce the sums, so a miss can only turn
    /// into `None`, never into a wrong answer). Protocols use this to scan
    /// only the polynomially many keys that can actually occur — e.g. the
    /// edge keys of a graph — instead of the full universe; in the
    /// congested-clique model the two are interchangeable, since local
    /// computation is free.
    ///
    /// `candidates` must be strictly increasing.
    pub fn decode_among(&self, candidates: &[u64]) -> Option<Vec<(u64, i8)>> {
        debug_assert!(
            candidates.windows(2).all(|w| w[0] < w[1]),
            "candidates must be strictly increasing"
        );
        self.decode_scan(candidates.iter().copied())
    }

    /// The decoder: Berlekamp–Massey on the `2k` sums (`O(k²)`), a root
    /// scan of the locator polynomial over the `m` candidates (`O(m·k)`),
    /// the closed-form sign solve (`O(k²)`), and the ±1 and full re-sketch
    /// checks (`O(k²)`) — `O(k² + m·k)` in all.
    fn decode_scan(
        &self,
        candidates: impl ExactSizeIterator<Item = u64>,
    ) -> Option<Vec<(u64, i8)>> {
        if self.is_zero() {
            return Some(Vec::new());
        }
        let (support, locator) = self.locate_support(candidates)?;
        let f = self.core.field();
        let roots: Vec<u64> = support.iter().map(|&x| f.reduce(x + 1)).collect();
        let coefficients = solve_transposed_vandermonde(f, &roots, &locator, self.core.sums());
        self.verify_signs(&support, &coefficients)
    }

    /// Finds the support of a nonzero sketch: the elements whose shifted
    /// values are the roots of the locator polynomial. Returns the support
    /// (ascending, in candidate order) and the locator polynomial
    /// `Π_i (X − r_i)`, constant term first; `None` when the recurrence
    /// order exceeds the capacity or the locator does not split into
    /// distinct roots among the candidates.
    fn locate_support(
        &self,
        candidates: impl ExactSizeIterator<Item = u64>,
    ) -> Option<(Vec<u64>, Vec<u64>)> {
        // Minimal linear recurrence of the sum sequence. A signed set
        // {(x_i, c_i)} has p_j = Σ_i (c_i r_i) r_i^(j-1) with r_i = x_i + 1
        // distinct and nonzero and c_i r_i ≠ 0, so the minimal recurrence
        // has order exactly the support size and characteristic polynomial
        // Π_i (X − r_i) — recoverable from 2·capacity sums while the
        // support is at most `capacity`.
        let connection = berlekamp_massey(self.core.field(), self.core.sums());
        let t = connection.len() - 1;
        if t == 0 || t > self.capacity() {
            return None;
        }

        // Characteristic polynomial X^t · C(1/X), constant term first: the
        // monic locator polynomial.
        let locator: Vec<u64> = connection.iter().rev().copied().collect();
        let support = self.core.roots(&locator, candidates)?;
        Some((support, locator))
    }

    /// Accepts the solved multiplicities only if every one is `±1` and the
    /// signed set they describe reproduces all `2k` power sums.
    fn verify_signs(&self, support: &[u64], coefficients: &[u64]) -> Option<Vec<(u64, i8)>> {
        let minus_one = self.core.field().modulus() - 1;
        let signed = support
            .iter()
            .zip(coefficients)
            .map(|(&x, &c)| match c {
                1 => Some((x, 1i8)),
                _ if c == minus_one => Some((x, -1i8)),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()?;
        let set = signed.iter().map(|&(x, sign)| (x, sign > 0));
        self.core.reproduced_by(set).then_some(signed)
    }

    /// The blackboard payload: the `2 · capacity` power sums in `⌈log₂ p⌉`
    /// bits each, and no count, which carries no support information.
    pub fn write(&self) -> BitString {
        let mut bits = BitString::with_capacity(self.encoded_bits());
        self.core.write(&mut bits);
        bits
    }

    /// Reads the sketch [`Self::write`] put at the front of `reader`, with
    /// the universe, capacity and field of `shape`, a sketch the reader
    /// already holds (so no prime is searched for), reducing every power
    /// sum mod `p`; `None` if the reader runs short.
    pub fn read_like(reader: &mut BitReader<'_>, shape: &Self) -> Option<Self> {
        let core = shape.core.zeroed().read(reader)?;
        Some(Self { core })
    }

    /// The length of [`Self::write`]'s payload: `O(k log universe)` bits.
    pub fn encoded_bits(&self) -> usize {
        self.core.encoded_bits()
    }

    /// [`Self::read_like`] with the field searched for from `universe` and
    /// `capacity`: the tests' reference for the shaped read.
    #[cfg(test)]
    pub(crate) fn read(reader: &mut BitReader<'_>, universe: u64, capacity: usize) -> Option<Self> {
        let core = PowerSums::new(universe, capacity, 2 * capacity).read(reader)?;
        Some(Self { core })
    }
}

/// A signed-set entry as the power-sum core takes it: the element and
/// whether its multiplicity is `+1`.
///
/// # Panics
///
/// Panics if the multiplicity is not `±1`.
fn positive(&(x, sign): &(u64, i8)) -> (u64, bool) {
    assert!(
        sign == 1 || sign == -1,
        "multiplicity {sign} of {x} is not ±1"
    );
    (x, sign > 0)
}

/// Berlekamp–Massey over `F_p`: the connection polynomial
/// `C(X) = 1 + c_1 X + … + c_L X^L` of the minimal recurrence
/// `Σ_{i=0}^{L} c_i · s_{n-i} = 0` (with `c_0 = 1`) satisfied by the whole
/// sequence. Returns the `L + 1` coefficients `[1, c_1, …, c_L]`.
///
/// A connection polynomial's degree never exceeds the order it was found
/// at, so `previous` is kept at that length and each update runs over it
/// alone. Each discrepancy sums at most `n` products below `2⁶²` in `u128`
/// and is reduced once, with [`PrimeField::reduce_wide`]. The discrepancy
/// `previous` was kept at is inverted once, when the order grows, rather
/// than at every step that updates `current`.
fn berlekamp_massey(f: PrimeField, sequence: &[u64]) -> Vec<u64> {
    let n = sequence.len();
    let mut current = vec![0u64; n + 1];
    current[0] = 1;
    let mut previous = vec![1u64];
    let mut order = 0usize; // L, the current recurrence order
    let mut gap = 1usize; // steps since `previous` last failed
                          // The discrepancy at which `previous` was kept, by its inverse: it
                          // changes only when the order grows.
    let mut last_inverse = 1u64;
    for i in 0..n {
        let discrepancy = current[1..=order]
            .iter()
            .zip(sequence[..i].iter().rev())
            .fold(u128::from(sequence[i]), |sum, (&c, &s)| {
                sum + u128::from(c) * u128::from(s)
            });
        let discrepancy = f.reduce_wide(discrepancy);
        if discrepancy == 0 {
            gap += 1;
            continue;
        }
        let minus_scale = f.neg(f.mul(discrepancy, last_inverse));
        let stale = (2 * order <= i).then(|| current[..=order].to_vec());
        for (c, &b) in current[gap..].iter_mut().zip(&previous) {
            *c = f.mul_add(minus_scale, b, *c);
        }
        match stale {
            Some(stale) => {
                order = i + 1 - order;
                previous = stale;
                last_inverse = f.inv(discrepancy);
                gap = 1;
            }
            None => gap += 1,
        }
    }
    current.truncate(order + 1);
    current
}

/// Solves the transposed Vandermonde system `Σ_i c_i r_i^j = p_j`
/// (`j = 1, …, t`) for the multiplicities `c_i`, given the `t` distinct
/// nonzero roots of the monic locator polynomial `P = Π_i (X − r_i)`
/// (coefficients constant term first) and at least `t` power sums.
///
/// Synthetic division gives `Q_i = P / (X − r_i) = Σ_j q_ij X^j`, which
/// vanishes at every root but `r_i`. Pairing equation `j + 1` with `q_ij`
/// therefore isolates one unknown:
/// `Σ_j q_ij p_{j+1} = Σ_l c_l r_l Q_i(r_l) = c_i r_i Q_i(r_i)`, and
/// `Q_i(r_i) = P'(r_i) ≠ 0` because the roots are distinct. Each root costs
/// `O(t)` field operations plus one inversion, `O(t²)` in all — the system
/// is nonsingular, so this is the unique solution elimination would find.
fn solve_transposed_vandermonde(
    f: PrimeField,
    roots: &[u64],
    locator: &[u64],
    sums: &[u64],
) -> Vec<u64> {
    let t = roots.len();
    debug_assert_eq!(locator.len(), t + 1, "locator degree must match the roots");
    debug_assert_eq!(locator[t], 1, "locator must be monic");
    roots
        .iter()
        .map(|&r| {
            // q_{t−1} = 1; q_{j} = a_{j+1} + r·q_{j+1}. Accumulate the paired
            // sum and Q_i(r) (Horner, top coefficient first) in one sweep.
            let mut q = 1u64;
            let mut paired = sums[t - 1];
            let mut q_at_root = 1u64;
            for j in (0..t - 1).rev() {
                q = f.mul_add(r, q, locator[j + 1]);
                paired = f.mul_add(q, sums[j], paired);
                q_at_root = f.mul_add(q_at_root, r, q);
            }
            debug_assert_eq!(
                f.mul_add(r, q, locator[0]),
                0,
                "r must be a root of the locator"
            );
            f.mul(paired, f.inv(f.mul(r, q_at_root)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Gaussian elimination over `F_p` on an augmented `t × (t + 1)`
    /// system; returns the solution vector, or `None` if the matrix is
    /// singular. The `O(t³)` oracle for the closed-form sign solve.
    fn solve_linear_system(f: PrimeField, matrix: &mut [Vec<u64>]) -> Option<Vec<u64>> {
        let t = matrix.len();
        for col in 0..t {
            let pivot = (col..t).find(|&r| matrix[r][col] != 0)?;
            matrix.swap(col, pivot);
            let inv = f.inv(matrix[col][col]);
            for value in &mut matrix[col][col..=t] {
                *value = f.mul(*value, inv);
            }
            let pivot_row = matrix[col].clone();
            for (row, entries) in matrix.iter_mut().enumerate() {
                if row != col && entries[col] != 0 {
                    let factor = entries[col];
                    for (value, &p) in entries[col..=t].iter_mut().zip(&pivot_row[col..=t]) {
                        *value = f.sub(*value, f.mul(factor, p));
                    }
                }
            }
        }
        Some((0..t).map(|i| matrix[i][t]).collect())
    }

    /// The multiplicities of the located support, solved both ways: by the
    /// closed form and by elimination on the explicit system
    /// `Σ_i c_i r_i^j = p_j` (`j = 1, …, t`).
    fn solve_both_ways(sketch: &SignedPowerSumSketch) -> Option<(Vec<u64>, Vec<Option<u64>>)> {
        let (f, sums) = (sketch.core.field(), sketch.core.sums());
        let (support, locator) = sketch.locate_support(sketch.core.elements())?;
        let roots: Vec<u64> = support.iter().map(|&x| f.reduce(x + 1)).collect();
        let t = roots.len();
        let closed = solve_transposed_vandermonde(f, &roots, &locator, sums);
        let mut matrix = vec![vec![0u64; t + 1]; t];
        for (j, row) in matrix.iter_mut().enumerate() {
            for (i, &r) in roots.iter().enumerate() {
                row[i] = f.pow(r, (j + 1) as u64);
            }
            row[t] = sums[j];
        }
        let eliminated = match solve_linear_system(f, &mut matrix) {
            Some(solution) => solution.into_iter().map(Some).collect(),
            None => vec![None; t],
        };
        Some((closed, eliminated))
    }

    /// The full decoder with the elimination oracle in place of the closed
    /// form: the behaviour `decode` had before the closed-form solve.
    fn oracle_decode(sketch: &SignedPowerSumSketch) -> Option<Vec<(u64, i8)>> {
        if sketch.is_zero() {
            return Some(Vec::new());
        }
        let (support, _) = sketch.locate_support(sketch.core.elements())?;
        let (_, eliminated) = solve_both_ways(sketch)?;
        let coefficients: Option<Vec<u64>> = eliminated.into_iter().collect();
        sketch.verify_signs(&support, &coefficients?)
    }

    /// Berlekamp–Massey as it was before the lazily reduced discrepancy and
    /// the shortened updates: every step reduced, every update over the
    /// whole sequence. The oracle for [`berlekamp_massey`].
    fn berlekamp_massey_oracle(f: PrimeField, sequence: &[u64]) -> Vec<u64> {
        let n = sequence.len();
        let mut current = vec![0u64; n + 1];
        let mut previous = vec![0u64; n + 1];
        current[0] = 1;
        previous[0] = 1;
        let mut order = 0usize; // L, the current recurrence order
        let mut gap = 1usize; // steps since `previous` last failed
        let mut last_discrepancy = 1u64;
        for i in 0..n {
            let mut discrepancy = sequence[i];
            for j in 1..=order {
                discrepancy = f.add(discrepancy, f.mul(current[j], sequence[i - j]));
            }
            if discrepancy == 0 {
                gap += 1;
                continue;
            }
            let scale = f.mul(discrepancy, f.inv(last_discrepancy));
            if 2 * order <= i {
                let stale = current.clone();
                for j in 0..=(n - gap) {
                    current[j + gap] = f.sub(current[j + gap], f.mul(scale, previous[j]));
                }
                order = i + 1 - order;
                previous = stale;
                last_discrepancy = discrepancy;
                gap = 1;
            } else {
                for j in 0..=(n - gap) {
                    current[j + gap] = f.sub(current[j + gap], f.mul(scale, previous[j]));
                }
                gap += 1;
            }
        }
        current.truncate(order + 1);
        current
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The connection polynomial equals the oracle's on random
        /// sequences of up to `2k` field elements (any recurrence order,
        /// at small and large moduli) and on the `2k` sums of random
        /// signed sets of up to `2k` elements, within and over capacity.
        #[test]
        fn berlekamp_massey_matches_the_oracle(
            capacity in 1usize..40,
            kind in 0u8..3,
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let universe = match kind {
                0 => 5,
                1 => rng.gen_range(100..400),
                _ => (1 << 30) - 40,
            };
            let sketch = |size: usize, rng: &mut ChaCha8Rng| {
                let mut support = std::collections::BTreeSet::new();
                while support.len() < size {
                    support.insert(rng.gen_range(0..universe));
                }
                let mut sketch = SignedPowerSumSketch::new(universe, capacity);
                for x in support {
                    if rng.gen_bool(0.5) {
                        sketch.add(x);
                    } else {
                        sketch.remove(x);
                    }
                }
                sketch
            };
            let f = sketch(0, &mut rng).field();
            let p = f.modulus();
            let len = rng.gen_range(0..2 * capacity + 1);
            let mut random: Vec<u64> = (0..len).map(|_| rng.gen_range(0..p)).collect();
            if len > 0 && rng.gen_bool(0.3) {
                random[rng.gen_range(0..len)] = p - 1;
            }
            prop_assert_eq!(berlekamp_massey(f, &random), berlekamp_massey_oracle(f, &random));
            let size = rng.gen_range(0..(2 * capacity).min(universe as usize) + 1);
            let sums = sketch(size, &mut rng).core.sums().to_vec();
            prop_assert_eq!(berlekamp_massey(f, &sums), berlekamp_massey_oracle(f, &sums));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn closed_form_solve_matches_the_elimination_oracle(
            capacity in 1usize..301,
            shape in (0u8..3, any::<u64>()),
        ) {
            let (kind, seed) = shape;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let universe = 4 * capacity as u64 + 64;
            let size = match kind {
                0 => rng.gen_range(0..capacity + 1),              // decodable
                1 => rng.gen_range(capacity + 1..2 * capacity + 1), // over capacity
                _ => rng.gen_range(1..capacity + 1),              // one |c| ≥ 2
            };
            let mut elements: Vec<u64> = (0..universe).collect();
            elements.shuffle(&mut rng);
            let mut set: Vec<(u64, i8)> = elements[..size]
                .iter()
                .map(|&x| (x, if rng.gen_bool(0.5) { 1i8 } else { -1 }))
                .collect();
            let mut sketch = SignedPowerSumSketch::new(universe, capacity);
            for &(x, sign) in &set {
                if sign > 0 {
                    sketch.add(x);
                } else {
                    sketch.remove(x);
                }
            }
            if kind == 2 {
                // Raise one multiplicity to ±2 or ±3.
                let (x, sign) = set[0];
                for _ in 0..rng.gen_range(1..3) {
                    if sign > 0 {
                        sketch.add(x);
                    } else {
                        sketch.remove(x);
                    }
                }
            }
            if let Some((closed, eliminated)) = solve_both_ways(&sketch) {
                let closed: Vec<Option<u64>> = closed.into_iter().map(Some).collect();
                prop_assert_eq!(closed, eliminated);
            }
            let decoded = sketch.decode();
            prop_assert_eq!(&decoded, &oracle_decode(&sketch));
            if kind == 0 {
                set.sort_unstable();
                prop_assert_eq!(decoded, Some(set));
            } else {
                prop_assert_eq!(decoded, None);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Payloads off the wire: the shaped read equals the plain one,
        /// intact payloads read back exactly, and every proper prefix reads
        /// as `None`. A payload with 1–3 bits flipped, or one of random
        /// field values, still reads, and `decode_among` never panics on
        /// it. Whatever decodes is sound: the signed set re-sketches to the
        /// sketch it came from.
        #[test]
        fn tampered_payloads_never_panic_or_misdecode(
            capacity in 1usize..12,
            size in 0usize..24,
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let universe = 16 * capacity as u64 + 64;
            let candidates: Vec<u64> = (0..universe).filter(|_| rng.gen_bool(0.5)).collect();
            let mut support = candidates.clone();
            support.shuffle(&mut rng);
            let mut sketch = SignedPowerSumSketch::new(universe, capacity);
            for &x in support.iter().take(size) {
                if rng.gen_bool(0.5) {
                    sketch.add(x);
                } else {
                    sketch.remove(x);
                }
            }
            let shape = SignedPowerSumSketch::new(universe, capacity);
            let read = |payload: &BitString| {
                let read = SignedPowerSumSketch::read(&mut payload.reader(), universe, capacity);
                let like = SignedPowerSumSketch::read_like(&mut payload.reader(), &shape);
                assert_eq!(like, read, "the shaped read differs");
                read
            };

            let payload = sketch.write();
            prop_assert_eq!(read(&payload).as_ref(), Some(&sketch));
            for cut in 0..payload.len() {
                prop_assert_eq!(read(&BitString::from_words(payload.words(), cut)), None);
            }

            let mut flipped = payload.clone();
            for _ in 0..rng.gen_range(1..4) {
                flipped.toggle_bit(rng.gen_range(0..flipped.len()));
            }
            let mut random = BitString::new();
            for _ in 0..2 * capacity {
                random.push_bits(rng.gen(), sketch.field().element_bits());
            }
            for tampered in [flipped, random] {
                let tampered = read(&tampered).expect("a full-length payload reads");
                if let Some(set) = tampered.decode_among(&candidates) {
                    let mut check = shape.clone();
                    check.add_all(&set);
                    prop_assert_eq!(&check, &tampered);
                }
            }
        }
    }

    #[test]
    fn empty_sketch_decodes_to_empty_set() {
        let sketch = SignedPowerSumSketch::new(64, 4);
        assert!(sketch.is_zero());
        assert_eq!(sketch.decode(), Some(vec![]));
    }

    #[test]
    fn signed_sets_round_trip() {
        for set in [
            vec![(0u64, 1i8)],
            vec![(0, -1)],
            vec![(3, 1), (17, -1)],
            vec![(5, -1), (9, -1), (49, -1)],
            vec![(10, 1), (20, -1), (30, 1), (40, -1)],
        ] {
            let mut sketch = SignedPowerSumSketch::new(50, 4);
            for &(x, sign) in &set {
                if sign > 0 {
                    sketch.add(x);
                } else {
                    sketch.remove(x);
                }
            }
            assert_eq!(sketch.decode(), Some(set.clone()), "failed for {set:?}");
        }
    }

    #[test]
    fn cancellation_of_opposite_signs() {
        let mut a = SignedPowerSumSketch::new(40, 3);
        a.add(7);
        a.add(12);
        let mut b = SignedPowerSumSketch::new(40, 3);
        b.remove(7);
        b.add(31);
        a.merge(&b);
        assert_eq!(a.decode(), Some(vec![(12, 1), (31, 1)]));
        a.remove(12);
        a.remove(31);
        assert!(a.is_zero());
    }

    #[test]
    fn over_capacity_fails_cleanly_and_peels_back() {
        let mut sketch = SignedPowerSumSketch::new(30, 3);
        for x in [1u64, 2, 3, 4] {
            sketch.add(x);
        }
        assert_eq!(sketch.decode(), None);
        sketch.remove(4);
        assert_eq!(sketch.decode(), Some(vec![(1, 1), (2, 1), (3, 1)]));
    }

    #[test]
    fn non_unit_multiplicities_are_rejected() {
        let mut sketch = SignedPowerSumSketch::new(30, 3);
        sketch.add(5);
        sketch.add(5); // multiplicity 2
        assert_eq!(sketch.decode(), None);
        sketch.remove(5);
        assert_eq!(sketch.decode(), Some(vec![(5, 1)]));
    }

    #[test]
    fn decode_among_matches_full_scan_on_supersets() {
        let mut sketch = SignedPowerSumSketch::new(200, 4);
        for x in [11u64, 60, 199] {
            sketch.add(x);
        }
        sketch.remove(42);
        let full = sketch.decode().unwrap();
        let candidates: Vec<u64> = vec![3, 11, 42, 60, 100, 150, 199];
        assert_eq!(sketch.decode_among(&candidates), Some(full));
        // A candidate list missing part of the support fails verification
        // instead of mis-decoding.
        assert_eq!(sketch.decode_among(&[11, 42, 60]), None);
    }

    #[test]
    fn random_signed_sets_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x516);
        for trial in 0..40 {
            let universe = 300u64;
            let capacity = 1 + (trial % 7);
            let size = trial % (capacity + 1);
            let mut all: Vec<u64> = (0..universe).collect();
            all.shuffle(&mut rng);
            let mut set: Vec<(u64, i8)> = all
                .into_iter()
                .take(size)
                .map(|x| (x, if rng.gen_bool(0.5) { 1i8 } else { -1 }))
                .collect();
            let mut sketch = SignedPowerSumSketch::new(universe, capacity);
            for &(x, sign) in &set {
                if sign > 0 {
                    sketch.add(x);
                } else {
                    sketch.remove(x);
                }
            }
            set.sort_unstable();
            assert_eq!(
                sketch.decode(),
                Some(set),
                "capacity {capacity} size {size}"
            );
        }
    }

    #[test]
    fn encoded_bits_scale_as_k_log_n() {
        let bits = |capacity| SignedPowerSumSketch::new(100, capacity).encoded_bits();
        assert!(bits(8) > 3 * bits(2) / 2);
        // 2k field elements of ⌈log₂ 103⌉ = 7 bits each.
        assert_eq!(bits(8), 2 * 8 * 7);
    }

    #[test]
    fn incidence_sum_yields_cut_edges() {
        // The motivating identity on a 4-cycle 0-1-2-3-0 with edge keys
        // u·4+v (u < v): summing the incidence sketches of {0, 1} cancels
        // the internal edge {0,1} and keeps the cut edges {1,2}, {0,3}.
        let n = 4u64;
        let edges = [(0u64, 1u64), (1, 2), (2, 3), (0, 3)];
        let key = |u: u64, v: u64| u * n + v;
        let mut sketches: Vec<SignedPowerSumSketch> = (0..n)
            .map(|_| SignedPowerSumSketch::new(n * n, 3))
            .collect();
        for &(u, v) in &edges {
            sketches[u as usize].add(key(u, v));
            sketches[v as usize].remove(key(u, v));
        }
        let mut component = sketches[0].clone();
        component.merge(&sketches[1]);
        let decoded = component.decode().unwrap();
        let support: Vec<u64> = decoded.iter().map(|&(x, _)| x).collect();
        assert_eq!(support, vec![key(0, 3), key(1, 2)]);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_element_panics() {
        let mut sketch = SignedPowerSumSketch::new(10, 2);
        sketch.add(10);
    }
}
