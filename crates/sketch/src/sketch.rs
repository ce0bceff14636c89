//! Power-sum set sketches with exact decoding.
//!
//! A [`PowerSumSketch`] with capacity `k` over `F_p` summarises a set
//! `S ⊆ {0, …, u-1}` by its size and the power sums
//! `p_i = Σ_{x ∈ S} (x+1)^i (mod p)` for `i = 1, …, k` (elements are shifted
//! by one so that the element `0` is visible in the sums). Any set of size at
//! most `k` can be recovered exactly: Newton's identities convert the power
//! sums into the elementary symmetric polynomials, these are the coefficients
//! of the locator polynomial `Π_{x ∈ S}(X − (x+1))`, and the roots are found
//! by evaluating the polynomial over the (known, polynomially small)
//! universe. A re-sketch of the roots rejects every inconsistent input.
//!
//! Sketches are linear: adding or removing an element updates every power sum
//! in `O(k)` time, which is what allows the graph-reconstruction decoder to
//! "peel" recovered edges out of the remaining sketches. A whole
//! neighbourhood is added in one lane-parallel pass of the shared
//! power-sum core.
//!
//! The sketch owns its wire format: [`PowerSumSketch::write`],
//! [`PowerSumSketch::read_like`], which takes the field from a sketch of
//! the same shape the reader holds, and [`PowerSumSketch::encoded_bits`],
//! its size.

use clique_sim::bits::{bits_for_universe, BitReader, BitString};

use crate::power_sums::PowerSums;

/// A linear sketch of a subset of `{0, …, universe-1}` that can be decoded
/// exactly while the set has at most `capacity` elements.
///
/// # Examples
///
/// ```
/// use clique_graphs::Graph;
/// use clique_sketch::reconstruct::{decode_graph, encode_graph};
/// use clique_sketch::PowerSumSketch;
///
/// // The path 0 - 1 - 2 has degeneracy 1: capacity-1 neighbourhood
/// // sketches recover it.
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
/// let sketches = encode_graph(&g, 1);
///
/// // On the wire: the count, then the power sums, read back in the field
/// // of a sketch of the same shape.
/// let payload = sketches[1].write();
/// assert_eq!(payload.len(), sketches[1].encoded_bits());
/// let read = PowerSumSketch::read_like(&mut payload.reader(), &sketches[0]);
/// assert_eq!(read.as_ref(), Some(&sketches[1]));
/// assert_eq!(decode_graph(&sketches), Ok(g));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PowerSumSketch {
    /// The `capacity` power sums.
    core: PowerSums,
    /// Insertions minus removals: the set's size (a node's degree, when it
    /// sketches its neighbourhood).
    count: i64,
}

impl PowerSumSketch {
    /// Creates an empty sketch for subsets of `{0, …, universe-1}` of size at
    /// most `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `universe == 0`.
    pub fn new(universe: u64, capacity: usize) -> Self {
        Self {
            core: PowerSums::new(universe, capacity, capacity),
            count: 0,
        }
    }

    /// The sketch capacity `k`.
    pub(crate) fn capacity(&self) -> usize {
        self.core.capacity()
    }

    /// Net number of elements currently sketched (insertions minus removals).
    pub(crate) fn count(&self) -> i64 {
        self.count
    }

    /// Returns `true` if the sketch is identically zero (empty set).
    pub(crate) fn is_zero(&self) -> bool {
        self.count == 0 && self.core.is_zero()
    }

    /// Adds element `x` to the sketch: the tests' one-at-a-time reference
    /// for [`Self::add_all`].
    ///
    /// # Panics
    ///
    /// Panics if `x >= universe`.
    #[cfg(test)]
    pub(crate) fn add(&mut self, x: u64) {
        self.core.update(x, true);
        self.count += 1;
    }

    /// Adds every element of `set` (elements may repeat), as many one-element
    /// additions would, in one lane-parallel pass over the sums.
    ///
    /// # Panics
    ///
    /// Panics if an element is outside the universe.
    pub(crate) fn add_all(&mut self, set: impl ExactSizeIterator<Item = u64>) {
        self.count += set.len() as i64;
        self.core.accumulate(0, set.map(|x| (x, true)));
    }

    /// Removes element `x` from the sketch, as the decoder peels a
    /// recovered edge (the inverse of adding it).
    ///
    /// # Panics
    ///
    /// Panics if `x >= universe`.
    pub(crate) fn remove(&mut self, x: u64) {
        self.core.update(x, false);
        self.count -= 1;
    }

    /// Decodes the sketched set, provided it has between 0 and `capacity`
    /// elements.
    ///
    /// Returns the sorted elements, or `None` if decoding fails — which
    /// happens exactly when the sketch does not correspond to a set of at
    /// most `capacity` distinct universe elements (e.g. the true set was
    /// larger than the capacity, or removals made it inconsistent).
    pub(crate) fn decode(&self) -> Option<Vec<u64>> {
        if self.count < 0 || self.count as usize > self.capacity() {
            return None;
        }
        let d = self.count as usize;
        if d == 0 {
            return if self.is_zero() {
                Some(Vec::new())
            } else {
                None
            };
        }
        let (f, sums) = (self.core.field(), self.core.sums());

        // Newton's identities: i·e_i = Σ_{j=1..i} (−1)^{j−1} e_{i−j} p_j,
        // with e_0 = 1.
        let mut elementary = vec![0u64; d + 1];
        elementary[0] = 1;
        for i in 1..=d {
            let mut acc = 0u64;
            for j in 1..=i {
                let term = f.mul(elementary[i - j], sums[j - 1]);
                if j % 2 == 1 {
                    acc = f.add(acc, term);
                } else {
                    acc = f.sub(acc, term);
                }
            }
            elementary[i] = f.mul(acc, f.inv(i as u64));
        }

        // Locator polynomial Π (X − r) = Σ_{i=0..d} (−1)^i e_i X^{d−i};
        // store coefficients constant-term-first for Horner evaluation.
        let mut coeffs = vec![0u64; d + 1];
        for (i, &e) in elementary.iter().enumerate() {
            let signed = if i % 2 == 0 { e } else { f.neg(e) };
            coeffs[d - i] = signed;
        }

        // Roots among the (shifted) universe, kept only if they re-sketch.
        let roots = self.core.roots(&coeffs, self.core.elements())?;
        let set = roots.iter().map(|&r| (r, true));
        self.core.reproduced_by(set).then_some(roots)
    }

    /// The blackboard payload: the count in `max(⌈log₂ universe⌉, 1)` bits,
    /// then the `capacity` power sums in `⌈log₂ p⌉` bits each.
    ///
    /// # Panics
    ///
    /// Panics if the count is negative or does not fit its field, which the
    /// count of a set smaller than the universe always does.
    pub fn write(&self) -> BitString {
        let width = count_bits(self.core.universe());
        assert!(
            (0..1 << width).contains(&self.count),
            "count {} does not fit {width} bits",
            self.count
        );
        let mut bits = BitString::with_capacity(self.encoded_bits());
        bits.push_bits(self.count as u64, width);
        self.core.write(&mut bits);
        bits
    }

    /// Reads the sketch [`Self::write`] put at the front of `reader`, with
    /// the universe, capacity and field of `shape`, a sketch the reader
    /// already holds (so no prime is searched for), reducing every power
    /// sum mod `p`; `None` if the reader runs short.
    pub fn read_like(reader: &mut BitReader<'_>, shape: &Self) -> Option<Self> {
        let count = reader.read_bits(count_bits(shape.core.universe()))? as i64;
        let core = shape.core.zeroed().read(reader)?;
        Some(Self { core, count })
    }

    /// The length of [`Self::write`]'s payload: the `O(k log n)` message of
    /// Becker et al.
    pub fn encoded_bits(&self) -> usize {
        count_bits(self.core.universe()) + self.core.encoded_bits()
    }

    /// [`Self::read_like`] with the field searched for from `universe` and
    /// `capacity`: the tests' reference for the shaped read.
    #[cfg(test)]
    pub(crate) fn read(reader: &mut BitReader<'_>, universe: u64, capacity: usize) -> Option<Self> {
        let count = reader.read_bits(count_bits(universe))? as i64;
        let core = PowerSums::new(universe, capacity, capacity).read(reader)?;
        Some(Self { core, count })
    }
}

fn count_bits(universe: u64) -> usize {
    bits_for_universe(universe).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn empty_sketch_decodes_to_empty_set() {
        let sketch = PowerSumSketch::new(50, 3);
        assert!(sketch.is_zero());
        assert_eq!(sketch.decode(), Some(vec![]));
        assert_eq!(sketch.count(), 0);
    }

    #[test]
    fn add_and_decode_small_sets() {
        for set in [vec![0u64], vec![0, 1], vec![5, 9, 49], vec![10, 20, 30, 40]] {
            let mut sketch = PowerSumSketch::new(50, 4);
            for &x in &set {
                sketch.add(x);
            }
            let mut expected = set.clone();
            expected.sort_unstable();
            assert_eq!(sketch.decode(), Some(expected), "failed for {set:?}");
        }
    }

    #[test]
    fn element_zero_is_distinguishable() {
        let mut with_zero = PowerSumSketch::new(10, 2);
        with_zero.add(0);
        let empty = PowerSumSketch::new(10, 2);
        assert_ne!(with_zero, empty);
        assert_eq!(with_zero.decode(), Some(vec![0]));
    }

    #[test]
    fn over_capacity_fails_cleanly() {
        let mut sketch = PowerSumSketch::new(30, 3);
        for x in [1u64, 2, 3, 4] {
            sketch.add(x);
        }
        assert_eq!(sketch.decode(), None);
        // Removing one element brings it back within capacity.
        sketch.remove(4);
        assert_eq!(sketch.decode(), Some(vec![1, 2, 3]));
    }

    #[test]
    fn add_remove_round_trip_is_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut sketch = PowerSumSketch::new(200, 6);
        let mut elements: Vec<u64> = (0..200).collect();
        elements.shuffle(&mut rng);
        let chosen: Vec<u64> = elements.drain(..20).collect();
        for &x in &chosen {
            sketch.add(x);
        }
        for &x in &chosen {
            sketch.remove(x);
        }
        assert!(sketch.is_zero());
        assert_eq!(sketch.decode(), Some(vec![]));
    }

    #[test]
    fn random_sets_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        for trial in 0..30 {
            let universe = 150u64;
            let capacity = 1 + (trial % 8);
            let size = trial % (capacity + 1);
            let mut all: Vec<u64> = (0..universe).collect();
            all.shuffle(&mut rng);
            let mut set: Vec<u64> = all.into_iter().take(size).collect();
            let mut sketch = PowerSumSketch::new(universe, capacity);
            for &x in &set {
                sketch.add(x);
            }
            set.sort_unstable();
            assert_eq!(sketch.decode(), Some(set));
        }
    }

    #[test]
    fn encoded_bits_scale_as_k_log_n() {
        let bits = |capacity| PowerSumSketch::new(100, capacity).encoded_bits();
        assert!(bits(8) > 3 * bits(2) / 2);
        // O(k log n): a 7-bit count and 8 field elements of 7 bits each.
        assert_eq!(bits(8), 7 + 8 * 7);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_element_panics() {
        let mut sketch = PowerSumSketch::new(10, 2);
        sketch.add(10);
    }
}
