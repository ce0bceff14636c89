//! Set-disjointness instances and the known communication lower bounds the
//! paper quotes.
//!
//! All lower bounds in Section 3 are reductions *from* set disjointness: the
//! two-party number-in-hand version for the subgraph-detection bounds
//! (Lemma 13) and the three-party number-on-forehead version for triangle
//! detection (Theorem 24). This module provides the instances, exact
//! brute-force answers, random instance generators, and the cited lower
//! bounds as explicit formulas (the proofs of those external bounds are out
//! of scope; see DESIGN.md).

use rand::Rng;

/// A two-party set-disjointness instance over `{0, …, universe-1}`:
/// Alice holds `x`, Bob holds `y`, and they must decide whether
/// `x ∩ y = ∅`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DisjointnessInstance {
    /// Alice's characteristic vector.
    pub(crate) x: Vec<bool>,
    /// Bob's characteristic vector.
    pub(crate) y: Vec<bool>,
}

impl DisjointnessInstance {
    /// Creates an instance from characteristic vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn new(x: Vec<bool>, y: Vec<bool>) -> Self {
        assert_eq!(x.len(), y.len(), "both sets live in the same universe");
        Self { x, y }
    }

    /// The universe size `N`.
    pub(crate) fn universe(&self) -> usize {
        self.x.len()
    }

    /// Returns `true` if the sets are disjoint.
    pub fn is_disjoint(&self) -> bool {
        self.x.iter().zip(&self.y).all(|(&a, &b)| !(a && b))
    }

    /// A random *disjoint* instance: every element goes to Alice, Bob, or
    /// neither.
    pub(crate) fn random_disjoint<R: Rng + ?Sized>(universe: usize, rng: &mut R) -> Self {
        let mut x = vec![false; universe];
        let mut y = vec![false; universe];
        for i in 0..universe {
            match rng.gen_range(0..3) {
                0 => x[i] = true,
                1 => y[i] = true,
                _ => {}
            }
        }
        Self::new(x, y)
    }

    /// A random instance that intersects in exactly one uniformly chosen
    /// element (the hard distribution for disjointness).
    pub(crate) fn random_single_intersection<R: Rng + ?Sized>(
        universe: usize,
        rng: &mut R,
    ) -> Self {
        assert!(universe > 0, "cannot intersect over an empty universe");
        let mut inst = Self::random_disjoint(universe, rng);
        let witness = rng.gen_range(0..universe);
        inst.x[witness] = true;
        inst.y[witness] = true;
        inst
    }
}

/// A three-party number-on-forehead set-disjointness instance over
/// `{0, …, universe-1}`: the parties must decide whether
/// `x_a ∩ x_b ∩ x_c = ∅`, where each party sees the *other two* sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct NofDisjointnessInstance {
    /// The set "on Alice's forehead" (visible to Bob and Charlie).
    pub(crate) x_a: Vec<bool>,
    /// The set on Bob's forehead.
    pub(crate) x_b: Vec<bool>,
    /// The set on Charlie's forehead.
    pub(crate) x_c: Vec<bool>,
}

impl NofDisjointnessInstance {
    /// Creates an instance from characteristic vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub(crate) fn new(x_a: Vec<bool>, x_b: Vec<bool>, x_c: Vec<bool>) -> Self {
        assert!(
            x_a.len() == x_b.len() && x_b.len() == x_c.len(),
            "all three sets live in the same universe"
        );
        Self { x_a, x_b, x_c }
    }

    /// The universe size `m`.
    pub(crate) fn universe(&self) -> usize {
        self.x_a.len()
    }

    /// Returns `true` if the three-way intersection is empty.
    pub(crate) fn is_disjoint(&self) -> bool {
        self.common_elements().is_empty()
    }

    /// The elements in all three sets.
    pub(crate) fn common_elements(&self) -> Vec<usize> {
        (0..self.universe())
            .filter(|&i| self.x_a[i] && self.x_b[i] && self.x_c[i])
            .collect()
    }

    /// A uniformly random instance.
    pub(crate) fn random<R: Rng + ?Sized>(universe: usize, rng: &mut R) -> Self {
        let gen = |rng: &mut R| (0..universe).map(|_| rng.gen_bool(0.5)).collect();
        Self::new(gen(rng), gen(rng), gen(rng))
    }

    /// A random instance with empty three-way intersection.
    pub(crate) fn random_disjoint<R: Rng + ?Sized>(universe: usize, rng: &mut R) -> Self {
        let mut inst = Self::random(universe, rng);
        for i in 0..universe {
            if inst.x_a[i] && inst.x_b[i] && inst.x_c[i] {
                // Drop the element from one uniformly chosen set.
                match rng.gen_range(0..3) {
                    0 => inst.x_a[i] = false,
                    1 => inst.x_b[i] = false,
                    _ => inst.x_c[i] = false,
                }
            }
        }
        inst
    }

    /// A random instance whose three-way intersection is exactly one element.
    pub(crate) fn random_single_intersection<R: Rng + ?Sized>(
        universe: usize,
        rng: &mut R,
    ) -> Self {
        assert!(universe > 0, "cannot intersect over an empty universe");
        let mut inst = Self::random_disjoint(universe, rng);
        let witness = rng.gen_range(0..universe);
        inst.x_a[witness] = true;
        inst.x_b[witness] = true;
        inst.x_c[witness] = true;
        inst
    }
}

/// The cited communication-complexity lower bounds on set disjointness,
/// expressed in bits as functions of the universe size.
///
/// These are *external* results used by the paper; this crate turns them into
/// implied round lower bounds for the congested clique via the executable
/// reductions of Lemma 13 and Theorem 24.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DisjointnessBound {
    /// Two-party deterministic: `D(Disj_N) ≥ N` bits (fooling set / rank).
    TwoPartyDeterministic,
    /// Two-party randomized: `R(Disj_N) = Ω(N)` bits
    /// (Kalyanasundaram–Schnitger / Razborov); the constant used here is
    /// `N/4`.
    TwoPartyRandomized,
    /// Three-party NOF deterministic: `Ω(N)` bits (Rao–Yehudayoff); constant
    /// `N/4`.
    ThreePartyNofDeterministic,
    /// Three-party NOF randomized: `Ω(√N)` bits (Sherstov).
    ThreePartyNofRandomized,
}

impl DisjointnessBound {
    /// The lower bound in bits for the given universe size.
    pub(crate) fn bits(&self, universe: u64) -> f64 {
        let n = universe as f64;
        match self {
            DisjointnessBound::TwoPartyDeterministic => n,
            DisjointnessBound::TwoPartyRandomized => n / 4.0,
            DisjointnessBound::ThreePartyNofDeterministic => n / 4.0,
            DisjointnessBound::ThreePartyNofRandomized => n.sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0xD15)
    }

    /// The elements of the intersection: the oracle for `is_disjoint`.
    fn intersection(inst: &DisjointnessInstance) -> Vec<usize> {
        (0..inst.universe())
            .filter(|&i| inst.x[i] && inst.y[i])
            .collect()
    }

    #[test]
    fn two_party_basics() {
        let inst = DisjointnessInstance::new(
            vec![true, false, true, false],
            vec![false, true, false, false],
        );
        assert!(inst.is_disjoint());
        assert!(intersection(&inst).is_empty());
        let inst2 = DisjointnessInstance::new(
            vec![true, false, true, false],
            vec![false, true, true, false],
        );
        assert!(!inst2.is_disjoint());
        assert_eq!(intersection(&inst2), vec![2]);
        assert_eq!(inst2.universe(), 4);
    }

    #[test]
    fn two_party_generators_have_promised_structure() {
        let mut r = rng();
        for _ in 0..20 {
            assert!(DisjointnessInstance::random_disjoint(50, &mut r).is_disjoint());
            let single = DisjointnessInstance::random_single_intersection(50, &mut r);
            assert_eq!(intersection(&single).len(), 1);
        }
    }

    #[test]
    fn nof_basics() {
        let inst = NofDisjointnessInstance::new(
            vec![true, true, false],
            vec![true, false, true],
            vec![true, true, true],
        );
        assert!(!inst.is_disjoint());
        assert_eq!(inst.common_elements(), vec![0]);
        let disj = NofDisjointnessInstance::new(
            vec![true, true, false],
            vec![true, false, true],
            vec![false, true, true],
        );
        assert!(disj.is_disjoint());
        assert_eq!(disj.universe(), 3);
    }

    #[test]
    fn nof_generators_have_promised_structure() {
        let mut r = rng();
        for _ in 0..20 {
            assert!(NofDisjointnessInstance::random_disjoint(40, &mut r).is_disjoint());
            let single = NofDisjointnessInstance::random_single_intersection(40, &mut r);
            assert_eq!(single.common_elements().len(), 1);
        }
    }

    #[test]
    fn bounds_scale_as_stated() {
        assert_eq!(DisjointnessBound::TwoPartyDeterministic.bits(1000), 1000.0);
        assert_eq!(DisjointnessBound::TwoPartyRandomized.bits(1000), 250.0);
        assert_eq!(
            DisjointnessBound::ThreePartyNofDeterministic.bits(1000),
            250.0
        );
        assert!((DisjointnessBound::ThreePartyNofRandomized.bits(10_000) - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "same universe")]
    fn mismatched_universe_rejected() {
        let _ = DisjointnessInstance::new(vec![true], vec![true, false]);
    }
}
