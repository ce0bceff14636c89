//! Executable reduction runners (Lemma 13 and Theorem 24).
//!
//! The lower-bound arguments of the paper convert an `H`-detection protocol
//! for the broadcast congested clique into a set-disjointness protocol: the
//! two (or three) parties build the lower-bound graph from their inputs,
//! simulate the clique protocol locally, and read the answer off the
//! blackboard. In a round of `CLIQUE-BCAST(n, b)` the blackboard carries
//! `n·b` bits, so an `R`-round detection protocol yields an `R·n·b`-bit
//! disjointness protocol — which cannot beat the cited disjointness lower
//! bounds. The runners in this module execute exactly that pipeline against
//! a caller-supplied detection protocol and report both directions: whether
//! the detection answers matched the disjointness ground truth, and what
//! round lower bound the reduction implies.

use clique_graphs::Graph;
use rand::Rng;

use crate::disjointness::{DisjointnessBound, DisjointnessInstance, NofDisjointnessInstance};
use crate::lbgraph::LowerBoundGraph;
use crate::nof_reduction::TriangleNofReduction;

/// The outcome of one detection-protocol execution, as reported by the
/// caller-supplied protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetectionRun {
    /// Whether the protocol declared that the input contains the pattern.
    pub contains: bool,
    /// Rounds the protocol used.
    pub rounds: u64,
}

/// Aggregate result of running a reduction over several instances.
#[derive(Clone, Debug, PartialEq)]
pub struct ReductionReport {
    /// Number of instances executed.
    pub(crate) trials: usize,
    /// Number of instances on which the detection answer matched the
    /// disjointness ground truth.
    pub(crate) correct: usize,
    /// Maximum rounds used by the detection protocol over the trials.
    pub max_rounds: u64,
    /// The size of the disjointness universe.
    pub elements: usize,
    /// The round lower bound implied by the stated disjointness bound.
    pub implied_round_lower_bound: f64,
}

impl ReductionReport {
    /// Returns `true` if every trial produced the correct answer.
    pub fn all_correct(&self) -> bool {
        self.correct == self.trials
    }
}

/// Runs the Lemma 13 reduction: detection protocols for the pattern of `lbg`
/// are exercised on instantiated disjointness instances.
///
/// `detect` receives the instantiated input graph and must return the
/// protocol's answer and round count for `CLIQUE-BCAST(n, bandwidth)`.
pub fn run_two_party_reduction<R, F>(
    lbg: &LowerBoundGraph,
    bandwidth: usize,
    bound: DisjointnessBound,
    trials: usize,
    rng: &mut R,
    mut detect: F,
) -> ReductionReport
where
    R: Rng + ?Sized,
    F: FnMut(&Graph) -> DetectionRun,
{
    let m = lbg.elements();
    let mut correct = 0usize;
    let mut max_rounds = 0u64;
    for t in 0..trials {
        let instance = if t % 2 == 0 {
            DisjointnessInstance::random_disjoint(m, rng)
        } else {
            DisjointnessInstance::random_single_intersection(m, rng)
        };
        let graph = lbg.instantiate(&instance);
        let run = detect(&graph);
        if run.contains != instance.is_disjoint() {
            correct += 1;
        }
        max_rounds = max_rounds.max(run.rounds);
    }
    ReductionReport {
        trials,
        correct,
        max_rounds,
        elements: m,
        implied_round_lower_bound: lbg.implied_bcast_rounds(bound, bandwidth),
    }
}

/// Runs the Theorem 24 reduction: a triangle-detection protocol is exercised
/// on instantiated 3-party NOF disjointness instances.
pub fn run_nof_reduction<R, F>(
    reduction: &TriangleNofReduction,
    bandwidth: usize,
    bound: DisjointnessBound,
    trials: usize,
    rng: &mut R,
    mut detect: F,
) -> ReductionReport
where
    R: Rng + ?Sized,
    F: FnMut(&Graph) -> DetectionRun,
{
    let m = reduction.elements();
    let mut correct = 0usize;
    let mut max_rounds = 0u64;
    for t in 0..trials {
        let instance = if t % 2 == 0 {
            NofDisjointnessInstance::random_disjoint(m, rng)
        } else {
            NofDisjointnessInstance::random_single_intersection(m, rng)
        };
        let graph = reduction.instantiate(&instance);
        let run = detect(&graph);
        if run.contains != instance.is_disjoint() {
            correct += 1;
        }
        max_rounds = max_rounds.max(run.rounds);
    }
    ReductionReport {
        trials,
        correct,
        max_rounds,
        elements: m,
        implied_round_lower_bound: reduction.implied_bcast_rounds(bound, bandwidth),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_graphs::iso;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// An "omniscient" detector: answers by local search and charges the
    /// trivial number of rounds (every node broadcasts its row).
    fn oracle_detector(
        pattern: clique_graphs::Graph,
        n: usize,
        b: usize,
    ) -> impl FnMut(&Graph) -> DetectionRun {
        move |g: &Graph| DetectionRun {
            contains: iso::contains_subgraph(g, &pattern),
            rounds: (n as u64).div_ceil(b as u64),
        }
    }

    #[test]
    fn two_party_reduction_with_oracle_detector() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x77);
        let lbg = LowerBoundGraph::for_clique(4, 28).unwrap();
        let b = 4;
        let detector = oracle_detector(lbg.pattern().graph(), lbg.vertex_count(), b);
        let report = run_two_party_reduction(
            &lbg,
            b,
            DisjointnessBound::TwoPartyDeterministic,
            8,
            &mut rng,
            detector,
        );
        assert_eq!(report.trials, 8);
        assert!(report.all_correct(), "oracle detector must always be right");
        assert!(report.max_rounds >= 1);
        assert!(report.implied_round_lower_bound > 0.0);
    }

    #[test]
    fn nof_reduction_with_oracle_detector() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x78);
        let red = TriangleNofReduction::new(12);
        let b = 2;
        let triangle = clique_graphs::generators::complete(3);
        let detector = oracle_detector(triangle, red.vertex_count(), b);
        let report = run_nof_reduction(
            &red,
            b,
            DisjointnessBound::ThreePartyNofDeterministic,
            8,
            &mut rng,
            detector,
        );
        assert!(report.all_correct());
        assert!(report.elements > 0);
    }

    #[test]
    fn broken_detector_is_caught() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x79);
        let lbg = LowerBoundGraph::for_clique(4, 24).unwrap();
        let report = run_two_party_reduction(
            &lbg,
            1,
            DisjointnessBound::TwoPartyDeterministic,
            6,
            &mut rng,
            |_g| DetectionRun {
                contains: true,
                rounds: 1,
            },
        );
        assert!(!report.all_correct());
        // Half the instances are disjoint, so roughly half the answers are
        // wrong.
        assert!(report.correct < report.trials);
    }
}
