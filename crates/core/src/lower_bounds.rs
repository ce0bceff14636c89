//! Convenience wrappers that execute the Section 3.2–3.6 lower-bound
//! reductions against the detection protocols of this crate.
//!
//! Each function builds the relevant lower-bound gadget, instantiates random
//! disjointness instances, runs one of our detection protocols on the
//! resulting input graphs, and reports (a) whether the protocol answered
//! correctly on every instance and (b) the round lower bound the reduction
//! implies next to the rounds the protocol actually used. Experiments
//! E6–E9 are thin sweeps over these wrappers.

use clique_comm::disjointness::DisjointnessBound;
use clique_comm::lbgraph::LowerBoundGraph;
use clique_comm::nof_reduction::TriangleNofReduction;
use clique_comm::reduction::{
    run_nof_reduction, run_two_party_reduction, DetectionRun, ReductionReport,
};
use clique_graphs::Graph;
use rand::Rng;

use crate::subgraph::detect_subgraph_turan;
use crate::triangle::detect_triangle_trivial;
use crate::trivial::detect_by_full_broadcast;

/// Which upper-bound protocol is exercised by a reduction run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorKind {
    /// The trivial broadcast-everything protocol (`⌈n/b⌉` rounds).
    TrivialBroadcast,
    /// The Theorem 7 protocol with the Turán-derived sketch capacity.
    TuranSketch,
}

/// Runs `trials` random two-party disjointness instances through the built
/// gadget `lbg` against the `kind` detector at `bandwidth`.
fn run_gadget<R: Rng + ?Sized>(
    lbg: LowerBoundGraph,
    bandwidth: usize,
    kind: DetectorKind,
    trials: usize,
    rng: &mut R,
) -> (LowerBoundGraph, ReductionReport) {
    let pattern = lbg.pattern();
    let report = run_two_party_reduction(
        &lbg,
        bandwidth,
        DisjointnessBound::TwoPartyDeterministic,
        trials,
        rng,
        |g: &Graph| {
            let outcome = match kind {
                DetectorKind::TrivialBroadcast => detect_by_full_broadcast(g, pattern, bandwidth),
                DetectorKind::TuranSketch => detect_subgraph_turan(g, pattern, bandwidth),
            }
            .expect("detection protocol failed on a well-formed input");
            DetectionRun {
                contains: outcome.contains,
                rounds: outcome.rounds(),
            }
        },
    );
    (lbg, report)
}

/// Theorem 15: runs the (K_ℓ, K_{N,N}) reduction against a detection
/// protocol and reports the implied `Ω(n/b)` bound next to the measured
/// upper bound.
///
/// # Errors
///
/// Returns an error if the gadget cannot be built for these parameters.
pub fn clique_detection_lower_bound<R: Rng + ?Sized>(
    l: usize,
    n: usize,
    bandwidth: usize,
    kind: DetectorKind,
    trials: usize,
    rng: &mut R,
) -> Result<(LowerBoundGraph, ReductionReport), String> {
    let lbg = LowerBoundGraph::for_clique(l, n)?;
    Ok(run_gadget(lbg, bandwidth, kind, trials, rng))
}

/// Theorem 19: the (C_ℓ, F) reduction with `F` a dense bipartite
/// `C_ℓ`-free graph.
///
/// # Errors
///
/// Returns an error if the gadget cannot be built for these parameters.
pub fn cycle_detection_lower_bound<R: Rng + ?Sized>(
    l: usize,
    n: usize,
    bandwidth: usize,
    kind: DetectorKind,
    trials: usize,
    rng: &mut R,
) -> Result<(LowerBoundGraph, ReductionReport), String> {
    // The gadget draws from `rng` before the trials do.
    let lbg = LowerBoundGraph::for_cycle(l, n, rng)?;
    Ok(run_gadget(lbg, bandwidth, kind, trials, rng))
}

/// Theorem 22: the (K_{ℓ,ℓ}, C₄-free F) reduction.
///
/// # Errors
///
/// Returns an error if the gadget cannot be built for these parameters.
pub fn bipartite_detection_lower_bound<R: Rng + ?Sized>(
    l: usize,
    n: usize,
    bandwidth: usize,
    kind: DetectorKind,
    trials: usize,
    rng: &mut R,
) -> Result<(LowerBoundGraph, ReductionReport), String> {
    let lbg = LowerBoundGraph::for_complete_bipartite(l, l, n)?;
    Ok(run_gadget(lbg, bandwidth, kind, trials, rng))
}

/// Theorem 24 / Corollary 25: the Ruzsa–Szemerédi NOF reduction run against
/// the trivial triangle detector.
pub fn triangle_nof_lower_bound<R: Rng + ?Sized>(
    rs_parameter: usize,
    bandwidth: usize,
    deterministic: bool,
    trials: usize,
    rng: &mut R,
) -> (TriangleNofReduction, ReductionReport) {
    let reduction = TriangleNofReduction::new(rs_parameter);
    let bound = if deterministic {
        DisjointnessBound::ThreePartyNofDeterministic
    } else {
        DisjointnessBound::ThreePartyNofRandomized
    };
    let report = run_nof_reduction(&reduction, bandwidth, bound, trials, rng, |g: &Graph| {
        let outcome = detect_triangle_trivial(g, bandwidth)
            .expect("triangle detection failed on a well-formed input");
        DetectionRun {
            contains: outcome.contains,
            rounds: outcome.rounds(),
        }
    });
    (reduction, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn clique_reduction_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xA0);
        let (lbg, report) =
            clique_detection_lower_bound(4, 32, 4, DetectorKind::TrivialBroadcast, 6, &mut rng)
                .unwrap();
        assert!(report.all_correct());
        assert_eq!(report.elements, lbg.elements());
        // The implied bound (Ω(n/b)) must not exceed the measured upper
        // bound (the trivial protocol is an upper bound for the problem).
        assert!(report.implied_round_lower_bound <= report.max_rounds as f64 + 1.0);
    }

    #[test]
    fn cycle_reduction_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xAA);
        let (_, report) =
            cycle_detection_lower_bound(4, 36, 4, DetectorKind::TrivialBroadcast, 6, &mut rng)
                .unwrap();
        assert!(report.all_correct());
        assert!(report.implied_round_lower_bound > 0.0);
    }

    #[test]
    fn bipartite_reduction_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xAB);
        let (_, report) =
            bipartite_detection_lower_bound(2, 40, 4, DetectorKind::TrivialBroadcast, 6, &mut rng)
                .unwrap();
        assert!(report.all_correct());
    }

    #[test]
    fn turan_detector_is_also_correct_through_the_reduction() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xAC);
        let (_, report) =
            cycle_detection_lower_bound(4, 36, 4, DetectorKind::TuranSketch, 6, &mut rng).unwrap();
        assert!(report.all_correct());
    }

    #[test]
    fn nof_reduction_round_trip() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xAD);
        let (reduction, report) = triangle_nof_lower_bound(12, 4, true, 6, &mut rng);
        assert!(report.all_correct());
        assert_eq!(report.elements, reduction.elements());
        assert!(report.implied_round_lower_bound > 0.0);
    }
}
