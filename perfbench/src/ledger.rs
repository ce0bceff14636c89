//! The ledger-to-layer split: which share of a run's rounds and bits the
//! router charged, plus the MST diagnostics its output digest carries.

use clique_core::registry::{JobInput, ProtocolRun};
use clique_core::sim::bits::bits_for_universe;
use clique_core::sim::Metrics;

use crate::stats::Report;

/// The label prefix every router phase carries (`route/direct`,
/// `route/balanced/phase1`, …).
pub const ROUTE_PREFIX: &str = "route/";

/// Rounds, bits, messages and the worst link load of a set of phases.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayerLedger {
    /// Rounds charged.
    pub rounds: u64,
    /// Payload bits placed on the network.
    pub bits: u64,
    /// Messages placed on the network.
    pub messages: u64,
    /// Maximum bits on one link in one round.
    pub max_link_bits: u64,
}

impl LayerLedger {
    fn absorb(&mut self, rounds: u64, bits: u64, messages: u64, max_link_bits: u64) {
        self.rounds += rounds;
        self.bits += bits;
        self.messages += messages;
        self.max_link_bits = self.max_link_bits.max(max_link_bits);
    }
}

/// A run's ledger split into the router's phases and everything else.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LedgerSplit {
    /// Phases labelled [`ROUTE_PREFIX`]`*`.
    pub routing: LayerLedger,
    /// Every other phase.
    pub other: LayerLedger,
}

/// Splits `metrics.phases` by label. The two parts add up to the run's
/// totals.
pub fn split(metrics: &Metrics) -> LedgerSplit {
    let mut out = LedgerSplit::default();
    for phase in &metrics.phases {
        let part = if phase.label.starts_with(ROUTE_PREFIX) {
            &mut out.routing
        } else {
            &mut out.other
        };
        part.absorb(
            phase.rounds,
            phase.bits,
            phase.messages,
            phase.max_link_bits_per_round,
        );
    }
    out
}

/// The sketch-protocol diagnostics of an MST output digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MstShape {
    /// Sketch-broadcast phases (capacity levels) used.
    pub phases: u64,
    /// Sketch capacity of the last phase.
    pub final_capacity: u64,
}

/// Reads `phases` and `final_capacity` from a registry `mst` output digest;
/// `None` for any other digest.
pub fn mst_shape(digest: &str) -> Option<MstShape> {
    Some(MstShape {
        phases: digest_field(digest, "phases")?,
        final_capacity: digest_field(digest, "final_capacity")?,
    })
}

/// The integer value of `"key":<digits>` in a flat JSON digest.
pub fn digest_field(digest: &str, key: &str) -> Option<u64> {
    let pattern = format!("\"{key}\":");
    let start = digest.find(&pattern)? + pattern.len();
    let digits: String = digest[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Rounds of the trivial MST protocol, in which every node broadcasts its
/// incident edge keys outright: `⌈max_degree · key_bits / b⌉`, where a key
/// is the packed `w·n² + u·n + v` the sketch protocol decodes.
pub fn trivial_mst_rounds(n: usize, max_weight: u64, max_degree: usize, bandwidth: usize) -> u64 {
    let n = n as u64;
    let key_bits = bits_for_universe((max_weight + 1) * n * n) as u64;
    (max_degree as u64 * key_bits).div_ceil(bandwidth as u64)
}

/// One run of a workload's job mix: its input, its registry run, its
/// bandwidth and its share of the mix.
pub type WeightedRun<'a> = (&'a JobInput, &'a ProtocolRun, usize, f64);

/// Adds the ledger split (`routing.*`) and the MST diagnostics
/// (`core.mst.*`) as per-job means over `runs`, weighted by their shares.
/// The MST means cover only the MST runs (0 when there are none).
pub fn add_ledger_metrics(report: &mut Report, runs: &[WeightedRun<'_>]) {
    let weighted = |pick: &dyn Fn(&LayerLedger) -> u64| -> f64 {
        runs.iter()
            .map(|&(_, run, _, share)| pick(&split(&run.metrics).routing) as f64 * share)
            .sum::<f64>()
            / runs.iter().map(|r| r.3).sum::<f64>()
    };
    report.add("routing.rounds", weighted(&|l| l.rounds), "rounds");
    report.add("routing.bits", weighted(&|l| l.bits), "bits");
    report.add("routing.messages", weighted(&|l| l.messages), "count");
    report.add(
        "routing.max_link_bits",
        weighted(&|l| l.max_link_bits),
        "bits",
    );

    let (mut share, mut phases, mut capacity, mut over_trivial) = (0.0, 0.0, 0.0, 0.0);
    for &(input, run, bandwidth, w) in runs {
        let (Some(mst), JobInput::Weighted(g)) = (mst_shape(&run.output), input) else {
            continue;
        };
        let trivial = trivial_mst_rounds(
            g.vertex_count(),
            g.max_weight(),
            g.graph().max_degree(),
            bandwidth,
        );
        share += w;
        phases += mst.phases as f64 * w;
        capacity += mst.final_capacity as f64 * w;
        over_trivial += run.metrics.rounds as f64 / trivial.max(1) as f64 * w;
    }
    let share = if share > 0.0 { share } else { 1.0 };
    report.add("core.mst.phases", phases / share, "count");
    report.add("core.mst.final_capacity", capacity / share, "count");
    report.add(
        "core.mst.rounds_over_trivial",
        over_trivial / share,
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_core::graphs::{iso, weighted};
    use clique_core::registry::{self, JobInput, RunOptions};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// The pinned MST ledger of `tests/protocol_regression.rs`: seeded
    /// weighted G(24, 0.3), base capacity 4, b = 5.
    #[test]
    fn split_reproduces_the_pinned_mst_ledger() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
        let graph = weighted::weighted_erdos_renyi(24, 0.3, 50, &mut rng);
        let oracle = iso::minimum_spanning_forest(&graph);
        let run = registry::find("mst")
            .expect("mst is registered")
            .run(
                &JobInput::Weighted(graph),
                &RunOptions {
                    bandwidth: 5,
                    ..RunOptions::default()
                },
            )
            .expect("mst run");
        let parts = split(&run.metrics);
        assert_eq!(parts.routing, LayerLedger::default());
        assert_eq!((parts.other.rounds, parts.other.bits), (749, 89_400));
        assert_eq!(parts.other.messages, run.metrics.messages);
        assert_eq!(
            mst_shape(&run.output),
            Some(MstShape {
                phases: 5,
                final_capacity: 64
            })
        );
        assert_eq!(
            digest_field(&run.output, "total_weight"),
            Some(oracle.total_weight)
        );
    }

    #[test]
    fn routing_and_other_phases_add_up_to_the_totals() {
        let input = registry::generate_input(
            registry::InputKind::Unweighted,
            "erdos_renyi(p=0.5)",
            27,
            3,
            0,
        )
        .expect("known family");
        let run = registry::find("triangle-count")
            .expect("triangle-count is registered")
            .run(
                &input,
                &RunOptions {
                    bandwidth: 5,
                    ..RunOptions::default()
                },
            )
            .expect("triangle-count run");
        let parts = split(&run.metrics);
        assert!(parts.routing.rounds > 0 && parts.other.rounds > 0);
        assert_eq!(
            parts.routing.rounds + parts.other.rounds,
            run.metrics.rounds
        );
        assert_eq!(
            parts.routing.bits + parts.other.bits,
            run.metrics.total_bits
        );
        assert_eq!(
            parts.routing.messages + parts.other.messages,
            run.metrics.messages
        );
        assert_eq!(
            parts.routing.max_link_bits.max(parts.other.max_link_bits),
            run.metrics.max_link_bits_per_round
        );
        assert_eq!(mst_shape(&run.output), None);
    }

    #[test]
    fn trivial_bound_matches_the_hand_count() {
        // n = 96, max weight 384: keys below 385·96² need 22 bits.
        assert_eq!(
            trivial_mst_rounds(96, 384, 30, 7),
            (30 * 22_u64).div_ceil(7)
        );
    }
}
