//! Chaos integration tests: the never-silently-wrong contract end to end.
//!
//! Three layers are pinned here, against real registry protocols:
//!
//! 1. **Transparency** — a [`FaultyTransport`] carrying an empty (zero
//!    rate) [`FaultPlan`] is byte-identical to the bare transport it
//!    wraps, whether that is the in-memory backend or another wrapper, and
//!    across the protocol registry (property-based).
//! 2. **Cache integrity** — a deliberately corrupted transcript-cache
//!    entry is caught by `verify_hits`, replaced, and the job is served the
//!    fresh recomputation.
//! 3. **The chaos grid** — every fault kind x injection rate x protocol
//!    cell, seeded and retried, yields only fault-free-identical records
//!    or clean typed errors.

use clique_bench::chaos::{chaos_job_pool, run_chaos_cell};
use clique_serve::{Server, ServerConfig};
use congested_clique::registry::{self, InputKind, RunOptions, PROTOCOLS};
use congested_clique::sim::prelude::*;
use congested_clique::sim::transport::INJECTABLE_FAULTS;
use proptest::prelude::*;

/// The registry protocols the differential properties sweep (the
/// chaos-probe is excluded: it panics by design on odd inputs).
fn pinned_protocols() -> Vec<&'static registry::ProtocolEntry> {
    PROTOCOLS
        .iter()
        .filter(|entry| entry.id != "chaos-probe")
        .collect()
}

/// Runs `entry` on a generated input with the given fault plan (if any).
fn run_with_plan(
    entry: &registry::ProtocolEntry,
    n: usize,
    seed: u64,
    fault: Option<FaultPlan>,
) -> registry::ProtocolRun {
    let family = match entry.kind {
        InputKind::Unweighted => "erdos_renyi(p=0.5)",
        InputKind::Weighted => "weighted_random_tree",
    };
    let input = registry::generate_input(entry.kind, family, n, seed, 2 * n as u64)
        .expect("pinned family is valid");
    let options = RunOptions {
        bandwidth: 8,
        fault,
    };
    entry
        .run(&input, &options)
        .expect("pinned protocol run failed")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// An empty fault plan is invisible: wrapping the default transport in
    /// a zero-rate `FaultyTransport` changes neither output nor ledger for
    /// any registry protocol, size or seed.
    #[test]
    fn zero_rate_fault_plans_are_transparent_across_the_registry(
        proto_idx in 0usize..5,
        n in 5usize..10,
        seed in 0u64..500,
    ) {
        let entries = pinned_protocols();
        let entry = entries[proto_idx % entries.len()];
        let bare = run_with_plan(entry, n, seed, None);
        let wrapped = run_with_plan(
            entry,
            n,
            seed,
            Some(FaultPlan::new(seed ^ 0xFEED, 0, &INJECTABLE_FAULTS)),
        );
        prop_assert_eq!(&bare, &wrapped, "{} diverged under a zero-rate plan", entry.id);
    }

    /// The empty wrapper is transparent over both kinds of inner transport,
    /// the in-memory backend and another wrapper: a broadcast protocol run
    /// bare (on the default and on an explicit in-memory backend), wrapped
    /// once and wrapped twice produces four byte-identical outcomes.
    #[test]
    fn empty_wrapper_is_transparent_over_both_inner_transports(
        n in 2usize..8,
        b in 1usize..6,
        seed in 0u64..500,
    ) {
        let run = |transport: Option<Box<dyn Transport>>| {
            let config = CliqueConfig::builder().nodes(n).bandwidth(b).broadcast().build();
            Runner::new(config)
                .with_transport(transport)
                .execute(&mut |session: &mut Session| {
                    let rows: Vec<BitString> = (0..n)
                        .map(|i| BitString::from_bits(seed.wrapping_add(i as u64) & 0x7F, 7))
                        .collect();
                    session.broadcast_all("probe", &rows)?;
                    Ok(seed)
                })
                .expect("probe protocol failed")
        };
        let plan = FaultPlan::new(seed, 0, &INJECTABLE_FAULTS);
        let wrapper = || Box::new(FaultyTransport::new(plan, Box::new(InMemoryTransport)));
        let baseline = run(None);
        for wrapped in [
            run(Some(Box::new(InMemoryTransport))),
            run(Some(wrapper())),
            run(Some(Box::new(FaultyTransport::new(plan, wrapper())))),
        ] {
            prop_assert_eq!(baseline.output.clone(), wrapped.output);
            prop_assert_eq!(baseline.metrics.clone(), wrapped.metrics);
        }
    }
}

/// A corrupted cache entry never reaches a caller when `verify_hits` is
/// on: the byte-compare catches it, and the fresh recomputation replaces
/// the entry and is served instead.
#[test]
fn corrupted_cache_entries_are_caught_evicted_and_recomputed() {
    let mut server = Server::new(ServerConfig {
        verify_hits: true,
        ..ServerConfig::default()
    });
    let specs = chaos_job_pool(&[7], &[11]);
    for spec in &specs {
        let truth = Server::run_direct(spec).expect("direct reference failed");
        // Corrupt the planted record the way a single flipped bit would.
        let mut damaged = truth.clone().into_bytes();
        damaged[truth.len() / 2] ^= 0x10;
        server.inject_cache_record(spec, String::from_utf8_lossy(&damaged).into_owned());
        let served = server.submit_jobs(std::slice::from_ref(spec)).remove(0);
        let served = served.result.expect("degraded serve failed");
        assert!(!served.cached, "a corrupted hit was served as cached");
        assert_eq!(served.record, truth, "degradation served a wrong record");
    }
    assert_eq!(
        server.stats().faults.cache_divergences,
        specs.len() as u64,
        "a corrupted entry slipped through verification"
    );
    // Every divergent entry was replaced by the truth: all warm now.
    for outcome in server.submit_jobs(&specs) {
        assert!(outcome.result.expect("warm serve failed").cached);
    }
}

/// The acceptance grid: 4 injected kinds (plus the mix) x 3 nonzero rates
/// x 4 protocols, seeded and retried — zero silently-wrong outcomes, and
/// the seeded sweep detects and recovers from real faults.
#[test]
fn chaos_grid_is_never_silently_wrong() {
    let specs = chaos_job_pool(&[6, 7], &[3]);
    let mut detected_total = 0;
    let mut recovered_total = 0;
    for (label, kinds) in [
        ("drop", vec![FaultKind::Drop]),
        ("corrupt", vec![FaultKind::Corrupt]),
        ("duplicate", vec![FaultKind::Duplicate]),
        ("truncate", vec![FaultKind::Truncate]),
        ("mixed", INJECTABLE_FAULTS.to_vec()),
    ] {
        for rate in [10_000, 80_000, 400_000] {
            let report = run_chaos_cell(&specs, &kinds, label, 0xD0, rate, 5);
            assert!(
                report.never_silently_wrong(),
                "{label}@{rate}ppm: {} silently wrong, {} unexpected failure classes",
                report.silently_wrong,
                report.unexpected_failures
            );
            detected_total += report.faults_detected;
            recovered_total += report.recovered;
        }
    }
    assert!(detected_total > 0, "the grid injected nothing");
    assert!(recovered_total > 0, "no retry in the grid ever recovered");
}
