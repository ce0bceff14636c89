//! The chaos differential harness: every outcome served under a seeded
//! fault schedule must be **byte-identical to the fault-free run or a
//! clean typed error** — never silently wrong.
//!
//! [`run_chaos_cell`] drives one cell of the sweep: a pool of job specs is
//! submitted to a [`Server`] configured with a seeded
//! [`FaultPlan`] (one fault kind or a mix, at a parts-per-million rate)
//! and bounded retries; every `Ok` outcome is byte-compared against the
//! fault-free [`Server::run_direct`] reference, every `Err` outcome is
//! checked to be a typed failure class the recovery layer is allowed to
//! emit. The resulting [`ChaosReport`] carries the detection and recovery
//! counters E17 tabulates, and the whole cell is a pure function of
//! `(specs, kinds, seed, rate, retries)` — rerunning it replays the exact
//! same faults, retries and outcomes.

use clique_core::sim::transport::{FaultKind, FaultPlan};
use clique_serve::{JobSpec, ServeError, Server, ServerConfig};

/// What happened to one pool of jobs under one seeded fault plan.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosReport {
    /// Label of the injected kind set (a single kind name or `"mixed"`).
    pub(crate) kinds: String,
    /// Injection rate in parts per million of deliveries.
    pub(crate) rate_ppm: u32,
    /// Jobs submitted.
    pub(crate) jobs: usize,
    /// Jobs that came back `Ok`.
    pub(crate) served: usize,
    /// Served records that matched the fault-free reference byte-for-byte.
    pub(crate) served_identical: usize,
    /// Served records that *diverged* from the reference — the harness
    /// exists to pin this at zero.
    pub silently_wrong: usize,
    /// Jobs that came back as a typed failure.
    pub(crate) typed_failures: usize,
    /// Typed failures outside the classes chaos is allowed to produce
    /// (quarantine after transport faults/panics) — also pinned at zero.
    pub unexpected_failures: usize,
    /// Attempts that failed with a detected transport fault.
    pub faults_detected: u64,
    /// Re-executions beyond first attempts.
    pub(crate) retries: u64,
    /// Jobs that failed at least once and then succeeded on a retry.
    pub recovered: u64,
    /// Jobs that exhausted their retries and were quarantined.
    pub(crate) quarantined: u64,
}

impl ChaosReport {
    /// Fraction of damaged outcomes that surfaced as typed errors instead
    /// of silent corruption; `None` when the plan injected nothing.
    pub(crate) fn detection_rate(&self) -> Option<f64> {
        let damaged = self.faults_detected + self.silently_wrong as u64;
        (damaged > 0).then(|| self.faults_detected as f64 / damaged as f64)
    }

    /// Fraction of faulted jobs the retry layer brought back; `None` when
    /// no job ever faulted.
    pub(crate) fn recovery_rate(&self) -> Option<f64> {
        let faulted = self.recovered + self.quarantined;
        (faulted > 0).then(|| self.recovered as f64 / faulted as f64)
    }

    /// The never-silently-wrong invariant: every outcome was either
    /// byte-identical to fault-free or a clean typed error.
    pub fn never_silently_wrong(&self) -> bool {
        self.silently_wrong == 0 && self.unexpected_failures == 0
    }
}

/// The protocol pool the chaos sweep exercises: four registry protocols
/// spanning both models and both input kinds.
pub(crate) const CHAOS_PROTOCOLS: &[(&str, &str)] = &[
    ("mst", "weighted_random_tree"),
    ("triangle-count", "erdos_renyi(p=0.5)"),
    ("apsp", "erdos_renyi(p=0.15)"),
    ("c4-turan-sketch", "erdos_renyi(p=0.15)"),
];

/// Builds the job pool for one sweep: every `CHAOS_PROTOCOLS` entry at
/// every size and seed, bandwidth 8.
pub fn chaos_job_pool(sizes: &[usize], seeds: &[u64]) -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for &(protocol, family) in CHAOS_PROTOCOLS {
        for &n in sizes {
            for &seed in seeds {
                specs.push(if protocol == "mst" {
                    JobSpec::weighted(protocol, family, n, 8, 2 * n as u64, seed)
                } else {
                    JobSpec::unweighted(protocol, family, n, 8, seed)
                });
            }
        }
    }
    specs
}

/// Is `err` a failure class the chaos recovery layer is allowed to emit?
/// Injected faults surface as quarantines (after exhausted retries) whose
/// cause chain bottoms out in a transport fault or an isolated panic.
fn is_expected_chaos_failure(err: &ServeError) -> bool {
    match err {
        ServeError::Quarantined { cause, .. } => is_expected_chaos_failure(cause),
        ServeError::Sim(sim) => {
            matches!(sim, clique_core::sim::SimError::TransportFault { .. })
        }
        ServeError::Panic { .. } => true,
        _ => false,
    }
}

/// Runs one cell of the chaos sweep. See the module docs for the contract;
/// `kinds_label` only names the row (pass the kind's name, or `"mixed"`).
///
/// # Panics
///
/// Panics if the fault-free reference run of a spec fails — the pool must
/// contain only valid specs.
pub fn run_chaos_cell(
    specs: &[JobSpec],
    kinds: &[FaultKind],
    kinds_label: &str,
    seed: u64,
    rate_ppm: u32,
    max_retries: u32,
) -> ChaosReport {
    let mut server = Server::new(ServerConfig {
        workers: 2,
        max_retries,
        chaos: Some(FaultPlan::new(seed, rate_ppm, kinds)),
        ..ServerConfig::default()
    });
    let outcomes = server.submit_jobs(specs);
    let mut report = ChaosReport {
        kinds: kinds_label.to_owned(),
        rate_ppm,
        jobs: specs.len(),
        served: 0,
        served_identical: 0,
        silently_wrong: 0,
        typed_failures: 0,
        unexpected_failures: 0,
        faults_detected: 0,
        retries: 0,
        recovered: 0,
        quarantined: 0,
    };
    for outcome in &outcomes {
        match &outcome.result {
            Ok(result) => {
                report.served += 1;
                let reference =
                    Server::run_direct(&outcome.spec).expect("fault-free reference run failed");
                if result.record == reference {
                    report.served_identical += 1;
                } else {
                    report.silently_wrong += 1;
                }
            }
            Err(err) => {
                report.typed_failures += 1;
                if !is_expected_chaos_failure(err) {
                    report.unexpected_failures += 1;
                }
            }
        }
    }
    let faults = server.stats().faults;
    report.faults_detected = faults.faults_detected;
    report.retries = faults.retries;
    report.recovered = faults.recovered;
    report.quarantined = faults.quarantined;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_core::sim::transport::INJECTABLE_FAULTS;

    fn small_pool() -> Vec<JobSpec> {
        chaos_job_pool(&[6, 7], &[1])
    }

    #[test]
    fn zero_rate_cell_is_byte_identical_and_fault_free() {
        let report = run_chaos_cell(&small_pool(), &INJECTABLE_FAULTS, "mixed", 7, 0, 3);
        assert_eq!(report.served_identical, report.jobs);
        assert_eq!(report.typed_failures, 0);
        assert_eq!(report.faults_detected, 0);
        assert!(report.never_silently_wrong());
        assert!(report.detection_rate().is_none(), "nothing was injected");
    }

    #[test]
    fn saturated_cell_is_never_silently_wrong() {
        // Every delivery faults on every attempt: nothing can be served,
        // but every failure must still be typed.
        let report = run_chaos_cell(&small_pool(), &INJECTABLE_FAULTS, "mixed", 7, 1_000_000, 1);
        assert_eq!(report.served, 0);
        assert_eq!(report.typed_failures, report.jobs);
        assert!(report.never_silently_wrong());
        assert_eq!(report.detection_rate(), Some(1.0));
        assert_eq!(report.recovery_rate(), Some(0.0));
    }

    #[test]
    fn chaos_cells_replay_deterministically() {
        let pool = small_pool();
        let a = run_chaos_cell(&pool, &[FaultKind::Corrupt], "corrupt", 3, 120_000, 4);
        let b = run_chaos_cell(&pool, &[FaultKind::Corrupt], "corrupt", 3, 120_000, 4);
        assert_eq!(a, b, "a seeded chaos cell replayed differently");
        assert!(a.never_silently_wrong());
    }
}
