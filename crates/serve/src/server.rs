//! The job server: a sharded, batching worker fleet fronted by the
//! transcript cache, with a recovery layer for faulty executions.
//!
//! [`Server::submit_jobs`] is the one submission path. It takes a slice of
//! [`JobSpec`]s and returns one [`JobOutcome`] per spec, in submission
//! order — each either a served [`JobResult`] or a typed [`ServeError`];
//! one poisoned job never takes down its batch. Jobs whose canonical key
//! is cached are answered without running anything; the remaining *unique*
//! keys are sharded across `workers` by an FNV-1a hash of the key and
//! processed in waves — each wave is a single [`par::map`] spawn in which
//! every worker drains up to `batch_size` jobs of its own shard, so small
//! jobs amortize thread-spawn cost instead of paying it per job.
//!
//! The recovery layer (all knobs on [`ServerConfig`]):
//!
//! * **Panic isolation** — every execution attempt runs under
//!   `catch_unwind`; a panicking job becomes [`ServeError::Panic`] for that
//!   job alone instead of unwinding through the wave.
//! * **Bounded deterministic retry** — a transient failure (transport
//!   fault or panic) is re-attempted in the next wave, up to
//!   [`ServerConfig::max_retries`] times. Under a [`ServerConfig::chaos`]
//!   plan, each `(job, attempt)` pair salts the plan deterministically, so
//!   retries can genuinely clear an injected fault while the whole history
//!   stays a pure function of the submission sequence.
//! * **Quarantine** — a job that exhausts its retries is quarantined:
//!   later submissions of the same key are answered immediately with
//!   [`ServeError::Quarantined`] (carrying the original cause) for the
//!   server's lifetime.
//! * **Cache degradation** — with [`ServerConfig::verify_hits`], a hit
//!   that fails its byte-compare is replaced by the fresh recomputation,
//!   which is served instead (counted in [`FaultStats::cache_divergences`]),
//!   so a damaged cache degrades to recomputation, never to a wrong answer.
//!
//! Correctness never depends on the cache: every record is a deterministic
//! function of its key, and [`ServerConfig::verify_hits`] makes the server
//! prove it per hit by recomputing and byte-comparing.

use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use clique_core::mst;
use clique_core::registry::{self, InputKind, ProtocolRun, RunOptions};
use clique_core::sim::transport::FaultPlan;
use clique_core::sim::{par, Metrics, SimError};

use crate::cache::{CacheStats, TranscriptCache};
use crate::spec::JobSpec;

/// Configuration of a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker-fleet size jobs are sharded across.
    pub workers: usize,
    /// Maximum jobs one worker runs per wave (the batching grain).
    pub batch_size: usize,
    /// Transcript-cache capacity bound.
    pub cache_capacity: usize,
    /// When set, every cache hit is re-executed and byte-compared against
    /// the stored record; a divergent entry is replaced by the fresh
    /// recomputation, which is served (see [`FaultStats::cache_divergences`]).
    pub verify_hits: bool,
    /// Extra attempts granted to a job whose failure is transient (a
    /// transport fault or a panic); `0` quarantines on the first such
    /// failure. Deterministic errors are never retried.
    pub max_retries: u32,
    /// Deterministic fault-injection plan applied to every execution
    /// attempt, salted per `(job key, attempt)` — the chaos-testing knob.
    pub chaos: Option<FaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            batch_size: 8,
            cache_capacity: 1024,
            verify_hits: false,
            max_retries: 0,
            chaos: None,
        }
    }
}

/// Everything that can go wrong serving a job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The spec names a protocol id absent from the registry.
    UnknownProtocol(String),
    /// The spec names an input family the protocol's kind does not accept.
    UnknownFamily {
        /// The protocol id of the spec.
        protocol: String,
        /// The rejected family name.
        family: String,
    },
    /// A structurally invalid spec (zero sizes, missing weight bound).
    InvalidSpec {
        /// Canonical key of the offending spec.
        key: String,
        /// What is wrong with it.
        reason: &'static str,
    },
    /// The underlying simulation failed — including
    /// [`SimError::TransportFault`] for a delivery lost or damaged in
    /// flight (the transient class the retry layer re-attempts).
    Sim(SimError),
    /// The job's execution panicked; the panic was caught at the job
    /// boundary and the rest of the wave was unaffected.
    Panic {
        /// Canonical key of the panicking job.
        key: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The job's key is quarantined: an earlier submission exhausted its
    /// retries. Nothing was executed for this submission.
    Quarantined {
        /// Canonical key of the quarantined job.
        key: String,
        /// Attempts the quarantining submission consumed.
        attempts: u32,
        /// The failure that exhausted the retries.
        cause: Box<ServeError>,
    },
    /// A server-side bookkeeping invariant broke. Fails the affected job,
    /// not the process.
    Internal {
        /// Which invariant broke.
        context: &'static str,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownProtocol(id) => write!(f, "unknown protocol id {id:?}"),
            ServeError::UnknownFamily { protocol, family } => {
                write!(
                    f,
                    "protocol {protocol:?} accepts no input family {family:?}"
                )
            }
            ServeError::InvalidSpec { key, reason } => {
                write!(f, "invalid job spec {key}: {reason}")
            }
            ServeError::Sim(err) => write!(f, "simulation failed: {err}"),
            ServeError::Panic { key, message } => {
                write!(f, "job {key} panicked: {message}")
            }
            ServeError::Quarantined {
                key,
                attempts,
                cause,
            } => {
                write!(
                    f,
                    "job {key} is quarantined after {attempts} attempts: {cause}"
                )
            }
            ServeError::Internal { context } => {
                write!(f, "internal server invariant broke: {context}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Sim(err) => Some(err),
            ServeError::Quarantined { cause, .. } => Some(cause.as_ref()),
            _ => None,
        }
    }
}

impl From<SimError> for ServeError {
    fn from(err: SimError) -> Self {
        ServeError::Sim(err)
    }
}

/// One served job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobResult {
    /// The encoded run record (output digest + full ledger; see
    /// [`Server::run_direct`]).
    pub record: String,
    /// True when the record came from the transcript cache.
    pub cached: bool,
}

/// The per-job return of [`Server::submit_jobs`]: a served record or a
/// typed failure, plus how much work the submission cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobOutcome {
    /// The spec as submitted.
    pub spec: JobSpec,
    /// Its canonical cache key.
    pub key: String,
    /// Execution attempts this submission consumed: 1 for a verified cache
    /// hit (its recomputation), 0 for an unverified hit, a quarantine
    /// answer or a rejected spec.
    pub attempts: u32,
    /// The served record, or why the job failed.
    pub result: Result<JobResult, ServeError>,
}

/// Fault and recovery counters of a [`Server`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Attempts that failed with a detected transport fault.
    pub faults_detected: u64,
    /// Attempts that panicked and were isolated.
    pub(crate) panics: u64,
    /// Re-executions beyond each job's first attempt.
    pub retries: u64,
    /// Jobs that failed at least once and then succeeded on a retry.
    pub recovered: u64,
    /// Jobs moved to the quarantine list (retries exhausted).
    pub quarantined: u64,
    /// Submissions answered from the quarantine list without running.
    pub(crate) quarantine_hits: u64,
    /// Verified cache hits that failed their byte-compare (entry replaced,
    /// fresh record served).
    pub cache_divergences: u64,
}

/// Lifetime counters of a [`Server`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs submitted (including cache hits and duplicates).
    pub jobs: u64,
    /// Jobs actually executed by the fleet.
    pub ran: u64,
    /// Waves dispatched (= `par::map` spawns).
    pub waves: u64,
    /// Transcript-cache counters.
    pub cache: CacheStats,
    /// Fault and recovery counters.
    pub faults: FaultStats,
}

/// A quarantined key: the failure that exhausted its retries.
#[derive(Clone, Debug)]
struct QuarantineEntry {
    cause: ServeError,
    attempts: u32,
}

/// One unique uncached key being executed by the wave loop.
struct PendingJob {
    spec_idx: usize,
    key: String,
    attempts: u32,
    resolution: Option<Result<String, ServeError>>,
}

/// A submission after pass 1 of [`Server::submit_jobs`]: answered already,
/// or waiting on the pending job in the given slot.
enum Slot {
    Answered(JobOutcome),
    Pending(usize),
}

/// A sharded, caching simulation job server.
#[derive(Debug)]
pub struct Server {
    config: ServerConfig,
    cache: TranscriptCache,
    quarantine: HashMap<String, QuarantineEntry>,
    jobs: u64,
    ran: u64,
    waves: u64,
    faults: FaultStats,
}

impl Server {
    /// Creates a server.
    ///
    /// # Panics
    ///
    /// Panics if `workers`, `batch_size` or `cache_capacity` is zero.
    pub fn new(config: ServerConfig) -> Self {
        assert!(config.workers > 0, "server needs at least one worker");
        assert!(config.batch_size > 0, "batch size must be positive");
        Self {
            cache: TranscriptCache::new(config.cache_capacity),
            config,
            quarantine: HashMap::new(),
            jobs: 0,
            ran: 0,
            waves: 0,
            faults: FaultStats::default(),
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            jobs: self.jobs,
            ran: self.ran,
            waves: self.waves,
            cache: self.cache.stats(),
            faults: self.faults,
        }
    }

    /// Chaos-testing seam: plants (or overwrites) a cache record for
    /// `spec` without running anything — how the tests prove
    /// [`ServerConfig::verify_hits`] catches a corrupted entry. Not part
    /// of the serving contract.
    pub fn inject_cache_record(&mut self, spec: &JobSpec, record: String) {
        self.cache.insert(spec.canonical_json(), record);
    }

    /// Serves a batch: one [`JobOutcome`] per spec in submission order,
    /// failures typed per job instead of failing the batch. Unique uncached
    /// keys are sharded across the fleet and run in waves; a transient
    /// failure retries in the next wave, up to
    /// [`ServerConfig::max_retries`] times, and an exhausted job is
    /// quarantined. The whole outcome sequence is a pure function of the
    /// server's configuration and submission history.
    pub fn submit_jobs(&mut self, specs: &[JobSpec]) -> Vec<JobOutcome> {
        self.jobs += specs.len() as u64;

        // Pass 1: validation, quarantine answers and cache resolution;
        // unique uncached keys become pending jobs in first-appearance
        // order, and every submission of one records its slot.
        let mut slots: Vec<Slot> = Vec::with_capacity(specs.len());
        let mut pending: Vec<PendingJob> = Vec::new();
        let mut slot_of: HashMap<String, usize> = HashMap::new();
        for (idx, spec) in specs.iter().enumerate() {
            let key = spec.canonical_json();
            let answer = |attempts, result| {
                Slot::Answered(JobOutcome {
                    spec: spec.clone(),
                    key: key.clone(),
                    attempts,
                    result,
                })
            };
            if let Err(err) = validate(spec) {
                slots.push(answer(0, Err(err)));
                continue;
            }
            if let Some(entry) = self.quarantine.get(&key) {
                self.faults.quarantine_hits += 1;
                slots.push(answer(
                    0,
                    Err(ServeError::Quarantined {
                        key: key.clone(),
                        attempts: entry.attempts,
                        cause: Box::new(entry.cause.clone()),
                    }),
                ));
                continue;
            }
            let slot = match self.cache.get(&key) {
                Some(record) => {
                    let (attempts, result) = self.resolve_hit(spec, &key, record);
                    answer(attempts, result)
                }
                None => Slot::Pending(*slot_of.entry(key.clone()).or_insert_with(|| {
                    pending.push(PendingJob {
                        spec_idx: idx,
                        key,
                        attempts: 0,
                        resolution: None,
                    });
                    pending.len() - 1
                })),
            };
            slots.push(slot);
        }

        // Pass 2: the wave loop. Every unresolved pending job is sharded by
        // key hash; each wave is one `par::map` spawn in which every worker
        // attempts up to `batch_size` jobs of its own shard (panics caught
        // per job), and a full shard's remainder waits for the next wave.
        let workers = self.config.workers;
        let max_attempts = self.config.max_retries.saturating_add(1);
        let chaos = self.config.chaos;
        loop {
            let mut shards: Vec<Vec<usize>> = vec![Vec::new(); workers];
            for (slot, job) in pending.iter().enumerate() {
                if job.resolution.is_some() {
                    continue;
                }
                let shard = &mut shards[(fnv64(job.key.as_bytes()) % workers as u64) as usize];
                if shard.len() < self.config.batch_size {
                    shard.push(slot);
                }
            }
            if shards.iter().all(Vec::is_empty) {
                break;
            }
            let wave_results: Vec<Vec<(usize, Result<String, ServeError>)>> =
                par::map(workers, workers, |w| {
                    shards[w]
                        .iter()
                        .map(|&slot| {
                            let job = &pending[slot];
                            let spec = &specs[job.spec_idx];
                            (slot, attempt(spec, chaos, &job.key, job.attempts))
                        })
                        .collect()
                });
            self.waves += 1;
            for (slot, result) in wave_results.into_iter().flatten() {
                let job = &mut pending[slot];
                job.attempts += 1;
                if job.attempts > 1 {
                    self.faults.retries += 1;
                }
                let err = match result {
                    Ok(record) => {
                        if job.attempts > 1 {
                            self.faults.recovered += 1;
                        }
                        job.resolution = Some(Ok(record));
                        continue;
                    }
                    Err(err) => err,
                };
                // Transport faults and panics are transient: a salted chaos
                // schedule can clear on the next attempt, so a transient
                // failure with attempts left stays unresolved and the next
                // wave retries it. Everything else is a deterministic
                // function of the spec and would fail identically.
                let transient = match &err {
                    ServeError::Sim(SimError::TransportFault { .. }) => {
                        self.faults.faults_detected += 1;
                        true
                    }
                    ServeError::Panic { .. } => {
                        self.faults.panics += 1;
                        true
                    }
                    _ => false,
                };
                if !transient {
                    job.resolution = Some(Err(err));
                } else if job.attempts >= max_attempts {
                    self.faults.quarantined += 1;
                    self.quarantine.insert(
                        job.key.clone(),
                        QuarantineEntry {
                            cause: err.clone(),
                            attempts: job.attempts,
                        },
                    );
                    job.resolution = Some(Err(ServeError::Quarantined {
                        key: job.key.clone(),
                        attempts: job.attempts,
                        cause: Box::new(err),
                    }));
                }
            }
        }

        // Pass 3: cache fresh successes (first-appearance order) and fill
        // every pending submission from its job.
        for job in &pending {
            if let Some(Ok(record)) = &job.resolution {
                self.cache.insert(job.key.clone(), record.clone());
                self.ran += 1;
            }
        }
        specs
            .iter()
            .zip(slots)
            .map(|(spec, slot)| {
                let job = match slot {
                    Slot::Answered(outcome) => return outcome,
                    Slot::Pending(slot) => &pending[slot],
                };
                let result = match &job.resolution {
                    Some(Ok(record)) => Ok(JobResult {
                        record: record.clone(),
                        cached: false,
                    }),
                    Some(Err(err)) => Err(err.clone()),
                    None => Err(ServeError::Internal {
                        context: "wave loop left a pending job unresolved",
                    }),
                };
                JobOutcome {
                    spec: spec.clone(),
                    key: job.key.clone(),
                    attempts: job.attempts,
                    result,
                }
            })
            .collect()
    }

    /// Resolves one cache hit to `(attempts, result)`, optionally
    /// verifying it; a divergent entry is replaced by the fresh
    /// recomputation, which is served (cache degradation — the cache can
    /// slow the server down, never make it wrong).
    fn resolve_hit(
        &mut self,
        spec: &JobSpec,
        key: &str,
        record: String,
    ) -> (u32, Result<JobResult, ServeError>) {
        if !self.config.verify_hits {
            return (
                0,
                Ok(JobResult {
                    record,
                    cached: true,
                }),
            );
        }
        let result = attempt(spec, None, key, 0).map(|fresh| {
            if fresh == record {
                return JobResult {
                    record,
                    cached: true,
                };
            }
            self.faults.cache_divergences += 1;
            self.cache.insert(key.to_owned(), fresh.clone());
            JobResult {
                record: fresh,
                cached: false,
            }
        });
        (1, result)
    }

    /// Runs `spec` directly — no cache, no fleet, no chaos, no recovery.
    /// The reference the differential tests compare served records
    /// against.
    ///
    /// # Errors
    ///
    /// Fails on an invalid spec or any [`SimError`] of the run.
    pub fn run_direct(spec: &JobSpec) -> Result<String, ServeError> {
        validate(spec)?;
        let run = run_registry(spec, None)?;
        Ok(encode_record(&run.output, &run.metrics))
    }
}

/// One isolated execution attempt: the chaos plan (if any) is salted by
/// `(key, attempt)` and panics are caught at the job boundary.
fn attempt(
    spec: &JobSpec,
    chaos: Option<FaultPlan>,
    key: &str,
    attempt_no: u32,
) -> Result<String, ServeError> {
    let fault = chaos.map(|plan| plan.salted(fnv64(key.as_bytes()) ^ u64::from(attempt_no)));
    match catch_unwind(AssertUnwindSafe(|| run_registry(spec, fault))) {
        Ok(run) => {
            let run = run?;
            Ok(encode_record(&run.output, &run.metrics))
        }
        Err(payload) => Err(ServeError::Panic {
            key: key.to_owned(),
            message: panic_message(payload.as_ref()),
        }),
    }
}

/// Dispatches a validated spec through the protocol registry.
fn run_registry(spec: &JobSpec, fault: Option<FaultPlan>) -> Result<ProtocolRun, ServeError> {
    let entry = registry::find(&spec.protocol).ok_or(ServeError::Internal {
        context: "validated spec lost its registry entry",
    })?;
    let input =
        registry::generate_input(entry.kind, &spec.family, spec.n, spec.seed, spec.max_weight)
            .ok_or(ServeError::Internal {
                context: "validated spec lost its input family",
            })?;
    let options = RunOptions {
        bandwidth: spec.bandwidth,
        fault,
    };
    entry.run(&input, &options).map_err(ServeError::Sim)
}

/// Renders a caught panic payload (the common `&str` / `String` cases).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_owned()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Rejects structurally invalid specs before any work is scheduled.
fn validate(spec: &JobSpec) -> Result<(), ServeError> {
    let entry = registry::find(&spec.protocol)
        .ok_or_else(|| ServeError::UnknownProtocol(spec.protocol.clone()))?;
    let known = match entry.kind {
        InputKind::Unweighted => registry::UNWEIGHTED_FAMILIES,
        InputKind::Weighted => registry::WEIGHTED_FAMILIES,
    };
    if !known.contains(&spec.family.as_str()) {
        return Err(ServeError::UnknownFamily {
            protocol: spec.protocol.clone(),
            family: spec.family.clone(),
        });
    }
    let invalid = |reason| {
        Err(ServeError::InvalidSpec {
            key: spec.canonical_json(),
            reason,
        })
    };
    if spec.n == 0 {
        return invalid("n must be positive");
    }
    if spec.bandwidth == 0 {
        return invalid("bandwidth must be positive");
    }
    if entry.kind == InputKind::Weighted {
        if spec.max_weight == 0 {
            return invalid("weighted families need max_weight >= 1");
        }
        // Weighted inputs feed `mst`, whose edge keys must fit its sketch
        // field; rejecting here keeps the bound from surfacing as a panic.
        if mst::edge_key_universe(spec.n, spec.max_weight).is_none() {
            return invalid("edge-key universe (max_weight + 1)·n² must stay below 2^30");
        }
    }
    Ok(())
}

/// Encodes a run as the canonical record stored in the cache: the output
/// digest, the flat ledger, and an FNV-1a digest of the full phase trail
/// (so the record pins every per-phase ledger row without storing it).
pub fn encode_record(output: &str, metrics: &Metrics) -> String {
    let mut trail = Vec::new();
    for phase in &metrics.phases {
        trail.extend_from_slice(phase.label.as_bytes());
        trail.extend_from_slice(&phase.rounds.to_le_bytes());
        trail.extend_from_slice(&phase.bits.to_le_bytes());
        trail.extend_from_slice(&phase.messages.to_le_bytes());
        trail.extend_from_slice(&phase.max_link_bits_per_round.to_le_bytes());
        // A constant zero byte closes each row: the pinned phase digests
        // and cached records include it.
        trail.push(0);
    }
    format!(
        "{{\"output\":{},\"rounds\":{},\"total_bits\":{},\"messages\":{},\
         \"max_link_bits_per_round\":{},\"phases\":{},\"phase_digest\":\"{:016x}\"}}",
        output,
        metrics.rounds,
        metrics.total_bits,
        metrics.messages,
        metrics.max_link_bits_per_round,
        metrics.phases.len(),
        fnv64(&trail)
    )
}

/// FNV-1a: the shard function, the chaos-plan salt and the phase-trail
/// digest. Fast, dependency-free and stable across platforms (so a given
/// key always lands on the same worker).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_core::sim::transport::INJECTABLE_FAULTS;

    fn mst_spec(n: usize, seed: u64) -> JobSpec {
        JobSpec::weighted("mst", "weighted_random_tree", n, 8, 7, seed)
    }

    /// Serves `spec` as a one-job batch.
    fn serve(server: &mut Server, spec: &JobSpec) -> Result<JobResult, ServeError> {
        server
            .submit_jobs(std::slice::from_ref(spec))
            .remove(0)
            .result
    }

    /// Serves `specs`, requiring every job to succeed.
    fn serve_all(server: &mut Server, specs: &[JobSpec]) -> Vec<JobResult> {
        server
            .submit_jobs(specs)
            .into_iter()
            .map(|outcome| outcome.result.unwrap())
            .collect()
    }

    #[test]
    fn cold_then_warm_serves_identical_records() {
        let mut server = Server::new(ServerConfig::default());
        let spec = mst_spec(10, 0x5EED);
        let cold = serve(&mut server, &spec).unwrap();
        assert!(!cold.cached);
        let warm = serve(&mut server, &spec).unwrap();
        assert!(warm.cached);
        assert_eq!(cold.record, warm.record);
        assert_eq!(cold.record, Server::run_direct(&spec).unwrap());
        let stats = server.stats();
        assert_eq!(stats.jobs, 2);
        assert_eq!(stats.ran, 1);
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.cache.misses, 1);
        assert_eq!(stats.faults, FaultStats::default());
    }

    #[test]
    fn duplicates_in_one_batch_run_once() {
        let mut server = Server::new(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        });
        let spec = mst_spec(8, 1);
        let other = mst_spec(8, 2);
        let results = serve_all(&mut server, &[spec.clone(), other, spec]);
        assert_eq!(server.stats().ran, 2, "duplicate key ran once");
        assert_eq!(results[0].record, results[2].record);
        assert!(
            !results[2].cached,
            "same-batch duplicate is not a cache hit"
        );
        assert_ne!(results[0].record, results[1].record);
    }

    #[test]
    fn sharded_fleet_matches_direct_runs() {
        let mut server = Server::new(ServerConfig {
            workers: 4,
            batch_size: 2,
            ..ServerConfig::default()
        });
        let specs: Vec<JobSpec> = (0..9).map(|i| mst_spec(6 + i % 3, i as u64)).collect();
        let results = serve_all(&mut server, &specs);
        for (spec, result) in specs.iter().zip(&results) {
            assert_eq!(result.record, Server::run_direct(spec).unwrap());
        }
        assert!(server.stats().waves >= 2, "batching forced multiple waves");
    }

    #[test]
    fn verify_hits_accepts_deterministic_entries() {
        let mut server = Server::new(ServerConfig {
            verify_hits: true,
            ..ServerConfig::default()
        });
        let spec = JobSpec::unweighted("triangle-count", "erdos_renyi(p=0.5)", 9, 16, 3);
        let cold = serve(&mut server, &spec).unwrap();
        let warm = serve(&mut server, &spec).unwrap();
        assert!(warm.cached);
        assert_eq!(cold.record, warm.record);
        assert_eq!(server.stats().faults.cache_divergences, 0);
    }

    #[test]
    fn verify_hits_catches_and_degrades_a_corrupted_cache_entry() {
        let mut server = Server::new(ServerConfig {
            verify_hits: true,
            ..ServerConfig::default()
        });
        let spec = mst_spec(9, 0xBAD);
        server.inject_cache_record(&spec, "{\"output\":\"garbage\"}".to_owned());
        let served = server.submit_jobs(std::slice::from_ref(&spec)).remove(0);
        assert_eq!(served.attempts, 1, "verification is one recomputation");
        let served = served.result.unwrap();
        assert!(!served.cached, "a divergent hit is not served as cached");
        assert_eq!(served.record, Server::run_direct(&spec).unwrap());
        assert_eq!(server.stats().faults.cache_divergences, 1);
        // The divergent entry was replaced by the fresh record: the next
        // hit verifies cleanly.
        let warm = serve(&mut server, &spec).unwrap();
        assert!(warm.cached);
        assert_eq!(server.stats().faults.cache_divergences, 1);
        assert_eq!(server.stats().cache.evictions, 0);
    }

    #[test]
    fn submit_jobs_types_invalid_specs_per_job() {
        let mut server = Server::new(ServerConfig::default());
        let invalid = |outcome: &JobOutcome| match &outcome.result {
            Err(ServeError::UnknownProtocol(_)) => "protocol",
            Err(ServeError::UnknownFamily { .. }) => "family",
            Err(ServeError::InvalidSpec { .. }) => "spec",
            other => panic!("{} was not rejected: {other:?}", outcome.key),
        };
        let outcomes = server.submit_jobs(&[
            mst_spec(8, 1),
            JobSpec::unweighted("no-such", "path", 4, 1, 0),
            JobSpec::unweighted("apsp", "weighted_path", 4, 1, 0),
            JobSpec::unweighted("apsp", "path", 0, 1, 0),
            JobSpec::weighted("mst", "weighted_path", 4, 8, 0, 0),
            // Edge-key universes at or past 2^30, including a weight bound
            // whose `+ 1` would overflow, are rejected before the generator
            // or the protocol can panic.
            JobSpec::weighted("mst", "weighted_path", 96, 7, 1 << 20, 1),
            JobSpec::weighted("mst", "weighted_path", 96, 7, u64::MAX, 1),
            mst_spec(8, 2),
        ]);
        assert!(outcomes[0].result.is_ok());
        let rejected: Vec<&str> = outcomes[1..7].iter().map(invalid).collect();
        assert_eq!(
            rejected,
            ["protocol", "family", "spec", "spec", "spec", "spec"]
        );
        assert!(outcomes.iter().all(|o| o.result.is_ok() || o.attempts == 0));
        assert!(outcomes[7].result.is_ok(), "a bad spec fails only itself");
        let stats = server.stats();
        assert_eq!((stats.jobs, stats.ran), (8, 2));
        assert_eq!(stats.faults.panics, 0);
    }

    #[test]
    fn panicking_job_is_isolated_and_quarantined() {
        let mut server = Server::new(ServerConfig {
            workers: 1,
            batch_size: 2,
            max_retries: 2,
            ..ServerConfig::default()
        });
        // chaos-probe panics deterministically on odd n; its batch-mates
        // must come through unharmed.
        let probe = JobSpec::unweighted("chaos-probe", "path", 5, 4, 0);
        let outcomes = server.submit_jobs(&[probe.clone(), mst_spec(8, 3), mst_spec(8, 4)]);
        match &outcomes[0].result {
            Err(ServeError::Quarantined {
                attempts, cause, ..
            }) => {
                assert_eq!(*attempts, 3, "1 attempt + 2 retries");
                assert!(matches!(cause.as_ref(), ServeError::Panic { .. }));
            }
            other => panic!("expected quarantine after panics, got {other:?}"),
        }
        assert!(outcomes[1].result.is_ok(), "batch-mate survived the panic");
        assert!(outcomes[2].result.is_ok(), "batch-mate survived the panic");
        let stats = server.stats();
        assert_eq!(stats.faults.panics, 3);
        assert_eq!(stats.faults.retries, 2);
        assert_eq!(stats.faults.quarantined, 1);
        // Each retry rides in the very next wave, beside the job the first
        // wave had no room for.
        assert_eq!(stats.waves, 3);

        // Quarantined keys are answered without running.
        let again = server.submit_jobs(std::slice::from_ref(&probe));
        assert_eq!(again[0].attempts, 0);
        assert!(matches!(
            again[0].result,
            Err(ServeError::Quarantined { .. })
        ));
        assert_eq!(server.stats().faults.quarantine_hits, 1);
        assert_eq!(server.quarantine.len(), 1);
    }

    #[test]
    fn chaos_outcomes_are_never_silently_wrong_and_retries_recover() {
        let chaos = FaultPlan::new(0xC4A05, 100_000, &INJECTABLE_FAULTS);
        let mut server = Server::new(ServerConfig {
            workers: 2,
            max_retries: 6,
            chaos: Some(chaos),
            ..ServerConfig::default()
        });
        let specs: Vec<JobSpec> = (0..6).map(|i| mst_spec(7 + i % 2, i as u64)).collect();
        let outcomes = server.submit_jobs(&specs);
        for outcome in &outcomes {
            match &outcome.result {
                Ok(result) => assert_eq!(
                    result.record,
                    Server::run_direct(&outcome.spec).unwrap(),
                    "a served record under chaos diverged"
                ),
                Err(err) => assert!(
                    matches!(err, ServeError::Quarantined { .. }),
                    "unexpected failure class: {err}"
                ),
            }
        }
        let stats = server.stats().faults;
        assert!(
            stats.faults_detected > 0,
            "a 10% plan injected nothing across {} jobs",
            specs.len()
        );
        assert!(stats.recovered > 0, "no retry recovered at 10%");
        assert!(stats.quarantined > 0, "no job exhausted its retries at 10%");

        // Determinism of retries: an identical server replays the exact
        // same outcome sequence, wave count and counters.
        let mut replay = Server::new(ServerConfig {
            workers: 2,
            max_retries: 6,
            chaos: Some(chaos),
            ..ServerConfig::default()
        });
        assert_eq!(replay.submit_jobs(&specs), outcomes);
        assert_eq!(replay.stats(), server.stats());
    }

    #[test]
    fn zero_rate_chaos_is_byte_identical_to_clean_serving() {
        let mut clean = Server::new(ServerConfig::default());
        let mut chaotic = Server::new(ServerConfig {
            chaos: Some(FaultPlan::new(5, 0, &INJECTABLE_FAULTS)),
            max_retries: 3,
            ..ServerConfig::default()
        });
        let specs: Vec<JobSpec> = (0..4).map(|i| mst_spec(6 + i, i as u64)).collect();
        let a = clean.submit_jobs(&specs);
        assert!(a.iter().all(|outcome| outcome.result.is_ok()));
        assert_eq!(a, chaotic.submit_jobs(&specs));
        assert_eq!(chaotic.stats().faults, FaultStats::default());
    }
}
