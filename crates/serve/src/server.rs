//! The job server: a sharded, batching worker fleet fronted by the
//! transcript cache, with a recovery layer for faulty executions.
//!
//! [`Server::submit_jobs`] takes a slice of [`JobSpec`]s and returns one
//! [`JobOutcome`] per spec, in submission order — each either a served
//! [`JobResult`] or a typed [`ServeError`]; one poisoned job never takes
//! down its batch. Jobs whose canonical key is cached are answered without
//! running anything; the remaining *unique* keys are sharded across
//! `workers` by an FNV-1a hash of the key and processed in waves — each
//! wave is a single [`par::map`] spawn in which every worker drains up to
//! `batch_size` jobs of its own shard, so small jobs amortize thread-spawn
//! cost instead of paying it per job.
//!
//! The recovery layer (all knobs on [`ServerConfig`]):
//!
//! * **Panic isolation** — every execution attempt runs under
//!   `catch_unwind`; a panicking job becomes [`ServeError::Panic`] for that
//!   job alone instead of unwinding through the wave.
//! * **Bounded deterministic retry** — transient failures (transport
//!   faults, panics) are re-attempted up to [`ServerConfig::max_retries`]
//!   times with an attempt-count-based backoff (`2^attempt` waves, no wall
//!   clock), so a retried schedule replays identically. Under a
//!   [`ServerConfig::chaos`] plan, each `(job, attempt)` pair salts the
//!   plan deterministically, so retries can genuinely clear an injected
//!   fault while the whole history stays a pure function of the submission
//!   sequence.
//! * **Quarantine** — a job that exhausts its retries is quarantined:
//!   later submissions of the same key are answered immediately with
//!   [`ServeError::Quarantined`] (carrying the original cause) until
//!   [`Server::release_quarantined`].
//! * **Budget ceilings** — [`ServerConfig::max_rounds`] /
//!   [`ServerConfig::max_bits`] convert runaway jobs into
//!   [`ServeError::BudgetExceeded`] (deterministic, never retried).
//! * **Cache degradation** — with [`ServerConfig::verify_hits`], a hit
//!   that fails its byte-compare is evicted and the fresh recomputation is
//!   served instead (counted in [`FaultStats::cache_divergences`]), so a
//!   damaged cache degrades to recomputation, never to a wrong answer.
//!
//! [`Server::submit_batch`] keeps the PR 7 all-or-first-error contract on
//! top of [`Server::submit_jobs`]. Correctness never depends on the cache:
//! every record is a deterministic function of its key, and
//! [`ServerConfig::verify_hits`] makes the server prove it per hit by
//! recomputing and byte-comparing.

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
    /// the stored record; a divergent entry is evicted and the fresh
    /// recomputation is served (see [`FaultStats::cache_divergences`]).
    pub verify_hits: bool,
    /// Extra attempts granted to a job whose failure is transient (a
    /// transport fault or a panic); `0` quarantines on the first such
    /// failure. Deterministic errors are never retried.
    pub max_retries: u32,
    /// Per-job round ceiling: a run charging more rounds becomes
    /// [`ServeError::BudgetExceeded`].
    pub max_rounds: Option<u64>,
    /// Per-job total-bit ceiling, as [`Self::max_rounds`].
    pub max_bits: Option<u64>,
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
            max_rounds: None,
            max_bits: None,
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
    /// A verified cache hit did not match its recomputation. The server
    /// degrades (evicts the entry and serves the fresh record) rather than
    /// failing the job, so this variant reaches callers only as a
    /// quarantine cause or from external cache consumers.
    CacheDivergence {
        /// Canonical key of the divergent entry.
        key: String,
    },
    /// The job's execution panicked; the panic was caught at the job
    /// boundary and the rest of the wave was unaffected.
    Panic {
        /// Canonical key of the panicking job.
        key: String,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The run completed but charged more than the configured per-job
    /// ceiling ([`ServerConfig::max_rounds`] / [`ServerConfig::max_bits`]).
    BudgetExceeded {
        /// Canonical key of the runaway job.
        key: String,
        /// Rounds the run charged.
        rounds: u64,
        /// Total bits the run charged.
        bits: u64,
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
            ServeError::CacheDivergence { key } => {
                write!(f, "cache entry for {key} diverged from a fresh run")
            }
            ServeError::Panic { key, message } => {
                write!(f, "job {key} panicked: {message}")
            }
            ServeError::BudgetExceeded { key, rounds, bits } => {
                write!(
                    f,
                    "job {key} exceeded its budget ({rounds} rounds, {bits} bits)"
                )
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

/// Transient failures are worth retrying: a salted chaos schedule (or a
/// flaky backend) can clear on the next attempt. Everything else is a
/// deterministic function of the spec and would fail identically.
fn is_transient(err: &ServeError) -> bool {
    matches!(
        err,
        ServeError::Sim(SimError::TransportFault { .. }) | ServeError::Panic { .. }
    )
}

/// One served job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobResult {
    /// The spec as submitted.
    pub spec: JobSpec,
    /// Its canonical cache key.
    pub key: String,
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
    /// Execution attempts this submission consumed (0 for cache hits,
    /// quarantine answers and rejected specs).
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
    pub panics: u64,
    /// Jobs whose run exceeded a configured budget ceiling.
    pub budget_exceeded: u64,
    /// Re-executions beyond each job's first attempt.
    pub retries: u64,
    /// Jobs that failed at least once and then succeeded on a retry.
    pub recovered: u64,
    /// Jobs moved to the quarantine list (retries exhausted).
    pub quarantined: u64,
    /// Submissions answered from the quarantine list without running.
    pub quarantine_hits: u64,
    /// Verified cache hits that failed their byte-compare (entry evicted,
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
    next_wave: u64,
    resolution: Option<Result<String, ServeError>>,
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

    /// The configuration the server was built with.
    pub fn config(&self) -> ServerConfig {
        self.config
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

    /// The quarantined keys with the attempt count that exhausted each, in
    /// sorted key order (deterministic).
    pub fn quarantined(&self) -> Vec<(String, u32)> {
        let mut keys: Vec<(String, u32)> = self
            .quarantine
            .iter()
            .map(|(key, entry)| (key.clone(), entry.attempts))
            .collect();
        keys.sort();
        keys
    }

    /// Releases `spec` from quarantine so the next submission runs again.
    /// Returns whether the key was quarantined.
    pub fn release_quarantined(&mut self, spec: &JobSpec) -> bool {
        self.quarantine.remove(&spec.canonical_json()).is_some()
    }

    /// Chaos-testing seam: plants (or overwrites) a cache record for
    /// `spec` without running anything — how the tests prove
    /// [`ServerConfig::verify_hits`] catches a corrupted entry. Not part
    /// of the serving contract.
    pub fn inject_cache_record(&mut self, spec: &JobSpec, record: String) {
        self.cache.insert(spec.canonical_json(), record);
    }

    /// Serves a single job (a one-element [`Self::submit_batch`]).
    ///
    /// # Errors
    ///
    /// See [`Self::submit_batch`].
    pub fn run_job(&mut self, spec: &JobSpec) -> Result<JobResult, ServeError> {
        let mut results = self.submit_batch(std::slice::from_ref(spec))?;
        results.pop().ok_or(ServeError::Internal {
            context: "one spec yields one result",
        })
    }

    /// Serves a batch of jobs, returning one result per spec in submission
    /// order — the PR 7 all-or-first-error contract on top of
    /// [`Self::submit_jobs`].
    ///
    /// # Errors
    ///
    /// Fails on the first invalid spec (unknown protocol/family, zero
    /// sizes — nothing is counted or executed then), or the first failing
    /// job in submission order. Earlier completed jobs of a failed batch
    /// stay cached.
    pub fn submit_batch(&mut self, specs: &[JobSpec]) -> Result<Vec<JobResult>, ServeError> {
        for spec in specs {
            validate(spec)?;
        }
        let mut results = Vec::with_capacity(specs.len());
        for outcome in self.submit_jobs(specs) {
            results.push(outcome.result?);
        }
        Ok(results)
    }

    /// Serves a batch with per-job fault tolerance: one [`JobOutcome`] per
    /// spec in submission order, failures typed per job instead of failing
    /// the batch. Unique uncached keys are sharded across the fleet and run
    /// in waves; transient failures retry per
    /// [`ServerConfig::max_retries`] with deterministic backoff, exhausted
    /// jobs are quarantined. The whole outcome sequence is a pure function
    /// of the server's configuration and submission history — retries use
    /// attempt counts, never the wall clock.
    pub fn submit_jobs(&mut self, specs: &[JobSpec]) -> Vec<JobOutcome> {
        self.jobs += specs.len() as u64;

        // Pass 1: validation, quarantine answers and cache resolution;
        // unique uncached keys become pending jobs in first-appearance
        // order. `None` slots are filled from the wave loop's resolutions.
        let mut outcomes: Vec<Option<JobOutcome>> = Vec::with_capacity(specs.len());
        let mut pending: Vec<PendingJob> = Vec::new();
        let mut slot_of: HashMap<String, usize> = HashMap::new();
        for (idx, spec) in specs.iter().enumerate() {
            let key = spec.canonical_json();
            if let Err(err) = validate(spec) {
                outcomes.push(Some(JobOutcome {
                    spec: spec.clone(),
                    key,
                    attempts: 0,
                    result: Err(err),
                }));
                continue;
            }
            if let Some(entry) = self.quarantine.get(&key) {
                self.faults.quarantine_hits += 1;
                outcomes.push(Some(JobOutcome {
                    spec: spec.clone(),
                    key: key.clone(),
                    attempts: 0,
                    result: Err(ServeError::Quarantined {
                        key,
                        attempts: entry.attempts,
                        cause: Box::new(entry.cause.clone()),
                    }),
                }));
                continue;
            }
            match self.cache.get(&key) {
                Some(record) => outcomes.push(Some(self.resolve_hit(spec, key, record))),
                None => {
                    if !slot_of.contains_key(&key) {
                        slot_of.insert(key.clone(), pending.len());
                        pending.push(PendingJob {
                            spec_idx: idx,
                            key,
                            attempts: 0,
                            next_wave: 0,
                            resolution: None,
                        });
                    }
                    outcomes.push(None);
                }
            }
        }

        // Pass 2: the wave loop. Eligible pending jobs are sharded by key
        // hash; each wave is one `par::map` spawn in which every worker
        // attempts up to `batch_size` jobs of its own shard (panics caught
        // per job). Retrying jobs wait `2^attempt` waves; when nothing is
        // eligible the wave counter skips ahead — backoff is attempt-count
        // time, not wall-clock time.
        let workers = self.config.workers;
        let batch_size = self.config.batch_size;
        let max_attempts = 1 + self.config.max_retries;
        let config = self.config;
        let mut wave_no: u64 = 0;
        loop {
            let mut shards: Vec<Vec<usize>> = vec![Vec::new(); workers];
            let mut scheduled = 0usize;
            let mut next_eligible: Option<u64> = None;
            for (slot, job) in pending.iter().enumerate() {
                if job.resolution.is_some() {
                    continue;
                }
                if job.next_wave > wave_no {
                    next_eligible =
                        Some(next_eligible.map_or(job.next_wave, |w| w.min(job.next_wave)));
                    continue;
                }
                let shard = (fnv64(job.key.as_bytes()) % workers as u64) as usize;
                if shards[shard].len() < batch_size {
                    shards[shard].push(slot);
                    scheduled += 1;
                } else {
                    // Shard full this wave; stays eligible for the next.
                    next_eligible = Some(next_eligible.map_or(wave_no + 1, |w| w.min(wave_no + 1)));
                }
            }
            if scheduled == 0 {
                match next_eligible {
                    Some(wave) => {
                        wave_no = wave.max(wave_no + 1);
                        continue;
                    }
                    None => break,
                }
            }
            let wave_results: Vec<Vec<(usize, Result<String, ServeError>)>> = {
                let pending_view = &pending;
                par::map(workers, workers, |w| {
                    shards[w]
                        .iter()
                        .map(|&slot| {
                            let job = &pending_view[slot];
                            (
                                slot,
                                attempt(&specs[job.spec_idx], &config, &job.key, job.attempts),
                            )
                        })
                        .collect()
                })
            };
            self.waves += 1;
            wave_no += 1;
            for (slot, result) in wave_results.into_iter().flatten() {
                let Some(job) = pending.get_mut(slot) else {
                    continue;
                };
                job.attempts += 1;
                if job.attempts > 1 {
                    self.faults.retries += 1;
                }
                match result {
                    Ok(record) => {
                        if job.attempts > 1 {
                            self.faults.recovered += 1;
                        }
                        job.resolution = Some(Ok(record));
                    }
                    Err(err) => {
                        match &err {
                            ServeError::Sim(SimError::TransportFault { .. }) => {
                                self.faults.faults_detected += 1;
                            }
                            ServeError::Panic { .. } => self.faults.panics += 1,
                            ServeError::BudgetExceeded { .. } => {
                                self.faults.budget_exceeded += 1;
                            }
                            _ => {}
                        }
                        if is_transient(&err) && job.attempts < max_attempts {
                            job.next_wave = wave_no + (1u64 << job.attempts.min(16));
                        } else if is_transient(&err) {
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
                        } else {
                            job.resolution = Some(Err(err));
                        }
                    }
                }
            }
        }

        // Pass 3: cache fresh successes (first-appearance order) and fill
        // every remaining submission slot from its pending job.
        for job in &pending {
            if let Some(Ok(record)) = &job.resolution {
                self.cache.insert(job.key.clone(), record.clone());
                self.ran += 1;
            }
        }
        specs
            .iter()
            .zip(outcomes)
            .map(|(spec, outcome)| {
                if let Some(outcome) = outcome {
                    return outcome;
                }
                let key = spec.canonical_json();
                let (attempts, result) = match slot_of.get(&key).map(|&slot| &pending[slot]) {
                    Some(job) => match &job.resolution {
                        Some(Ok(record)) => (
                            job.attempts,
                            Ok(JobResult {
                                spec: spec.clone(),
                                key: key.clone(),
                                record: record.clone(),
                                cached: false,
                            }),
                        ),
                        Some(Err(err)) => (job.attempts, Err(err.clone())),
                        None => (
                            job.attempts,
                            Err(ServeError::Internal {
                                context: "wave loop left a pending job unresolved",
                            }),
                        ),
                    },
                    None => (
                        0,
                        Err(ServeError::Internal {
                            context: "uncached key has no pending slot",
                        }),
                    ),
                };
                JobOutcome {
                    spec: spec.clone(),
                    key,
                    attempts,
                    result,
                }
            })
            .collect()
    }

    /// Resolves one cache hit, optionally verifying it; a divergent entry
    /// is evicted and the fresh recomputation served (cache degradation —
    /// the cache can slow the server down, never make it wrong).
    fn resolve_hit(&mut self, spec: &JobSpec, key: String, record: String) -> JobOutcome {
        if !self.config.verify_hits {
            return JobOutcome {
                spec: spec.clone(),
                key: key.clone(),
                attempts: 0,
                result: Ok(JobResult {
                    spec: spec.clone(),
                    key,
                    record,
                    cached: true,
                }),
            };
        }
        let result = match recompute_plain(spec, &key) {
            Ok(fresh) if fresh == record => Ok(JobResult {
                spec: spec.clone(),
                key: key.clone(),
                record,
                cached: true,
            }),
            Ok(fresh) => {
                self.faults.cache_divergences += 1;
                self.cache.remove(&key);
                self.cache.insert(key.clone(), fresh.clone());
                Ok(JobResult {
                    spec: spec.clone(),
                    key: key.clone(),
                    record: fresh,
                    cached: false,
                })
            }
            Err(err) => Err(err),
        };
        JobOutcome {
            spec: spec.clone(),
            key,
            attempts: 1,
            result,
        }
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
/// `(key, attempt)`, panics are caught at the job boundary, and budget
/// ceilings are enforced on the completed run's ledger.
fn attempt(
    spec: &JobSpec,
    config: &ServerConfig,
    key: &str,
    attempt_no: u32,
) -> Result<String, ServeError> {
    let fault = config
        .chaos
        .map(|plan| plan.salted(fnv64(key.as_bytes()) ^ u64::from(attempt_no)));
    let run = match catch_unwind(AssertUnwindSafe(|| run_registry(spec, fault))) {
        Ok(run) => run?,
        Err(payload) => {
            return Err(ServeError::Panic {
                key: key.to_owned(),
                message: panic_message(payload.as_ref()),
            })
        }
    };
    check_budget(config, key, &run.metrics)?;
    Ok(encode_record(&run.output, &run.metrics))
}

/// A chaos-free, panic-isolated recomputation (the `verify_hits` path).
fn recompute_plain(spec: &JobSpec, key: &str) -> Result<String, ServeError> {
    match catch_unwind(AssertUnwindSafe(|| run_registry(spec, None))) {
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

/// Enforces the per-job budget ceilings on a completed run.
fn check_budget(config: &ServerConfig, key: &str, metrics: &Metrics) -> Result<(), ServeError> {
    let over_rounds = config.max_rounds.is_some_and(|max| metrics.rounds > max);
    let over_bits = config.max_bits.is_some_and(|max| metrics.total_bits > max);
    if over_rounds || over_bits {
        return Err(ServeError::BudgetExceeded {
            key: key.to_owned(),
            rounds: metrics.rounds,
            bits: metrics.total_bits,
        });
    }
    Ok(())
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
    let mut trail = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            trail ^= u64::from(b);
            trail = trail.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for phase in &metrics.phases {
        mix(phase.label.as_bytes());
        mix(&phase.rounds.to_le_bytes());
        mix(&phase.bits.to_le_bytes());
        mix(&phase.messages.to_le_bytes());
        mix(&phase.max_link_bits_per_round.to_le_bytes());
        mix(&[u8::from(phase.strict_rounds)]);
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
        trail
    )
}

/// FNV-1a, the shard function: fast, dependency-free and stable across
/// platforms (so a given key always lands on the same worker).
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

    #[test]
    fn cold_then_warm_serves_identical_records() {
        let mut server = Server::new(ServerConfig::default());
        let spec = mst_spec(10, 0x5EED);
        let cold = server.run_job(&spec).unwrap();
        assert!(!cold.cached);
        let warm = server.run_job(&spec).unwrap();
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
        let results = server
            .submit_batch(&[spec.clone(), other.clone(), spec.clone()])
            .unwrap();
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
        let results = server.submit_batch(&specs).unwrap();
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
        let cold = server.run_job(&spec).unwrap();
        let warm = server.run_job(&spec).unwrap();
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
        let served = server.run_job(&spec).unwrap();
        assert!(!served.cached, "a divergent hit is not served as cached");
        assert_eq!(served.record, Server::run_direct(&spec).unwrap());
        assert_eq!(server.stats().faults.cache_divergences, 1);
        // The evicted entry was replaced by the fresh record: the next hit
        // verifies cleanly.
        let warm = server.run_job(&spec).unwrap();
        assert!(warm.cached);
        assert_eq!(server.stats().faults.cache_divergences, 1);
    }

    #[test]
    fn invalid_specs_are_rejected_up_front() {
        let mut server = Server::new(ServerConfig::default());
        assert!(matches!(
            server.run_job(&JobSpec::unweighted("no-such", "path", 4, 1, 0)),
            Err(ServeError::UnknownProtocol(_))
        ));
        assert!(matches!(
            server.run_job(&JobSpec::unweighted("apsp", "weighted_path", 4, 1, 0)),
            Err(ServeError::UnknownFamily { .. })
        ));
        assert!(matches!(
            server.run_job(&JobSpec::unweighted("apsp", "path", 0, 1, 0)),
            Err(ServeError::InvalidSpec { .. })
        ));
        assert!(matches!(
            server.run_job(&JobSpec::weighted("mst", "weighted_path", 4, 8, 0, 0)),
            Err(ServeError::InvalidSpec { .. })
        ));
        // Edge-key universes at or past 2^30, including a weight bound
        // whose `+ 1` would overflow, are rejected before the generator
        // or the protocol can panic.
        for max_weight in [1 << 20, u64::MAX] {
            assert!(matches!(
                server.run_job(&JobSpec::weighted(
                    "mst",
                    "weighted_path",
                    96,
                    7,
                    max_weight,
                    1
                )),
                Err(ServeError::InvalidSpec { .. })
            ));
        }
        assert_eq!(server.stats().jobs, 0, "rejected batches count no jobs");
        assert_eq!(server.stats().faults.panics, 0);
    }

    #[test]
    fn submit_jobs_types_invalid_specs_per_job() {
        let mut server = Server::new(ServerConfig::default());
        let outcomes = server.submit_jobs(&[
            mst_spec(8, 1),
            JobSpec::unweighted("no-such", "path", 4, 1, 0),
            mst_spec(8, 2),
        ]);
        assert!(outcomes[0].result.is_ok());
        assert!(matches!(
            outcomes[1].result,
            Err(ServeError::UnknownProtocol(_))
        ));
        assert!(outcomes[2].result.is_ok(), "a bad spec fails only itself");
        assert_eq!(server.stats().ran, 2);
    }

    #[test]
    fn panicking_job_is_isolated_and_quarantined() {
        let mut server = Server::new(ServerConfig {
            workers: 2,
            max_retries: 2,
            ..ServerConfig::default()
        });
        // chaos-probe panics deterministically on odd n; its wave-mates
        // must come through unharmed.
        let probe = JobSpec::unweighted("chaos-probe", "path", 5, 4, 0);
        let good = mst_spec(8, 3);
        let outcomes = server.submit_jobs(&[probe.clone(), good.clone()]);
        match &outcomes[0].result {
            Err(ServeError::Quarantined {
                attempts, cause, ..
            }) => {
                assert_eq!(*attempts, 3, "1 attempt + 2 retries");
                assert!(matches!(cause.as_ref(), ServeError::Panic { .. }));
            }
            other => panic!("expected quarantine after panics, got {other:?}"),
        }
        assert!(outcomes[1].result.is_ok(), "wave-mate survived the panic");
        let stats = server.stats().faults;
        assert_eq!(stats.panics, 3);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.quarantined, 1);

        // Quarantined keys are answered without running; release re-arms.
        let again = server.submit_jobs(std::slice::from_ref(&probe));
        assert_eq!(again[0].attempts, 0);
        assert!(matches!(
            again[0].result,
            Err(ServeError::Quarantined { .. })
        ));
        assert_eq!(server.stats().faults.quarantine_hits, 1);
        assert_eq!(server.quarantined().len(), 1);
        assert!(server.release_quarantined(&probe));
        assert!(server.quarantined().is_empty());
    }

    #[test]
    fn budget_ceiling_converts_runaway_jobs_to_typed_errors() {
        let mut server = Server::new(ServerConfig {
            max_rounds: Some(1),
            ..ServerConfig::default()
        });
        let spec = mst_spec(10, 0x5EED);
        match server.run_job(&spec) {
            Err(ServeError::BudgetExceeded { rounds, .. }) => assert!(rounds > 1),
            other => panic!("expected a budget error, got {other:?}"),
        }
        let stats = server.stats().faults;
        assert_eq!(stats.budget_exceeded, 1);
        assert_eq!(stats.retries, 0, "budget errors are deterministic");
        assert_eq!(stats.quarantined, 0, "budget errors do not quarantine");
        // A roomy ceiling lets the same job through.
        let mut roomy = Server::new(ServerConfig {
            max_rounds: Some(1_000_000),
            max_bits: Some(u64::MAX),
            ..ServerConfig::default()
        });
        assert_eq!(
            roomy.run_job(&spec).unwrap().record,
            Server::run_direct(&spec).unwrap()
        );
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
        let a = clean.submit_batch(&specs).unwrap();
        let b = chaotic.submit_batch(&specs).unwrap();
        assert_eq!(a, b);
        assert_eq!(chaotic.stats().faults, FaultStats::default());
    }
}
