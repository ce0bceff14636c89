//! `serve-zipf`: one closed-loop client submitting fixed-size batches of a
//! Zipf-skewed stream of small jobs to a two-worker `Server`, plus the
//! serve-layer counters and micro-timings every workload reports.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use clique_core::registry::{self, JobInput, ProtocolRun, RunOptions};
use clique_core::sim::Metrics;
use clique_serve::{encode_record, JobSpec, Server, ServerConfig, ServerStats, TranscriptCache};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::ledger::{self, digest_field, WeightedRun};
use crate::probes::{self, ProbeShape};
use crate::stats::{self, median, ms, Report};
use crate::timing::{run_on_transport, DeliveryClock, TimingTransport};
use crate::Outcome;

/// Every registry protocol except the deliberately panicking probe, each
/// on the input family the oracle grids use for it.
pub const CASES: [(&str, &str); 7] = [
    ("mst", "weighted_erdos_renyi(p=0.2)"),
    ("triangle-count", "erdos_renyi(p=0.5)"),
    ("triangle-count-fast", "erdos_renyi(p=0.5)"),
    ("apsp", "erdos_renyi(p=0.15)"),
    ("apsp-fast", "erdos_renyi(p=0.15)"),
    ("c4-turan-sketch", "erdos_renyi(p=0.15)"),
    ("c4-full-broadcast", "erdos_renyi(p=0.15)"),
];

/// Job sizes: all small, so serving, caching and dispatch dominate.
const SIZES: [usize; 4] = [8, 16, 24, 32];

/// Distinct input seeds per (protocol, size). Ledgers differ between
/// inputs of one shape (APSP's early exit, MST's escalations), so the
/// mix's per-job ledger averages over many of them.
const SEEDS_PER_CASE: usize = 24;

/// Zipf exponent of the stream over the (protocol, size) shapes; the
/// seeds of one shape share its weight equally, so the ledger of the mix
/// averages over several inputs even for the hottest shape.
const ZIPF_EXPONENT: f64 = 1.0;

/// Transcript-cache capacity: well below the 672-spec pool, so the stream
/// both hits and misses, inserts and evicts.
const CACHE_CAPACITY: usize = 160;

/// Worker fleet size (the host has two cores).
pub const WORKERS: usize = 2;

/// Jobs per worker per wave.
const WORKER_BATCH: usize = 8;

/// Jobs per client submission.
const BATCH: usize = 16;

/// Minimum timed batches per run, however slow the host.
const MIN_BATCHES: usize = 20;

/// Batches of the traced pass (a fixed count, so its counters repeat).
const TRACE_BATCHES: usize = 400;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The rank permutation is fixed, so which shapes are hot does not depend
/// on the seed: the seed only draws the inputs and the stream.
const RANK_SEED: u64 = 0x21bf;

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        batch_size: WORKER_BATCH,
        cache_capacity: CACHE_CAPACITY,
        ..ServerConfig::default()
    }
}

/// The spec pool with each spec's probability in the stream.
struct Pool {
    specs: Vec<JobSpec>,
    weights: Vec<f64>,
    cumulative: Vec<f64>,
}

impl Pool {
    fn new(seed: u64) -> Self {
        let mut shapes: Vec<(&str, &str, usize)> = CASES
            .iter()
            .flat_map(|&(protocol, family)| SIZES.map(|n| (protocol, family, n)))
            .collect();
        shapes.shuffle(&mut ChaCha8Rng::seed_from_u64(RANK_SEED));
        let harmonic: f64 = (1..=shapes.len())
            .map(|rank| (rank as f64).powf(-ZIPF_EXPONENT))
            .sum();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut specs = Vec::new();
        let mut weights = Vec::new();
        for (rank, (protocol, family, n)) in shapes.into_iter().enumerate() {
            let b = n.ilog2() as usize + usize::from(!n.is_power_of_two());
            let weight = ((rank + 1) as f64).powf(-ZIPF_EXPONENT) / harmonic;
            for _ in 0..SEEDS_PER_CASE {
                let input_seed: u64 = rng.gen();
                specs.push(if protocol == "mst" {
                    JobSpec::weighted(protocol, family, n, b, 4 * n as u64, input_seed)
                } else {
                    JobSpec::unweighted(protocol, family, n, b, input_seed)
                });
                weights.push(weight / SEEDS_PER_CASE as f64);
            }
        }
        let cumulative = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        Self {
            specs,
            weights,
            cumulative,
        }
    }

    /// One batch of pool indices.
    fn batch(&self, rng: &mut ChaCha8Rng) -> Vec<usize> {
        (0..BATCH)
            .map(|_| {
                let u: f64 = rng.gen();
                self.cumulative
                    .partition_point(|&c| c <= u)
                    .min(self.specs.len() - 1)
            })
            .collect()
    }

    /// The Zipf-weighted mean of `values` (one per spec).
    fn weighted(&self, values: &[f64]) -> f64 {
        values.iter().zip(&self.weights).map(|(v, w)| v * w).sum()
    }
}

/// A warmed-up server and the stream position it was warmed to.
struct Warm {
    pool: Pool,
    server: Server,
    stream: ChaCha8Rng,
}

/// Builds the pool and the server and serves the stream until the cache
/// has turned over once (as many evictions as it has slots).
fn warm_up(seed: u64) -> Warm {
    let pool = Pool::new(seed);
    let mut server = Server::new(server_config());
    let mut stream = ChaCha8Rng::seed_from_u64(seed ^ 0x57e4);
    while server.stats().cache.evictions < CACHE_CAPACITY as u64 {
        let specs = specs_of(&pool, &pool.batch(&mut stream));
        server.submit_jobs(&specs);
    }
    Warm {
        pool,
        server,
        stream,
    }
}

fn setup(seed: u64) -> (Warm, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        last = Some(warm_up(seed));
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

fn specs_of(pool: &Pool, batch: &[usize]) -> Vec<JobSpec> {
    batch.iter().map(|&i| pool.specs[i].clone()).collect()
}

/// Served records per pool index: the first record served for each spec,
/// how many jobs were served for it, and how many jobs failed outright or
/// disagreed with an earlier record of the same spec.
#[derive(Default)]
struct Served {
    records: HashMap<usize, (String, u64)>,
    failed: u64,
}

impl Served {
    fn absorb(&mut self, batch: &[usize], outcomes: &[clique_serve::JobOutcome]) {
        for (&idx, outcome) in batch.iter().zip(outcomes) {
            match &outcome.result {
                Ok(result) => {
                    let entry = self
                        .records
                        .entry(idx)
                        .or_insert_with(|| (result.record.clone(), 0));
                    entry.1 += 1;
                    if entry.0 != result.record {
                        self.failed += 1;
                    }
                }
                Err(err) => {
                    eprintln!("job {} failed: {err}", outcome.key);
                    self.failed += 1;
                }
            }
        }
    }

    /// Byte-compares each spec's served record with `Server::run_direct`;
    /// every job of a mismatching spec counts as failed.
    fn verify(&self, direct: &[Result<String, String>]) -> u64 {
        let mismatched: u64 = self
            .records
            .iter()
            .filter(|(&idx, (record, _))| direct[idx].as_ref() != Ok(record))
            .map(|(_, &(_, jobs))| jobs)
            .sum();
        self.failed + mismatched
    }
}

fn direct_records(pool: &Pool) -> Vec<Result<String, String>> {
    pool.specs
        .iter()
        .map(|spec| Server::run_direct(spec).map_err(|e| e.to_string()))
        .collect()
}

/// The untraced run: every end-to-end metric.
pub fn run_e2e(seed: u64, seconds: u64) -> Outcome {
    let (mut warm, setup_s) = setup(seed);
    let budget = Duration::from_secs(seconds);
    let mut served = Served::default();
    let mut batch_ms = Vec::new();
    let mut jobs = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget || batch_ms.len() < MIN_BATCHES {
        let batch = warm.pool.batch(&mut warm.stream);
        let specs = specs_of(&warm.pool, &batch);
        let submit = Instant::now();
        let outcomes = warm.server.submit_jobs(&specs);
        batch_ms.push(ms(submit.elapsed()));
        jobs += batch.len() as u64;
        served.absorb(&batch, &outcomes);
    }
    let wall = start.elapsed().as_secs_f64();

    let direct = direct_records(&warm.pool);
    let failed = served.verify(&direct);
    let ledger_field = |key: &str| {
        let values: Vec<f64> = direct
            .iter()
            .map(|record| {
                record
                    .as_ref()
                    .ok()
                    .and_then(|r| digest_field(r, key))
                    .unwrap_or(0) as f64
            })
            .collect();
        warm.pool.weighted(&values)
    };

    let mut report = Report::default();
    report.add("jobs_per_s", jobs as f64 / wall, "1/s");
    // Every job of a batch waits for the whole `submit_jobs` call, so the
    // per-job percentiles are the batch-latency percentiles.
    report.add("job_p50_ms", stats::percentile(&batch_ms, 50.0), "ms");
    report.add("job_p99_ms", stats::percentile(&batch_ms, 99.0), "ms");
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MiB");
    report.add("rounds_per_job", ledger_field("rounds"), "rounds");
    report.add("bits_per_job", ledger_field("total_bits"), "bits");
    Outcome {
        report,
        attempted: jobs,
        failed,
    }
}

/// The traced run: every per-layer metric. Its work is fixed (every spec
/// run directly, then `TRACE_BATCHES` batches), so its counts repeat
/// exactly at a fixed seed.
pub fn run_trace(seed: u64) -> Outcome {
    let (mut warm, _) = setup(seed);
    let pool = &warm.pool;

    // Direct runs of every spec, untraced and on the timing transport.
    let mut inputs = Vec::with_capacity(pool.specs.len());
    let mut generate_ms = Vec::with_capacity(pool.specs.len());
    let mut untraced_ms = Vec::with_capacity(pool.specs.len());
    let mut traced_ms = Vec::with_capacity(pool.specs.len());
    let mut deliver_ms = Vec::with_capacity(pool.specs.len());
    let mut deliver_calls = Vec::with_capacity(pool.specs.len());
    let mut runs: Vec<ProtocolRun> = Vec::with_capacity(pool.specs.len());
    let mut failed = 0u64;
    for spec in &pool.specs {
        let entry = registry::find(&spec.protocol).expect("pool protocols are registered");
        let start = Instant::now();
        let input: JobInput =
            registry::generate_input(entry.kind, &spec.family, spec.n, spec.seed, spec.max_weight)
                .expect("pool families are known");
        generate_ms.push(ms(start.elapsed()));
        let options = RunOptions {
            bandwidth: spec.bandwidth,
            ..RunOptions::default()
        };
        let mut plain = Vec::new();
        let mut run = None;
        for _ in 0..3 {
            let start = Instant::now();
            run = Some(entry.run(&input, &options));
            plain.push(ms(start.elapsed()));
        }
        untraced_ms.push(median(&plain));
        let clock = DeliveryClock::default();
        let start = Instant::now();
        let traced = run_on_transport(
            &spec.protocol,
            &input,
            spec.bandwidth,
            Some(Box::new(TimingTransport::new(clock.clone()))),
        )
        .expect("pool protocols have a traced counterpart");
        traced_ms.push(ms(start.elapsed()));
        deliver_ms.push(clock.nanos() as f64 / 1e6);
        deliver_calls.push(clock.calls() as f64);
        match (run.expect("three runs"), traced) {
            (Ok(plain), Ok((_, metrics))) if plain.metrics == metrics => runs.push(plain),
            (run, _) => {
                eprintln!(
                    "direct and traced runs of {} disagree",
                    spec.canonical_json()
                );
                failed += 1;
                // An empty record, so the served records of this spec fail too.
                runs.push(run.unwrap_or(ProtocolRun {
                    output: String::new(),
                    metrics: Metrics::default(),
                }));
            }
        }
        inputs.push(input);
    }

    // The traced serve pass: a fixed number of batches after warm-up.
    let before = warm.server.stats();
    let mut served = Served::default();
    let mut overhead_ms = Vec::with_capacity(TRACE_BATCHES);
    let mut sequence = Vec::with_capacity(TRACE_BATCHES * BATCH);
    for _ in 0..TRACE_BATCHES {
        let batch = warm.pool.batch(&mut warm.stream);
        let specs = specs_of(&warm.pool, &batch);
        let submit = Instant::now();
        let outcomes = warm.server.submit_jobs(&specs);
        let submit_ms = ms(submit.elapsed());
        let mut misses: Vec<usize> = batch
            .iter()
            .zip(&outcomes)
            .filter(|(_, o)| o.result.as_ref().is_ok_and(|r| !r.cached))
            .map(|(&idx, _)| idx)
            .collect();
        misses.sort_unstable();
        misses.dedup();
        overhead_ms.push(submit_ms - misses.iter().map(|&i| untraced_ms[i]).sum::<f64>());
        served.absorb(&batch, &outcomes);
        sequence.extend_from_slice(&batch);
    }
    let counters = ServeCounters::delta(&before, &warm.server.stats());
    let direct: Vec<Result<String, String>> = runs
        .iter()
        .map(|run| Ok(encode_record(&run.output, &run.metrics)))
        .collect();
    failed += served.verify(&direct);

    let mut report = Report::default();
    let weighted_runs: Vec<WeightedRun<'_>> = inputs
        .iter()
        .zip(&runs)
        .zip(pool.specs.iter().zip(&pool.weights))
        .map(|((input, run), (spec, &w))| (input, run, spec.bandwidth, w))
        .collect();
    ledger::add_ledger_metrics(&mut report, &weighted_runs);

    let run_ms = pool.weighted(&untraced_ms);
    let transport_ms = pool.weighted(&deliver_ms);
    report.add("core.run_ms", run_ms, "ms");
    report.add("core.self_ms", run_ms - transport_ms, "ms");
    report.add("sim.transport.deliver_ms", transport_ms, "ms");
    report.add(
        "sim.transport.calls",
        pool.weighted(&deliver_calls),
        "count",
    );
    report.add(
        "sim.transport.share",
        transport_ms / pool.weighted(&traced_ms),
        "ratio",
    );
    failed += probes::add_layer_probes(&mut report, seed, &ProbeShape::serve_zipf());
    counters.add_to(&mut report, stats::mean(&overhead_ms));
    let records: Vec<(String, Metrics)> = runs
        .iter()
        .map(|run| (run.output.clone(), run.metrics.clone()))
        .collect();
    add_micro_metrics(
        &mut report,
        &pool.specs,
        &records,
        &sequence,
        CACHE_CAPACITY,
    );
    report.add("graphs.generate_ms", median(&generate_ms), "ms");
    report.add(
        "trace.overhead_frac",
        pool.weighted(&traced_ms) / run_ms - 1.0,
        "ratio",
    );
    Outcome {
        report,
        attempted: (TRACE_BATCHES * BATCH + 2 * pool.specs.len()) as u64 + probes::PROBE_CHECKS,
        failed,
    }
}

/// Serve-layer counters over one stretch of a server's life.
pub struct ServeCounters {
    hits: u64,
    misses: u64,
    ran: u64,
    waves: u64,
    evictions: u64,
}

impl ServeCounters {
    /// The counters accumulated between two `Server::stats` snapshots.
    pub fn delta(before: &ServerStats, after: &ServerStats) -> Self {
        Self {
            hits: after.cache.hits - before.cache.hits,
            misses: after.cache.misses - before.cache.misses,
            ran: after.ran - before.ran,
            waves: after.waves - before.waves,
            evictions: after.cache.evictions - before.cache.evictions,
        }
    }

    /// Adds the `serve.*` counters and the serving overhead.
    pub fn add_to(&self, report: &mut Report, overhead_ms: f64) {
        let lookups = (self.hits + self.misses).max(1);
        report.add("serve.hit_rate", self.hits as f64 / lookups as f64, "ratio");
        report.add("serve.ran", self.ran as f64, "count");
        report.add("serve.waves", self.waves as f64, "count");
        report.add(
            "serve.wave_jobs",
            self.ran as f64 / self.waves.max(1) as f64,
            "count",
        );
        report.add("serve.evictions", self.evictions as f64, "count");
        report.add("serve.overhead_ms", overhead_ms, "ms");
    }
}

/// Mean wall time (µs) of `f` over enough calls to fill `at_least`.
fn mean_us(at_least: Duration, mut f: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    let mut calls = 0;
    while calls == 0 || start.elapsed() < at_least {
        calls += f();
    }
    start.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Times the serve layer's own steps on `specs` and their direct `runs`:
/// cache-key encoding, record encoding, and cache lookups and inserts
/// while replaying `sequence` (indices into `specs`) through an LRU cache
/// of `capacity` records.
pub fn add_micro_metrics(
    report: &mut Report,
    specs: &[JobSpec],
    runs: &[(String, Metrics)],
    sequence: &[usize],
    capacity: usize,
) {
    let window = Duration::from_millis(50);
    report.add(
        "serve.key_us",
        mean_us(window, || {
            specs.iter().for_each(|s| {
                black_box(s.canonical_json());
            });
            specs.len()
        }),
        "us",
    );
    report.add(
        "serve.encode_us",
        mean_us(window, || {
            runs.iter().for_each(|(output, metrics)| {
                black_box(encode_record(output, metrics));
            });
            runs.len()
        }),
        "us",
    );

    let keys: Vec<String> = specs.iter().map(JobSpec::canonical_json).collect();
    let records: Vec<String> = runs
        .iter()
        .map(|(output, metrics)| encode_record(output, metrics))
        .collect();
    let (mut get_ns, mut gets, mut insert_ns, mut inserts) = (0u128, 0u64, 0u128, 0u64);
    let start = Instant::now();
    while gets == 0 || start.elapsed() < window {
        let mut cache = TranscriptCache::new(capacity);
        for &idx in sequence {
            let t = Instant::now();
            let hit = cache.get(&keys[idx]);
            get_ns += t.elapsed().as_nanos();
            gets += 1;
            if hit.is_none() {
                let (key, record) = (keys[idx].clone(), records[idx].clone());
                let t = Instant::now();
                cache.insert(key, record);
                insert_ns += t.elapsed().as_nanos();
                inserts += 1;
            }
        }
    }
    report.add(
        "serve.cache_get_us",
        get_ns as f64 / 1e3 / gets as f64,
        "us",
    );
    report.add(
        "serve.cache_insert_us",
        insert_ns as f64 / 1e3 / inserts.max(1) as f64,
        "us",
    );
}
