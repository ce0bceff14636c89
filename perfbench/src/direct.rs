//! `tc-dense` and `mst-dense`: one heavy registry protocol called directly,
//! one job at a time, on a small pool of seeded inputs.

use std::time::{Duration, Instant};

use clique_core::graphs::iso;
use clique_core::registry::{self, InputKind, JobInput, ProtocolEntry, ProtocolRun, RunOptions};
use clique_core::sim::Metrics;
use clique_serve::{encode_record, JobSpec, Server, ServerConfig, ServerStats};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::ledger::{self, WeightedRun};
use crate::probes::{self, ProbeShape};
use crate::serve::{self, ServeCounters};
use crate::stats::{self, mean, median, ms, Report};
use crate::timing::{run_on_transport, DeliveryClock, TimingTransport};
use crate::Outcome;

/// One direct workload: a registry protocol on one input family and size.
#[derive(Clone, Copy, Debug)]
pub struct DirectWorkload {
    /// Registry protocol id.
    pub protocol: &'static str,
    /// Input family (see [`registry::generate_input`]).
    pub family: &'static str,
    /// Input kind of the family.
    pub kind: InputKind,
    /// Vertices (= players).
    pub n: usize,
    /// Link bandwidth `b`.
    pub bandwidth: usize,
    /// Weight bound of weighted families (0 otherwise).
    pub max_weight: u64,
}

/// Algebraic triangle counting on dense G(512, 1/2) at b = ⌈log₂ n⌉: the
/// router, the packet and entry codecs and the local counting kernels do
/// nearly all the work.
pub const TC_DENSE: DirectWorkload = DirectWorkload {
    protocol: "triangle-count",
    family: "erdos_renyi(p=0.5)",
    kind: InputKind::Unweighted,
    n: 512,
    bandwidth: 9,
    max_weight: 0,
};

/// Sketch MST on weighted G(96, 0.2), weights up to 4n, b = 7: the
/// capacity-escalation case, where broadcast phases, sketch decoding and
/// contraction do nearly all the work and the router none.
pub const MST_DENSE: DirectWorkload = DirectWorkload {
    protocol: "mst",
    family: "weighted_erdos_renyi(p=0.2)",
    kind: InputKind::Weighted,
    n: 96,
    bandwidth: 7,
    max_weight: 4 * 96,
};

/// Inputs per run; every run covers all of them at least once. Per-job
/// figures average over many graphs of one seed: `mst-dense` job times
/// differ by a third between graphs of the same shape.
const POOL: usize = 16;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Pool inputs the traced pass runs, each once untraced and once traced.
const TRACE_JOBS: usize = 8;

/// One pool entry: the job spec naming the input, and the input itself.
pub struct Job {
    /// The spec (what a server would be sent for this job).
    pub spec: JobSpec,
    /// The generated input.
    pub input: JobInput,
}

impl DirectWorkload {
    fn entry(&self) -> &'static ProtocolEntry {
        registry::find(self.protocol).expect("workload protocols are registered")
    }

    fn options(&self) -> RunOptions {
        RunOptions {
            bandwidth: self.bandwidth,
            ..RunOptions::default()
        }
    }

    /// The pool of job specs a seed selects.
    fn specs(&self, seed: u64) -> Vec<JobSpec> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..POOL)
            .map(|_| {
                let input_seed: u64 = rng.gen();
                match self.kind {
                    InputKind::Unweighted => JobSpec::unweighted(
                        self.protocol,
                        self.family,
                        self.n,
                        self.bandwidth,
                        input_seed,
                    ),
                    InputKind::Weighted => JobSpec::weighted(
                        self.protocol,
                        self.family,
                        self.n,
                        self.bandwidth,
                        self.max_weight,
                        input_seed,
                    ),
                }
            })
            .collect()
    }

    /// Generates the pool, returning it with the per-input generation times.
    fn generate(&self, seed: u64) -> (Vec<Job>, Vec<Duration>) {
        self.specs(seed)
            .into_iter()
            .map(|spec| {
                let start = Instant::now();
                let input = registry::generate_input(
                    self.kind,
                    &spec.family,
                    spec.n,
                    spec.seed,
                    spec.max_weight,
                )
                .expect("workload families are known");
                (Job { spec, input }, start.elapsed())
            })
            .unzip()
    }

    /// Input generation plus one warm-up job, `SETUP_REPS` times; returns
    /// the pool, the median set-up time and the generation times.
    fn setup(&self, seed: u64) -> (Vec<Job>, f64, Vec<Duration>) {
        let mut times = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for _ in 0..SETUP_REPS {
            let start = Instant::now();
            let (pool, generation) = self.generate(seed);
            // A failed warm-up resurfaces in the timed loop, where it counts.
            let _ = self.entry().run(&pool[0].input, &self.options());
            times.push(start.elapsed().as_secs_f64());
            last = Some((pool, generation));
        }
        let (pool, generation) = last.expect("at least one set-up");
        (pool, median(&times), generation)
    }
}

/// The oracle verdict for one registry output digest.
fn oracle_accepts(job: &Job, digest: &str) -> bool {
    match &job.input {
        JobInput::Unweighted(g) => {
            digest == format!("{{\"triangles\":{}}}", iso::triangle_count(g))
        }
        JobInput::Weighted(g) => {
            let forest = iso::minimum_spanning_forest(g);
            let edges: Vec<String> = forest
                .edges
                .iter()
                .map(|(u, v, w)| format!("[{u},{v},{w}]"))
                .collect();
            let prefix = format!(
                "{{\"edges\":[{}],\"total_weight\":{},\"components\":{},",
                edges.join(","),
                forest.total_weight,
                forest.components
            );
            digest.starts_with(&prefix)
        }
    }
}

/// Checks every run against its input's oracle and against the first run
/// of the same input (outputs and ledgers repeat exactly). Returns the
/// number of failed jobs and each input's reference run.
fn verify(
    pool: &[Job],
    runs: &[(usize, Result<ProtocolRun, String>)],
) -> (u64, Vec<Option<ProtocolRun>>) {
    let mut reference: Vec<Option<ProtocolRun>> = vec![None; pool.len()];
    let accepted: Vec<bool> = pool
        .iter()
        .enumerate()
        .map(|(i, job)| {
            runs.iter()
                .find_map(|(idx, run)| (*idx == i).then_some(run.as_ref().ok()).flatten())
                .is_some_and(|run| oracle_accepts(job, &run.output))
        })
        .collect();
    let mut failed = 0;
    for (idx, run) in runs {
        match run {
            Ok(run) => match &reference[*idx] {
                None if accepted[*idx] => reference[*idx] = Some(run.clone()),
                Some(first) if first == run => {}
                _ => failed += 1,
            },
            Err(err) => {
                eprintln!("job on input {idx} failed: {err}");
                failed += 1;
            }
        }
    }
    (failed, reference)
}

fn per_job(reference: &[Option<ProtocolRun>], field: impl Fn(&Metrics) -> u64) -> f64 {
    let values: Vec<f64> = reference
        .iter()
        .flatten()
        .map(|run| field(&run.metrics) as f64)
        .collect();
    mean(&values)
}

/// The untraced run: every end-to-end metric.
pub fn run_e2e(w: &DirectWorkload, seed: u64, seconds: u64) -> Outcome {
    let (pool, setup_s, _) = w.setup(seed);
    let entry = w.entry();
    let options = w.options();
    let budget = Duration::from_secs(seconds);
    let mut runs = Vec::new();
    let mut job_ms = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || runs.len() < POOL {
        let idx = runs.len() % POOL;
        let job_start = Instant::now();
        let run = entry.run(&pool[idx].input, &options);
        job_ms.push(ms(job_start.elapsed()));
        runs.push((idx, run.map_err(|e| e.to_string())));
    }
    let wall = start.elapsed().as_secs_f64();
    let (failed, reference) = verify(&pool, &runs);

    let mut report = Report::default();
    report.add("jobs_per_s", runs.len() as f64 / wall, "1/s");
    report.add("job_p50_ms", stats::percentile(&job_ms, 50.0), "ms");
    report.add("job_p99_ms", stats::percentile(&job_ms, 99.0), "ms");
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MiB");
    report.add(
        "rounds_per_job",
        per_job(&reference, |m| m.rounds),
        "rounds",
    );
    report.add(
        "bits_per_job",
        per_job(&reference, |m| m.total_bits),
        "bits",
    );
    Outcome {
        report,
        attempted: runs.len() as u64,
        failed,
    }
}

/// The traced run: every per-layer metric. It runs a fixed number of pool
/// inputs, so its counts repeat exactly at a fixed seed.
pub fn run_trace(w: &DirectWorkload, seed: u64) -> Outcome {
    let (pool, _, generation) = w.setup(seed);
    let entry = w.entry();
    let options = w.options();

    // Untraced and traced jobs alternate, so drift hits both alike.
    let mut runs = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut deliver_ms = Vec::new();
    let mut deliver_calls = Vec::new();
    let mut ledger_mismatches = 0;
    for (idx, job) in pool.iter().enumerate().take(TRACE_JOBS) {
        let job_start = Instant::now();
        let run = entry.run(&job.input, &options);
        untraced_ms.push(ms(job_start.elapsed()));

        let clock = DeliveryClock::default();
        let job_start = Instant::now();
        let traced = run_on_transport(
            w.protocol,
            &job.input,
            w.bandwidth,
            Some(Box::new(TimingTransport::new(clock.clone()))),
        )
        .expect("workload protocols have a traced counterpart");
        traced_ms.push(ms(job_start.elapsed()));
        deliver_ms.push(clock.nanos() as f64 / 1e6);
        deliver_calls.push(clock.calls() as f64);
        match (&run, &traced) {
            (Ok(plain), Ok((_, metrics))) if &plain.metrics == metrics => {}
            _ => ledger_mismatches += 1,
        }
        runs.push((idx, run.map_err(|e| e.to_string())));
    }
    let (mut failed, reference) = verify(&pool, &runs);
    failed += ledger_mismatches;

    let mut report = Report::default();
    let weighted: Vec<WeightedRun<'_>> = pool
        .iter()
        .zip(&reference)
        .filter_map(|(job, run)| Some((&job.input, run.as_ref()?, w.bandwidth, 1.0)))
        .collect();
    ledger::add_ledger_metrics(&mut report, &weighted);

    let run_ms = mean(&untraced_ms);
    let transport_ms = mean(&deliver_ms);
    report.add("core.run_ms", run_ms, "ms");
    report.add("core.self_ms", run_ms - transport_ms, "ms");
    report.add("sim.transport.deliver_ms", transport_ms, "ms");
    report.add("sim.transport.calls", mean(&deliver_calls), "count");
    report.add(
        "sim.transport.share",
        transport_ms / mean(&traced_ms),
        "ratio",
    );

    let shape = match w.kind {
        InputKind::Unweighted => ProbeShape::tc_dense(),
        InputKind::Weighted => ProbeShape::mst_dense(
            reference
                .iter()
                .flatten()
                .filter_map(|run| ledger::mst_shape(&run.output))
                .map(|s| s.final_capacity as usize)
                .max()
                .unwrap_or(probes::MST_DENSE_CAPACITY),
        ),
    };
    failed += probes::add_layer_probes(&mut report, seed, &shape);

    // The serve layer on this workload: the first pool job served cold,
    // then warm, by a one-worker server. Its overhead is the cold submit
    // minus a direct run of the same input made just before it.
    let first_record = reference[0]
        .as_ref()
        .map(|run| encode_record(&run.output, &run.metrics));
    let mut server = Server::new(ServerConfig::default());
    let first = std::slice::from_ref(&pool[0].spec);
    let direct_start = Instant::now();
    let _ = entry.run(&pool[0].input, &options);
    let direct_ms = ms(direct_start.elapsed());
    let cold_start = Instant::now();
    let cold = server.submit_jobs(first);
    let cold_ms = ms(cold_start.elapsed());
    let warm = server.submit_jobs(first);
    failed += cold
        .iter()
        .chain(&warm)
        .filter(|o| o.result.as_ref().ok().map(|r| &r.record) != first_record.as_ref())
        .count() as u64;
    ServeCounters::delta(&ServerStats::default(), &server.stats())
        .add_to(&mut report, cold_ms - direct_ms);

    let specs: Vec<JobSpec> = pool.iter().map(|job| job.spec.clone()).collect();
    let records: Vec<(String, Metrics)> = reference
        .iter()
        .flatten()
        .map(|run| (run.output.clone(), run.metrics.clone()))
        .collect();
    let sequence: Vec<usize> = (0..4 * POOL).map(|i| i % records.len().max(1)).collect();
    serve::add_micro_metrics(&mut report, &specs, &records, &sequence, 1024);

    let generate_ms: Vec<f64> = generation.iter().map(|d| ms(*d)).collect();
    report.add("graphs.generate_ms", median(&generate_ms), "ms");
    report.add(
        "trace.overhead_frac",
        mean(&traced_ms) / run_ms - 1.0,
        "ratio",
    );
    Outcome {
        report,
        attempted: 2 * runs.len() as u64 + probes::PROBE_CHECKS + 2,
        failed,
    }
}
