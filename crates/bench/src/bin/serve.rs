//! The `serve` harness: drives a seeded job mix through the
//! `clique-serve` job server and emits the `BENCH_serve.json` baseline.
//!
//! Three measurements:
//!
//! * **determinism** — for every distinct spec of the pool, the record
//!   served by a fleet of `--threads N` workers (default 4) is
//!   byte-compared against a 1-worker fleet and a direct
//!   [`Server::run_direct`] run; the emitted column must be all-true (the
//!   smoke run asserts it, so CI fails on any divergence);
//! * **throughput** — a Zipf-flavoured stream of repeated jobs is served
//!   in batches; sustained jobs/sec and the transcript-cache hit-rate are
//!   reported;
//! * **warm vs cold** — the distinct specs are submitted to a cold server
//!   and then resubmitted warm; the full run asserts the warm pass is
//!   faster (cache hits skip the simulations entirely).
//!
//! Usage:
//!
//! ```text
//! cargo run -p clique-bench --release --bin serve > BENCH_serve.json
//! cargo run -p clique-bench --release --bin serve -- --smoke      # CI smoke
//! cargo run -p clique-bench --release --bin serve -- --threads 2  # fleet size
//! ```

use std::time::Instant;

use clique_bench::parse_threads_flag;
use clique_serve::{JobSpec, Server, ServerConfig};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The spec pool the job mix draws from: every registry protocol over a
/// few sizes and seeds — all small, so one job is cheap and the harness
/// measures serving overhead, not protocol asymptotics.
fn spec_pool(smoke: bool) -> Vec<JobSpec> {
    let sizes: &[usize] = if smoke { &[6, 8] } else { &[6, 9, 12, 16] };
    let seeds: &[u64] = if smoke { &[1] } else { &[1, 2] };
    let cases: &[(&str, &str)] = &[
        ("mst", "weighted_random_tree"),
        ("triangle-count", "erdos_renyi(p=0.5)"),
        ("apsp", "erdos_renyi(p=0.15)"),
        ("c4-turan-sketch", "erdos_renyi(p=0.15)"),
        ("c4-full-broadcast", "cycle"),
    ];
    let mut pool = Vec::new();
    for &(protocol, family) in cases {
        for &n in sizes {
            let b = ((n as f64).log2().ceil() as usize).max(1);
            for &seed in seeds {
                pool.push(if protocol == "mst" {
                    JobSpec::weighted(protocol, family, n, b, 2 * n as u64, seed)
                } else {
                    JobSpec::unweighted(protocol, family, n, b, seed)
                });
            }
        }
    }
    pool
}

/// One determinism row: the served record against two independent
/// recomputations.
struct DeterminismRow {
    spec: JobSpec,
    identical: bool,
}

/// Serves `pool` on a fleet of `workers` workers and byte-compares every
/// record against a 1-worker fleet and a direct run.
fn check_determinism(pool: &[JobSpec], workers: usize) -> Vec<DeterminismRow> {
    let mut fleet = Server::new(ServerConfig {
        workers,
        batch_size: 2,
        ..ServerConfig::default()
    });
    let mut solo = Server::new(ServerConfig::default());
    let served = fleet.submit_batch(pool).expect("fleet batch failed");
    let solo_served = solo.submit_batch(pool).expect("solo batch failed");
    pool.iter()
        .zip(served.iter().zip(&solo_served))
        .map(|(spec, (fleet_result, solo_result))| {
            let direct = Server::run_direct(spec).expect("direct run failed");
            DeterminismRow {
                spec: spec.clone(),
                identical: fleet_result.record == solo_result.record
                    && fleet_result.record == direct,
            }
        })
        .collect()
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut threads_flag: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--threads" => {
                threads_flag = Some(parse_threads_flag(args.get(i + 1)));
                i += 1;
            }
            arg => {
                eprintln!("error: unknown flag {arg} (expected --smoke or --threads N)");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    // The fleet size: an explicit --threads is honored; otherwise 4, so the
    // sharded path is genuinely exercised even on a single-core host (the
    // scoped-worker pool is deterministic at any size).
    let workers = threads_flag.unwrap_or(4);

    let pool = spec_pool(smoke);

    // Determinism: served == direct, at 1 and `workers` workers.
    eprintln!(
        "checking determinism over {} specs ({workers} workers) …",
        pool.len()
    );
    let determinism = check_determinism(&pool, workers);
    let all_identical = determinism.iter().all(|row| row.identical);

    // Warm vs cold: the same distinct specs, cold then cached.
    eprintln!("timing cold vs warm pass ({workers} workers) …");
    let mut server = Server::new(ServerConfig {
        workers,
        batch_size: 4,
        ..ServerConfig::default()
    });
    let cold_start = Instant::now();
    let cold = server.submit_batch(&pool).expect("cold batch failed");
    let cold_ns = cold_start.elapsed().as_nanos() as f64;
    let warm_start = Instant::now();
    let warm = server.submit_batch(&pool).expect("warm batch failed");
    let warm_ns = warm_start.elapsed().as_nanos() as f64;
    assert!(
        cold.iter().zip(&warm).all(|(c, w)| c.record == w.record),
        "a warm record diverged from its cold run"
    );
    assert!(
        warm.iter().all(|r| r.cached),
        "a warm resubmission missed the cache"
    );

    // Throughput: a Zipf-flavoured stream with repetitions, served in
    // batches through a fresh server.
    let stream_len = if smoke { 40 } else { 400 };
    let batch = 20;
    eprintln!("serving a {stream_len}-job mixed stream …");
    let mut rng = ChaCha8Rng::seed_from_u64(0x5E17E);
    let stream: Vec<JobSpec> = (0..stream_len)
        .map(|_| {
            // Squaring the unit draw skews the stream toward the low
            // indices: a few hot jobs, a long cold tail.
            let unit: f64 = rng.gen();
            pool[((unit * unit) * pool.len() as f64) as usize % pool.len()].clone()
        })
        .collect();
    let mut stream_server = Server::new(ServerConfig {
        workers,
        batch_size: 4,
        ..ServerConfig::default()
    });
    let stream_start = Instant::now();
    for chunk in stream.chunks(batch) {
        stream_server
            .submit_batch(chunk)
            .expect("stream batch failed");
    }
    let stream_secs = stream_start.elapsed().as_secs_f64();
    let stats = stream_server.stats();
    let jobs_per_sec = stream_len as f64 / stream_secs.max(1e-9);

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"generated_by\": \"cargo run -p clique-bench --release --bin serve\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    out.push_str(&format!("  \"workers\": {workers},\n"));
    out.push_str(&format!("  \"unique_specs\": {},\n", pool.len()));
    out.push_str(&format!(
        "  \"cold_pass\": {{\"jobs\": {}, \"ms\": {:.2}}},\n",
        pool.len(),
        cold_ns / 1e6
    ));
    out.push_str(&format!(
        "  \"warm_pass\": {{\"jobs\": {}, \"ms\": {:.2}, \"speedup_vs_cold\": {:.1}}},\n",
        pool.len(),
        warm_ns / 1e6,
        cold_ns / warm_ns.max(1.0)
    ));
    out.push_str(&format!(
        "  \"stream\": {{\"jobs\": {stream_len}, \"batch\": {batch}, \"jobs_per_sec\": {jobs_per_sec:.0}, \"cache_hits\": {}, \"cache_misses\": {}, \"cache_evictions\": {}, \"hit_rate\": {:.3}}},\n",
        stats.cache.hits, stats.cache.misses, stats.cache.evictions, stats.cache.hit_rate()
    ));
    out.push_str("  \"determinism\": [\n");
    for (i, row) in determinism.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"spec\": {}, \"served_equals_direct\": {}}}{}\n",
            json_string(&row.spec.canonical_json()),
            row.identical,
            if i + 1 < determinism.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"determinism_all\": {all_identical}\n"));
    out.push_str("}\n");
    print!("{out}");

    eprintln!(
        "served {stream_len} jobs at {jobs_per_sec:.0} jobs/sec (hit rate {:.0}%); warm pass {:.1}x faster than cold; determinism: {}",
        100.0 * stats.cache.hit_rate(),
        cold_ns / warm_ns.max(1.0),
        if all_identical { "all records identical" } else { "DIVERGENCE" },
    );
    // The determinism column is the whole point of the harness: any
    // divergence fails the run, smoke or full.
    assert!(
        all_identical,
        "a served record diverged from its direct run"
    );
    if !smoke {
        // The acceptance bar for the committed baseline: cache hits must be
        // measurably cheaper than simulations.
        assert!(
            warm_ns * 2.0 < cold_ns,
            "warm pass ({warm_ns} ns) is not measurably faster than cold ({cold_ns} ns)"
        );
    }
}
