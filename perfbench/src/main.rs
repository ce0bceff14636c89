//! The repository benchmark: end-to-end and per-layer metrics of the
//! congested-clique workspace on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tc-dense --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! traced pass that reports the per-layer metrics. The first stdout line is
//! a run header, the last is the result object. Progress and errors go to
//! stderr. The exit code is 0 only when every output matched its oracle.
//! See `perfbench/README.md` for the workloads and the metric map.

mod direct;
mod ledger;
mod probes;
mod serve;
mod stats;
mod timing;

use std::process::ExitCode;

use clique_core::sim::transport::default_kind;
use clique_core::sim::{par, DefaultLane};

use crate::stats::Report;

/// What one run measured.
pub struct Outcome {
    /// The metrics, by name.
    pub report: Report,
    /// Jobs and checks attempted.
    pub attempted: u64,
    /// Jobs and checks that failed or disagreed with their oracle.
    pub failed: u64,
}

/// The workloads, by CLI name.
const WORKLOADS: [&str; 3] = ["tc-dense", "mst-dense", "serve-zipf"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.into_iter().find(|w| *w == value).ok_or_else(|| {
                    format!("unknown workload {value:?} (expected one of {WORKLOADS:?})")
                })?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// The run header: everything two numbers must share to be compared.
fn header(args: &Args) -> String {
    let env = |name: &str| match std::env::var(name) {
        Ok(value) => format!("\"{}\"", value.escape_default()),
        Err(_) => "null".to_owned(),
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let (workers, engine_threads) = match args.workload {
        "serve-zipf" => (serve::WORKERS, 1),
        _ => (1, par::threads()),
    };
    format!(
        "{{\"header\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{nproc},\"workers\":{workers},\"engine_threads\":{engine_threads},\
         \"lane_bits\":{},\"transport\":\"{}\",\"profile\":\"{}\",\
         \"CLIQUE_THREADS\":{},\"CLIQUE_TRANSPORT\":{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        DefaultLane::BITS,
        default_kind().name(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        env("CLIQUE_THREADS"),
        env("CLIQUE_TRANSPORT"),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", header(&args));
    let (seed, seconds) = (args.seed, args.seconds);
    let outcome = match (args.workload, args.trace) {
        ("tc-dense", false) => direct::run_e2e(&direct::TC_DENSE, seed, seconds),
        ("tc-dense", true) => direct::run_trace(&direct::TC_DENSE, seed),
        ("mst-dense", false) => direct::run_e2e(&direct::MST_DENSE, seed, seconds),
        ("mst-dense", true) => direct::run_trace(&direct::MST_DENSE, seed),
        (_, false) => serve::run_e2e(seed, seconds),
        (_, true) => serve::run_trace(seed),
    };
    println!(
        "{}",
        outcome
            .report
            .result_line(outcome.attempted, outcome.failed)
    );
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {} of {} failed", outcome.failed, outcome.attempted);
        ExitCode::FAILURE
    }
}
