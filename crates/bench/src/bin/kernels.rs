//! Micro-benchmarks for the word-parallel `F₂` kernels, emitting the
//! `BENCH_kernels.json` baseline that tracks the perf trajectory of the
//! packed representations.
//!
//! Measured pairs:
//!
//! * packed `BitMatrix` multiplication ([`BitMatrix::mul_f2`]) against the
//!   retained bool-at-a-time reference `matmul_f2_scalar`, at
//!   `d ∈ {64, 128, 256}`;
//! * the counting-semiring product of 0/1 matrices (the local kernel of the
//!   `SemiringMatMul`/`TriangleCount` protocols): the word-parallel
//!   AND+popcount path against the schoolbook `u64` triple loop, at the
//!   same dimensions;
//! * 64-assignment bit-sliced `Circuit::evaluate_batch` against 64
//!   sequential `Circuit::evaluate` calls on the Strassen `d = 8` circuit.
//!
//! Every kernel is serial, so every row is a single-thread number.
//!
//! Usage:
//!
//! ```text
//! cargo run -p clique-bench --release --bin kernels > BENCH_kernels.json
//! cargo run -p clique-bench --release --bin kernels -- --smoke      # CI smoke
//! ```
//!
//! Every timed result is cross-checked against the scalar oracle before it
//! is reported; a mismatch aborts the run.

use std::hint::black_box;
use std::time::Instant;

use clique_core::circuits::matmul::{matmul_f2_scalar, strassen_matmul_f2};
use clique_core::sim::linalg::{BitMatrix, IntMatrix};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Runs `f` repeatedly until the sampling budget is spent and returns the
/// mean wall-clock nanoseconds per call (at least one call always runs).
fn time_ns(budget_ms: u64, max_reps: u32, mut f: impl FnMut()) -> f64 {
    // Warm-up call, also outside the measurement.
    f();
    let budget = std::time::Duration::from_millis(budget_ms);
    let start = Instant::now();
    let mut reps = 0u32;
    while reps < max_reps && (reps == 0 || start.elapsed() < budget) {
        f();
        reps += 1;
    }
    start.elapsed().as_nanos() as f64 / f64::from(reps)
}

fn random_matrix(rng: &mut ChaCha8Rng, d: usize) -> BitMatrix {
    let rows: Vec<Vec<bool>> = (0..d)
        .map(|_| (0..d).map(|_| rng.gen_bool(0.5)).collect())
        .collect();
    BitMatrix::from_rows(&rows)
}

struct MatMulRow {
    d: usize,
    scalar_ns: f64,
    packed_ns: f64,
}

impl MatMulRow {
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.packed_ns
    }
}

fn bench_matmul(d: usize, budget_ms: u64, max_reps: u32, rng: &mut ChaCha8Rng) -> MatMulRow {
    let a = random_matrix(rng, d);
    let b = random_matrix(rng, d);
    let a_rows = a.to_rows();
    let b_rows = b.to_rows();

    // Correctness gate: the packed product must agree with the scalar
    // oracle on this instance before anything is timed.
    assert_eq!(
        a.mul_f2(&b),
        BitMatrix::from_rows(&matmul_f2_scalar(&a_rows, &b_rows)),
        "mul_f2 disagrees with the scalar oracle at d={d}"
    );

    MatMulRow {
        d,
        scalar_ns: time_ns(budget_ms, max_reps, || {
            black_box(matmul_f2_scalar(black_box(&a_rows), black_box(&b_rows)));
        }),
        packed_ns: time_ns(budget_ms, max_reps, || {
            black_box(black_box(&a).mul_f2(black_box(&b)));
        }),
    }
}

struct CountingRow {
    d: usize,
    scalar_ns: f64,
    popcount_ns: f64,
}

impl CountingRow {
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.popcount_ns
    }
}

/// The schoolbook `u64` triple loop the popcount kernel is measured
/// against.
fn counting_scalar(a: &IntMatrix, b: &IntMatrix) -> IntMatrix {
    let d = a.rows();
    let mut out = IntMatrix::zeros(d, d);
    for i in 0..d {
        for j in 0..d {
            let mut acc = 0u64;
            for k in 0..d {
                acc += a.get(i, k) * b.get(k, j);
            }
            out.set(i, j, acc);
        }
    }
    out
}

fn bench_counting(d: usize, budget_ms: u64, max_reps: u32, rng: &mut ChaCha8Rng) -> CountingRow {
    let a_bits = random_matrix(rng, d);
    let b_bits = random_matrix(rng, d);
    let a = IntMatrix::from_bitmatrix(&a_bits);
    let b = IntMatrix::from_bitmatrix(&b_bits);

    // Correctness gate: the dispatching kernel (AND+popcount for 0/1
    // operands) must agree with the triple loop before anything is timed.
    assert_eq!(
        a.mul_counting(&b),
        counting_scalar(&a, &b),
        "counting kernel disagrees with the scalar oracle at d={d}"
    );

    CountingRow {
        d,
        scalar_ns: time_ns(budget_ms, max_reps, || {
            black_box(counting_scalar(black_box(&a), black_box(&b)));
        }),
        popcount_ns: time_ns(budget_ms, max_reps, || {
            black_box(black_box(&a).mul_counting(black_box(&b)));
        }),
    }
}

struct CircuitRow {
    assignments: usize,
    sequential_ns: f64,
    batch_ns: f64,
}

impl CircuitRow {
    fn speedup(&self) -> f64 {
        self.sequential_ns / self.batch_ns
    }
}

fn bench_circuit_eval(budget_ms: u64, max_reps: u32, rng: &mut ChaCha8Rng) -> CircuitRow {
    let mm = strassen_matmul_f2(8);
    let circuit = &mm.circuit;
    let lanes = 64usize;
    let assignments: Vec<Vec<bool>> = (0..lanes)
        .map(|_| {
            (0..circuit.inputs().len())
                .map(|_| rng.gen_bool(0.5))
                .collect()
        })
        .collect();

    // Correctness gate: every lane of the batch equals its sequential run.
    let batch = circuit.evaluate_batch(&assignments);
    for (k, assignment) in assignments.iter().enumerate() {
        assert_eq!(
            batch[k],
            circuit.evaluate(assignment),
            "evaluate_batch lane {k} disagrees with evaluate"
        );
    }

    CircuitRow {
        assignments: lanes,
        sequential_ns: time_ns(budget_ms, max_reps, || {
            for assignment in &assignments {
                black_box(circuit.evaluate(black_box(assignment)));
            }
        }),
        batch_ns: time_ns(budget_ms, max_reps, || {
            black_box(circuit.evaluate_batch(black_box(&assignments)));
        }),
    }
}

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            arg => {
                eprintln!("error: unknown flag {arg} (expected --smoke)");
                std::process::exit(2);
            }
        }
    }
    // Smoke mode (CI) only proves the harness runs end to end; the committed
    // baseline comes from a full run.
    let (budget_ms, max_reps) = if smoke { (1, 3) } else { (300, 10_000) };

    let mut rng = ChaCha8Rng::seed_from_u64(0xF2F2);
    let matmul_rows: Vec<MatMulRow> = [64usize, 128, 256]
        .iter()
        .map(|&d| {
            eprintln!("benchmarking matmul d={d} …");
            bench_matmul(d, budget_ms, max_reps, &mut rng)
        })
        .collect();
    let counting_rows: Vec<CountingRow> = [64usize, 128, 256]
        .iter()
        .map(|&d| {
            eprintln!("benchmarking counting matmul d={d} …");
            bench_counting(d, budget_ms, max_reps, &mut rng)
        })
        .collect();
    eprintln!("benchmarking circuit eval (Strassen d=8, 64 lanes) …");
    let circuit_row = bench_circuit_eval(budget_ms, max_reps, &mut rng);

    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"generated_by\": \"cargo run -p clique-bench --release --bin kernels\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    out.push_str(&format!("  \"host_parallelism\": {host_parallelism},\n"));
    out.push_str("  \"matmul_f2\": [\n");
    for (i, row) in matmul_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"d\": {}, \"scalar_ns\": {:.0}, \"packed_ns\": {:.0}, \"speedup_packed_vs_scalar\": {:.1}}}{}\n",
            row.d,
            row.scalar_ns,
            row.packed_ns,
            row.speedup(),
            if i + 1 < matmul_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"matmul_counting\": [\n");
    for (i, row) in counting_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"d\": {}, \"scalar_ns\": {:.0}, \"popcount_ns\": {:.0}, \"speedup_popcount_vs_scalar\": {:.1}}}{}\n",
            row.d,
            row.scalar_ns,
            row.popcount_ns,
            row.speedup(),
            if i + 1 < counting_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"circuit_evaluate_batch\": {{\"circuit\": \"strassen_d8\", \"assignments\": {}, \"sequential_ns\": {:.0}, \"batch_ns\": {:.0}, \"speedup_batch_vs_sequential\": {:.1}}}\n",
        circuit_row.assignments,
        circuit_row.sequential_ns,
        circuit_row.batch_ns,
        circuit_row.speedup()
    ));
    out.push_str("}\n");
    print!("{out}");

    let d256 = matmul_rows.iter().find(|r| r.d == 256).expect("d=256 row");
    let c256 = counting_rows
        .iter()
        .find(|r| r.d == 256)
        .expect("d=256 row");
    eprintln!(
        "packed matmul speedup at d=256: {:.1}x; counting popcount speedup: {:.1}x; evaluate_batch speedup: {:.1}x",
        d256.speedup(),
        c256.speedup(),
        circuit_row.speedup()
    );
    if !smoke && (d256.speedup() < 10.0 || c256.speedup() < 10.0 || circuit_row.speedup() < 10.0) {
        eprintln!("error: expected >= 10x speedups in the full baseline run");
        std::process::exit(1);
    }
}
