//! Layer probes: each times one layer on its own, through its public API,
//! at the shape of the workload that stresses that layer.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use clique_core::registry::{self, InputKind, JobInput};
use clique_core::routing::{
    BalancedRouter, DirectRouter, RouteProtocol, RoutingDemand, ValiantRouter,
};
use clique_core::sim::linalg::IntMatrix;
use clique_core::sim::phase::PhaseOutbox;
use clique_core::sim::{BitString, CliqueConfig, NodeId, Runner, Session};
use clique_core::sketch::SignedPowerSumSketch;
use clique_core::{Semiring, SemiringMatMul, SemiringMatrix};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::direct::{MST_DENSE, TC_DENSE};
use crate::stats::{median, median_ms, ms, Report};

/// The sketch capacity `mst-dense` ends on (used by the sketch probe on
/// workloads that run no MST of that size).
pub const MST_DENSE_CAPACITY: usize = 512;

/// Output checks [`add_layer_probes`] makes (router ×3, matmul, sketch ×2).
pub const PROBE_CHECKS: u64 = 6;

/// Repetitions of each heavy probe; the probe reports the median.
const HEAVY_REPS: usize = 3;

/// Repetitions of each light probe.
const LIGHT_REPS: usize = 15;

/// The probe parameters of one workload: its synthetic engine phases (an
/// exchange in which every node sends `fanout` messages of `message_bits`,
/// and a broadcast of `broadcast_bits` per node) and the sketch capacity
/// the decode probe runs at.
#[derive(Clone, Copy, Debug)]
pub struct ProbeShape {
    n: usize,
    bandwidth: usize,
    fanout: usize,
    message_bits: usize,
    broadcast_bits: usize,
    sketch_capacity: usize,
}

impl ProbeShape {
    /// `tc-dense`: a routed cube packet (64 one-bit entries plus the
    /// router's 9-bit node and 7-bit length fields) to 127 nodes, and the
    /// 19-bit closed-walk count broadcast.
    pub fn tc_dense() -> Self {
        Self {
            n: TC_DENSE.n,
            bandwidth: TC_DENSE.bandwidth,
            fanout: 127,
            message_bits: 80,
            broadcast_bits: 19,
            sketch_capacity: MST_DENSE_CAPACITY,
        }
    }

    /// `mst-dense`: one incidence sketch at the final capacity `k` (2k
    /// field elements), broadcast and, for the exchange, sent to everyone.
    pub fn mst_dense(capacity: usize) -> Self {
        let n = MST_DENSE.n as u64;
        let field_bits = SignedPowerSumSketch::new((MST_DENSE.max_weight + 1) * n * n, capacity)
            .field()
            .element_bits();
        Self {
            n: MST_DENSE.n,
            bandwidth: MST_DENSE.bandwidth,
            fanout: MST_DENSE.n - 1,
            message_bits: 2 * capacity * field_bits,
            broadcast_bits: 2 * capacity * field_bits,
            sketch_capacity: capacity,
        }
    }

    /// `serve-zipf`: the largest served jobs (n = 32, b = 5) exchanging
    /// and broadcasting one 32-bit adjacency row per node.
    pub fn serve_zipf() -> Self {
        Self {
            n: 32,
            bandwidth: 5,
            fanout: 31,
            message_bits: 32,
            broadcast_bits: 32,
            sketch_capacity: MST_DENSE_CAPACITY,
        }
    }
}

/// Runs every layer probe and adds its metrics; returns the number of
/// probes whose output check failed.
pub fn add_layer_probes(report: &mut Report, seed: u64, shape: &ProbeShape) -> u64 {
    let mut failures = 0;
    let adjacency = tc_adjacency(seed);

    let demand = cube_shipment(&adjacency);
    let (balanced_ms, ok) = route_ms(&demand, &mut || BalancedRouter);
    failures += u64::from(!ok);
    let mut valiant_rng = ChaCha8Rng::seed_from_u64(seed);
    let (twophase_ms, ok) = route_ms(&demand, &mut || {
        ValiantRouter::new(ChaCha8Rng::seed_from_u64(valiant_rng.gen()))
    });
    failures += u64::from(!ok);
    let (direct_ms, ok) = route_ms(&demand, &mut || DirectRouter);
    failures += u64::from(!ok);
    report.add("routing.balanced_ms", balanced_ms, "ms");
    report.add("routing.twophase_ms", twophase_ms, "ms");
    report.add("routing.assign_ms", balanced_ms - twophase_ms, "ms");
    report.add("routing.direct_ms", direct_ms, "ms");

    let (matmul_ms, ok) = matmul_ms(&adjacency);
    failures += u64::from(!ok);
    report.add("core.matmul_ms", matmul_ms, "ms");
    report.add(
        "linalg.local_product_ms",
        local_product_ms(&adjacency),
        "ms",
    );

    let (exchange_ms, broadcast_ms) = phase_ms(seed, shape);
    report.add("sim.exchange_ms", exchange_ms, "ms");
    report.add("sim.broadcast_ms", broadcast_ms, "ms");

    let (ok_us, fail_us, wrong) = sketch_decode_us(seed, shape.sketch_capacity);
    failures += wrong;
    report.add("sketch.decode_ok_us", ok_us, "us");
    report.add("sketch.decode_fail_us", fail_us, "us");
    failures
}

/// The adjacency matrix of a `tc-dense`-shaped input drawn from `seed`.
fn tc_adjacency(seed: u64) -> IntMatrix {
    let JobInput::Unweighted(graph) =
        registry::generate_input(InputKind::Unweighted, TC_DENSE.family, TC_DENSE.n, seed, 0)
            .expect("tc-dense family is known")
    else {
        unreachable!("unweighted family yields an unweighted graph")
    };
    IntMatrix::from_bitmatrix(&graph.adjacency_bitmatrix())
}

/// The 3D partition of a `d × d` product over `n = d` players that the
/// cubic schedule uses: cube side `g` with `g³ ≤ n`, `g` row blocks.
struct Cube {
    d: usize,
    g: usize,
}

impl Cube {
    fn new(d: usize) -> Self {
        let g = (1..=d).take_while(|&g| g * g * g <= d).last().unwrap_or(1);
        Self { d, g }
    }

    fn block(&self, t: usize) -> std::ops::Range<usize> {
        t * self.d / self.g..(t + 1) * self.d / self.g
    }

    fn node(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.g + j) * self.g + k
    }
}

/// The first routed phase of the cubic counting product on `a · a`: every
/// row owner ships its segments of `A_ik` and `A_kj` (one bit per 0/1
/// entry) to cube node `(i, j, k)`, one packet per (owner, cube node).
fn cube_shipment(a: &IntMatrix) -> RoutingDemand {
    let cube = Cube::new(a.rows());
    let mut demand = RoutingDemand::new(a.rows());
    for i in 0..cube.g {
        for j in 0..cube.g {
            for k in 0..cube.g {
                let w = cube.node(i, j, k);
                let mut payloads: BTreeMap<usize, BitString> = BTreeMap::new();
                for (row_block, col_block) in [(i, k), (k, j)] {
                    for r in cube.block(row_block).filter(|&r| r != w) {
                        let buf = payloads.entry(r).or_default();
                        for c in cube.block(col_block) {
                            buf.push_bits(a.get(r, c), 1);
                        }
                    }
                }
                for (v, payload) in payloads {
                    demand.send(v, w, payload);
                }
            }
        }
    }
    demand
}

/// Median time of routing `demand` on `CLIQUE-UCAST(n, b)` of `tc-dense`,
/// and whether every run delivered every packet.
fn route_ms<R: clique_core::routing::Router>(
    demand: &RoutingDemand,
    make: &mut dyn FnMut() -> R,
) -> (f64, bool) {
    let runner = Runner::new(CliqueConfig::unicast(demand.n(), TC_DENSE.bandwidth));
    let mut ok = true;
    let time = median_ms(HEAVY_REPS, || {
        let mut protocol = RouteProtocol::new(make(), demand);
        match runner.execute(&mut protocol) {
            Ok(delivered) => {
                ok &= delivered.output.iter().map(Vec::len).sum::<usize>() == demand.len();
            }
            Err(_) => ok = false,
        }
    });
    (time, ok)
}

/// Median time of the distributed counting product `a · a` (the
/// `SemiringMatMul` inside `tc-dense`), and whether it matched the local
/// product.
fn matmul_ms(a: &IntMatrix) -> (f64, bool) {
    let operand = SemiringMatrix::Ints(a.clone());
    let runner = Runner::new(CliqueConfig::unicast(a.rows(), TC_DENSE.bandwidth));
    let mut product = None;
    let time = median_ms(HEAVY_REPS, || {
        product = runner
            .execute(&mut SemiringMatMul::new(
                &operand,
                &operand,
                Semiring::Counting,
            ))
            .ok()
            .map(|run| run.output);
    });
    let expected = SemiringMatrix::Ints(a.mul_counting(a));
    (time, product.as_ref() == Some(&expected))
}

/// Median time of the `g³` local block products of `tc-dense`'s cubic
/// schedule (`64 × 64` counting products at n = 512).
fn local_product_ms(a: &IntMatrix) -> f64 {
    let cube = Cube::new(a.rows());
    let blocks: Vec<Vec<IntMatrix>> = (0..cube.g)
        .map(|t| {
            (0..cube.g)
                .map(|u| {
                    let (rows, cols) = (cube.block(t), cube.block(u));
                    a.submatrix(rows.start, cols.start, rows.len(), cols.len())
                })
                .collect()
        })
        .collect();
    median_ms(HEAVY_REPS, || {
        for row in &blocks {
            for j in 0..cube.g {
                for (a_ik, b_k) in row.iter().zip(&blocks) {
                    black_box(a_ik.mul_counting(&b_k[j]));
                }
            }
        }
    })
}

/// Median times of one synthetic exchange and one synthetic broadcast
/// phase of `shape`, engine accounting and delivery included.
fn phase_ms(seed: u64, shape: &ProbeShape) -> (f64, f64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut random_bits = |len: usize| {
        let mut bits = BitString::with_capacity(len);
        for start in (0..len).step_by(64) {
            bits.push_bits(rng.gen(), (len - start).min(64));
        }
        bits
    };
    // The engines charge and deliver by length, so every node sends one
    // payload to all of its `fanout` destinations.
    let messages: Vec<BitString> = (0..shape.n)
        .map(|_| random_bits(shape.message_bits))
        .collect();
    let broadcasts: Vec<BitString> = (0..shape.n)
        .map(|_| random_bits(shape.broadcast_bits))
        .collect();

    let mut exchange = Vec::with_capacity(LIGHT_REPS);
    let mut broadcast = Vec::with_capacity(LIGHT_REPS);
    for _ in 0..LIGHT_REPS {
        let mut session = Session::new(CliqueConfig::unicast(shape.n, shape.bandwidth));
        let outs: Vec<PhaseOutbox> = messages
            .iter()
            .enumerate()
            .map(|(v, msg)| {
                let mut out = PhaseOutbox::new();
                for i in 1..=shape.fanout {
                    out.send(NodeId::new((v + i) % shape.n), msg.clone());
                }
                out
            })
            .collect();
        let start = Instant::now();
        black_box(
            session
                .exchange("probe exchange", outs)
                .expect("valid unicast phase"),
        );
        exchange.push(ms(start.elapsed()));

        let mut session = Session::new(CliqueConfig::broadcast(shape.n, shape.bandwidth));
        let start = Instant::now();
        black_box(
            session
                .broadcast_all("probe broadcast", &broadcasts)
                .expect("valid broadcast phase"),
        );
        broadcast.push(ms(start.elapsed()));
    }
    (median(&exchange), median(&broadcast))
}

/// Median decode times (µs) at sketch capacity `k` over `mst-dense`-shaped
/// edge keys: a cut of `k / 2` edges that decodes, and a cut of `2k + 1`
/// keys that must be rejected. Also returns how many of the two decoded
/// wrongly.
fn sketch_decode_us(seed: u64, k: usize) -> (f64, f64, u64) {
    let JobInput::Weighted(graph) = registry::generate_input(
        InputKind::Weighted,
        MST_DENSE.family,
        MST_DENSE.n,
        seed,
        MST_DENSE.max_weight,
    )
    .expect("mst-dense family is known") else {
        unreachable!("weighted family yields a weighted graph")
    };
    let n = graph.vertex_count() as u64;
    let universe = (graph.max_weight() + 1) * n * n;
    let mut candidates: Vec<u64> = graph
        .edges()
        .map(|(u, v, w)| w * n * n + u as u64 * n + v as u64)
        .collect();
    candidates.sort_unstable();

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5ce7c4);
    let mut shuffled = candidates.clone();
    shuffled.shuffle(&mut rng);
    let mut cut: Vec<(u64, i8)> = shuffled[..(k / 2).min(candidates.len())]
        .iter()
        .map(|&key| (key, if rng.gen() { 1 } else { -1 }))
        .collect();
    cut.sort_unstable();
    let mut decodable = SignedPowerSumSketch::new(universe, k);
    for &(key, sign) in &cut {
        if sign > 0 {
            decodable.add(key);
        } else {
            decodable.remove(key);
        }
    }
    let mut oversized = SignedPowerSumSketch::new(universe, k);
    let mut keys: Vec<u64> = Vec::new();
    while keys.len() < (2 * k + 1).min(universe as usize) {
        let key = rng.gen_range(0..universe);
        if !keys.contains(&key) {
            keys.push(key);
            oversized.add(key);
        }
    }

    let (mut ok_wrong, mut fail_wrong) = (false, false);
    let ok_ms = median_ms(HEAVY_REPS, || {
        ok_wrong |= decodable.decode_among(&candidates).as_deref() != Some(&cut[..]);
    });
    let fail_ms = median_ms(HEAVY_REPS, || {
        fail_wrong |= oversized.decode_among(&candidates).is_some();
    });
    (
        ok_ms * 1e3,
        fail_ms * 1e3,
        u64::from(ok_wrong) + u64::from(fail_wrong),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_core::registry::RunOptions;

    /// The router probe's demand is the first routed demand of `tc-dense`
    /// itself: routing it alone charges exactly the protocol's first two
    /// ledger phases.
    #[test]
    fn cube_shipment_is_the_first_routed_demand_of_tc_dense() {
        let input =
            registry::generate_input(InputKind::Unweighted, TC_DENSE.family, TC_DENSE.n, 3, 0)
                .expect("tc-dense family is known");
        let JobInput::Unweighted(graph) = &input else {
            unreachable!("unweighted family yields an unweighted graph")
        };
        let demand = cube_shipment(&IntMatrix::from_bitmatrix(&graph.adjacency_bitmatrix()));
        assert_eq!(demand.len(), 60_928);
        let routed = Runner::new(CliqueConfig::unicast(TC_DENSE.n, TC_DENSE.bandwidth))
            .execute(&mut RouteProtocol::new(BalancedRouter, &demand))
            .expect("routing");
        let job = registry::find(TC_DENSE.protocol)
            .expect("registered")
            .run(
                &input,
                &RunOptions {
                    bandwidth: TC_DENSE.bandwidth,
                    ..RunOptions::default()
                },
            )
            .expect("tc-dense job");
        assert_eq!(routed.metrics.phases[..], job.metrics.phases[..2]);
    }
}
