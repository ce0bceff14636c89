//! The experiment suite: one function per claim of the paper (see DESIGN.md,
//! per-experiment index). Each returns an [`ExperimentTable`] with the
//! measured quantities next to what the corresponding theorem predicts.

use clique_core::algebraic::{
    compute_apsp, count_triangles, semiring_matmul, sparse_matmul, ApspProtocol, Semiring,
    SemiringMatrix,
};
use clique_core::circuits::builders;
use clique_core::circuits::Circuit;
use clique_core::comm::counting;
use clique_core::comm::disjointness::DisjointnessBound;
use clique_core::graphs::behrend::behrend_set;
use clique_core::graphs::degeneracy::degeneracy;
use clique_core::graphs::iso::minimum_spanning_forest;
use clique_core::graphs::sampling::SampledSubgraphs;
use clique_core::graphs::weighted::{self, WeightedGraph};
use clique_core::graphs::{extremal, generators, Graph, Pattern};
use clique_core::lower_bounds::{
    bipartite_detection_lower_bound, clique_detection_lower_bound, cycle_detection_lower_bound,
    triangle_nof_lower_bound, DetectorKind,
};
use clique_core::routing::{
    BalancedRouter, DirectRouter, RouteProtocol, Router, RoutingDemand, ValiantRouter,
};
use clique_core::sim::linalg::IntMatrix;
use clique_core::sim::prelude::*;
use clique_core::sim::transport::INJECTABLE_FAULTS;
use clique_core::subgraph::{detect_subgraph_turan, SketchReconstruction};
use clique_core::triangle::{
    detect_triangle_dlp, detect_triangle_trivial, detect_triangle_via_matmul, MatMulStrategy,
};
use clique_core::{compute_msf, detect_subgraph_adaptive, simulate_circuit, InputPartition};
use clique_serve::{JobResult, JobSpec, Server, ServerConfig};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::table::{fmt_f64, ExperimentTable};

/// How large a parameter sweep to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small sizes, suitable for Criterion benchmarks and CI.
    Quick,
    /// The sizes reported in EXPERIMENTS.md.
    Full,
}

impl Scale {
    fn pick<T: Copy>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

fn log2_bandwidth(n: usize) -> usize {
    ((n as f64).log2().ceil() as usize).max(1)
}

/// E1 — Theorem 2: bounded-depth circuits of separable gates are simulated
/// in `O(depth)` rounds.
pub(crate) fn e1_circuit_simulation(scale: Scale) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E1",
        "circuit-to-clique simulation (Theorem 2)",
        "a depth-D circuit with n²·s wires of b_sep-separable gates runs in O(D) rounds of CLIQUE-UCAST(n, O(b_sep+s))",
        &[
            "circuit", "players n", "inputs", "depth D", "wires", "density s", "bandwidth",
            "rounds", "rounds/(D+2)", "max phase rounds", "correct",
        ],
    );
    let sizes: &[usize] = match scale {
        Scale::Quick => &[8],
        Scale::Full => &[8, 16, 24],
    };
    for &n in sizes {
        let m = n * n;
        let circuits: Vec<(&str, Circuit)> = vec![
            ("parity (1 XOR gate)", builders::parity(m)),
            ("parity tree (arity 4)", builders::parity_tree(m, 4)),
            ("majority", builders::majority(m)),
            ("MOD6 of MOD6", builders::mod_of_mods(m, 6, n)),
            (
                "exactly-k threshold",
                builders::exactly_k(m, (m / 3) as u64),
            ),
            ("inner product mod 2", builders::inner_product_mod2(m / 2)),
        ];
        let mut r = rng(100 + n as u64);
        for (name, circuit) in circuits {
            let s = circuit.wire_density(n);
            let bandwidth = (s + log2_bandwidth(n)).max(circuit.max_separability_bits());
            let input: Vec<bool> = (0..circuit.inputs().len())
                .map(|_| r.gen_bool(0.5))
                .collect();
            let expected = circuit.evaluate(&input);
            let sim = simulate_circuit(&circuit, &input, n, bandwidth, InputPartition::RoundRobin)
                .expect("simulation failed");
            let depth = circuit.depth();
            table.push_row(vec![
                name.to_owned(),
                n.to_string(),
                circuit.inputs().len().to_string(),
                depth.to_string(),
                circuit.wire_count().to_string(),
                s.to_string(),
                bandwidth.to_string(),
                sim.rounds().to_string(),
                fmt_f64(sim.rounds() as f64 / (depth as f64 + 2.0)),
                sim.max_phase_rounds().to_string(),
                (sim.outputs == expected).to_string(),
            ]);
        }
    }
    table
}

/// E2 — the routing substrate: balanced demands route in O(1) rounds.
pub(crate) fn e2_routing(scale: Scale) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E2",
        "balanced routing substrate (Lenzen [28] stand-in)",
        "balanced demands (≤ n·b bits in/out per node) are delivered in O(1) rounds; direct delivery degrades to Θ(n) on concentrated demands, and the balanced router never takes more rounds than direct delivery",
        &["n", "demand", "router", "rounds"],
    );
    let sizes: &[usize] = match scale {
        Scale::Quick => &[16],
        Scale::Full => &[16, 32, 64],
    };
    for &n in sizes {
        let b = log2_bandwidth(n);
        let mut demands: Vec<(&str, RoutingDemand)> = Vec::new();
        // Concentrated: node 0 sends n packets of b bits to node 1.
        let mut concentrated = RoutingDemand::new(n);
        for i in 0..n {
            concentrated.send(0, 1, BitString::from_bits(i as u64 % 16, b));
        }
        demands.push(("concentrated 0→1", concentrated));
        // All-to-all: every ordered pair exchanges b bits.
        let mut all_to_all = RoutingDemand::new(n);
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    all_to_all.send(s, t, BitString::from_bits((s + t) as u64 % 16, b));
                }
            }
        }
        demands.push(("all-to-all", all_to_all));
        let runner = Runner::new(CliqueConfig::unicast(n, b));
        for (name, demand) in demands {
            let routers: Vec<(&str, Box<dyn Router>)> = vec![
                ("direct", Box::new(DirectRouter)),
                ("valiant", Box::new(ValiantRouter::new(rng(7)))),
                ("balanced (Lenzen stand-in)", Box::new(BalancedRouter)),
            ];
            for (router_name, router) in routers {
                let outcome = runner
                    .execute(&mut RouteProtocol::new(router, &demand))
                    .expect("routing failed");
                table.push_row(vec![
                    n.to_string(),
                    name.to_owned(),
                    router_name.to_owned(),
                    outcome.rounds().to_string(),
                ]);
            }
        }
    }
    table
}

/// E3 — Section 2.1: triangle detection through matrix-multiplication
/// circuits, against the trivial and DLP baselines.
pub(crate) fn e3_triangle_matmul(scale: Scale) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E3",
        "triangle detection via matrix multiplication (Section 2.1)",
        "a size-O(n^{2+s}) F2 matrix-multiplication circuit yields triangle detection whose bandwidth/round product scales with the circuit's wire density; baselines: trivial ⌈n/b⌉ and DLP Õ(n^{1/3}/b)",
        &["n", "graph", "algorithm", "rounds", "total bits", "answer", "ground truth"],
    );
    let sizes: &[usize] = match scale {
        Scale::Quick => &[8],
        Scale::Full => &[8, 12, 16],
    };
    for &n in sizes {
        let b = log2_bandwidth(n);
        let mut r = rng(300 + n as u64);
        let sparse_yes = {
            let host = generators::erdos_renyi(n, 1.5 / n as f64, &mut r);
            generators::plant_copy(&host, &generators::complete(3), &mut r).0
        };
        let no_instance = generators::complete_bipartite(n / 2, n - n / 2);
        for (gname, g) in [
            ("planted triangle", &sparse_yes),
            ("bipartite (no triangle)", &no_instance),
        ] {
            let truth = clique_core::graphs::iso::has_triangle(g);
            let mut runs: Vec<(&str, clique_core::DetectionOutcome)> = vec![
                ("trivial broadcast", detect_triangle_trivial(g, b).unwrap()),
                ("DLP (deterministic)", detect_triangle_dlp(g, b).unwrap()),
                (
                    "matmul (naive, ω=3)",
                    detect_triangle_via_matmul(g, b, MatMulStrategy::Naive, 3, &mut r).unwrap(),
                ),
            ];
            if matches!(scale, Scale::Full) {
                runs.push((
                    "matmul (Strassen, ω≈2.81)",
                    detect_triangle_via_matmul(g, b, MatMulStrategy::Strassen, 3, &mut r).unwrap(),
                ));
            }
            for (alg, outcome) in runs {
                table.push_row(vec![
                    n.to_string(),
                    gname.to_owned(),
                    alg.to_owned(),
                    outcome.rounds().to_string(),
                    outcome.total_bits().to_string(),
                    outcome.contains.to_string(),
                    truth.to_string(),
                ]);
            }
        }
    }
    table
}

/// E4 — Theorem 7: subgraph detection with known Turán numbers.
pub(crate) fn e4_subgraph_turan(scale: Scale) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E4",
        "H-subgraph detection with Turán-derived sketches (Theorem 7)",
        "H-detection runs in O(ex(n,H) log n /(n b)) rounds of CLIQUE-BCAST: Õ(1/b) for trees, Õ(√n/b) for C4/K_{2,2}, Õ(n^{1/3}/b) for C6, trivial Õ(n/b) for non-bipartite H",
        &[
            "pattern", "n", "instance", "rounds", "trivial rounds", "predicted O(ex log n/(n b))",
            "answer", "ground truth",
        ],
    );
    let sizes: &[usize] = match scale {
        Scale::Quick => &[64],
        Scale::Full => &[64, 128, 256],
    };
    for &n in sizes {
        let b = log2_bandwidth(n);
        let mut r = rng(400 + n as u64);
        let patterns = [
            Pattern::Path(4),
            Pattern::Star(3),
            Pattern::Cycle(4),
            Pattern::CompleteBipartite(2, 2),
            Pattern::Cycle(6),
            Pattern::Clique(4),
        ];
        for pattern in patterns {
            // K4 at n = 256 needs capacity ≈ n and an expensive decode; skip
            // the largest size for the non-bipartite pattern (its bound is
            // the trivial one anyway).
            if matches!(pattern, Pattern::Clique(4)) && n > 128 {
                continue;
            }
            let h = pattern.graph();
            // A pattern-free instance and a planted instance.
            let free: Graph = match &pattern {
                Pattern::Cycle(4) | Pattern::CompleteBipartite(2, 2) => extremal::dense_c4_free(n),
                Pattern::Clique(4) => generators::turan_graph(n, 3),
                Pattern::Cycle(l) => extremal::dense_cycle_free(n, *l, &mut r),
                _ => Graph::empty(n),
            };
            let planted = {
                let host = generators::erdos_renyi(n, 1.0 / n as f64, &mut r);
                generators::plant_copy(&host, &h, &mut r).0
            };
            for (iname, g) in [("pattern-free", &free), ("planted copy", &planted)] {
                let truth = clique_core::graphs::iso::contains_subgraph(g, &h);
                let outcome = detect_subgraph_turan(g, &pattern, b).unwrap();
                let predicted =
                    pattern.ex_upper_bound(n) * (n as f64).log2() / (n as f64 * b as f64);
                table.push_row(vec![
                    pattern.name(),
                    n.to_string(),
                    iname.to_owned(),
                    outcome.rounds().to_string(),
                    (n as u64).div_ceil(b as u64).to_string(),
                    fmt_f64(predicted),
                    outcome.contains.to_string(),
                    truth.to_string(),
                ]);
            }
        }
    }
    table
}

/// E5 — Theorem 9 / Lemma 8: adaptive detection and degeneracy sampling.
pub(crate) fn e5_adaptive(scale: Scale) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E5",
        "adaptive detection without knowing ex(n,H) (Theorem 9, Lemma 8)",
        "sampled levels G_j have degeneracy ≈ 2^{-j}·degeneracy(G); the adaptive algorithm matches Theorem 7 up to an O(log n) factor without knowing ex(n,H)",
        &["what", "n", "pattern/level", "instance", "value", "reference"],
    );
    let n = scale.pick(64, 128);
    let b = log2_bandwidth(n);
    let mut r = rng(500);

    // Lemma 8: degeneracy of the sampled levels of a dense graph.
    let dense = generators::erdos_renyi(n, 0.5, &mut r);
    let k = degeneracy(&dense);
    let samples = SampledSubgraphs::sample(&dense, &mut r);
    for (j, d) in samples.level_degeneracies().iter().enumerate().take(5) {
        table.push_row(vec![
            "Lemma 8 level degeneracy".to_owned(),
            n.to_string(),
            format!("G_{j}"),
            "G(n, 1/2)".to_owned(),
            d.to_string(),
            fmt_f64(k as f64 / f64::powi(2.0, j as i32)),
        ]);
    }

    // Theorem 9: adaptive detection cost vs the known-Turán protocol.
    for pattern in [Pattern::Path(4), Pattern::Cycle(4), Pattern::Clique(3)] {
        let h = pattern.graph();
        let planted = {
            let host = generators::erdos_renyi(n, 0.3, &mut r);
            generators::plant_copy(&host, &h, &mut r).0
        };
        let free: Graph = match &pattern {
            Pattern::Cycle(4) => extremal::dense_c4_free(n),
            Pattern::Clique(3) => generators::complete_bipartite(n / 2, n - n / 2),
            _ => Graph::empty(n),
        };
        for (iname, g) in [("planted/dense", &planted), ("pattern-free", &free)] {
            let truth = clique_core::graphs::iso::contains_subgraph(g, &h);
            let adaptive = detect_subgraph_adaptive(g, &pattern, b, &mut r).unwrap();
            let turan = detect_subgraph_turan(g, &pattern, b).unwrap();
            assert_eq!(adaptive.outcome.contains, truth, "adaptive answer wrong");
            table.push_row(vec![
                "Theorem 9 adaptive rounds".to_owned(),
                n.to_string(),
                pattern.name(),
                iname.to_owned(),
                adaptive.rounds().to_string(),
                format!("Theorem 7 (known ex): {}", turan.rounds()),
            ]);
        }
    }
    table
}

/// E6 — Theorem 15: K_ℓ detection needs Ω(n/b) broadcast rounds.
pub(crate) fn e6_lower_bound_cliques(scale: Scale) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E6",
        "K_ℓ-detection lower bound (Theorem 15 via Lemmas 13/14)",
        "the (K_ℓ, K_{N,N}) gadget encodes disjointness on Θ(n²) elements, so K_ℓ-detection needs Ω(n/b) rounds; the trivial upper bound is ⌈n/b⌉",
        &["ℓ", "n", "elements |E_F|", "implied lower bound (rounds)", "measured upper bound (rounds)", "all trials correct"],
    );
    let sizes: &[usize] = match scale {
        Scale::Quick => &[32],
        Scale::Full => &[32, 64, 96],
    };
    let trials = scale.pick(2, 4);
    for &n in sizes {
        let b = log2_bandwidth(n);
        for l in [4usize, 5] {
            let mut r = rng(600 + (n + l) as u64);
            let (lbg, report) = clique_detection_lower_bound(
                l,
                n,
                b,
                DetectorKind::TrivialBroadcast,
                trials,
                &mut r,
            )
            .expect("gadget construction failed");
            table.push_row(vec![
                l.to_string(),
                n.to_string(),
                lbg.elements().to_string(),
                fmt_f64(report.implied_round_lower_bound),
                report.max_rounds.to_string(),
                report.all_correct().to_string(),
            ]);
        }
    }
    table
}

/// E7 — Theorem 19: C_ℓ detection needs Ω(ex(n, C_ℓ)/(n b)) rounds.
pub(crate) fn e7_lower_bound_cycles(scale: Scale) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E7",
        "C_ℓ-detection lower bound (Theorem 19 via Lemma 18)",
        "the (C_ℓ, F) gadget with a dense bipartite C_ℓ-free F encodes Θ(ex(N,C_ℓ)) elements; both CLIQUE-BCAST and CONGEST bounds follow (the gadget is O(1)-sparse)",
        &["ℓ", "n", "elements |E_F|", "cut size", "implied BCAST bound", "implied CONGEST bound", "measured upper bound", "all correct"],
    );
    let sizes: &[usize] = match scale {
        Scale::Quick => &[40],
        Scale::Full => &[40, 80, 120],
    };
    let trials = scale.pick(2, 4);
    for &n in sizes {
        let b = log2_bandwidth(n);
        for l in [4usize, 5, 6] {
            let mut r = rng(700 + (n + l) as u64);
            let Ok((lbg, report)) = cycle_detection_lower_bound(
                l,
                n,
                b,
                DetectorKind::TrivialBroadcast,
                trials,
                &mut r,
            ) else {
                continue;
            };
            table.push_row(vec![
                l.to_string(),
                n.to_string(),
                lbg.elements().to_string(),
                lbg.cut_size().to_string(),
                fmt_f64(lbg.implied_bcast_rounds(DisjointnessBound::TwoPartyDeterministic, b)),
                fmt_f64(lbg.implied_congest_rounds(DisjointnessBound::TwoPartyDeterministic, b)),
                report.max_rounds.to_string(),
                report.all_correct().to_string(),
            ]);
        }
    }
    table
}

/// E8 — Theorem 22: K_{ℓ,ℓ} detection needs Ω(√n/b) rounds.
pub(crate) fn e8_lower_bound_bipartite(scale: Scale) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E8",
        "K_{ℓ,ℓ}-detection lower bound (Theorem 22 via Lemma 21)",
        "the (K_{ℓ,ℓ}, C4-free F) gadget encodes Θ(ex(N,C4)) = Θ(N^{3/2}) elements, implying Ω(√n/b) rounds",
        &["ℓ", "n", "elements |E_F|", "implied lower bound", "measured upper bound", "all correct"],
    );
    let sizes: &[usize] = match scale {
        Scale::Quick => &[44],
        Scale::Full => &[44, 88, 132],
    };
    let trials = scale.pick(2, 4);
    for &n in sizes {
        let b = log2_bandwidth(n);
        for l in [2usize, 3] {
            let mut r = rng(800 + (n + l) as u64);
            let Ok((lbg, report)) = bipartite_detection_lower_bound(
                l,
                n,
                b,
                DetectorKind::TrivialBroadcast,
                trials,
                &mut r,
            ) else {
                continue;
            };
            table.push_row(vec![
                l.to_string(),
                n.to_string(),
                lbg.elements().to_string(),
                fmt_f64(report.implied_round_lower_bound),
                report.max_rounds.to_string(),
                report.all_correct().to_string(),
            ]);
        }
    }
    table
}

/// E9 — Theorem 24 / Corollary 25: triangle detection vs 3-party NOF
/// disjointness over Ruzsa–Szemerédi graphs.
pub(crate) fn e9_triangle_nof(scale: Scale) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E9",
        "triangle-detection lower bound from 3-party NOF disjointness (Theorem 24, Corollary 25)",
        "Ruzsa–Szemerédi graphs give m(n) = n²/e^{O(√log n)} edge-disjoint triangles; an R-round triangle protocol yields an O(R·n·b)-bit NOF protocol, so deterministic detection needs Ω(m(n)/(n·b)) rounds",
        &[
            "RS parameter", "n (players)", "|Behrend set|", "elements m(n)",
            "implied deterministic bound", "implied randomized bound", "trivial upper bound", "reduction correct",
        ],
    );
    let params: &[usize] = match scale {
        Scale::Quick => &[12],
        Scale::Full => &[12, 24, 48, 96],
    };
    for &m in params {
        let b = log2_bandwidth(6 * m);
        let mut r = rng(900 + m as u64);
        // Only run the full reduction (with an actual detection protocol) on
        // the smaller sizes; for larger ones report the structural numbers.
        let trials = if m <= 24 { scale.pick(2, 4) } else { 0 };
        let (reduction, report) = triangle_nof_lower_bound(m, b, true, trials, &mut r);
        let n = reduction.vertex_count();
        table.push_row(vec![
            m.to_string(),
            n.to_string(),
            behrend_set(m).len().to_string(),
            reduction.elements().to_string(),
            fmt_f64(
                reduction.implied_bcast_rounds(DisjointnessBound::ThreePartyNofDeterministic, b),
            ),
            fmt_f64(reduction.implied_bcast_rounds(DisjointnessBound::ThreePartyNofRandomized, b)),
            (n as u64).div_ceil(b as u64).to_string(),
            if trials > 0 {
                report.all_correct().to_string()
            } else {
                "(structure only)".to_owned()
            },
        ]);
    }
    table
}

/// E10 — the non-explicit counting lower bound and the trivial upper bound.
pub(crate) fn e10_counting(_scale: Scale) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E10",
        "non-explicit counting bound vs trivial upper bound",
        "some function needs (n − O(log n))/b rounds in CLIQUE-UCAST(n,b), and ⌈n/b⌉ rounds always suffice — the two are within a (1+o(1)) factor",
        &["n", "b", "trivial upper bound", "counting lower bound", "ratio"],
    );
    for n in [64usize, 256, 1024, 4096] {
        for b in [1usize, log2_bandwidth(n)] {
            let upper = counting::trivial_upper_bound_rounds(n, b);
            let lower = counting::nonexplicit_lower_bound_rounds(n, b);
            table.push_row(vec![
                n.to_string(),
                b.to_string(),
                upper.to_string(),
                fmt_f64(lower),
                fmt_f64(counting::counting_gap(n, b)),
            ]);
        }
    }
    table
}

/// E11 — Claim 6: H-free graphs have degeneracy at most 4·ex(n,H)/n.
pub(crate) fn e11_degeneracy_turan(scale: Scale) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E11",
        "degeneracy of H-free graphs (Claim 6)",
        "every H-free graph has degeneracy ≤ 4·ex(n,H)/n",
        &[
            "pattern",
            "n",
            "graph",
            "edges",
            "degeneracy",
            "bound 4·ex(n,H)/n",
        ],
    );
    let n = scale.pick(64, 128);
    let mut r = rng(1100);
    let cases: Vec<(Pattern, &str, Graph)> = vec![
        (
            Pattern::Cycle(4),
            "polarity graph",
            extremal::dense_c4_free(n),
        ),
        (
            Pattern::Cycle(4),
            "greedy C4-free",
            extremal::greedy_pattern_free(n, &generators::cycle(4), 6 * n, &mut r),
        ),
        (
            Pattern::Clique(4),
            "Turán graph T(n,3)",
            generators::turan_graph(n, 3),
        ),
        (
            Pattern::Clique(3),
            "complete bipartite",
            generators::complete_bipartite(n / 2, n - n / 2),
        ),
        (
            Pattern::Cycle(5),
            "greedy C5-free",
            extremal::greedy_pattern_free(n, &generators::cycle(5), 6 * n, &mut r),
        ),
    ];
    for (pattern, name, g) in cases {
        let bound = 4.0 * pattern.ex_upper_bound(n) / n as f64;
        let d = degeneracy(&g);
        assert!(
            (d as f64) <= bound + 1e-9,
            "Claim 6 violated for {name}: degeneracy {d} > bound {bound}"
        );
        table.push_row(vec![
            pattern.name(),
            n.to_string(),
            name.to_owned(),
            g.edge_count().to_string(),
            d.to_string(),
            fmt_f64(bound),
        ]);
    }
    table
}

/// E12 — the Becker et al. reconstruction substrate.
pub(crate) fn e12_sketch_reconstruction(scale: Scale) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E12",
        "one-round reconstruction from degeneracy sketches (Becker et al. [2])",
        "graphs of degeneracy ≤ k are reconstructed from one O(k log n)-bit broadcast per node; higher degeneracy is detected as failure",
        &["n", "true degeneracy", "capacity k", "message bits/node", "rounds (b = log n)", "outcome"],
    );
    let sizes: &[usize] = match scale {
        Scale::Quick => &[64],
        Scale::Full => &[64, 128, 256],
    };
    for &n in sizes {
        let mut r = rng(1200 + n as u64);
        let instances: Vec<Graph> = [2usize, 4, 8]
            .iter()
            .map(|&d| generators::random_bounded_degeneracy(n, d, &mut r))
            .collect();
        let runner = Runner::new(CliqueConfig::broadcast(n, log2_bandwidth(n)));
        for g in &instances {
            let true_d = degeneracy(g);
            for capacity in [true_d.max(1), (true_d / 2).max(1)] {
                let run = runner
                    .execute(&mut SketchReconstruction::new(g, capacity))
                    .expect("reconstruction run failed");
                let outcome = match &run.result {
                    Ok(decoded) if decoded == g => "exact reconstruction",
                    Ok(_) => "WRONG reconstruction",
                    Err(_) => "failure reported",
                };
                // Every node broadcasts one sketch of the same length.
                table.push_row(vec![
                    n.to_string(),
                    true_d.to_string(),
                    capacity.to_string(),
                    (run.total_bits() / n as u64).to_string(),
                    run.rounds().to_string(),
                    outcome.to_owned(),
                ]);
            }
        }
    }
    table
}

/// E13 — the algebraic follow-up line (Censor-Hillel et al. / Le Gall):
/// the 3D-partitioned distributed semiring matrix product and its
/// consumers.
pub(crate) fn e13_semiring_matmul(scale: Scale) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E13",
        "O(n^{1/3})-round semiring matrix product and consumers (algebraic congested clique)",
        "the 3D-partitioned distributed product costs Õ(n^{1/3}/b) rounds for d = n: rounds·b/n^{1/3} stays within logarithmic drift across the grid (entry widths contribute the log factors); TriangleCount reproduces iso::triangles exactly; repeated (min,+) squaring yields BFS distances",
        &[
            "what", "n", "b", "detail", "rounds", "total bits", "n^{1/3}/b",
            "rounds·b/n^{1/3}", "correct",
        ],
    );

    // The (n, b) grid: d = n, one player per matrix row.
    let sizes: &[usize] = match scale {
        Scale::Quick => &[27],
        Scale::Full => &[8, 27, 64, 125],
    };
    let bandwidths: &[usize] = match scale {
        Scale::Quick => &[4],
        Scale::Full => &[1, 4, 8],
    };
    for &n in sizes {
        let mut r = rng(1300 + n as u64);
        let graph = generators::erdos_renyi(n, 0.4, &mut r);
        let adjacency_bits = graph.adjacency_bitmatrix();
        let adjacency_ints = IntMatrix::from_bitmatrix(&adjacency_bits);
        let hop_matrix = ApspProtocol::hop_matrix(&graph);
        let operands: Vec<(Semiring, SemiringMatrix)> = vec![
            (Semiring::Boolean, SemiringMatrix::Bits(adjacency_bits)),
            (Semiring::Counting, SemiringMatrix::Ints(adjacency_ints)),
            (Semiring::MinPlus, SemiringMatrix::Ints(hop_matrix)),
        ];
        for &b in bandwidths {
            for (semiring, operand) in &operands {
                let outcome = semiring_matmul(operand, operand, *semiring, b).unwrap();
                let expected = match (semiring, operand) {
                    (Semiring::Boolean, SemiringMatrix::Bits(m)) => {
                        SemiringMatrix::Bits(m.mul_bool(m))
                    }
                    (Semiring::Counting, SemiringMatrix::Ints(m)) => {
                        SemiringMatrix::Ints(m.mul_counting(m))
                    }
                    (Semiring::MinPlus, SemiringMatrix::Ints(m)) => {
                        SemiringMatrix::Ints(m.mul_min_plus(m))
                    }
                    _ => unreachable!("operand representation fixed above"),
                };
                let cbrt = (n as f64).cbrt();
                table.push_row(vec![
                    "SemiringMatMul A·A".to_owned(),
                    n.to_string(),
                    b.to_string(),
                    semiring.name().to_owned(),
                    outcome.rounds().to_string(),
                    outcome.total_bits().to_string(),
                    fmt_f64(cbrt / b as f64),
                    fmt_f64(outcome.rounds() as f64 * b as f64 / cbrt),
                    (*outcome == expected).to_string(),
                ]);
            }
        }
    }

    // TriangleCount against the ground-truth oracle on seeded random
    // graphs.
    let count_sizes: &[usize] = match scale {
        Scale::Quick => &[16],
        Scale::Full => &[16, 32, 64],
    };
    for &n in count_sizes {
        let b = log2_bandwidth(n);
        let mut r = rng(1350 + n as u64);
        for p in [0.15, 0.45] {
            let g = generators::erdos_renyi(n, p, &mut r);
            let truth = clique_core::graphs::iso::triangle_count(&g);
            let outcome = count_triangles(&g, b).unwrap();
            let cbrt = (n as f64).cbrt();
            table.push_row(vec![
                "TriangleCount trace(A³)/6".to_owned(),
                n.to_string(),
                b.to_string(),
                format!("G(n, {p}), {} triangles", truth),
                outcome.rounds().to_string(),
                outcome.total_bits().to_string(),
                fmt_f64(cbrt / b as f64),
                fmt_f64(outcome.rounds() as f64 * b as f64 / cbrt),
                (*outcome == truth).to_string(),
            ]);
        }
    }

    // (min, +) APSP vs BFS distances.
    let apsp_sizes: &[usize] = match scale {
        Scale::Quick => &[16],
        Scale::Full => &[16, 32],
    };
    for &n in apsp_sizes {
        let b = log2_bandwidth(n);
        let mut r = rng(1370 + n as u64);
        for (name, g) in [
            ("path (diameter n−1)", generators::path(n)),
            (
                "G(n, 2/n)",
                generators::erdos_renyi(n, 2.0 / n as f64, &mut r),
            ),
        ] {
            let outcome = compute_apsp(&g, b).unwrap();
            let correct = clique_core::graphs::iso::bfs_distances(&g) == *outcome;
            let cbrt = (n as f64).cbrt();
            table.push_row(vec![
                "ApspProtocol (min,+) squaring".to_owned(),
                n.to_string(),
                b.to_string(),
                name.to_owned(),
                outcome.rounds().to_string(),
                outcome.total_bits().to_string(),
                fmt_f64(cbrt / b as f64),
                fmt_f64(outcome.rounds() as f64 * b as f64 / cbrt),
                correct.to_string(),
            ]);
        }
    }
    table
}

/// The registry protocols (and input families) the serving-layer
/// experiments E14 and E16 submit.
const SERVED_CASES: &[(&str, &str)] = &[
    ("mst", "weighted_random_tree"),
    ("triangle-count", "erdos_renyi(p=0.5)"),
    ("apsp", "erdos_renyi(p=0.15)"),
    ("c4-turan-sketch", "erdos_renyi(p=0.15)"),
    ("c4-full-broadcast", "cycle"),
];

/// A served job on `n` players at `b = ⌈log₂ n⌉`; weighted families draw
/// weights up to `2n`.
fn served_spec(protocol: &str, family: &str, n: usize, seed: u64) -> JobSpec {
    let b = log2_bandwidth(n);
    if protocol == "mst" {
        JobSpec::weighted(protocol, family, n, b, 2 * n as u64, seed)
    } else {
        JobSpec::unweighted(protocol, family, n, b, seed)
    }
}

/// Serves `specs` through `server`; an experiment submits only valid
/// specs, so a failed job is a defect.
fn serve_all(server: &mut Server, specs: &[JobSpec]) -> Vec<JobResult> {
    server
        .submit_jobs(specs)
        .into_iter()
        .map(|outcome| {
            outcome
                .result
                .unwrap_or_else(|err| panic!("served job {} failed: {err}", outcome.key))
        })
        .collect()
}

/// E14 — server fleet determinism: one fixed batch of registry jobs
/// served cold at 1, 2 and 4 workers, with every served record pinned
/// byte-identical to the 1-worker fleet's.
pub(crate) fn e14_parallel_scaling(scale: Scale) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E14",
        "server fleet determinism",
        "every record served at 2 and 4 workers is byte-identical to the 1-worker fleet's (a protocol run is serial, so its record cannot depend on the worker that ran it)",
        &["workers", "jobs", "waves", "transcript identical"],
    );
    let sizes: &[usize] = scale.pick(&[12, 16][..], &[16, 24, 32][..]);
    let batch: Vec<JobSpec> = SERVED_CASES
        .iter()
        .flat_map(|&(protocol, family)| {
            sizes.iter().flat_map(move |&n| {
                (1..=4u64).map(move |seed| served_spec(protocol, family, n, seed))
            })
        })
        .collect();
    let mut baseline: Option<Vec<String>> = None;
    for workers in [1usize, 2, 4] {
        let mut server = Server::new(ServerConfig {
            workers,
            ..ServerConfig::default()
        });
        let records: Vec<String> = serve_all(&mut server, &batch)
            .into_iter()
            .map(|r| r.record)
            .collect();
        let base_records = baseline.get_or_insert_with(|| records.clone());
        table.push_row(vec![
            workers.to_string(),
            batch.len().to_string(),
            server.stats().waves.to_string(),
            (*base_records == records).to_string(),
        ]);
    }
    table
}

/// E15 — constant-round deterministic MST on graph sketches: phases (and
/// hence rounds at `b = Θ(log n)`) stay flat as `n` grows on bounded-cut
/// families, with a clique as the escalation contrast.
pub(crate) fn e15_mst_sketches(scale: Scale) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E15",
        "deterministic MST on graph sketches (signed-incidence Borůvka)",
        "with O(k log n)-bit incidence sketches, families whose contractions keep a decodable component finish in one broadcast phase at every size — the constant-round plateau; a clique forces Θ(log(n/k)) capacity escalations (contrast row); the forest always equals the Kruskal oracle",
        &[
            "family",
            "n",
            "m",
            "b",
            "base k",
            "phases",
            "final k",
            "rounds",
            "bits",
            "weight = oracle",
        ],
    );
    let sizes: &[usize] = scale.pick(&[16, 24, 32][..], &[16, 32, 48, 64, 96][..]);
    let base_capacity = 4;
    for &n in sizes {
        let b = log2_bandwidth(n);
        // Polynomially bounded weights, small enough to force duplicates.
        let max_weight = 2 * n as u64;
        let mut r = rng(1500 + n as u64);
        let families: Vec<(&str, WeightedGraph)> = vec![
            ("path", weighted::weighted_path(n, max_weight, &mut r)),
            ("cycle", weighted::weighted_cycle(n, max_weight, &mut r)),
            (
                "random tree",
                weighted::weighted_random_tree(n, max_weight, &mut r),
            ),
            (
                "sparse G(n, 3/n)",
                weighted::weighted_erdos_renyi(n, 3.0 / n as f64, max_weight, &mut r),
            ),
            (
                "dense C4-free (polarity)",
                weighted::random_weights(&extremal::dense_c4_free(n), max_weight, &mut r),
            ),
            (
                "complete (contrast)",
                weighted::weighted_complete(n, max_weight, &mut r),
            ),
        ];
        for (family, graph) in families {
            let run = compute_msf(&graph, base_capacity, b).expect("msf run failed");
            let oracle = minimum_spanning_forest(&graph);
            table.push_row(vec![
                family.to_owned(),
                n.to_string(),
                graph.edge_count().to_string(),
                b.to_string(),
                base_capacity.to_string(),
                run.phases.to_string(),
                run.final_capacity.to_string(),
                run.rounds().to_string(),
                run.total_bits().to_string(),
                (run.forest() == oracle).to_string(),
            ]);
        }
    }
    table
}

/// E16 — serving layer: the sharded, caching job server returns transcripts
/// byte-identical to direct `Runner` executions.
pub(crate) fn e16_serve(scale: Scale) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E16",
        "serving layer: sharded caching job server vs direct runs",
        "served transcripts are byte-identical to direct Runner executions at every fleet size and worker count, same-batch duplicates run once, and a warm resubmission is answered entirely from the transcript cache",
        &[
            "protocol",
            "family",
            "jobs",
            "unique",
            "cold ran",
            "warm hits",
            "served = direct",
            "1 worker = 4 workers",
        ],
    );
    let sizes: &[usize] = scale.pick(&[6, 9][..], &[6, 9, 14, 20][..]);
    let seeds: &[u64] = &[0x5EED, 0xD1FF];
    for &(protocol, family) in SERVED_CASES {
        let specs: Vec<JobSpec> = sizes
            .iter()
            .flat_map(|&n| {
                seeds
                    .iter()
                    .map(move |&seed| served_spec(protocol, family, n, seed))
            })
            .collect();
        // Every spec appears twice in the cold batch, so in-batch dedupe is
        // exercised alongside the cache.
        let mix: Vec<JobSpec> = specs.iter().chain(specs.iter()).cloned().collect();
        let mut fleet = Server::new(ServerConfig {
            workers: 4,
            batch_size: 2,
            ..ServerConfig::default()
        });
        let mut solo = Server::new(ServerConfig::default());
        let cold = serve_all(&mut fleet, &mix);
        let cold_ran = fleet.stats().ran;
        let warm = serve_all(&mut fleet, &mix);
        let warm_hits = warm.iter().filter(|r| r.cached).count();
        let solo_results = serve_all(&mut solo, &mix);
        let direct_ok = mix
            .iter()
            .zip(cold.iter().zip(&warm))
            .all(|(spec, (c, w))| {
                let direct = Server::run_direct(spec).expect("direct run failed");
                c.record == direct && w.record == direct
            });
        let fleet_ok = cold
            .iter()
            .zip(&solo_results)
            .all(|(f, s)| f.record == s.record);
        table.push_row(vec![
            protocol.to_owned(),
            family.to_owned(),
            mix.len().to_string(),
            specs.len().to_string(),
            cold_ran.to_string(),
            warm_hits.to_string(),
            direct_ok.to_string(),
            fleet_ok.to_string(),
        ]);
    }
    table
}

/// E17 — chaos engineering: under seeded fault injection every served
/// record is byte-identical to the fault-free reference or a clean typed
/// error, and the retry layer's detection/recovery rates are tabulated
/// against the injection rate.
pub(crate) fn e17_chaos(scale: Scale) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E17",
        "chaos: seeded fault injection vs detection and retry recovery",
        "for every fault kind and injection rate, each job pooled over four protocols either serves a record byte-identical to the fault-free reference or fails with a clean typed error (silent wrong = 0 everywhere); detected transport faults are retried deterministically, and the recovery rate falls as the rate climbs",
        &[
            "kinds",
            "rate (ppm)",
            "jobs",
            "served",
            "typed errors",
            "silent wrong",
            "detected",
            "retries",
            "recovered",
            "quarantined",
            "detection rate",
            "recovery rate",
        ],
    );
    let sizes: &[usize] = scale.pick(&[6, 7][..], &[6, 9, 12][..]);
    let seeds: &[u64] = scale.pick(&[1][..], &[1, 2][..]);
    let rates: &[u32] = scale.pick(
        &[0, 20_000, 120_000][..],
        &[0, 5_000, 20_000, 120_000, 400_000][..],
    );
    let specs = crate::chaos::chaos_job_pool(sizes, seeds);
    let kind_sets: Vec<(String, Vec<FaultKind>)> = INJECTABLE_FAULTS
        .iter()
        .map(|&kind| (kind.name().to_owned(), vec![kind]))
        .chain(std::iter::once((
            "mixed".to_owned(),
            INJECTABLE_FAULTS.to_vec(),
        )))
        .collect();
    for (label, kinds) in &kind_sets {
        for &rate in rates {
            let report = crate::chaos::run_chaos_cell(&specs, kinds, label, 0xC4A05, rate, 4);
            let fmt_rate = |rate: Option<f64>| match rate {
                Some(value) => fmt_f64(value),
                None => "-".to_owned(),
            };
            table.push_row(vec![
                report.kinds.clone(),
                report.rate_ppm.to_string(),
                report.jobs.to_string(),
                report.served.to_string(),
                report.typed_failures.to_string(),
                report.silently_wrong.to_string(),
                report.faults_detected.to_string(),
                report.retries.to_string(),
                report.recovered.to_string(),
                report.quarantined.to_string(),
                fmt_rate(report.detection_rate()),
                fmt_rate(report.recovery_rate()),
            ]);
        }
    }
    table
}

/// E18 — the nnz-charged `SparseMatMul` (Le Gall) against the cubic 3D
/// partition on sparse operands: rounds and bits at equal bandwidth with an
/// oracle-equality column.
pub(crate) fn e18_sparse_matmul(scale: Scale) -> ExperimentTable {
    let mut table = ExperimentTable::new(
        "E18",
        "sparse distributed matmul: the nnz-charged schedule vs the cubic partition",
        "on sparse operands the nnz-charged path moves a fraction of the cubic partition's bits everywhere and, from n = 56 up, never more rounds — strictly fewer on the wide-entry semirings, and on all four at n = 98; every schedule's product equals the local-kernel oracle",
        &[
            "n",
            "d",
            "b",
            "semiring",
            "schedule",
            "rounds",
            "total bits",
            "rounds/cubic",
            "oracle =",
        ],
    );

    // d = n with about 2 non-identity entries per row: the nnz-charged
    // path against the dense-charged cubic exchange on all four semirings.
    let sparse_sizes: &[usize] = scale.pick(&[27, 56][..], &[27, 56, 98][..]);
    for &n in sparse_sizes {
        let mut r = rng(1880 + n as u64);
        let graph = generators::erdos_renyi(n, 2.0 / n as f64, &mut r);
        let adjacency_bits = graph.adjacency_bitmatrix();
        let adjacency_ints = IntMatrix::from_bitmatrix(&adjacency_bits);
        let hops = ApspProtocol::hop_matrix(&graph);
        let operands: Vec<(Semiring, SemiringMatrix, SemiringMatrix)> = vec![
            {
                let oracle = adjacency_bits.mul_bool(&adjacency_bits);
                (
                    Semiring::Boolean,
                    SemiringMatrix::Bits(adjacency_bits.clone()),
                    SemiringMatrix::Bits(oracle),
                )
            },
            {
                let oracle = adjacency_bits.mul_f2(&adjacency_bits);
                (
                    Semiring::F2,
                    SemiringMatrix::Bits(adjacency_bits.clone()),
                    SemiringMatrix::Bits(oracle),
                )
            },
            {
                let oracle = adjacency_ints.mul_counting(&adjacency_ints);
                (
                    Semiring::Counting,
                    SemiringMatrix::Ints(adjacency_ints.clone()),
                    SemiringMatrix::Ints(oracle),
                )
            },
            {
                let oracle = hops.mul_min_plus(&hops);
                (
                    Semiring::MinPlus,
                    SemiringMatrix::Ints(hops.clone()),
                    SemiringMatrix::Ints(oracle),
                )
            },
        ];
        let b = 4;
        for (semiring, operand, oracle) in &operands {
            let cubic = semiring_matmul(operand, operand, *semiring, b).unwrap();
            let sparse = sparse_matmul(operand, operand, *semiring, b).unwrap();
            for (schedule, outcome) in [("cubic", &cubic), ("sparse", &sparse)] {
                table.push_row(vec![
                    n.to_string(),
                    n.to_string(),
                    b.to_string(),
                    semiring.name().to_owned(),
                    schedule.to_owned(),
                    outcome.rounds().to_string(),
                    outcome.total_bits().to_string(),
                    fmt_f64(outcome.rounds() as f64 / cubic.rounds() as f64),
                    (**outcome == *oracle).to_string(),
                ]);
            }
        }
    }
    table
}

/// One registered experiment: its id, its table's title for `--list`
/// output, and the function regenerating its table.
pub struct ExperimentEntry {
    /// Stable identifier (`"E1"` … `"E18"`).
    pub id: &'static str,
    /// The title of the experiment's table.
    pub description: &'static str,
    /// Regenerates the experiment's table at the given scale.
    pub run: fn(Scale) -> ExperimentTable,
}

/// The experiment registry: the single id → runner table shared by the
/// `experiments` binary and the docs index.
pub const EXPERIMENTS: &[ExperimentEntry] = &[
    ExperimentEntry {
        id: "E1",
        description: "circuit-to-clique simulation (Theorem 2)",
        run: e1_circuit_simulation,
    },
    ExperimentEntry {
        id: "E2",
        description: "balanced routing substrate (Lenzen [28] stand-in)",
        run: e2_routing,
    },
    ExperimentEntry {
        id: "E3",
        description: "triangle detection via matrix multiplication (Section 2.1)",
        run: e3_triangle_matmul,
    },
    ExperimentEntry {
        id: "E4",
        description: "H-subgraph detection with Turán-derived sketches (Theorem 7)",
        run: e4_subgraph_turan,
    },
    ExperimentEntry {
        id: "E5",
        description: "adaptive detection without knowing ex(n,H) (Theorem 9, Lemma 8)",
        run: e5_adaptive,
    },
    ExperimentEntry {
        id: "E6",
        description: "K_ℓ-detection lower bound (Theorem 15 via Lemmas 13/14)",
        run: e6_lower_bound_cliques,
    },
    ExperimentEntry {
        id: "E7",
        description: "C_ℓ-detection lower bound (Theorem 19 via Lemma 18)",
        run: e7_lower_bound_cycles,
    },
    ExperimentEntry {
        id: "E8",
        description: "K_{ℓ,ℓ}-detection lower bound (Theorem 22 via Lemma 21)",
        run: e8_lower_bound_bipartite,
    },
    ExperimentEntry {
        id: "E9",
        description: "triangle-detection lower bound from 3-party NOF disjointness (Theorem 24, Corollary 25)",
        run: e9_triangle_nof,
    },
    ExperimentEntry {
        id: "E10",
        description: "non-explicit counting bound vs trivial upper bound",
        run: e10_counting,
    },
    ExperimentEntry {
        id: "E11",
        description: "degeneracy of H-free graphs (Claim 6)",
        run: e11_degeneracy_turan,
    },
    ExperimentEntry {
        id: "E12",
        description: "one-round reconstruction from degeneracy sketches (Becker et al. [2])",
        run: e12_sketch_reconstruction,
    },
    ExperimentEntry {
        id: "E13",
        description: "O(n^{1/3})-round semiring matrix product and consumers (algebraic congested clique)",
        run: e13_semiring_matmul,
    },
    ExperimentEntry {
        id: "E14",
        description: "server fleet determinism",
        run: e14_parallel_scaling,
    },
    ExperimentEntry {
        id: "E15",
        description: "deterministic MST on graph sketches (signed-incidence Borůvka)",
        run: e15_mst_sketches,
    },
    ExperimentEntry {
        id: "E16",
        description: "serving layer: sharded caching job server vs direct runs",
        run: e16_serve,
    },
    ExperimentEntry {
        id: "E17",
        description: "chaos: seeded fault injection vs detection and retry recovery",
        run: e17_chaos,
    },
    ExperimentEntry {
        id: "E18",
        description: "sparse distributed matmul: the nnz-charged schedule vs the cubic partition",
        run: e18_sparse_matmul,
    },
];

/// Looks up an experiment by id.
pub(crate) fn find_experiment(id: &str) -> Option<&'static ExperimentEntry> {
    EXPERIMENTS.iter().find(|entry| entry.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_is_named_by_its_table_title() {
        for entry in EXPERIMENTS {
            let table = (entry.run)(Scale::Quick);
            assert_eq!(
                (table.id.as_str(), table.title.as_str()),
                (entry.id, entry.description)
            );
            assert!(!table.rows.is_empty(), "{} produced no rows", table.id);
        }
    }

    #[test]
    fn routing_experiment_balanced_never_loses_to_direct() {
        let table = e2_routing(Scale::Quick);
        let col = |name: &str| table.headers.iter().position(|h| h == name).unwrap();
        let (n_col, demand_col) = (col("n"), col("demand"));
        let (router_col, rounds_col) = (col("router"), col("rounds"));
        let rounds = |n: &str, demand: &str, router: &str| -> u64 {
            let row = table.rows.iter().find(|r| {
                r[n_col] == n && r[demand_col] == demand && r[router_col].starts_with(router)
            });
            row.expect("E2 row")[rounds_col].parse().unwrap()
        };
        assert!(!table.rows.is_empty());
        for row in &table.rows {
            let (n, demand) = (&row[n_col], &row[demand_col]);
            let (balanced, direct) = (rounds(n, demand, "balanced"), rounds(n, demand, "direct"));
            assert!(
                balanced <= direct,
                "n = {n}, {demand}: {balanced} vs {direct}"
            );
            if demand.starts_with("concentrated") {
                assert!(
                    balanced < direct,
                    "n = {n}, {demand}: {balanced} vs {direct}"
                );
            }
        }
    }

    #[test]
    fn semiring_experiment_rows_are_all_correct() {
        let table = e13_semiring_matmul(Scale::Quick);
        let correct_col = table.headers.iter().position(|h| h == "correct").unwrap();
        assert!(!table.rows.is_empty());
        assert!(
            table.rows.iter().all(|r| r[correct_col] == "true"),
            "an E13 row disagrees with its reference"
        );
    }

    #[test]
    fn parallel_scaling_transcripts_are_identical() {
        let table = e14_parallel_scaling(Scale::Quick);
        let col = table
            .headers
            .iter()
            .position(|h| h == "transcript identical")
            .unwrap();
        assert!(!table.rows.is_empty());
        assert!(
            table.rows.iter().all(|r| r[col] == "true"),
            "an E14 fleet size changed a served record"
        );
    }

    #[test]
    fn mst_experiment_rows_match_oracle_and_plateau() {
        let table = e15_mst_sketches(Scale::Quick);
        let ok_col = table
            .headers
            .iter()
            .position(|h| h == "weight = oracle")
            .unwrap();
        let phases_col = table.headers.iter().position(|h| h == "phases").unwrap();
        let family_col = table.headers.iter().position(|h| h == "family").unwrap();
        assert!(!table.rows.is_empty());
        assert!(
            table.rows.iter().all(|r| r[ok_col] == "true"),
            "an E15 row disagrees with the Kruskal oracle"
        );
        // The plateau: the bounded-cut families finish in one phase at
        // every size, while the clique contrast always escalates.
        for row in &table.rows {
            let family = row[family_col].as_str();
            if ["path", "cycle", "random tree"].contains(&family) {
                assert_eq!(row[phases_col], "1", "{family} escalated");
            }
            if family.contains("contrast") {
                assert!(
                    row[phases_col] != "1",
                    "the clique contrast did not escalate"
                );
            }
        }
    }

    #[test]
    fn reconstruction_experiment_holds_at_full_scale() {
        let table = e12_sketch_reconstruction(Scale::Full);
        let col = |name: &str| table.headers.iter().position(|h| h == name).unwrap();
        let (n_col, degeneracy_col, k_col) = (col("n"), col("true degeneracy"), col("capacity k"));
        let (bits_col, rounds_col, outcome_col) = (
            col("message bits/node"),
            col("rounds (b = log n)"),
            col("outcome"),
        );
        assert_eq!(table.rows.len(), 18, "three sizes × three graphs × two k");
        for row in &table.rows {
            let cell = |c: usize| -> usize { row[c].parse().unwrap() };
            let n = cell(n_col);
            let at = format!("n = {n}, k = {}", row[k_col]);
            // One sketch broadcast: ⌈bits/b⌉ rounds at b = ⌈log₂ n⌉.
            assert_eq!(
                cell(bits_col).div_ceil(log2_bandwidth(n)),
                cell(rounds_col),
                "{at}"
            );
            assert_ne!(row[outcome_col], "WRONG reconstruction", "{at}");
            assert_eq!(
                row[outcome_col] == "exact reconstruction",
                cell(k_col) >= cell(degeneracy_col),
                "{at}: {}",
                row[outcome_col]
            );
        }
    }

    #[test]
    fn experiment_registry_is_complete_and_unique() {
        assert_eq!(EXPERIMENTS.len(), 18);
        for (i, entry) in EXPERIMENTS.iter().enumerate() {
            assert_eq!(entry.id, format!("E{}", i + 1));
            assert!(!entry.description.is_empty());
            assert_eq!(find_experiment(entry.id).unwrap().id, entry.id);
        }
        assert!(find_experiment("E19").is_none());
    }

    #[test]
    fn sparse_matmul_experiment_holds_where_claimed() {
        let table = e18_sparse_matmul(Scale::Full);
        let col = |name: &str| table.headers.iter().position(|h| h == name).unwrap();
        let (n_col, semiring_col, schedule_col) = (col("n"), col("semiring"), col("schedule"));
        let (rounds_col, bits_col, oracle_col) =
            (col("rounds"), col("total bits"), col("oracle ="));
        assert!(
            table.rows.iter().all(|r| r[oracle_col] == "true"),
            "an E18 schedule disagrees with the local-kernel oracle"
        );
        let sparse_rows: Vec<_> = table
            .rows
            .iter()
            .filter(|r| r[schedule_col] == "sparse")
            .collect();
        assert_eq!(sparse_rows.len(), 12, "three sizes × four semirings");
        for row in sparse_rows {
            let (n, semiring) = (row[n_col].as_str(), row[semiring_col].as_str());
            let cubic_row = table
                .rows
                .iter()
                .find(|r| {
                    r[n_col] == n && r[semiring_col] == semiring && r[schedule_col] == "cubic"
                })
                .unwrap();
            let cell = |r: &[String], c: usize| -> u64 { r[c].parse().unwrap() };
            let (sparse, cubic) = (cell(row, rounds_col), cell(cubic_row, rounds_col));
            let (sparse_bits, cubic_bits) = (cell(row, bits_col), cell(cubic_row, bits_col));
            let at = format!("{semiring} at n = {n}");
            // A fraction of the cubic bits everywhere.
            assert!(
                sparse_bits * 3 < cubic_bits,
                "{at}: sparse {sparse_bits} bits vs cubic {cubic_bits}"
            );
            // From n = 56 never more rounds: strictly fewer on the
            // wide-entry semirings, and on all four at n = 98.
            if n != "27" {
                assert!(
                    sparse <= cubic,
                    "{at}: sparse {sparse} rounds vs cubic {cubic}"
                );
            }
            if n == "98" || (n == "56" && matches!(semiring, "counting" | "min-plus")) {
                assert!(
                    sparse < cubic,
                    "{at}: sparse {sparse} rounds vs cubic {cubic}"
                );
            }
        }
    }

    #[test]
    fn chaos_experiment_is_never_silently_wrong() {
        let table = e17_chaos(Scale::Quick);
        let silent_col = table
            .headers
            .iter()
            .position(|h| h == "silent wrong")
            .unwrap();
        let rate_col = table
            .headers
            .iter()
            .position(|h| h == "rate (ppm)")
            .unwrap();
        let jobs_col = table.headers.iter().position(|h| h == "jobs").unwrap();
        let served_col = table.headers.iter().position(|h| h == "served").unwrap();
        let detected_col = table.headers.iter().position(|h| h == "detected").unwrap();
        assert!(table.rows.len() >= 9, "fewer than 3 kinds x 3 rates");
        let mut detected_any = false;
        for row in &table.rows {
            assert_eq!(row[silent_col], "0", "an E17 cell was silently wrong");
            if row[rate_col] == "0" {
                assert_eq!(
                    row[served_col], row[jobs_col],
                    "a zero-rate cell failed a job"
                );
                assert_eq!(row[detected_col], "0", "a zero-rate cell detected faults");
            } else if row[detected_col] != "0" {
                detected_any = true;
            }
        }
        assert!(detected_any, "no nonzero-rate cell injected anything");
    }

    #[test]
    fn serve_experiment_rows_are_all_deterministic() {
        let table = e16_serve(Scale::Quick);
        let direct_col = table
            .headers
            .iter()
            .position(|h| h == "served = direct")
            .unwrap();
        let fleet_col = table
            .headers
            .iter()
            .position(|h| h == "1 worker = 4 workers")
            .unwrap();
        assert!(!table.rows.is_empty());
        for row in &table.rows {
            assert_eq!(row[direct_col], "true", "served record diverged");
            assert_eq!(row[fleet_col], "true", "fleet size changed a record");
        }
    }

    #[test]
    fn circuit_experiment_reports_correct_simulations() {
        let table = e1_circuit_simulation(Scale::Quick);
        let correct_col = table.headers.iter().position(|h| h == "correct").unwrap();
        assert!(table.rows.iter().all(|r| r[correct_col] == "true"));
    }

    #[test]
    fn lower_bound_experiments_are_consistent() {
        let table = e6_lower_bound_cliques(Scale::Quick);
        let lower = table
            .headers
            .iter()
            .position(|h| h.contains("lower"))
            .unwrap();
        let upper = table
            .headers
            .iter()
            .position(|h| h.contains("upper"))
            .unwrap();
        for row in &table.rows {
            let l: f64 = row[lower].parse().unwrap();
            let u: f64 = row[upper].parse().unwrap();
            assert!(
                l <= u + 1.0,
                "implied lower bound {l} exceeds measured upper bound {u}"
            );
        }
    }
}
