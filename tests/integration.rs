//! Cross-crate integration tests: end-to-end runs of the paper's protocols
//! against ground truth and against each other.

use congested_clique::adaptive::detect_subgraph_adaptive;
use congested_clique::circuits::{builders, matmul};
use congested_clique::graphs::{degeneracy, extremal, generators, iso, weighted, Pattern};
use congested_clique::lower_bounds::{
    clique_detection_lower_bound, cycle_detection_lower_bound, triangle_nof_lower_bound,
    DetectorKind,
};
use congested_clique::mst::edge_key_universe;
use congested_clique::sim::linalg::BitMatrix;
use congested_clique::sim::prelude::Metrics;
use congested_clique::sketch::{PowerSumSketch, SignedPowerSumSketch};
use congested_clique::subgraph::{detect_subgraph_turan, run_reconstruction_protocol};
use congested_clique::triangle::{
    detect_triangle_dlp, detect_triangle_trivial, detect_triangle_via_matmul, MatMulStrategy,
};
use congested_clique::trivial::detect_by_full_broadcast;
use congested_clique::{compute_msf, simulate_circuit, InputPartition};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

#[test]
fn all_triangle_protocols_agree_on_random_graphs() {
    let mut r = rng(1);
    for trial in 0..4 {
        let n = 12 + 2 * trial;
        let g = generators::erdos_renyi(n, 0.12 + 0.06 * trial as f64, &mut r);
        let truth = iso::has_triangle(&g);
        let trivial = detect_triangle_trivial(&g, 4).unwrap();
        let dlp = detect_triangle_dlp(&g, 4).unwrap();
        let mm = detect_triangle_via_matmul(&g, 8, MatMulStrategy::Naive, 5, &mut r).unwrap();
        assert_eq!(trivial.contains, truth, "trivial wrong on trial {trial}");
        assert_eq!(dlp.contains, truth, "DLP wrong on trial {trial}");
        // The matmul protocol has one-sided error: never a false positive,
        // and with 5 trials a negligible false-negative rate on these sizes.
        assert_eq!(mm.contains, truth, "matmul wrong on trial {trial}");
    }
}

#[test]
fn subgraph_detection_protocols_agree_with_ground_truth() {
    let mut r = rng(2);
    let patterns = [
        Pattern::Cycle(4),
        Pattern::Clique(3),
        Pattern::Path(5),
        Pattern::CompleteBipartite(2, 2),
        Pattern::Star(4),
    ];
    for trial in 0..3 {
        let n = 24 + 4 * trial;
        let g = generators::erdos_renyi(n, 0.10, &mut r);
        for pattern in &patterns {
            let truth = iso::contains_subgraph(&g, &pattern.graph());
            let broadcast = detect_by_full_broadcast(&g, pattern, 5).unwrap();
            let turan = detect_subgraph_turan(&g, pattern, 5).unwrap();
            let adaptive = detect_subgraph_adaptive(&g, pattern, 5, &mut r).unwrap();
            assert_eq!(broadcast.contains, truth, "{pattern} broadcast");
            assert_eq!(turan.contains, truth, "{pattern} turan");
            assert_eq!(adaptive.outcome.contains, truth, "{pattern} adaptive");
        }
    }
}

#[test]
fn theorem7_round_counts_scale_sublinearly_for_bipartite_patterns() {
    // C4 detection on (C4-free, dense) polarity graphs: the Turán-sketch
    // protocol uses Θ(√n·log n/b) rounds while the trivial one uses n/b, so
    // quadrupling n should roughly double the former but quadruple the
    // latter. (The absolute crossover sits beyond these sizes because of the
    // 4·ex(n,H)/n constant; see EXPERIMENTS.md, E4.)
    let b = 8;
    let small_n = 64;
    let large_n = 256;
    let smart_small =
        detect_subgraph_turan(&extremal::dense_c4_free(small_n), &Pattern::Cycle(4), b).unwrap();
    let smart_large =
        detect_subgraph_turan(&extremal::dense_c4_free(large_n), &Pattern::Cycle(4), b).unwrap();
    let trivial_small =
        detect_by_full_broadcast(&extremal::dense_c4_free(small_n), &Pattern::Cycle(4), b).unwrap();
    let trivial_large =
        detect_by_full_broadcast(&extremal::dense_c4_free(large_n), &Pattern::Cycle(4), b).unwrap();
    assert!(!smart_small.contains && !smart_large.contains);
    let smart_growth = smart_large.rounds() as f64 / smart_small.rounds() as f64;
    let trivial_growth = trivial_large.rounds() as f64 / trivial_small.rounds() as f64;
    assert!(
        smart_growth < 3.0 && trivial_growth > 3.5,
        "growth factors: Theorem 7 {smart_growth:.2} (expected ≈ 2), trivial {trivial_growth:.2} (expected ≈ 4)"
    );

    // Tree detection is where the absolute gap is already dramatic at this
    // size: O(log n / b) vs n/b rounds.
    let n = 256;
    let dense = generators::complete_bipartite(n / 2, n / 2);
    let tree = detect_subgraph_turan(&dense, &Pattern::Path(4), b).unwrap();
    let trivial_tree = detect_by_full_broadcast(&dense, &Pattern::Path(4), b).unwrap();
    assert!(tree.contains && trivial_tree.contains);
    assert!(
        tree.rounds() * 4 < trivial_tree.rounds(),
        "tree detection: {} vs {} rounds",
        tree.rounds(),
        trivial_tree.rounds()
    );
}

#[test]
fn sketch_broadcasts_charge_exactly_their_encoded_bits() {
    // Every node's sketch broadcast costs its sketch type's `encoded_bits`,
    // in the reconstruction protocol and at each MST escalation level.
    let charged = |metrics: &Metrics, label: &str| -> Vec<(u64, u64)> {
        let phases = metrics.phases.iter().filter(|p| p.label == label);
        phases.map(|p| (p.bits, p.rounds)).collect()
    };
    let mut r = rng(7);
    for (n, b) in [(1usize, 1u64), (2, 4), (3, 9), (9, 1), (24, 4), (24, 9)] {
        for k in [1, 2, 5] {
            let g = generators::erdos_renyi(n, 0.3, &mut r);
            let size = PowerSumSketch::new(n as u64, k).encoded_bits() as u64;
            let run = run_reconstruction_protocol(&g, k, b as usize).unwrap();
            let got = charged(&run.metrics, "broadcast neighbourhood sketches");
            assert_eq!(got, [(n as u64 * size, size.div_ceil(b))]);
        }
        let g = weighted::weighted_erdos_renyi(n, 0.4, 50, &mut r);
        let universe = edge_key_universe(n, g.max_weight()).unwrap();
        let run = compute_msf(&g, 1, b as usize).unwrap();
        let expected: Vec<_> = (0..run.phases)
            .map(|level| {
                let capacity = (1 << level).min(g.edge_count().max(1));
                let size = SignedPowerSumSketch::new(universe, capacity).encoded_bits() as u64;
                (n as u64 * size, size.div_ceil(b))
            })
            .collect();
        let got = charged(&run.metrics, "broadcast incidence sketches");
        assert_eq!(got, expected);
    }
}

#[test]
fn circuit_simulation_matches_direct_evaluation_across_gate_families() {
    let mut r = rng(3);
    let n = 10;
    let m = n * n;
    let circuits = vec![
        builders::parity(m),
        builders::parity_tree(m, 3),
        builders::majority(m),
        builders::mod_m(m, 5),
        builders::exactly_k(m, 30),
        builders::inner_product_mod2(m / 2),
    ];
    for circuit in circuits {
        let input: Vec<bool> = (0..circuit.inputs().len())
            .map(|_| r.gen_bool(0.5))
            .collect();
        let bandwidth = circuit.wire_density(n) + circuit.max_separability_bits() + 4;
        let sim = simulate_circuit(&circuit, &input, n, bandwidth, InputPartition::Blocks).unwrap();
        assert_eq!(sim.outputs, circuit.evaluate(&input));
        assert!(sim.rounds() <= 6 * (sim.depth as u64 + 2));
    }
}

#[test]
fn matmul_circuits_compose_with_the_simulation() {
    // The full Section 2.1 pipeline at a tiny size: F2 product via Strassen
    // circuits simulated on the clique equals the reference product.
    let mut r = rng(4);
    let dim = 8usize;
    let mm = matmul::strassen_matmul_f2(dim);
    let mut random_packed = || {
        let rows: Vec<Vec<bool>> = (0..dim)
            .map(|_| (0..dim).map(|_| r.gen_bool(0.5)).collect())
            .collect();
        BitMatrix::from_rows(&rows)
    };
    let a = random_packed();
    let b = random_packed();
    let assignment = mm.assignment(&a, &b);
    let sim = simulate_circuit(
        &mm.circuit,
        &assignment,
        dim,
        32,
        InputPartition::RoundRobin,
    )
    .unwrap();
    let reference = a.mul_f2(&b);
    let flat: Vec<bool> = reference.to_rows().into_iter().flatten().collect();
    assert_eq!(sim.outputs, flat);
}

#[test]
fn lower_bound_reductions_are_sound_against_upper_bound_protocols() {
    let mut r = rng(5);
    // Theorem 15 gadget against both detectors.
    for kind in [DetectorKind::TrivialBroadcast, DetectorKind::TuranSketch] {
        let (_, report) = clique_detection_lower_bound(4, 36, 4, kind, 4, &mut r).unwrap();
        assert!(
            report.all_correct(),
            "{kind:?} answered a reduction instance wrongly"
        );
        assert!(report.implied_round_lower_bound <= report.max_rounds as f64 + 1.0);
    }
    // Theorem 19 gadget.
    let (lbg, report) =
        cycle_detection_lower_bound(5, 50, 4, DetectorKind::TrivialBroadcast, 4, &mut r).unwrap();
    assert!(report.all_correct());
    assert!(lbg.cut_size() <= lbg.vertex_count());
    // Theorem 24 reduction.
    let (reduction, report) = triangle_nof_lower_bound(16, 4, true, 4, &mut r);
    assert!(report.all_correct());
    assert!(reduction.elements() >= 16);
}

#[test]
fn claim6_holds_for_every_pattern_free_instance_we_generate() {
    let mut r = rng(6);
    let n = 96;
    let cases = vec![
        (Pattern::Cycle(4), extremal::dense_c4_free(n)),
        (Pattern::Clique(4), generators::turan_graph(n, 3)),
        (
            Pattern::Clique(3),
            generators::complete_bipartite(n / 2, n / 2),
        ),
        (Pattern::Cycle(6), extremal::dense_cycle_free(n, 6, &mut r)),
    ];
    for (pattern, graph) in cases {
        assert!(!iso::contains_subgraph(&graph, &pattern.graph()));
        let bound = 4.0 * pattern.ex_upper_bound(n) / n as f64;
        assert!(
            (degeneracy::degeneracy(&graph) as f64) <= bound,
            "Claim 6 violated for {pattern}"
        );
    }
}
