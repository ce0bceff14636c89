//! Regression tests for the `Protocol`/`Runner` migration: every migrated
//! entry point must report exactly the round and bit counts the
//! pre-redesign implementation produced on the same fixed inputs.
//!
//! The pinned constants were captured by running the pre-redesign code
//! (commit `ac339b6`) on the inputs below. A change in any of these values
//! means the redesign changed the *accounting semantics*, not just the API,
//! and must be investigated.

use congested_clique::adaptive::detect_subgraph_adaptive;
use congested_clique::circuits::builders;
use congested_clique::graphs::{extremal, generators, iso, weighted, Graph, Pattern};
use congested_clique::mst::MstProtocol;
use congested_clique::registry;
use congested_clique::routing::{
    BalancedRouter, DirectRouter, RouteProtocol, RoutingDemand, ValiantRouter,
};
use congested_clique::sim::prelude::*;
use congested_clique::subgraph::{run_reconstruction_protocol, SketchReconstruction};
use congested_clique::triangle::{
    detect_triangle_dlp, detect_triangle_trivial, detect_triangle_via_matmul, DlpTriangleDetection,
    MatMulStrategy,
};
use congested_clique::trivial::{
    detect_by_full_broadcast, detect_by_gather_to_leader, FullBroadcastDetection,
    GatherToLeaderDetection,
};
use congested_clique::{
    compute_msf, simulate_circuit, CircuitSimulation, InputPartition, TuranSketchDetection,
};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The fixed 24-node instance every detection regression runs on.
fn g24() -> Graph {
    let mut r = ChaCha8Rng::seed_from_u64(0x5EED);
    generators::erdos_renyi(24, 0.15, &mut r)
}

#[test]
fn full_broadcast_matches_pre_redesign_counts() {
    let g = g24();
    let pattern = Pattern::Clique(3);
    let outcome = detect_by_full_broadcast(&g, &pattern, 4).unwrap();
    assert_eq!(
        (outcome.contains, outcome.rounds(), outcome.total_bits()),
        (true, 6, 576)
    );
    // The explicit Runner route reports identical numbers.
    let config = CliqueConfig::builder()
        .nodes(24)
        .bandwidth(4)
        .broadcast()
        .build();
    let direct = Runner::new(config)
        .execute(&mut FullBroadcastDetection::new(&g, &pattern))
        .unwrap();
    assert_eq!((direct.rounds(), direct.total_bits()), (6, 576));
}

#[test]
fn gather_to_leader_matches_pre_redesign_counts() {
    let g = g24();
    let pattern = Pattern::Clique(3);
    let outcome = detect_by_gather_to_leader(&g, &pattern, 4).unwrap();
    assert_eq!(
        (outcome.contains, outcome.rounds(), outcome.total_bits()),
        (true, 6, 552)
    );
    let config = CliqueConfig::builder()
        .nodes(24)
        .bandwidth(4)
        .unicast()
        .build();
    let direct = Runner::new(config)
        .execute(&mut GatherToLeaderDetection::new(&g, &pattern))
        .unwrap();
    assert_eq!((direct.rounds(), direct.total_bits()), (6, 552));
}

#[test]
fn turan_sketch_detection_matches_pre_redesign_counts() {
    let c4_free = extremal::dense_c4_free(31);
    let pattern = Pattern::Cycle(4);
    let outcome = congested_clique::detect_subgraph_turan(&c4_free, &pattern, 8).unwrap();
    assert_eq!(
        (outcome.contains, outcome.rounds(), outcome.total_bits()),
        (false, 18, 4433)
    );

    let g = g24();
    let outcome = congested_clique::detect_subgraph_turan(&g, &pattern, 4).unwrap();
    assert_eq!(
        (outcome.contains, outcome.rounds(), outcome.total_bits()),
        (true, 27, 2520)
    );
    // Through an explicit Runner as well.
    let config = CliqueConfig::builder()
        .nodes(24)
        .bandwidth(4)
        .broadcast()
        .build();
    let direct = Runner::new(config)
        .execute(&mut TuranSketchDetection::new(&g, &pattern))
        .unwrap();
    assert_eq!((direct.rounds(), direct.total_bits()), (27, 2520));
}

#[test]
fn sketch_reconstruction_matches_pre_redesign_counts() {
    let g = generators::cycle(40);
    let run = run_reconstruction_protocol(&g, 2, 4).unwrap();
    assert!(run.success());
    assert_eq!((run.rounds(), run.total_bits()), (5, 720));

    let config = CliqueConfig::builder()
        .nodes(40)
        .bandwidth(4)
        .broadcast()
        .build();
    let direct = Runner::new(config)
        .execute(&mut SketchReconstruction::new(&g, 2))
        .unwrap();
    assert!(direct.success());
    assert_eq!((direct.rounds(), direct.total_bits()), (5, 720));
}

#[test]
fn adaptive_detection_matches_pre_redesign_counts() {
    let g = g24();
    let mut r = ChaCha8Rng::seed_from_u64(0xADA);
    let run = detect_subgraph_adaptive(&g, &Pattern::Cycle(4), 4, &mut r).unwrap();
    assert_eq!(
        (
            run.outcome.contains,
            run.rounds(),
            run.total_bits(),
            run.attempts.len()
        ),
        (true, 13, 1176, 3)
    );
}

#[test]
fn trivial_triangle_detection_matches_pre_redesign_counts() {
    let g = g24();
    let outcome = detect_triangle_trivial(&g, 4).unwrap();
    assert_eq!(
        (outcome.contains, outcome.rounds(), outcome.total_bits()),
        (true, 6, 576)
    );
}

#[test]
fn dlp_triangle_detection_matches_pre_redesign_counts() {
    let g = g24();
    let outcome = detect_triangle_dlp(&g, 4).unwrap();
    assert_eq!(
        (outcome.contains, outcome.rounds(), outcome.total_bits()),
        (true, 15, 10532)
    );
    let config = CliqueConfig::builder()
        .nodes(24)
        .bandwidth(4)
        .unicast()
        .build();
    let direct = Runner::new(config)
        .execute(&mut DlpTriangleDetection::new(&g))
        .unwrap();
    assert_eq!((direct.rounds(), direct.total_bits()), (15, 10532));
}

#[test]
fn matmul_triangle_detection_matches_pre_redesign_counts() {
    let g = g24();
    let mut r = ChaCha8Rng::seed_from_u64(0xB0);
    let naive = detect_triangle_via_matmul(&g, 8, MatMulStrategy::Naive, 3, &mut r).unwrap();
    assert_eq!(
        (naive.contains, naive.rounds(), naive.total_bits()),
        (true, 33, 32865)
    );

    let mut r = ChaCha8Rng::seed_from_u64(0xB1);
    let strassen = detect_triangle_via_matmul(&g, 8, MatMulStrategy::Strassen, 2, &mut r).unwrap();
    assert_eq!(
        (strassen.contains, strassen.rounds(), strassen.total_bits()),
        (true, 111, 363449)
    );
}

#[test]
fn circuit_simulation_matches_pre_redesign_counts() {
    let circuit = builders::parity_tree(36, 3);
    let mut r = ChaCha8Rng::seed_from_u64(0xC1);
    let input: Vec<bool> = (0..36).map(|_| r.gen_bool(0.5)).collect();
    let sim = simulate_circuit(&circuit, &input, 6, 4, InputPartition::RoundRobin).unwrap();
    assert_eq!(
        (sim.rounds(), sim.total_bits(), sim.max_phase_rounds()),
        (8, 66, 1)
    );
    assert_eq!(sim.outputs, vec![true]);
    // Through an explicit Runner as well.
    let config = CliqueConfig::builder()
        .nodes(6)
        .bandwidth(4)
        .unicast()
        .build();
    let direct = Runner::new(config)
        .execute(&mut CircuitSimulation::new(
            &circuit,
            &input,
            InputPartition::RoundRobin,
        ))
        .unwrap();
    assert_eq!((direct.rounds(), direct.total_bits()), (8, 66));

    let circuit = builders::majority(25);
    let mut r = ChaCha8Rng::seed_from_u64(0xC2);
    let input: Vec<bool> = (0..25).map(|_| r.gen_bool(0.5)).collect();
    let sim = simulate_circuit(&circuit, &input, 5, 6, InputPartition::Blocks).unwrap();
    assert_eq!(
        (sim.rounds(), sim.total_bits(), sim.max_phase_rounds()),
        (2, 40, 1)
    );
    assert_eq!(sim.outputs, vec![false]);
}

#[test]
fn mst_protocol_matches_pinned_counts() {
    // Fixed weighted instance in the g24 style; small max weight forces
    // duplicate raw weights through the (w, u, v) tie-break.
    let mut r = ChaCha8Rng::seed_from_u64(0x5EED);
    let g = weighted::weighted_erdos_renyi(24, 0.3, 50, &mut r);
    let run = compute_msf(&g, 4, 5).unwrap();
    assert_eq!(run.forest(), iso::minimum_spanning_forest(&g));
    assert_eq!(
        (
            run.phases,
            run.final_capacity,
            run.rounds(),
            run.total_bits()
        ),
        (5, 64, 749, 89400)
    );
    // Through an explicit Runner as well.
    let config = CliqueConfig::builder()
        .nodes(24)
        .bandwidth(5)
        .broadcast()
        .build();
    let direct = Runner::new(config)
        .execute(&mut MstProtocol::new(&g, 4))
        .unwrap();
    assert_eq!((direct.rounds(), direct.total_bits()), (749, 89400));
}

#[test]
fn escalating_mst_matches_pinned_counts() {
    // The benchmark's dense shape: weighted G(96, 0.2), weights up to 4n,
    // b = 7. Singleton cuts of ~19 edges force the capacity to double from
    // 4 through every level up to 512, so this pin covers the large-k
    // decodes the G(24, 0.3) pin above never reaches.
    let input = registry::generate_input(
        registry::InputKind::Weighted,
        "weighted_erdos_renyi(p=0.2)",
        96,
        0x5EED,
        4 * 96,
    )
    .expect("known family");
    let registry::JobInput::Weighted(g) = &input else {
        unreachable!("weighted family")
    };
    let oracle = iso::minimum_spanning_forest(g);
    let run = registry::find("mst")
        .expect("mst is registered")
        .run(
            &input,
            &registry::RunOptions {
                bandwidth: 7,
                ..registry::RunOptions::default()
            },
        )
        .unwrap();
    assert_eq!(
        (run.metrics.rounds, run.metrics.total_bits),
        (6425, 4_309_248)
    );
    let direct = compute_msf(g, registry::MST_BASE_CAPACITY, 7).unwrap();
    assert_eq!(direct.forest(), oracle);
    assert_eq!(
        (
            direct.phases,
            direct.final_capacity,
            direct.rounds(),
            direct.total_bits()
        ),
        (8, 512, 6425, 4_309_248)
    );
}

/// The fixed concentrated demand the router regressions run on.
fn concentrated_demand() -> RoutingDemand {
    let mut demand = RoutingDemand::new(16);
    for i in 0..16usize {
        if i != 1 {
            demand.send(0, 1, BitString::from_bits(i as u64 % 16, 8));
        }
    }
    demand
}

#[test]
fn routers_match_pre_redesign_counts() {
    let demand = concentrated_demand();
    let runner = Runner::new(
        CliqueConfig::builder()
            .nodes(16)
            .bandwidth(8)
            .unicast()
            .build(),
    );

    let direct = runner
        .execute(&mut RouteProtocol::new(DirectRouter, &demand))
        .unwrap();
    assert_eq!((direct.rounds(), direct.total_bits()), (23, 180));

    let balanced = runner
        .execute(&mut RouteProtocol::new(BalancedRouter, &demand))
        .unwrap();
    assert_eq!((balanced.rounds(), balanced.total_bits()), (4, 448));

    let valiant = runner
        .execute(&mut RouteProtocol::new(
            ValiantRouter::new(ChaCha8Rng::seed_from_u64(7)),
            &demand,
        ))
        .unwrap();
    assert_eq!((valiant.rounds(), valiant.total_bits()), (8, 432));
}

/// The canonical served record (output, flat ledger and phase-trail
/// digest) of one registry run on a generated unweighted input.
fn registry_record(protocol: &str, family: &str, n: usize, seed: u64, bandwidth: usize) -> String {
    let input = registry::generate_input(registry::InputKind::Unweighted, family, n, seed, 0)
        .expect("known family");
    let run = registry::find(protocol)
        .expect("registered")
        .run(
            &input,
            &registry::RunOptions {
                bandwidth,
                ..registry::RunOptions::default()
            },
        )
        .unwrap();
    congested_clique::serve::encode_record(&run.output, &run.metrics)
}

#[test]
fn cubic_matmul_records_match_pinned_bytes() {
    // n = 100 gives cube side g = 4, so the 25-row blocks straddle lane
    // words on both the input and the partial-product segments. The
    // counting product ships one-bit entries; APSP's (min, +) squarings
    // ship multi-bit entries and the all-ones INFINITY sentinel.
    assert_eq!(
        registry_record("triangle-count", "erdos_renyi(p=0.5)", 100, 1, 9),
        "{\"output\":{\"triangles\":20428},\"rounds\":48,\"total_bits\":795998,\
         \"messages\":8644,\"max_link_bits_per_round\":9,\"phases\":5,\
         \"phase_digest\":\"856304c96aaf0f30\"}"
    );
    // The 100 × 100 distance matrix is pinned through a digest of the
    // whole record; the ledger tail is spelled out.
    let apsp = registry_record("apsp", "erdos_renyi(p=0.15)", 100, 1, 9);
    assert!(
        apsp.ends_with(
            "},\"rounds\":147,\"total_bits\":2100290,\"messages\":25932,\
             \"max_link_bits_per_round\":9,\"phases\":15,\
             \"phase_digest\":\"2882466896c07582\"}"
        ),
        "apsp ledger moved: {}",
        &apsp[apsp.rfind("},\"rounds\"").unwrap_or(0)..]
    );
    assert_eq!(
        congested_clique::serve::fnv64(apsp.as_bytes()),
        0x64d7_430a_ff93_b55d
    );
}

#[test]
fn fast_matmul_schedules_match_pinned_counts() {
    use congested_clique::algebraic::{FastMatMul, Semiring, SemiringMatrix, SparseMatMul};

    // Strassen schedule above the dispatch crossover: 56 players, two rows
    // each, the E18 (56, 112) grid point at bandwidth 4.
    let mut r = ChaCha8Rng::seed_from_u64(0x5EED);
    let rows: Vec<Vec<bool>> = (0..112)
        .map(|_| (0..112).map(|_| r.gen_bool(0.5)).collect())
        .collect();
    let a = SemiringMatrix::Bits(BitMatrix::from_rows(&rows));
    let fast = Runner::new(CliqueConfig::unicast(56, 4))
        .execute(&mut FastMatMul::new(&a, &a, Semiring::F2))
        .unwrap();
    let local = a.as_bits().unwrap().mul_f2(a.as_bits().unwrap());
    assert_eq!(fast.as_bits().unwrap(), &local);
    assert_eq!((fast.rounds(), fast.total_bits()), (120, 553066));

    // Sparse schedule on the fixed g24 detection instance (a ~15% dense
    // adjacency, well under the density threshold).
    let g = g24();
    let adj = SemiringMatrix::Bits(g.adjacency_bitmatrix());
    let sparse = Runner::new(CliqueConfig::unicast(24, 4))
        .execute(&mut SparseMatMul::new(&adj, &adj, Semiring::Boolean))
        .unwrap();
    let local = adj.as_bits().unwrap().mul_bool(adj.as_bits().unwrap());
    assert_eq!(sparse.as_bits().unwrap(), &local);
    assert_eq!((sparse.rounds(), sparse.total_bits()), (46, 14165));
}
