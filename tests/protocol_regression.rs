//! Regression tests for the `Protocol`/`Runner` migration: every migrated
//! entry point must report exactly the round and bit counts the
//! pre-redesign implementation produced on the same fixed inputs.
//!
//! The pinned constants were captured by running the pre-redesign code
//! (commit `ac339b6`) on the inputs below. A change in any of these values
//! means the redesign changed the *accounting semantics*, not just the API,
//! and must be investigated. The full records of the Theorem 2 runs
//! (circuits and the Section 2.1 pipeline) were captured while the circuit
//! simulation still wrote each of its phases by hand. The routed pins (the
//! routers, DLP, and the cubic and sparse products) were re-pinned once
//! when the routers stopped sending length fields and relay tags.

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
use congested_clique::trivial::{detect_by_full_broadcast, FullBroadcastDetection};
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
    let config = CliqueConfig::broadcast(24, 4);
    let direct = Runner::new(config)
        .execute(&mut FullBroadcastDetection::new(&g, &pattern))
        .unwrap();
    assert_eq!((direct.rounds(), direct.total_bits()), (6, 576));
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
    let config = CliqueConfig::broadcast(24, 4);
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

    let config = CliqueConfig::broadcast(40, 4);
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
        (true, 6, 3546)
    );
    let config = CliqueConfig::unicast(24, 4);
    let direct = Runner::new(config)
        .execute(&mut DlpTriangleDetection::new(&g))
        .unwrap();
    assert_eq!((direct.rounds(), direct.total_bits()), (6, 3546));
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
    // The full ledgers: every Theorem 2 phase, the follow-up's one message
    // per product entry and the flag broadcasts.
    assert_eq!(
        record(naive.contains, &naive.metrics),
        "{\"output\":true,\"rounds\":33,\"total_bits\":32865,\"messages\":2358,\
         \"max_link_bits_per_round\":8,\"phases\":8,\"phase_digest\":\"945050ee9b5268cb\"}"
    );
    assert_eq!(
        record(strassen.contains, &strassen.metrics),
        "{\"output\":true,\"rounds\":111,\"total_bits\":363449,\"messages\":13465,\
         \"max_link_bits_per_round\":8,\"phases\":26,\"phase_digest\":\"ecb6f90c6e2e1d28\"}"
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
    let config = CliqueConfig::unicast(6, 4);
    let direct = Runner::new(config)
        .execute(&mut CircuitSimulation::new(
            &circuit,
            &input,
            InputPartition::RoundRobin,
        ))
        .unwrap();
    assert_eq!((direct.rounds(), direct.total_bits()), (8, 66));
    assert_eq!(
        record(&sim.outputs, &sim.metrics),
        "{\"output\":[true],\"rounds\":8,\"total_bits\":66,\"messages\":66,\
         \"max_link_bits_per_round\":1,\"phases\":10,\"phase_digest\":\"fa0edfb6526f58d9\"}"
    );

    let circuit = builders::majority(25);
    let mut r = ChaCha8Rng::seed_from_u64(0xC2);
    let input: Vec<bool> = (0..25).map(|_| r.gen_bool(0.5)).collect();
    let sim = simulate_circuit(&circuit, &input, 5, 6, InputPartition::Blocks).unwrap();
    assert_eq!(
        (sim.rounds(), sim.total_bits(), sim.max_phase_rounds()),
        (2, 40, 1)
    );
    assert_eq!(sim.outputs, vec![false]);
    assert_eq!(
        record(&sim.outputs, &sim.metrics),
        "{\"output\":[false],\"rounds\":2,\"total_bits\":40,\"messages\":24,\
         \"max_link_bits_per_round\":5,\"phases\":3,\"phase_digest\":\"078115f7a7b40876\"}"
    );
}

#[test]
fn circuit_simulation_covers_every_phase_kind() {
    // Two heavy threshold gates over 64 inputs on 8 players: the run has
    // all six kinds of Theorem 2 phase, the first relay hop silent.
    let circuit = builders::exactly_k(64, 21);
    let input: Vec<bool> = (0..64).map(|t| t % 3 == 1).collect();
    let sim = simulate_circuit(&circuit, &input, 8, 4, InputPartition::Blocks).unwrap();
    let labels: Vec<&str> = sim
        .metrics
        .phases
        .iter()
        .map(|p| p.label.as_str())
        .collect();
    assert_eq!(
        labels,
        [
            "distribute inputs",
            "layer 1: heavy summaries",
            "layer 2: heavy values",
            "layer 3: heavy values",
            "layer 3: light wires (phase 1)",
            "layer 3: light wires (phase 2)",
            "collect outputs"
        ]
    );
    assert_eq!(
        record(&sim.outputs, &sim.metrics),
        "{\"output\":[true],\"rounds\":7,\"total_bits\":130,\"messages\":74,\
         \"max_link_bits_per_round\":4,\"phases\":7,\"phase_digest\":\"2abca262d3d6c9da\"}"
    );
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
    let config = CliqueConfig::broadcast(24, 5);
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
    // The whole served record: the 95-edge forest and the capacity
    // diagnostics through a digest, the ledger and phase-trail digest
    // spelled out.
    let record = congested_clique::serve::encode_record(&run.output, &run.metrics);
    assert!(
        record.ends_with(
            "},\"rounds\":6425,\"total_bits\":4309248,\"messages\":1536,\
             \"max_link_bits_per_round\":7,\"phases\":16,\
             \"phase_digest\":\"575370d015c5f392\"}"
        ),
        "mst-dense ledger moved: {}",
        &record[record.rfind("},\"rounds\"").unwrap_or(0)..]
    );
    assert_eq!(
        congested_clique::serve::fnv64(record.as_bytes()),
        0x5fb1_1d53_8a52_72d7
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
    let runner = Runner::new(CliqueConfig::unicast(16, 8));

    let direct = runner
        .execute(&mut RouteProtocol::new(DirectRouter, &demand))
        .unwrap();
    assert_eq!((direct.rounds(), direct.total_bits()), (15, 120));

    let balanced = runner
        .execute(&mut RouteProtocol::new(BalancedRouter, &demand))
        .unwrap();
    assert_eq!((balanced.rounds(), balanced.total_bits()), (2, 224));

    let valiant = runner
        .execute(&mut RouteProtocol::new(
            ValiantRouter::new(ChaCha8Rng::seed_from_u64(7)),
            &demand,
        ))
        .unwrap();
    assert_eq!((valiant.rounds(), valiant.total_bits()), (4, 216));
}

/// The canonical served record of a run whose output prints as JSON
/// through `Debug`: the output, the flat ledger and the phase-trail digest.
fn record(output: impl std::fmt::Debug, metrics: &Metrics) -> String {
    congested_clique::serve::encode_record(&format!("{output:?}"), metrics)
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
        "{\"output\":{\"triangles\":20428},\"rounds\":22,\"total_bits\":414700,\
         \"messages\":4442,\"max_link_bits_per_round\":9,\"phases\":5,\
         \"phase_digest\":\"8885f677cebde15c\"}"
    );
    // The 100 × 100 distance matrix is pinned through a digest of the
    // whole record; the ledger tail is spelled out.
    let apsp = registry_record("apsp", "erdos_renyi(p=0.15)", 100, 1, 9);
    assert!(
        apsp.ends_with(
            "},\"rounds\":68,\"total_bits\":897925,\"messages\":13326,\
             \"max_link_bits_per_round\":9,\"phases\":15,\
             \"phase_digest\":\"5cce0e79407df32c\"}"
        ),
        "apsp ledger moved: {}",
        &apsp[apsp.rfind("},\"rounds\"").unwrap_or(0)..]
    );
    assert_eq!(
        congested_clique::serve::fnv64(apsp.as_bytes()),
        0xbaeb_27fa_84d1_e7c3
    );
}

#[test]
fn tc_dense_job_record_matches_pinned_bytes() {
    // The benchmark's tc-dense job: n = 512 gives cube side g = 8, a
    // 60,928-packet cube shipment and a 32,256-packet return shipment of
    // counting partials, then the count broadcast.
    assert_eq!(
        registry_record("triangle-count", "erdos_renyi(p=0.5)", 512, 1, 9),
        "{\"output\":{\"triangles\":2809704},\"rounds\":68,\"total_bits\":23579136,\
         \"messages\":93696,\"max_link_bits_per_round\":9,\"phases\":5,\
         \"phase_digest\":\"1145af845fd41ef1\"}"
    );
}

#[test]
fn cubic_matmul_uneven_partition_records_match_pinned_bytes() {
    use congested_clique::algebraic::{Semiring, SemiringMatMul, SemiringMatrix};

    // 53 rows on 56 players: the cube side is g = 3, so 27 players compute
    // cubes, the rows split into blocks of 17, 18 and 18, and three players
    // own no row. One generator feeds both operands, F₂ first. The records
    // are the ones the cubic exchange produced while it still carried the
    // Strassen schedule's player groups and signed output terms.
    let mut r = ChaCha8Rng::seed_from_u64(0x5EED);
    let bits: Vec<Vec<bool>> = (0..53)
        .map(|_| (0..53).map(|_| r.gen_bool(0.5)).collect())
        .collect();
    let ints: Vec<Vec<u64>> = (0..53)
        .map(|_| (0..53).map(|_| r.gen_range(0..4u64)).collect())
        .collect();
    let f2 = SemiringMatrix::Bits(BitMatrix::from_rows(&bits));
    let counting = SemiringMatrix::Ints(IntMatrix::from_rows(&ints));
    for (m, semiring, tail) in [
        (
            &f2,
            Semiring::F2,
            "\"rounds\":14,\"total_bits\":24768,\"messages\":1246,\
             \"max_link_bits_per_round\":4,\"phases\":4,\
             \"phase_digest\":\"1cbe05c40cf4dadb\"}",
        ),
        (
            &counting,
            Semiring::Counting,
            "\"rounds\":54,\"total_bits\":99036,\"messages\":1246,\
             \"max_link_bits_per_round\":4,\"phases\":4,\
             \"phase_digest\":\"0321cc4bb5cff6ce\"}",
        ),
    ] {
        let outcome = Runner::new(CliqueConfig::unicast(56, 4))
            .execute(&mut SemiringMatMul::new(m, m, semiring))
            .unwrap();
        let local = match m {
            SemiringMatrix::Bits(b) => SemiringMatrix::Bits(b.mul_f2(b)),
            SemiringMatrix::Ints(i) => SemiringMatrix::Ints(i.mul_counting(i)),
        };
        assert_eq!(outcome.output, local, "{}", semiring.name());
        let record = congested_clique::serve::encode_record("", &outcome.metrics);
        assert!(
            record.ends_with(tail),
            "{} cubic ledger moved: {record}",
            semiring.name()
        );
    }
}

#[test]
fn sparse_matmul_schedule_matches_pinned_counts() {
    use congested_clique::algebraic::{Semiring, SemiringMatrix, SparseMatMul};

    // Sparse schedule on the fixed g24 detection instance (a ~15% dense
    // adjacency, well under the density threshold).
    let g = g24();
    let adj = SemiringMatrix::Bits(g.adjacency_bitmatrix());
    let sparse = Runner::new(CliqueConfig::unicast(24, 4))
        .execute(&mut SparseMatMul::new(&adj, &adj, Semiring::Boolean))
        .unwrap();
    let local = adj.as_bits().unwrap().mul_bool(adj.as_bits().unwrap());
    assert_eq!(sparse.as_bits().unwrap(), &local);
    assert_eq!((sparse.rounds(), sparse.total_bits()), (18, 5296));
}
