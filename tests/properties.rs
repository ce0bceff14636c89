//! Property-based tests (proptest) on the core invariants of the workspace.
//!
//! Each property is checked on randomly generated inputs: bit-string
//! round-trips, degeneracy orderings, sketch reconstruction, circuit
//! simulation vs direct evaluation, detection protocols vs the
//! subgraph-isomorphism oracle, Behrend sets, and the lower-bound gadget
//! semantics of Observation 11.

use congested_clique::algebraic::{
    semiring_matmul, sparse_matmul, MatMulSchedule, ScheduledMatMul, Semiring, SemiringMatrix,
};
use congested_clique::circuits::matmul::matmul_f2_scalar;
use congested_clique::circuits::{builders, BitMatrix, Circuit, GateKind};
use congested_clique::comm::disjointness::DisjointnessInstance;
use congested_clique::comm::lbgraph::LowerBoundGraph;
use congested_clique::graphs::behrend::{behrend_set, is_3ap_free};
use congested_clique::graphs::degeneracy::{degeneracy_ordering, verify_elimination_order};
use congested_clique::graphs::weighted::{self, WeightedGraph};
use congested_clique::graphs::{generators, iso, Graph, Pattern};
use congested_clique::mst::MstProtocol;
use congested_clique::sim::prelude::*;
use congested_clique::sketch::reconstruct::reconstruct;
use congested_clique::subgraph::detect_subgraph_turan;
use congested_clique::triangle::{detect_triangle_dlp, detect_triangle_via_matmul, MatMulStrategy};
use congested_clique::{count_triangles, simulate_circuit, InputPartition};
use proptest::prelude::*;
use rand::Rng as _;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Builds a graph on `n` nodes from a seed, with edge density `p` in [0, 1].
fn seeded_graph(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    generators::erdos_renyi(n, p, &mut rng)
}

/// The `WeightedGraph` strategy, from primitive proptest parameters: a
/// seeded `G(n, p)` with weights uniform in `1..=max_weight` (small
/// `max_weight` forces duplicate weights, exercising the `(w, u, v)`
/// tie-break everywhere).
fn seeded_weighted_graph(n: usize, p: f64, max_weight: u64, seed: u64) -> WeightedGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    weighted::weighted_erdos_renyi(n, p, max_weight, &mut rng)
}

/// Asserts the packed-kernel invariant: no bits at or past column `cols` in
/// the last word of any row.
fn assert_no_padding_bits(m: &BitMatrix) {
    let rem = m.cols() % LANE_BITS;
    if rem == 0 {
        return;
    }
    for i in 0..m.rows() {
        let last = *m.row_words(i).last().expect("cols > 0 implies a word");
        assert_eq!(last >> rem, 0, "row {i} has bits past cols");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bitstring_round_trips(
        values in prop::collection::vec((0u64..1 << 20, 1usize..21), 0..20),
        wide in prop::collection::vec((any::<u64>(), 1usize..65), 0..30),
    ) {
        let mut bits: BitString = BitString::new();
        for &(v, w) in &values {
            bits.push_bits(v & ((1 << w) - 1), w);
        }
        let mut reader = bits.reader();
        for &(v, w) in &values {
            prop_assert_eq!(reader.read_bits(w), Some(v & ((1 << w) - 1)));
        }
        prop_assert!(reader.is_exhausted());

        // Full-width fields (1–64 bits) read back exactly, and the canonical
        // bytes are the bits packed least-significant-first.
        let mask = |w: usize| u64::MAX >> (64 - w);
        let mut bits: BitString = BitString::new();
        for &(v, w) in &wide {
            bits.push_bits(v & mask(w), w);
        }
        let mut reader = bits.reader();
        for &(v, w) in &wide {
            prop_assert_eq!(reader.read_bits(w), Some(v & mask(w)));
        }
        prop_assert!(reader.is_exhausted());
        let bytes: Vec<u8> = bits
            .to_bools()
            .chunks(8)
            .map(|byte| byte.iter().rev().fold(0u8, |acc, &b| acc << 1 | u8::from(b)))
            .collect();
        prop_assert_eq!(bits.to_le_bytes(), bytes);
    }

    #[test]
    fn bitstring_word_and_bool_paths_agree(bools in prop::collection::vec(any::<bool>(), 0..200), prefix in 0usize..70) {
        // from_bools (word-packing) == per-bit pushes; to_bools inverts it.
        let packed: BitString = BitString::from_bools(&bools);
        let mut per_bit: BitString = BitString::new();
        for &b in &bools {
            per_bit.push_bit(b);
        }
        prop_assert_eq!(&packed, &per_bit);
        prop_assert_eq!(packed.to_bools(), bools.clone());

        // push_words/read_words round-trip at an arbitrary bit offset.
        let mut bits = BitString::new();
        for i in 0..prefix {
            bits.push_bit(i % 2 == 0);
        }
        bits.push_words(packed.words(), packed.len());
        let mut reader = bits.reader();
        for i in 0..prefix {
            prop_assert_eq!(reader.read_bit(), Some(i % 2 == 0));
        }
        let words = reader.read_words(packed.len()).expect("enough bits");
        prop_assert_eq!(BitString::from_words(&words, packed.len()), packed);
        prop_assert!(reader.is_exhausted());
    }

    #[test]
    fn packed_matmul_kernels_match_the_scalar_reference(
        ra in 1usize..24,
        c in 1usize..200,
        cb in 1usize..24,
        seed in 0u64..1000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a_rows: Vec<Vec<bool>> = (0..ra).map(|_| (0..c).map(|_| rng.gen_bool(0.5)).collect()).collect();
        let b_rows: Vec<Vec<bool>> = (0..c).map(|_| (0..cb).map(|_| rng.gen_bool(0.5)).collect()).collect();
        let a: BitMatrix = BitMatrix::from_rows(&a_rows);
        let b: BitMatrix = BitMatrix::from_rows(&b_rows);

        // Scalar oracles (square-only helper is bypassed for rectangles).
        let mut expected = BitMatrix::zeros(ra, cb);
        let mut expected_bool = BitMatrix::zeros(ra, cb);
        for (i, row_a) in a_rows.iter().enumerate() {
            for j in 0..cb {
                let mut acc = false;
                let mut any = false;
                for (k, row_b) in b_rows.iter().enumerate() {
                    acc ^= row_a[k] & row_b[j];
                    any |= row_a[k] & row_b[j];
                }
                expected.set(i, j, acc);
                expected_bool.set(i, j, any);
            }
        }
        prop_assert_eq!(a.mul_f2(&b), expected, "F2 kernel");
        prop_assert_eq!(a.mul_bool(&b), expected_bool, "boolean kernel");
    }

    #[test]
    fn square_packed_matmul_matches_retained_scalar_reference(d in 1usize..40, seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a_rows: Vec<Vec<bool>> = (0..d).map(|_| (0..d).map(|_| rng.gen_bool(0.5)).collect()).collect();
        let b_rows: Vec<Vec<bool>> = (0..d).map(|_| (0..d).map(|_| rng.gen_bool(0.5)).collect()).collect();
        let packed = BitMatrix::from_rows(&a_rows).mul_f2(&BitMatrix::from_rows(&b_rows));
        prop_assert_eq!(packed.to_rows(), matmul_f2_scalar(&a_rows, &b_rows));
    }

    #[test]
    fn packed_adjacency_round_trips_and_matches_rows(n in 1usize..80, p in 0.0f64..0.6, seed in 0u64..1000) {
        let g = seeded_graph(n, p, seed);
        let m = g.adjacency_bitmatrix();
        prop_assert_eq!(Graph::from_adjacency_bitmatrix(&m), g.clone());
        for u in 0..n {
            let row = g.adjacency_row_bits(u);
            prop_assert_eq!(row.len(), n);
            prop_assert_eq!(row, m.row_bits(u));
        }
    }

    #[test]
    fn mask_columns_never_sets_bits_past_cols(
        rows in 1usize..12,
        cols in 1usize..150,
        seed in 0u64..1000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m = BitMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, rng.gen_bool(0.5));
            }
        }
        let mask: Vec<bool> = (0..cols).map(|_| rng.gen_bool(0.5)).collect();
        let masked = m.mask_columns(&mask);
        assert_no_padding_bits(&masked);
        for i in 0..rows {
            for (j, &keep) in mask.iter().enumerate() {
                prop_assert_eq!(masked.get(i, j), m.get(i, j) && keep);
            }
        }
    }

    #[test]
    fn padded_adjacency_never_sets_bits_past_cols(
        n in 1usize..70,
        pad in 0usize..80,
        p in 0.0f64..0.6,
        seed in 0u64..1000,
    ) {
        let g = seeded_graph(n, p, seed);
        let dim = n + pad;
        let padded = g.adjacency_bitmatrix_padded(dim);
        prop_assert_eq!((padded.rows(), padded.cols()), (dim, dim));
        assert_no_padding_bits(&padded);
        // Padding adds no edges: the set-bit count is exactly 2m, and all
        // bits sit inside the top-left n×n block.
        prop_assert_eq!(padded.count_ones(), 2 * g.edge_count());
        prop_assert_eq!(padded.submatrix(0, 0, n, n), g.adjacency_bitmatrix());
    }

    #[test]
    fn triangle_detection_at_degenerate_sizes_matches_the_oracle(
        n in 1usize..6,
        p in 0.0f64..1.0,
        seed in 0u64..400,
    ) {
        // n ∈ {1, …, 5} drives the dim > n Strassen padding path (dim ∈
        // {1, 2, 4, 8}) and the tiny-group DLP path.
        let g = seeded_graph(n, p, seed);
        let truth = iso::has_triangle(&g);
        let dlp = detect_triangle_dlp(&g, 2).expect("dlp failed");
        prop_assert_eq!(dlp.contains, truth, "dlp at n = {}", n);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xDE6E);
        for strategy in [MatMulStrategy::Naive, MatMulStrategy::Strassen] {
            let outcome = detect_triangle_via_matmul(&g, 4, strategy, 6, &mut rng)
                .expect("matmul detection failed");
            prop_assert_eq!(outcome.contains, truth, "{} at n = {}", strategy.name(), n);
        }
    }

    #[test]
    fn distributed_semiring_product_matches_local_kernel(
        d in 1usize..24,
        seed in 0u64..1000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rows: Vec<Vec<bool>> = (0..d)
            .map(|_| (0..d).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        let a = SemiringMatrix::Bits(BitMatrix::from_rows(&rows));
        let b = {
            let rows: Vec<Vec<bool>> = (0..d)
                .map(|_| (0..d).map(|_| rng.gen_bool(0.5)).collect())
                .collect();
            SemiringMatrix::Bits(BitMatrix::from_rows(&rows))
        };
        let outcome = semiring_matmul(&a, &b, Semiring::Boolean, 3).expect("protocol failed");
        let expected = a.as_bits().unwrap().mul_bool(b.as_bits().unwrap());
        prop_assert_eq!(outcome.as_bits().unwrap(), &expected);
    }

    #[test]
    fn sparse_schedule_matches_cubic_and_local_kernels(
        d in 1usize..14,
        density in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        // Both schedules are execution plans for the *same* product: on
        // random operands of every density (including d = 1 and other
        // degenerate dims) the sparse path and the cubic partition must
        // equal the local kernel entry for entry.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let bits = |salt: u64| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ salt);
            let rows: Vec<Vec<bool>> = (0..d)
                .map(|_| (0..d).map(|_| rng.gen_bool(density)).collect())
                .collect();
            SemiringMatrix::Bits(BitMatrix::from_rows(&rows))
        };
        let (a, b) = (bits(0x5EED), bits(0xFA57));
        for semiring in [Semiring::Boolean, Semiring::F2] {
            let a_bits = a.as_bits().unwrap();
            let b_bits = b.as_bits().unwrap();
            let local = match semiring {
                Semiring::Boolean => a_bits.mul_bool(b_bits),
                _ => a_bits.mul_f2(b_bits),
            };
            let cubic = semiring_matmul(&a, &b, semiring, 3).expect("cubic failed");
            prop_assert_eq!(cubic.as_bits().unwrap(), &local, "cubic {}", semiring.name());
            let sparse = sparse_matmul(&a, &b, semiring, 3).expect("sparse failed");
            prop_assert_eq!(sparse.as_bits().unwrap(), &local, "sparse {}", semiring.name());
        }
        let mut ints = |minplus: bool| {
            let m = IntMatrix::from_rows(&(0..d).map(|_| (0..d).map(|_| {
                if minplus && rng.gen_bool(0.3) {
                    IntMatrix::INFINITY
                } else {
                    rng.gen_range(0..4u64)
                }
            }).collect::<Vec<_>>()).collect::<Vec<_>>());
            SemiringMatrix::Ints(m)
        };
        let (ca, cb) = (ints(false), ints(false));
        let counting_local = ca.as_ints().unwrap().mul_counting(cb.as_ints().unwrap());
        let cubic = semiring_matmul(&ca, &cb, Semiring::Counting, 3).expect("cubic failed");
        prop_assert_eq!(cubic.as_ints().unwrap(), &counting_local, "cubic counting");
        let sparse = sparse_matmul(&ca, &cb, Semiring::Counting, 3).expect("sparse failed");
        prop_assert_eq!(sparse.as_ints().unwrap(), &counting_local, "sparse counting");
        let (ta, tb) = (ints(true), ints(true));
        let tropical_local = ta.as_ints().unwrap().mul_min_plus(tb.as_ints().unwrap());
        let cubic = semiring_matmul(&ta, &tb, Semiring::MinPlus, 3).expect("cubic failed");
        prop_assert_eq!(cubic.as_ints().unwrap(), &tropical_local, "cubic min-plus");
        let sparse = sparse_matmul(&ta, &tb, Semiring::MinPlus, 3).expect("sparse failed");
        prop_assert_eq!(sparse.as_ints().unwrap(), &tropical_local, "sparse min-plus");
    }

    #[test]
    fn distributed_triangle_count_matches_the_oracle(
        n in 3usize..22,
        p in 0.0f64..0.7,
        seed in 0u64..1000,
    ) {
        let g = seeded_graph(n, p, seed);
        let outcome = count_triangles(&g, 4).expect("protocol failed");
        prop_assert_eq!(*outcome, iso::triangle_count(&g));
    }

    #[test]
    fn weighted_graph_edges_are_consistent(
        n in 1usize..40,
        p in 0.0f64..0.8,
        max_weight in 1u64..6,
        seed in 0u64..1000,
    ) {
        let g = seeded_weighted_graph(n, p, max_weight, seed);
        prop_assert_eq!(g.vertex_count(), n);
        prop_assert_eq!(g.edge_count(), g.edges().count());
        let mut keys = Vec::new();
        let mut prev = None;
        for (u, v, w) in g.edges() {
            prop_assert!(u < v, "edges are reported with u < v");
            prop_assert!((1..=max_weight).contains(&w), "weight {} out of range", w);
            prop_assert_eq!(g.weight(u, v), Some(w));
            prop_assert!(g.has_edge(u, v) && g.has_edge(v, u));
            prop_assert!(prev < Some((u, v)), "edges ascend");
            prev = Some((u, v));
            keys.push(g.edge_order_key(u, v));
        }
        // The (w, u, v) normalization makes every edge key distinct, so the
        // minimum spanning forest is unique.
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), keys.len());
        prop_assert_eq!(g.total_weight(), g.edges().map(|(_, _, w)| w).sum::<u64>());
    }

    #[test]
    fn mst_protocol_equals_kruskal_at_one_and_four_workers(
        n in 1usize..24,
        p in 0.0f64..0.6,
        max_weight in 1u64..5,
        seed in 0u64..1000,
        base_capacity in 1usize..6,
    ) {
        let g = seeded_weighted_graph(n, p, max_weight, seed);
        let oracle = iso::minimum_spanning_forest(&g);
        let run = Runner::new(CliqueConfig::broadcast(n, 4))
            .execute(&mut MstProtocol::new(&g, base_capacity))
            .expect("msf run failed");
        prop_assert_eq!(run.total_weight, oracle.total_weight);
        prop_assert_eq!(run.forest(), oracle);
    }

    #[test]
    fn degeneracy_ordering_is_always_a_witness(n in 1usize..40, p in 0.0f64..1.0, seed in 0u64..1000) {
        let g = seeded_graph(n, p, seed);
        let d = degeneracy_ordering(&g);
        prop_assert!(verify_elimination_order(&g, &d.order, d.degeneracy));
        // The degeneracy is at most the maximum degree.
        prop_assert!(d.degeneracy <= g.max_degree());
    }

    #[test]
    fn sketch_reconstruction_round_trips(n in 4usize..36, k in 1usize..6, seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::random_bounded_degeneracy(n, k, &mut rng);
        let decoded = reconstruct(&g, k.max(1));
        prop_assert_eq!(decoded.unwrap(), g);
    }

    #[test]
    fn sketch_reconstruction_never_returns_a_wrong_graph(n in 6usize..28, p in 0.0f64..0.8, k in 1usize..5, seed in 0u64..1000) {
        let g = seeded_graph(n, p, seed);
        match reconstruct(&g, k) {
            Ok(decoded) => prop_assert_eq!(decoded, g),
            Err(_) => {
                // Failure is only allowed when the capacity is genuinely too
                // small.
                let true_d = degeneracy_ordering(&g).degeneracy;
                prop_assert!(true_d > k, "decode failed although degeneracy {} <= k {}", true_d, k);
            }
        }
    }

    #[test]
    fn behrend_sets_are_ap_free(m in 1usize..600) {
        let s = behrend_set(m);
        prop_assert!(!s.is_empty());
        prop_assert!(is_3ap_free(&s));
        prop_assert!(s.iter().all(|&x| (x as usize) < m));
    }

    #[test]
    fn gate_summaries_respect_partitions(bits in prop::collection::vec(any::<bool>(), 1..20), parts in 1usize..6) {
        let kinds = vec![
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Mod(3),
            GateKind::Threshold(3),
            GateKind::Majority,
        ];
        let chunk = bits.len().div_ceil(parts).max(1);
        for kind in kinds {
            let direct = kind.eval(&bits);
            let summaries: Vec<u64> = bits
                .chunks(chunk)
                .enumerate()
                .map(|(c, vals)| {
                    let indexed: Vec<(usize, bool)> =
                        vals.iter().enumerate().map(|(i, &v)| (c * chunk + i, v)).collect();
                    kind.summary(&indexed)
                })
                .collect();
            prop_assert_eq!(kind.combine(&summaries, bits.len()), direct);
        }
    }

    #[test]
    fn circuit_simulation_equals_direct_evaluation(
        n_players in 2usize..8,
        arity in 2usize..5,
        seed in 0u64..500,
    ) {
        let m = n_players * n_players;
        let circuit: Circuit = builders::parity_tree(m, arity);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let input: Vec<bool> = (0..m).map(|_| rng.gen_bool(0.5)).collect();
        let bandwidth = circuit.wire_density(n_players) + 4;
        let sim = simulate_circuit(&circuit, &input, n_players, bandwidth, InputPartition::RoundRobin)
            .expect("simulation failed");
        prop_assert_eq!(sim.outputs, circuit.evaluate(&input));
    }

    #[test]
    fn turan_detection_matches_the_oracle(n in 12usize..30, p in 0.0f64..0.25, seed in 0u64..1000) {
        let g = seeded_graph(n, p, seed);
        for pattern in [Pattern::Cycle(4), Pattern::Clique(3), Pattern::Star(3)] {
            let truth = iso::contains_subgraph(&g, &pattern.graph());
            let outcome = detect_subgraph_turan(&g, &pattern, 4).expect("protocol failed");
            prop_assert_eq!(outcome.contains, truth, "pattern {}", pattern);
        }
    }

    #[test]
    fn dlp_triangle_detection_matches_the_oracle(n in 8usize..28, p in 0.0f64..0.5, seed in 0u64..1000) {
        let g = seeded_graph(n, p, seed);
        let outcome = detect_triangle_dlp(&g, 4).expect("protocol failed");
        prop_assert_eq!(outcome.contains, iso::has_triangle(&g));
        if let Some(w) = &outcome.witness {
            prop_assert!(g.has_edge(w[0], w[1]) && g.has_edge(w[1], w[2]) && g.has_edge(w[0], w[2]));
        }
    }

    #[test]
    fn lower_bound_gadgets_satisfy_observation_11(
        x_bits in prop::collection::vec(any::<bool>(), 64),
        y_bits in prop::collection::vec(any::<bool>(), 64),
    ) {
        // Fixed gadget (K4 on 28 nodes => 36 elements); random instances.
        let lbg = LowerBoundGraph::for_clique(4, 28).unwrap();
        let m = lbg.elements();
        prop_assume!(m <= 64);
        let inst = DisjointnessInstance::new(x_bits[..m].to_vec(), y_bits[..m].to_vec());
        let g = lbg.instantiate(&inst);
        let contains = iso::contains_subgraph(&g, &lbg.pattern().graph());
        prop_assert_eq!(contains, !inst.is_disjoint());
    }

    #[test]
    fn phase_engine_round_accounting_matches_ceiling(msg_bits in 0usize..200, b in 1usize..32, n in 2usize..10) {
        let mut session = Session::new(CliqueConfig::broadcast(n, b));
        let messages: Vec<BitString> = (0..n)
            .map(|i| if i == 0 { BitString::from_bools(&vec![true; msg_bits]) } else { BitString::new() })
            .collect();
        session.broadcast_all("one long message", &messages).unwrap();
        prop_assert_eq!(session.rounds(), (msg_bits as u64).div_ceil(b as u64));
    }

    #[test]
    fn phase_charge_equals_chunked_round_execution(n in 2usize..7, b in 1usize..6, seed in 0u64..500) {
        // A session phase's `⌈max link load / b⌉` charge must equal the
        // number of rounds a chunk-by-chunk execution of the same phase
        // takes, and the payload bits must agree, for random mixed
        // broadcast/unicast phases in both modes.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for cfg in [CliqueConfig::unicast(n, b), CliqueConfig::broadcast(n, b)] {
            let mode = cfg.mode;

            // Random phase: every node may broadcast, and (in unicast mode)
            // may send a few unicasts; repeated sends to one destination are
            // legal and concatenate. `queues[src][dst]` counts the bits
            // queued on each link.
            let mut outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
            let mut queues = vec![vec![0usize; n]; n];
            for (src, out) in outs.iter_mut().enumerate() {
                if rng.gen_bool(0.7) {
                    let len = rng.gen_range(0..24);
                    let payload: BitString = (0..len).map(|_| rng.gen_bool(0.5)).collect();
                    if !payload.is_empty() {
                        out.broadcast(payload);
                        // A broadcast occupies every outgoing link in the
                        // unicast model, and the blackboard (queue slot
                        // `src`) in the broadcast model.
                        match mode {
                            CommMode::Unicast => {
                                for (dst, queue) in queues[src].iter_mut().enumerate() {
                                    if dst != src {
                                        *queue += len;
                                    }
                                }
                            }
                            CommMode::Broadcast => queues[src][src] += len,
                        }
                    }
                }
                if mode == CommMode::Unicast {
                    for _ in 0..rng.gen_range(0..4) {
                        let dst = rng.gen_range(0..n);
                        if dst == src {
                            continue;
                        }
                        let len = rng.gen_range(0..24);
                        let payload: BitString = (0..len).map(|_| rng.gen_bool(0.5)).collect();
                        out.send(NodeId::new(dst), payload);
                        queues[src][dst] += len;
                    }
                }
            }

            // Session phase charge.
            let mut session = Session::new(cfg);
            session.exchange("mixed phase", outs).unwrap();

            // Chunk-by-chunk replay of the same queues.
            let (rounds, bits) = replay_in_chunks(queues.concat(), b);
            prop_assert_eq!(rounds, session.rounds(), "mode {}", mode);
            prop_assert_eq!(bits, session.total_bits(), "mode {}", mode);
        }
    }
}

/// Replays per-link queues (their lengths in bits) in synchronous rounds:
/// each round, every busy queue sends one chunk of at most `b` bits.
/// Returns the rounds taken and the bits sent.
fn replay_in_chunks(mut queues: Vec<usize>, b: usize) -> (u64, u64) {
    let (mut rounds, mut bits) = (0u64, 0u64);
    while queues.iter().any(|&left| left > 0) {
        for left in queues.iter_mut().filter(|left| **left > 0) {
            let chunk = (*left).min(b);
            *left -= chunk;
            bits += chunk as u64;
        }
        rounds += 1;
    }
    (rounds, bits)
}

/// With more rows than players (n = 56 players, d = 113 rows, so each
/// player owns two or three rows and the cube side g = 3 cuts the odd `d`
/// into blocks of 37 and 38) both distributed schedules must equal the
/// local kernel entry for entry, on every semiring. The proptest above
/// keeps `d` to the player count; this grid point exercises the row-owner
/// map and the uneven blocks where one payload carries several rows.
#[test]
fn schedules_with_several_rows_per_player_match_local_kernels() {
    let (n, d, b) = (56usize, 113usize, 4usize);
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
    let bits = SemiringMatrix::Bits(BitMatrix::from_rows(
        &(0..d)
            .map(|_| (0..d).map(|_| rng.gen_bool(0.5)).collect::<Vec<_>>())
            .collect::<Vec<_>>(),
    ));
    let mut ints = |minplus: bool| {
        SemiringMatrix::Ints(IntMatrix::from_rows(
            &(0..d)
                .map(|_| {
                    (0..d)
                        .map(|_| {
                            if minplus && rng.gen_bool(0.3) {
                                IntMatrix::INFINITY
                            } else {
                                rng.gen_range(0..4u64)
                            }
                        })
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>(),
        ))
    };
    let (counting, tropical) = (ints(false), ints(true));
    let (m, c, t) = (
        bits.as_bits().unwrap(),
        counting.as_ints().unwrap(),
        tropical.as_ints().unwrap(),
    );
    for (operand, semiring, local) in [
        (
            &bits,
            Semiring::Boolean,
            SemiringMatrix::Bits(m.mul_bool(m)),
        ),
        (&bits, Semiring::F2, SemiringMatrix::Bits(m.mul_f2(m))),
        (
            &counting,
            Semiring::Counting,
            SemiringMatrix::Ints(c.mul_counting(c)),
        ),
        (
            &tropical,
            Semiring::MinPlus,
            SemiringMatrix::Ints(t.mul_min_plus(t)),
        ),
    ] {
        for schedule in [MatMulSchedule::Cubic, MatMulSchedule::Sparse] {
            let outcome = Runner::new(CliqueConfig::unicast(n, b))
                .execute(&mut ScheduledMatMul::new(
                    operand, operand, semiring, schedule,
                ))
                .expect("protocol failed");
            assert_eq!(
                outcome.output,
                local,
                "{} {} != local kernel",
                schedule.name(),
                semiring.name()
            );
        }
    }
}
