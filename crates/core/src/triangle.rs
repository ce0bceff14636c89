//! Triangle detection in the unicast congested clique (Section 2.1) and
//! baselines.
//!
//! Section 2.1 observes that arithmetic circuits for matrix multiplication
//! of size `O(n^{2+ε})` would give `O(n^ε)`-round triangle detection in
//! `CLIQUE-UCAST(n, 1)`: cube the adjacency matrix over the Boolean
//! semiring, which Shamir's randomized reduction turns into a small number of
//! `F₂` matrix products, which the Theorem 2 simulation evaluates in
//! `O(depth)` rounds with bandwidth proportional to the circuit's wire
//! density. `MatMulTriangleDetection` implements exactly that pipeline
//! with the two explicit circuit families available (naive cubic and
//! Strassen), plus two baselines:
//!
//! * the trivial protocol (everyone broadcasts its row; `⌈n/b⌉` rounds), and
//! * a deterministic Dolev–Lenzen–Peled-style protocol \[8\]
//!   ([`DlpTriangleDetection`]): vertices are split into `n^{1/3}` groups,
//!   each player checks one group triple, and a balanced routing phase ships
//!   every relevant edge to its checkers in `Õ(n^{1/3}/b)` rounds.

use std::collections::HashMap;

use clique_circuits::matmul::{matmul_f2_naive, strassen_matmul_f2, MatMulCircuit};
use clique_graphs::{Graph, Pattern};
use clique_routing::{BalancedRouter, Packet, Router, RoutingDemand};
use clique_sim::prelude::*;
use rand::Rng;

use crate::circuit_sim::{read_fields, CircuitSimulation, Field, InputPartition};
use crate::outcome::{CircuitOutput, Detection, DetectionOutcome};
use crate::trivial::detect_by_full_broadcast;

/// Which matrix-multiplication circuit powers the Section 2.1 protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatMulStrategy {
    /// The naive cubic circuit (`ω = 3`).
    Naive,
    /// Strassen's recursive circuit (`ω ≈ 2.81`).
    Strassen,
}

impl MatMulStrategy {
    /// The circuit dimension the strategy needs for an `n × n` input — the
    /// *single* place padding is decided. The Strassen circuit splits all
    /// the way to `1 × 1` blocks, so it rounds up to the next power of two;
    /// the naive circuit takes any dimension. Pad the input matrices to
    /// this dimension and pass it unchanged to [`Self::circuit`].
    pub(crate) fn padded_dim(&self, n: usize) -> usize {
        match self {
            MatMulStrategy::Naive => n,
            MatMulStrategy::Strassen => n.next_power_of_two(),
        }
    }

    /// Builds the circuit for the given dimension, which must already be
    /// padded via [`Self::padded_dim`]. No further padding happens here, so
    /// the circuit dimension always agrees with matrices padded by the
    /// caller.
    ///
    /// # Panics
    ///
    /// Panics for [`MatMulStrategy::Strassen`] if `dim` is not a power of
    /// two (i.e. was not produced by [`Self::padded_dim`]).
    pub(crate) fn circuit(&self, dim: usize) -> MatMulCircuit {
        match self {
            MatMulStrategy::Naive => matmul_f2_naive(dim),
            MatMulStrategy::Strassen => strassen_matmul_f2(dim),
        }
    }

    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            MatMulStrategy::Naive => "naive-matmul",
            MatMulStrategy::Strassen => "strassen-matmul",
        }
    }
}

/// The trivial baseline: every node broadcasts its adjacency row and checks
/// for triangles locally. `⌈n/b⌉` rounds in `CLIQUE-BCAST(n, b)`.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
pub fn detect_triangle_trivial(
    graph: &Graph,
    bandwidth: usize,
) -> Result<DetectionOutcome, SimError> {
    detect_by_full_broadcast(graph, &Pattern::Clique(3), bandwidth)
}

/// Section 2.1 as a [`Protocol`]: triangle detection through `F₂` matrix
/// multiplication and the circuit simulation of Theorem 2, run as a nested
/// sub-protocol on the same session.
///
/// Each of the `trials` rounds of Shamir's reduction picks a random diagonal
/// mask `D` and evaluates `M = (A·D)·A` over `F₂` with the chosen circuit;
/// an edge `(i, j)` with `M[i][j] = 1` certifies a triangle. The protocol
/// has no false positives and misses an existing triangle with probability
/// at most `2^{-trials}`.
#[derive(Debug)]
pub(crate) struct MatMulTriangleDetection<'a, R: Rng + ?Sized> {
    graph: &'a Graph,
    strategy: MatMulStrategy,
    trials: usize,
    rng: &'a mut R,
}

impl<'a, R: Rng + ?Sized> MatMulTriangleDetection<'a, R> {
    /// Prepares the protocol.
    ///
    /// # Panics
    ///
    /// Panics if `trials == 0`.
    pub(crate) fn new(
        graph: &'a Graph,
        strategy: MatMulStrategy,
        trials: usize,
        rng: &'a mut R,
    ) -> Self {
        assert!(trials > 0, "at least one trial is required");
        Self {
            graph,
            strategy,
            trials,
            rng,
        }
    }
}

impl<R: Rng + ?Sized> Protocol for MatMulTriangleDetection<'_, R> {
    type Output = Detection;

    fn run(&mut self, session: &mut Session) -> Result<Detection, SimError> {
        let n = self.graph.vertex_count();
        session.require_clique_of(n);

        let dim = self.strategy.padded_dim(n);
        let mm = self.strategy.circuit(dim);
        let adjacency = self.graph.adjacency_bitmatrix_padded(dim);

        let mut found_edge: Option<(usize, usize)> = None;

        for _ in 0..self.trials {
            // Random diagonal mask D; B1 = A·D masks the columns of A. The
            // mask is drawn bit by bit (same RNG consumption as ever) and
            // applied word-parallel to the packed adjacency matrix.
            let mask: Vec<bool> = (0..dim).map(|_| self.rng.gen_bool(0.5)).collect();
            let masked = adjacency.mask_columns(&mask);

            // Evaluate M = (A·D)·A with the Theorem 2 simulation, nested on
            // this session.
            let assignment = mm.assignment(&masked, &adjacency);
            let sim = session.run_protocol(&mut CircuitSimulation::new(
                &mm.circuit,
                &assignment,
                InputPartition::RoundRobin,
            ))?;

            // Follow-up phase: the owner of output entry (i, j) sends the bit
            // to player i (who knows row i of A), one message per entry, and
            // every player then broadcasts a one-bit flag.
            let entries = product_entries(&sim, n, dim);
            let mut outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
            for entry in entries.iter().filter(|e| e.src != e.dst) {
                outs[entry.src].send(NodeId::new(entry.dst), BitString::from_bits(entry.value, 1));
            }
            let inboxes = session.exchange(ENTRIES_PHASE, outs)?;
            let m = read_fields(ENTRIES_PHASE, &entries, &inboxes)?;
            // Each player checks its own row and broadcasts a one-bit flag.
            let mut flag_outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
            let mut local_hit: Vec<Option<(usize, usize)>> = vec![None; n];
            for i in 0..n {
                for (j, &hit) in m[i * dim..(i + 1) * dim].iter().enumerate() {
                    if self.graph.has_edge(i, j) && hit != 0 {
                        local_hit[i] = Some((i, j));
                        break;
                    }
                }
                flag_outs[i].broadcast(BitString::from_bits(u64::from(local_hit[i].is_some()), 1));
            }
            session.exchange("announce detection flags", flag_outs)?;

            if let Some(hit) = local_hit.iter().flatten().next() {
                found_edge = Some(*hit);
                break;
            }
        }

        // A hit edge (i, j) plus any common neighbour forms a witness
        // triangle.
        let witness = found_edge.map(|(i, j)| {
            let k = self
                .graph
                .neighbors(i)
                .iter()
                .copied()
                .find(|&k| self.graph.has_edge(j, k))
                .expect("a positive F2 product entry implies a common neighbour exists");
            vec![i, j, k]
        });

        Ok(Detection {
            contains: witness.is_some(),
            witness,
        })
    }
}

/// Label of the Section 2.1 follow-up that ships product entries to their
/// row owners.
const ENTRIES_PHASE: &str = "deliver product entries to row owners";

/// The entries of the Section 2.1 follow-up in the product's row-major
/// order: entry `(i, j)` of the `dim × dim` product, `i < n`, travels from
/// its owner to player `i`.
fn product_entries(product: &CircuitOutput, n: usize, dim: usize) -> Vec<Field> {
    let entries = product.outputs.iter().zip(&product.output_owners);
    entries
        .take(n * dim)
        .enumerate()
        .map(|(idx, (&value, &owner))| Field::bit(owner, idx / dim, value))
        .collect()
}

/// Runs `MatMulTriangleDetection` in `CLIQUE-UCAST(n, b)`.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics if the graph is empty or `trials == 0`.
pub fn detect_triangle_via_matmul<R: Rng + ?Sized>(
    graph: &Graph,
    bandwidth: usize,
    strategy: MatMulStrategy,
    trials: usize,
    rng: &mut R,
) -> Result<DetectionOutcome, SimError> {
    let n = graph.vertex_count();
    assert!(n > 0, "the input graph must have at least one node");
    Runner::new(CliqueConfig::unicast(n, bandwidth)).execute(&mut MatMulTriangleDetection::new(
        graph, strategy, trials, rng,
    ))
}

/// The deterministic Dolev–Lenzen–Peled-style triangle detector \[8\] as a
/// [`Protocol`]: vertices are split into `⌈n^{1/3}⌉` groups, player `w` is
/// responsible for the `w`-th group triple, and every player ships the
/// relevant part of its adjacency row to the responsible checkers through
/// the balanced router. That demand holds one packet per (player, checker)
/// pair, so the router delivers it directly in one hop.
#[derive(Clone, Debug)]
pub struct DlpTriangleDetection<'a> {
    graph: &'a Graph,
}

impl<'a> DlpTriangleDetection<'a> {
    /// Prepares the protocol for the given input graph.
    pub fn new(graph: &'a Graph) -> Self {
        Self { graph }
    }
}

impl Protocol for DlpTriangleDetection<'_> {
    type Output = Detection;

    fn run(&mut self, session: &mut Session) -> Result<Detection, SimError> {
        let graph = self.graph;
        let n = graph.vertex_count();
        session.require_clique_of(n);
        // Largest group count g with C(g+2, 3) ≤ n, so that every group
        // triple can be assigned to a distinct player; g = Θ(n^{1/3}).
        let groups = (1..=n)
            .take_while(|&g| g * (g + 1) * (g + 2) / 6 <= n)
            .last()
            .unwrap_or(1);
        let group_of = |v: usize| v * groups / n.max(1);

        // Enumerate group triples (with repetition) and assign them to
        // players.
        let mut triples = Vec::new();
        for a in 0..groups {
            for b in a..groups {
                for c in b..groups {
                    triples.push((a, b, c));
                }
            }
        }
        debug_assert!(triples.len() <= n);

        // Each node v in a group of the triple sends its adjacency row
        // restricted to the triple's groups to the checker.
        let mut demand = RoutingDemand::new(n);
        for (checker, &(a, b, c)) in triples.iter().enumerate() {
            let relevant: Vec<usize> = (0..n)
                .filter(|&v| [a, b, c].contains(&group_of(v)))
                .collect();
            for &v in &relevant {
                if v == checker {
                    continue;
                }
                let bits: BitString = relevant.iter().map(|&u| graph.has_edge(v, u)).collect();
                demand.send(v, checker, bits);
            }
        }
        let delivered = BalancedRouter.route(demand, session)?;

        // Checkers look for a triangle inside their triple. Every checker
        // derives its own flag from its local view only — no checker may
        // use another checker's discovery before the announcement phase
        // below (the "no out-of-band communication" convention).
        let mut witness: Option<Vec<usize>> = None;
        let mut local_hit = vec![false; n];
        for (checker, &(a, b, c)) in triples.iter().enumerate() {
            let relevant: Vec<usize> = (0..n)
                .filter(|&v| [a, b, c].contains(&group_of(v)))
                .collect();
            let local = checker_view(graph, checker, &relevant, &delivered[checker])?;
            if let Some(t) = clique_graphs::iso::triangles(&local).first() {
                local_hit[checker] = true;
                if witness.is_none() {
                    witness = Some(vec![relevant[t.0], relevant[t.1], relevant[t.2]]);
                }
            }
        }

        // One more round: every player announces its own locally-derived
        // flag (still exactly 1 bit per player — non-checkers and empty
        // checkers broadcast 0).
        let mut flag_outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
        for (i, out) in flag_outs.iter_mut().enumerate() {
            out.broadcast(BitString::from_bits(u64::from(local_hit[i]), 1));
        }
        session.exchange("announce detection flags", flag_outs)?;

        Ok(Detection {
            contains: witness.is_some(),
            witness,
        })
    }
}

/// Phase label of the DLP shipment of relevant rows in
/// [`SimError::MalformedPayload`] reports.
const DLP_ROWS_PHASE: &str = "dlp/relevant rows";

/// A DLP checker's view of its group triple: the subgraph induced on
/// `relevant`, rebuilt from the rows delivered in `packets` plus the
/// checker's own row when it belongs to the triple.
///
/// # Errors
///
/// [`SimError::MalformedPayload`] naming the sender when a relevant
/// player's row is missing or shorter than `relevant.len()` bits.
fn checker_view(
    graph: &Graph,
    checker: usize,
    relevant: &[usize],
    packets: &[Packet],
) -> Result<Graph, SimError> {
    let mut rows: HashMap<usize, BitReader<'_>> = packets
        .iter()
        .map(|p| (p.src.index(), p.payload.reader()))
        .collect();
    let mut local = Graph::empty(relevant.len());
    for (src_idx, &v) in relevant.iter().enumerate() {
        if v == checker {
            for (dst_idx, &u) in relevant.iter().enumerate() {
                if graph.has_edge(checker, u) {
                    local.add_edge(src_idx, dst_idx);
                }
            }
            continue;
        }
        let malformed = || SimError::MalformedPayload {
            sender: NodeId::new(v),
            phase: DLP_ROWS_PHASE.to_owned(),
        };
        let reader = rows.get_mut(&v).ok_or_else(malformed)?;
        for dst_idx in 0..relevant.len() {
            if reader.read_bit().ok_or_else(malformed)? {
                local.add_edge(src_idx, dst_idx);
            }
        }
    }
    Ok(local)
}

/// Runs [`DlpTriangleDetection`] in `CLIQUE-UCAST(n, b)`.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics if the graph is empty.
pub fn detect_triangle_dlp(graph: &Graph, bandwidth: usize) -> Result<DetectionOutcome, SimError> {
    let n = graph.vertex_count();
    assert!(n > 0, "the input graph must have at least one node");
    Runner::new(CliqueConfig::unicast(n, bandwidth)).execute(&mut DlpTriangleDetection::new(graph))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_graphs::generators;
    use clique_graphs::iso::has_triangle;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn check_witness(graph: &Graph, outcome: &DetectionOutcome) {
        if let Some(w) = &outcome.witness {
            assert_eq!(w.len(), 3);
            assert!(graph.has_edge(w[0], w[1]));
            assert!(graph.has_edge(w[1], w[2]));
            assert!(graph.has_edge(w[0], w[2]));
        }
    }

    #[test]
    fn trivial_detection_works() {
        let g = generators::complete(10);
        let outcome = detect_triangle_trivial(&g, 2).unwrap();
        assert!(outcome.contains);
        assert_eq!(outcome.rounds(), 5);
        let bip = generators::complete_bipartite(6, 6);
        assert!(!detect_triangle_trivial(&bip, 2).unwrap().contains);
    }

    #[test]
    fn matmul_detection_finds_triangles() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB0);
        let g = generators::complete(9);
        for strategy in [MatMulStrategy::Naive, MatMulStrategy::Strassen] {
            let outcome = detect_triangle_via_matmul(&g, 16, strategy, 4, &mut rng).unwrap();
            assert!(outcome.contains, "{} missed a triangle", strategy.name());
            check_witness(&g, &outcome);
        }
    }

    #[test]
    fn matmul_detection_has_no_false_positives() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB1);
        let g = generators::complete_bipartite(5, 5);
        assert!(!has_triangle(&g));
        for strategy in [MatMulStrategy::Naive, MatMulStrategy::Strassen] {
            let outcome = detect_triangle_via_matmul(&g, 16, strategy, 3, &mut rng).unwrap();
            assert!(
                !outcome.contains,
                "{} hallucinated a triangle",
                strategy.name()
            );
        }
    }

    #[test]
    fn matmul_detection_on_sparse_planted_triangle() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB2);
        let host = generators::erdos_renyi(12, 0.05, &mut rng);
        let (g, _) = generators::plant_copy(&host, &generators::complete(3), &mut rng);
        let outcome =
            detect_triangle_via_matmul(&g, 16, MatMulStrategy::Naive, 6, &mut rng).unwrap();
        assert!(outcome.contains);
        check_witness(&g, &outcome);
    }

    #[test]
    fn dlp_detection_agrees_with_ground_truth() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB3);
        for p in [0.05, 0.15, 0.4] {
            let g = generators::erdos_renyi(27, p, &mut rng);
            let outcome = detect_triangle_dlp(&g, 8).unwrap();
            assert_eq!(outcome.contains, has_triangle(&g), "p = {p}");
            check_witness(&g, &outcome);
        }
    }

    #[test]
    fn dlp_detection_on_triangle_free_graph() {
        let g = generators::complete_bipartite(10, 10);
        let outcome = detect_triangle_dlp(&g, 8).unwrap();
        assert!(!outcome.contains);
    }

    #[test]
    fn strategies_pad_in_exactly_one_place() {
        // `padded_dim` is the single padding decision; `circuit` must not
        // pad again, so the circuit dimension always equals the dimension
        // the caller padded its matrices to.
        assert_eq!(MatMulStrategy::Naive.padded_dim(6), 6);
        for d in 1..=70usize {
            assert_eq!(
                MatMulStrategy::Strassen.padded_dim(d),
                d.next_power_of_two(),
                "d = {d}"
            );
        }
        for (strategy, n) in [
            (MatMulStrategy::Naive, 5),
            (MatMulStrategy::Naive, 8),
            (MatMulStrategy::Strassen, 5),
            (MatMulStrategy::Strassen, 8),
        ] {
            let dim = strategy.padded_dim(n);
            assert_eq!(strategy.circuit(dim).dim, dim, "{} n={n}", strategy.name());
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn strassen_circuit_rejects_unpadded_dimensions() {
        // The old code silently re-padded here, building a circuit whose
        // dimension disagreed with the caller's matrices.
        let _ = MatMulStrategy::Strassen.circuit(6);
    }

    #[test]
    fn detection_at_degenerate_sizes_matches_ground_truth() {
        // n ∈ {1, 2, 3}: padding dims exceed n for Strassen (dim 1, 2, 4),
        // exercising the dim > n zero-padding path end to end.
        let instances: Vec<Graph> = vec![
            Graph::empty(1),
            Graph::empty(2),
            Graph::from_edges(2, &[(0, 1)]),
            Graph::from_edges(3, &[(0, 1), (1, 2)]),
            generators::complete(3),
        ];
        for (idx, g) in instances.iter().enumerate() {
            let truth = has_triangle(g);
            let dlp = detect_triangle_dlp(g, 2).unwrap();
            assert_eq!(dlp.contains, truth, "dlp on instance {idx}");
            check_witness(g, &dlp);
            for strategy in [MatMulStrategy::Naive, MatMulStrategy::Strassen] {
                let mut rng = ChaCha8Rng::seed_from_u64(0xDE6 + idx as u64);
                let outcome = detect_triangle_via_matmul(g, 4, strategy, 6, &mut rng).unwrap();
                assert_eq!(
                    outcome.contains,
                    truth,
                    "{} on instance {idx}",
                    strategy.name()
                );
                check_witness(g, &outcome);
            }
        }
    }

    #[test]
    fn dlp_checkers_reject_missing_or_short_rows() {
        // Checker 0 of a triangle's triple: players 1 and 2 each send their
        // 3-bit row, and player 0 holds its own.
        let g = generators::complete(3);
        let relevant = [0, 1, 2];
        let row = |v: usize| -> BitString { relevant.iter().map(|&u| g.has_edge(v, u)).collect() };
        let packet = |v: usize, payload| Packet::new(NodeId::new(v), NodeId::new(0), payload);
        let full = [packet(1, row(1)), packet(2, row(2))];
        assert_eq!(checker_view(&g, 0, &relevant, &full).unwrap(), g);
        let malformed = |sender| {
            Err(SimError::MalformedPayload {
                sender: NodeId::new(sender),
                phase: DLP_ROWS_PHASE.into(),
            })
        };
        for cut in 0..relevant.len() {
            let prefix = BitString::from_words(row(2).words(), cut);
            let short = [packet(1, row(1)), packet(2, prefix)];
            assert_eq!(
                checker_view(&g, 0, &relevant, &short),
                malformed(2),
                "a {cut}-bit row"
            );
        }
        assert_eq!(
            checker_view(&g, 0, &relevant, &full[1..]),
            malformed(1),
            "a dropped row"
        );
    }

    #[test]
    fn row_owners_reject_missing_or_short_entries() {
        // A 2 × 2 product: player 1 owns row 0's entries, player 0 row 1's.
        let product = CircuitOutput {
            outputs: vec![true, false, false, true],
            output_owners: vec![1, 1, 0, 0],
            depth: 1,
        };
        let entries = product_entries(&product, 2, 2);
        // Player 1 sends only its first `sent` entries, one message each.
        let read = |sent: usize| {
            let mut outs: Vec<PhaseOutbox> = (0..2).map(|_| PhaseOutbox::new()).collect();
            let (from_0, from_1): (Vec<&Field>, Vec<&Field>) =
                entries.iter().partition(|e| e.src == 0);
            for e in from_0.into_iter().chain(from_1.into_iter().take(sent)) {
                outs[e.src].send(NodeId::new(e.dst), BitString::from_bits(e.value, 1));
            }
            let mut session = Session::new(CliqueConfig::unicast(2, 1));
            read_fields(
                ENTRIES_PHASE,
                &entries,
                &session.exchange(ENTRIES_PHASE, outs).unwrap(),
            )
        };
        assert_eq!(read(2), Ok(vec![1, 0, 0, 1]));
        let malformed = Err(SimError::MalformedPayload {
            sender: NodeId::new(1),
            phase: ENTRIES_PHASE.into(),
        });
        assert_eq!(read(0), malformed, "no entries");
        assert_eq!(read(1), malformed, "one entry short");
    }

    #[test]
    fn dlp_flags_are_locally_derived() {
        // A triangle sitting entirely inside a later checker's triple: with
        // the old out-of-band bug player 0 would announce a detection it
        // could not have derived locally. The protocol must still detect the
        // triangle (the responsible checker raises its own flag), and the
        // announcement phase stays exactly one bit per player.
        let mut r = ChaCha8Rng::seed_from_u64(0xF1A6);
        for trial in 0..8 {
            let g = generators::erdos_renyi(27, 0.12 + 0.04 * f64::from(trial), &mut r);
            let outcome = detect_triangle_dlp(&g, 4).unwrap();
            assert_eq!(outcome.contains, has_triangle(&g), "trial {trial}");
            check_witness(&g, &outcome);
        }
    }
}
