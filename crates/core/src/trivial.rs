//! Trivial baseline protocol.
//!
//! **Broadcast-your-neighbourhood** ([`FullBroadcastDetection`],
//! `CLIQUE-BCAST`), the yardstick the paper repeatedly measures against:
//! every node writes its `n`-bit adjacency row on the blackboard; after
//! `⌈n/b⌉` rounds every node knows the whole graph and can answer any graph
//! question locally. This is the trivial `O(n log n / b)`-round upper bound
//! that Theorem 7 improves on for bipartite patterns (and that
//! non-bipartite patterns are stuck with). [`detect_by_full_broadcast`] is
//! the thin [`Runner`] wrapper that runs it on `CLIQUE-BCAST(n, b)`.

use clique_graphs::iso::find_subgraph;
use clique_graphs::{Graph, Pattern};
use clique_sim::prelude::*;

use crate::outcome::{Detection, DetectionOutcome};

/// The broadcast-your-neighbourhood protocol: runs in any broadcast-capable
/// model and answers `H`-subgraph detection by local search on the
/// reconstructed graph.
#[derive(Clone, Debug)]
pub struct FullBroadcastDetection<'a> {
    graph: &'a Graph,
    pattern: &'a Pattern,
}

impl<'a> FullBroadcastDetection<'a> {
    /// Prepares the protocol for the given input graph and pattern.
    pub fn new(graph: &'a Graph, pattern: &'a Pattern) -> Self {
        Self { graph, pattern }
    }
}

impl Protocol for FullBroadcastDetection<'_> {
    type Output = Detection;

    fn run(&mut self, session: &mut Session) -> Result<Detection, SimError> {
        let n = self.graph.vertex_count();
        session.require_clique_of(n);

        // Every node broadcasts its adjacency row (n bits, packed).
        let rows: Vec<BitString> = (0..n).map(|v| self.graph.adjacency_row_bits(v)).collect();
        let inboxes = session.broadcast_all(BROADCAST_PHASE, &rows)?;

        // Node 0 reconstructs the graph from what it received (plus its own
        // row) and searches locally. Every other node could do the same.
        let matrix = gather_rows(self.graph, &inboxes[0])?;
        let reconstructed = Graph::from_adjacency_bitmatrix(&matrix);
        debug_assert_eq!(&reconstructed, self.graph);
        let witness = find_subgraph(&reconstructed, &self.pattern.graph());

        Ok(Detection {
            contains: witness.is_some(),
            witness,
        })
    }
}

/// Label of [`FullBroadcastDetection`]'s row broadcast.
const BROADCAST_PHASE: &str = "broadcast adjacency rows";

/// Player 0's view of the whole adjacency matrix: its own row, and the
/// `n`-bit row every other player broadcast (its `inbox`), read straight
/// into the matrix.
///
/// # Errors
///
/// [`SimError::MalformedPayload`] naming the first player whose row is
/// missing or shorter than `n` bits.
fn gather_rows(graph: &Graph, inbox: &PhaseInbox) -> Result<BitMatrix, SimError> {
    let n = graph.vertex_count();
    let mut matrix = BitMatrix::zeros(n, n);
    matrix.set_row_words(0, graph.adjacency_row_bits(0).words());
    for v in 1..n {
        let sender = NodeId::new(v);
        inbox
            .broadcast_from(sender)
            .and_then(|bits| bits.reader().read_words_into(n, matrix.row_words_mut(v)))
            .ok_or_else(|| SimError::MalformedPayload {
                sender,
                phase: BROADCAST_PHASE.to_owned(),
            })?;
    }
    Ok(matrix)
}

/// Runs [`FullBroadcastDetection`] in `CLIQUE-BCAST(n, b)`.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics if `graph` has no vertices.
pub fn detect_by_full_broadcast(
    graph: &Graph,
    pattern: &Pattern,
    bandwidth: usize,
) -> Result<DetectionOutcome, SimError> {
    let n = graph.vertex_count();
    assert!(n > 0, "the input graph must have at least one node");
    Runner::new(CliqueConfig::broadcast(n, bandwidth))
        .execute(&mut FullBroadcastDetection::new(graph, pattern))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_graphs::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn full_broadcast_detects_planted_patterns() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xF0);
        let host = generators::erdos_renyi(24, 0.05, &mut rng);
        let pattern = Pattern::Cycle(4);
        let (with_copy, _) = generators::plant_copy(&host, &pattern.graph(), &mut rng);
        let outcome = detect_by_full_broadcast(&with_copy, &pattern, 4).unwrap();
        assert!(outcome.contains);
        assert!(outcome.witness.is_some());
        // ceil(n / b) rounds.
        assert_eq!(outcome.rounds(), 6);
    }

    #[test]
    fn full_broadcast_reports_absence() {
        let g = generators::turan_graph(15, 3); // K4-free
        let outcome = detect_by_full_broadcast(&g, &Pattern::Clique(4), 3).unwrap();
        assert!(!outcome.contains);
        assert!(outcome.witness.is_none());
        assert_eq!(outcome.rounds(), 5);
        // Blackboard bits: n rows of n bits.
        assert_eq!(outcome.total_bits(), 15 * 15);
    }

    #[test]
    fn round_counts_scale_with_bandwidth() {
        let g = generators::cycle(32);
        let slow = detect_by_full_broadcast(&g, &Pattern::Cycle(32), 1).unwrap();
        let fast = detect_by_full_broadcast(&g, &Pattern::Cycle(32), 16).unwrap();
        assert_eq!(slow.rounds(), 32);
        assert_eq!(fast.rounds(), 2);
        assert!(slow.contains && fast.contains);
    }

    #[test]
    fn witness_is_a_real_copy() {
        let g = generators::complete(6);
        let outcome = detect_by_full_broadcast(&g, &Pattern::Clique(4), 8).unwrap();
        let witness = outcome.output.witness.clone().unwrap();
        let pattern = Pattern::Clique(4).graph();
        for (u, v) in pattern.edges() {
            assert!(g.has_edge(witness[u], witness[v]));
        }
    }

    #[test]
    fn missing_or_short_rows_name_their_sender() {
        let g = generators::complete(3);
        let mut rows: Vec<BitString> = (0..3).map(|v| g.adjacency_row_bits(v)).collect();
        // Player 0's inbox after the rows are broadcast.
        let gather = |rows: &[BitString]| {
            let inboxes = Session::new(CliqueConfig::broadcast(3, 3))
                .broadcast_all(BROADCAST_PHASE, rows)
                .unwrap();
            gather_rows(&g, &inboxes[0])
        };
        assert_eq!(Graph::from_adjacency_bitmatrix(&gather(&rows).unwrap()), g);
        let malformed = Err(SimError::MalformedPayload {
            sender: NodeId::new(2),
            phase: BROADCAST_PHASE.into(),
        });
        rows[2] = BitString::from_words(rows[2].words(), 2);
        assert_eq!(gather(&rows), malformed, "a row one bit short");
        // An empty message is never broadcast.
        rows[2] = BitString::new();
        assert_eq!(gather(&rows), malformed, "a dropped row");
    }

    #[test]
    fn protocols_run_on_explicit_runners() {
        // The same protocol instance type runs on models the wrappers never
        // pick, e.g. a wider-bandwidth broadcast clique.
        let g = generators::complete(6);
        let pattern = Pattern::Clique(3);
        let outcome = Runner::new(CliqueConfig::broadcast(6, 6))
            .execute(&mut FullBroadcastDetection::new(&g, &pattern))
            .unwrap();
        assert!(outcome.contains);
        assert_eq!(outcome.rounds(), 1);
    }
}
