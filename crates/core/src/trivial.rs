//! Trivial baseline protocols.
//!
//! Two protocols that the paper repeatedly uses as yardsticks:
//!
//! * **broadcast-your-neighbourhood** ([`FullBroadcastDetection`],
//!   `CLIQUE-BCAST`): every node writes its `n`-bit adjacency row on the
//!   blackboard; after `⌈n/b⌉` rounds every node knows the whole graph and
//!   can answer any graph question locally. This is the trivial
//!   `O(n log n / b)`-round upper bound that Theorem 7 improves on for
//!   bipartite patterns (and that non-bipartite patterns are stuck with).
//! * **ship-everything-to-a-leader** ([`GatherToLeaderDetection`],
//!   `CLIQUE-UCAST`): every node sends its `n`-bit row to player 0 over its
//!   single link to player 0, taking `⌈n/b⌉` rounds; this matches the
//!   non-explicit counting lower bound up to the `O(log n)` slack.
//!
//! Both are [`Protocol`]s; the `detect_by_*` free functions are thin
//! [`Runner`] wrappers that pick the canonical model for each.

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
        let matrix = gather_rows(self.graph, BROADCAST_PHASE, |v| {
            inboxes[0].broadcast_from(v)
        })?;
        let reconstructed = Graph::from_adjacency_bitmatrix(&matrix);
        debug_assert_eq!(&reconstructed, self.graph);
        let witness = find_subgraph(&reconstructed, &self.pattern.graph());

        Ok(Detection {
            contains: witness.is_some(),
            witness,
        })
    }
}

/// The ship-everything-to-a-leader protocol: player 0 gathers all rows over
/// unicast links and decides alone.
#[derive(Clone, Debug)]
pub struct GatherToLeaderDetection<'a> {
    graph: &'a Graph,
    pattern: &'a Pattern,
}

impl<'a> GatherToLeaderDetection<'a> {
    /// Prepares the protocol for the given input graph and pattern.
    pub fn new(graph: &'a Graph, pattern: &'a Pattern) -> Self {
        Self { graph, pattern }
    }
}

impl Protocol for GatherToLeaderDetection<'_> {
    type Output = Detection;

    fn run(&mut self, session: &mut Session) -> Result<Detection, SimError> {
        let n = self.graph.vertex_count();
        session.require_clique_of(n);

        let mut outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
        for (v, out) in outs.iter_mut().enumerate().skip(1) {
            out.send(NodeId::new(0), self.graph.adjacency_row_bits(v));
        }
        let inboxes = session.exchange(GATHER_PHASE, outs)?;

        let matrix = gather_rows(self.graph, GATHER_PHASE, |v| inboxes[0].unicast_from(v))?;
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

/// Label of [`GatherToLeaderDetection`]'s row shipment.
const GATHER_PHASE: &str = "gather rows at leader";

/// Player 0's view of the whole adjacency matrix: its own row, and the
/// `n`-bit row every other player `v` sent in `phase` (`row(v)`), read
/// straight into the matrix.
///
/// # Errors
///
/// [`SimError::MalformedPayload`] naming the first player whose row is
/// missing or shorter than `n` bits.
fn gather_rows<'a>(
    graph: &Graph,
    phase: &str,
    row: impl Fn(NodeId) -> Option<&'a BitString>,
) -> Result<BitMatrix, SimError> {
    let n = graph.vertex_count();
    let mut matrix = BitMatrix::zeros(n, n);
    matrix.set_row_words(0, graph.adjacency_row_bits(0).words());
    for v in 1..n {
        let sender = NodeId::new(v);
        row(sender)
            .and_then(|bits| bits.reader().read_words_into(n, matrix.row_words_mut(v)))
            .ok_or_else(|| SimError::MalformedPayload {
                sender,
                phase: phase.to_owned(),
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

/// Runs [`GatherToLeaderDetection`] in `CLIQUE-UCAST(n, b)`.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics if `graph` has no vertices.
pub fn detect_by_gather_to_leader(
    graph: &Graph,
    pattern: &Pattern,
    bandwidth: usize,
) -> Result<DetectionOutcome, SimError> {
    let n = graph.vertex_count();
    assert!(n > 0, "the input graph must have at least one node");
    Runner::new(CliqueConfig::unicast(n, bandwidth))
        .execute(&mut GatherToLeaderDetection::new(graph, pattern))
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
    fn gather_to_leader_matches_broadcast_answer() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xF1);
        for _ in 0..5 {
            let g = generators::erdos_renyi(18, 0.2, &mut rng);
            let pattern = Pattern::Clique(3);
            let a = detect_by_full_broadcast(&g, &pattern, 2).unwrap();
            let b = detect_by_gather_to_leader(&g, &pattern, 2).unwrap();
            assert_eq!(a.contains, b.contains);
            // Both take ceil(n/b) rounds.
            assert_eq!(a.rounds(), b.rounds());
        }
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
        let rows: Vec<BitString> = (0..3).map(|v| g.adjacency_row_bits(v)).collect();
        let gathered = gather_rows(&g, GATHER_PHASE, |v| rows.get(v.index()));
        assert_eq!(Graph::from_adjacency_bitmatrix(&gathered.unwrap()), g);
        let malformed = Err(SimError::MalformedPayload {
            sender: NodeId::new(2),
            phase: GATHER_PHASE.into(),
        });
        let missing = gather_rows(&g, GATHER_PHASE, |v| {
            rows.get(v.index()).filter(|_| v.index() != 2)
        });
        assert_eq!(missing, malformed, "a dropped row");
        let short = BitString::from_words(rows[2].words(), 2);
        let cut = gather_rows(&g, GATHER_PHASE, |v| {
            if v.index() == 2 {
                Some(&short)
            } else {
                rows.get(v.index())
            }
        });
        assert_eq!(cut, malformed, "a row one bit short");
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
