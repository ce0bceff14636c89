//! Subgraph detection in `CLIQUE-BCAST` with a known Turán bound
//! (Section 3.1, Theorem 7) and the underlying distributed reconstruction
//! protocol of Becker et al. \[2\].
//!
//! The protocol `A(G, k)` ([`SketchReconstruction`]): every node broadcasts
//! an `O(k log n)`-bit sketch of its neighbourhood (degree plus `k` power
//! sums over a prime field). If the degeneracy of `G` is at most `k`, all
//! nodes can reconstruct `G` entirely from the blackboard; otherwise they
//! detect the failure. With `k = 4·ex(n, H)/n` (Claim 6) this yields
//! Theorem 7 ([`TuranSketchDetection`]): `H`-subgraph detection in
//! `O(ex(n, H)·log n/(n·b))` rounds — and a failed reconstruction already
//! certifies that `G` is not `H`-free.

use clique_graphs::iso::find_subgraph;
use clique_graphs::{Graph, Pattern};
use clique_sim::prelude::*;
use clique_sketch::reconstruct::{decode_graph, encode_graph, DecodeError};
use clique_sketch::PowerSumSketch;

use crate::outcome::{Detection, DetectionOutcome};

/// The output of the reconstruction protocol `A(G, k)`.
#[derive(Clone, Debug)]
pub struct Reconstruction {
    /// The reconstructed graph, or the failure reason (degeneracy exceeded
    /// the sketch capacity).
    pub result: Result<Graph, DecodeError>,
}

impl Reconstruction {
    /// Returns `true` if the reconstruction succeeded.
    pub fn success(&self) -> bool {
        self.result.is_ok()
    }
}

/// The result of running the reconstruction protocol `A(G, k)`.
pub(crate) type ReconstructionRun = RunOutcome<Reconstruction>;

/// The Becker et al. \[2\] reconstruction protocol `A(G, k)` as a
/// [`Protocol`]: one `O(k log n)`-bit broadcast per node, then a local
/// peel-decode of the blackboard.
#[derive(Clone, Debug)]
pub struct SketchReconstruction<'a> {
    graph: &'a Graph,
    capacity: usize,
}

impl<'a> SketchReconstruction<'a> {
    /// Prepares the protocol with sketch capacity `capacity`.
    pub fn new(graph: &'a Graph, capacity: usize) -> Self {
        Self { graph, capacity }
    }
}

impl Protocol for SketchReconstruction<'_> {
    type Output = Reconstruction;

    fn run(&mut self, session: &mut Session) -> Result<Reconstruction, SimError> {
        let n = self.graph.vertex_count();
        session.require_clique_of(n);
        assert!(self.capacity > 0, "sketch capacity must be positive");

        // Each node publishes its sketch.
        let sketches = encode_graph(self.graph, self.capacity);
        let messages: Vec<BitString> = sketches.iter().map(PowerSumSketch::write).collect();
        let inboxes = session.broadcast_all(SKETCH_PHASE, &messages)?;

        // Node 0 (like every node) decodes the blackboard. It combines the
        // received sketches, read in its own sketch's field, with its own.
        let own = &sketches[0];
        let received: Vec<PowerSumSketch> = (0..n)
            .map(|v| match v {
                0 => Ok(own.clone()),
                _ => read_sketch(&inboxes[0], v, own),
            })
            .collect::<Result<_, _>>()?;
        Ok(Reconstruction {
            result: decode_graph(&received),
        })
    }
}

/// Runs the `⌈O(k log n)/b⌉`-round reconstruction protocol `A(G, k)` in
/// `CLIQUE-BCAST(n, b)` and decodes the result.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics if the graph is empty or `capacity == 0`.
pub fn run_reconstruction_protocol(
    graph: &Graph,
    capacity: usize,
    bandwidth: usize,
) -> Result<ReconstructionRun, SimError> {
    let n = graph.vertex_count();
    assert!(n > 0, "the input graph must have at least one node");
    Runner::new(CliqueConfig::broadcast(n, bandwidth))
        .execute(&mut SketchReconstruction::new(graph, capacity))
}

/// The phase label of the sketch broadcast.
const SKETCH_PHASE: &str = "broadcast neighbourhood sketches";

/// Reads the sketch `sender` broadcast, of the same universe, capacity and
/// field as the reader's own `shape` ([`PowerSumSketch::read_like`]).
///
/// # Errors
///
/// [`SimError::MalformedPayload`] if `sender` published nothing or its
/// broadcast is truncated.
fn read_sketch(
    inbox: &PhaseInbox,
    sender: usize,
    shape: &PowerSumSketch,
) -> Result<PowerSumSketch, SimError> {
    let sender = NodeId::new(sender);
    inbox
        .broadcast_from(sender)
        .and_then(|bits| PowerSumSketch::read_like(&mut bits.reader(), shape))
        .ok_or_else(|| SimError::MalformedPayload {
            sender,
            phase: SKETCH_PHASE.to_owned(),
        })
}

/// Theorem 7 as a [`Protocol`]: `H`-subgraph detection with the
/// Turán-number-derived sketch capacity `k = ⌈4·ex(n, H)/n⌉`.
///
/// If the reconstruction succeeds the answer is exact (a witness is
/// returned when a copy exists); if it fails, Claim 6 already implies that
/// `G` is not `H`-free, so the protocol answers "contains" without a
/// witness.
#[derive(Clone, Debug)]
pub struct TuranSketchDetection<'a> {
    graph: &'a Graph,
    pattern: &'a Pattern,
}

impl<'a> TuranSketchDetection<'a> {
    /// Prepares the protocol for the given input graph and pattern.
    pub fn new(graph: &'a Graph, pattern: &'a Pattern) -> Self {
        Self { graph, pattern }
    }
}

impl Protocol for TuranSketchDetection<'_> {
    type Output = Detection;

    fn run(&mut self, session: &mut Session) -> Result<Detection, SimError> {
        let n = self.graph.vertex_count();
        let capacity = self
            .pattern
            .degeneracy_threshold(n)
            .min(n.saturating_sub(1))
            .max(1);
        // The reconstruction is the only communication; run it on this
        // session's ledger.
        let run = session.run_protocol(&mut SketchReconstruction::new(self.graph, capacity))?;
        let (contains, witness) = match &run.result {
            Ok(reconstructed) => {
                let witness = find_subgraph(reconstructed, &self.pattern.graph());
                (witness.is_some(), witness)
            }
            Err(_) => (true, None),
        };
        Ok(Detection { contains, witness })
    }
}

/// Runs [`TuranSketchDetection`] in `CLIQUE-BCAST(n, b)`.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics if the graph is empty.
pub fn detect_subgraph_turan(
    graph: &Graph,
    pattern: &Pattern,
    bandwidth: usize,
) -> Result<DetectionOutcome, SimError> {
    let n = graph.vertex_count();
    assert!(n > 0, "the input graph must have at least one node");
    Runner::new(CliqueConfig::broadcast(n, bandwidth))
        .execute(&mut TuranSketchDetection::new(graph, pattern))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_graphs::degeneracy::degeneracy;
    use clique_graphs::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn reconstruction_protocol_round_trip() {
        let g = generators::cycle(40);
        let run = run_reconstruction_protocol(&g, 2, 4).unwrap();
        assert!(run.success());
        // Message size is O(k log n) bits, so rounds = ceil(that / b).
        assert!(
            run.rounds() >= 3 && run.rounds() <= 8,
            "rounds = {}",
            run.rounds()
        );
        assert_eq!(run.into_output().result.unwrap(), g);
    }

    #[test]
    fn reconstruction_protocol_detects_high_degeneracy() {
        let g = generators::complete(12);
        let run = run_reconstruction_protocol(&g, 3, 8).unwrap();
        assert!(!run.success());
        assert!(matches!(
            run.result,
            Err(DecodeError::DegeneracyExceeded { capacity: 3 })
        ));
    }

    #[test]
    fn turan_detection_on_c4() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xAB);
        // A C4-free graph: the polarity graph.
        let c4_free = clique_graphs::extremal::dense_c4_free(31);
        let no = detect_subgraph_turan(&c4_free, &Pattern::Cycle(4), 8).unwrap();
        assert!(!no.contains);

        // Plant a C4 into a sparse host.
        let host = generators::erdos_renyi(31, 0.02, &mut rng);
        let (with_c4, _) = generators::plant_copy(&host, &generators::cycle(4), &mut rng);
        let yes = detect_subgraph_turan(&with_c4, &Pattern::Cycle(4), 8).unwrap();
        assert!(yes.contains);
    }

    #[test]
    fn turan_detection_on_trees_is_cheap() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xAC);
        let g = generators::random_tree(64, &mut rng);
        let pattern = Pattern::Path(4);
        let outcome = detect_subgraph_turan(&g, &pattern, 4).unwrap();
        assert!(outcome.contains);
        // Tree patterns have ex(n, H) = O(n), so the sketch capacity is O(1)
        // and the protocol runs in O(log n / b) rounds — far less than the
        // trivial n/b = 16.
        assert!(outcome.rounds() <= 12, "rounds = {}", outcome.rounds());
    }

    #[test]
    fn turan_detection_answers_contains_when_reconstruction_fails() {
        // A dense graph with many K4s: degeneracy far above the threshold,
        // so reconstruction fails, and the answer "contains" is correct.
        let g = generators::complete(24);
        let outcome = detect_subgraph_turan(&g, &Pattern::Cycle(4), 8).unwrap();
        assert!(outcome.contains);
        assert!(outcome.witness.is_none());
    }

    #[test]
    fn turan_detection_agrees_with_ground_truth_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xAD);
        for _ in 0..6 {
            let g = generators::erdos_renyi(26, 0.12, &mut rng);
            for pattern in [Pattern::Cycle(4), Pattern::Clique(3), Pattern::Star(3)] {
                let expected = clique_graphs::iso::contains_subgraph(&g, &pattern.graph());
                let outcome = detect_subgraph_turan(&g, &pattern, 6).unwrap();
                assert_eq!(
                    outcome.contains,
                    expected,
                    "pattern {pattern} on graph with {} edges (degeneracy {})",
                    g.edge_count(),
                    degeneracy(&g)
                );
            }
        }
    }

    /// Broadcasts `messages` on the sketch phase of a fresh `n`-player
    /// session and returns node 0's inbox.
    fn blackboard(messages: &[BitString]) -> PhaseInbox {
        let n = messages.len();
        Session::new(CliqueConfig::broadcast(n, 8))
            .broadcast_all(SKETCH_PHASE, messages)
            .unwrap()
            .swap_remove(0)
    }

    #[test]
    fn truncated_or_missing_sketches_are_typed_errors() {
        let (n, capacity) = (3, 2);
        let shape = &PowerSumSketch::new(n as u64, capacity);
        let sketch = encode_graph(&generators::path(n), capacity).swap_remove(1);
        let payload = sketch.write();
        let short = BitString::from_words(payload.words(), payload.len() - 1);
        let malformed = |sender| {
            Err(SimError::MalformedPayload {
                sender: NodeId::new(sender),
                phase: SKETCH_PHASE.into(),
            })
        };
        // Node 2 publishes nothing (an empty message is never broadcast).
        let inbox = blackboard(&[BitString::new(), payload, BitString::new()]);
        assert_eq!(read_sketch(&inbox, 1, shape), Ok(sketch));
        assert_eq!(read_sketch(&inbox, 2, shape), malformed(2));
        let inbox = blackboard(&[BitString::new(), short, BitString::new()]);
        assert_eq!(read_sketch(&inbox, 1, shape), malformed(1));
    }
}
