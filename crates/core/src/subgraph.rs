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
use clique_sim::bits::bits_for_universe;
use clique_sim::prelude::*;
use clique_sketch::reconstruct::{decode_graph, encode_graph, DecodeError, NodeSketch};
use clique_sketch::PowerSumSketch;

use crate::outcome::{Detection, DetectionOutcome};

/// The output of the reconstruction protocol `A(G, k)`.
#[derive(Clone, Debug)]
pub struct Reconstruction {
    /// The reconstructed graph, or the failure reason (degeneracy exceeded
    /// the sketch capacity).
    pub result: Result<Graph, DecodeError>,
    /// The sketch capacity `k` used.
    pub capacity: usize,
}

impl Reconstruction {
    /// Returns `true` if the reconstruction succeeded.
    pub fn success(&self) -> bool {
        self.result.is_ok()
    }
}

/// The result of running the reconstruction protocol `A(G, k)`.
pub type ReconstructionRun = RunOutcome<Reconstruction>;

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
        let messages: Vec<BitString> = sketches.iter().map(|s| encode_sketch(s, n)).collect();
        let inboxes = session.broadcast_all(SKETCH_PHASE, &messages)?;

        // Node 0 (like every node) decodes the blackboard. It combines the
        // received sketches with its own.
        let mut received: Vec<NodeSketch> = Vec::with_capacity(n);
        received.push(sketches[0].clone());
        for v in 1..n {
            received.push(read_sketch(&inboxes[0], v, n, self.capacity)?);
        }
        Ok(Reconstruction {
            result: decode_graph(&received),
            capacity: self.capacity,
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

/// Serialises a [`NodeSketch`] for the blackboard: the degree followed by
/// the `k` power sums.
fn encode_sketch(sketch: &NodeSketch, n: usize) -> BitString {
    let mut bits = BitString::new();
    bits.push_bits(sketch.degree as u64, bits_for_universe(n as u64).max(1));
    let element_bits = sketch.sketch.field().element_bits();
    for &sum in sketch.sketch.power_sums() {
        bits.push_bits(sum, element_bits);
    }
    bits
}

/// The phase label of the sketch broadcast.
const SKETCH_PHASE: &str = "broadcast neighbourhood sketches";

/// Parses the sketch `sender` broadcast. A missing or truncated sketch is
/// [`SimError::MalformedPayload`]; the power sums need no range check,
/// because [`PowerSumSketch::from_parts`] reduces them mod p.
fn read_sketch(
    inbox: &PhaseInbox,
    sender: usize,
    n: usize,
    capacity: usize,
) -> Result<NodeSketch, SimError> {
    let malformed = || SimError::MalformedPayload {
        sender: NodeId::new(sender),
        phase: SKETCH_PHASE.to_owned(),
    };
    let mut reader = inbox
        .broadcast_from(NodeId::new(sender))
        .ok_or_else(malformed)?
        .reader();
    let degree = reader
        .read_bits(bits_for_universe(n as u64).max(1))
        .ok_or_else(malformed)? as usize;
    let element_bits = PowerSumSketch::new(n as u64, capacity)
        .field()
        .element_bits();
    let sums = (0..capacity)
        .map(|_| reader.read_bits(element_bits).ok_or_else(malformed))
        .collect::<Result<_, _>>()?;
    Ok(NodeSketch {
        degree,
        sketch: PowerSumSketch::from_parts(n as u64, capacity, degree as i64, sums),
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
    fn sketch_serialisation_round_trips() {
        let g = generators::turan_graph(20, 4);
        let sketches = encode_graph(&g, 6);
        let messages: Vec<BitString> = sketches.iter().map(|s| encode_sketch(s, 20)).collect();
        let inbox = blackboard(&messages);
        for (v, s) in sketches.iter().enumerate().skip(1) {
            assert_eq!(&read_sketch(&inbox, v, 20, 6).unwrap(), s);
        }
    }

    #[test]
    fn truncated_or_missing_sketches_are_typed_errors() {
        let (n, capacity) = (3, 2);
        let sketch = &encode_graph(&generators::path(n), capacity)[1];
        let payload = encode_sketch(sketch, n);
        let malformed = |sender| SimError::MalformedPayload {
            sender: NodeId::new(sender),
            phase: SKETCH_PHASE.into(),
        };
        // Node 1 publishes every prefix of its payload; node 2 publishes
        // nothing (an empty message is never broadcast).
        for cut in 0..=payload.len() {
            let prefix = BitString::from_words(payload.words(), cut);
            let inbox = blackboard(&[BitString::new(), prefix, BitString::new()]);
            let read = read_sketch(&inbox, 1, n, capacity);
            if cut == payload.len() {
                assert_eq!(&read.unwrap(), sketch);
            } else {
                assert_eq!(read.unwrap_err(), malformed(1), "prefix of {cut} bits");
            }
            assert_eq!(
                read_sketch(&inbox, 2, n, capacity).unwrap_err(),
                malformed(2)
            );
        }
    }
}
