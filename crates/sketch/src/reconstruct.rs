//! One-round graph reconstruction from bounded-degeneracy sketches.
//!
//! This module implements the protocol of Becker, Matamala, Nisse, Rapaport,
//! Suchan and Todinca ("Adding a referee to an interconnection network",
//! IPDPS 2011) that the paper uses as algorithm `A(G, k)` in Section 3.1:
//! every node simultaneously publishes an `O(k log n)`-bit sketch of its
//! neighbourhood, and from the `n` sketches alone any referee can reconstruct
//! the entire graph *provided its degeneracy is at most `k`* — and detect
//! that the degeneracy exceeds `k` otherwise.
//!
//! Encoding: node `v` publishes the [`PowerSumSketch`] of `N(v)` with
//! capacity `k` ([`encode_graph`]); the sketch's count is `deg(v)`, so the
//! message is the degree plus `k` power sums. Decoding ([`decode_graph`])
//! peels the graph: while some vertex has at most `k` unrecovered incident
//! edges, its residual sketch is decoded exactly, the recovered edges are
//! added to the output and removed from the other endpoint's sketch.
//! Because every subgraph of a degeneracy-`k` graph has a vertex of degree
//! at most `k`, peeling never gets stuck when the degeneracy bound holds;
//! when it does get stuck (or any decoded data is inconsistent) the decoder
//! reports failure, which the detection algorithms of Theorems 7 and 9
//! interpret as "degeneracy larger than `k`".

use clique_graphs::Graph;

use crate::sketch::PowerSumSketch;

/// Why decoding failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Peeling got stuck: every unfinished vertex has more than `k`
    /// unrecovered incident edges, so the degeneracy of the input graph
    /// exceeds the sketch capacity.
    DegeneracyExceeded {
        /// The sketch capacity that proved insufficient.
        capacity: usize,
    },
    /// A residual sketch failed to decode or decoded to inconsistent data;
    /// with honestly-encoded inputs this also indicates that the degeneracy
    /// bound was violated.
    Inconsistent,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::DegeneracyExceeded { capacity } => {
                write!(f, "graph degeneracy exceeds sketch capacity {capacity}")
            }
            DecodeError::Inconsistent => write!(f, "sketches are mutually inconsistent"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes the neighbourhood sketches of every node of `graph` with capacity
/// `k` (the messages of algorithm `A(G, k)`): node `v`'s sketch has
/// universe `n` and count `deg(v)`. All share one field, found once.
///
/// # Panics
///
/// Panics if `k == 0` or the graph has no vertices.
pub fn encode_graph(graph: &Graph, k: usize) -> Vec<PowerSumSketch> {
    let n = graph.vertex_count();
    assert!(n > 0, "cannot sketch the empty graph");
    assert!(k > 0, "sketch capacity must be positive");
    let empty = PowerSumSketch::new(n as u64, k);
    (0..n)
        .map(|v| {
            let mut sketch = empty.clone();
            sketch.add_all(graph.neighbors(v).iter().map(|&u| u as u64));
            sketch
        })
        .collect()
}

/// Reconstructs the graph from the published sketches, one per node, all
/// over the universe `{0, …, n-1}` with one capacity.
///
/// # Errors
///
/// Returns [`DecodeError::DegeneracyExceeded`] when the peeling process gets
/// stuck (the input graph has degeneracy larger than the sketch capacity) and
/// [`DecodeError::Inconsistent`] when a residual sketch cannot be decoded or
/// decodes to data inconsistent with the other sketches.
pub fn decode_graph(sketches: &[PowerSumSketch]) -> Result<Graph, DecodeError> {
    let n = sketches.len();
    let capacity = sketches.first().map_or(0, PowerSumSketch::capacity);
    let mut graph = Graph::empty(n);

    // Residual state: sketches minus recovered edges. A residual sketch's
    // count is its vertex's residual degree.
    let mut residual = sketches.to_vec();
    let mut finished = vec![false; n];

    loop {
        // Anything with residual degree 0 is finished (its sketch must be
        // zero; otherwise the input is inconsistent).
        for v in 0..n {
            if !finished[v] && residual[v].count() == 0 {
                if !residual[v].is_zero() {
                    return Err(DecodeError::Inconsistent);
                }
                finished[v] = true;
            }
        }
        // Pick an unfinished vertex with residual degree at most k.
        let candidate = (0..n).find(|&v| {
            let degree = residual[v].count();
            !finished[v] && degree > 0 && degree <= capacity as i64
        });
        let Some(v) = candidate else {
            return if finished.iter().all(|&f| f) {
                Ok(graph)
            } else {
                Err(DecodeError::DegeneracyExceeded { capacity })
            };
        };

        // `decode` returns exactly `count` neighbours that re-sketch to the
        // residual, so recovering them consumes `v`'s sketch entirely.
        let neighbors = residual[v].decode().ok_or(DecodeError::Inconsistent)?;
        for &u64_u in &neighbors {
            let u = u64_u as usize;
            if u >= n || u == v || finished[u] || residual[u].count() <= 0 || graph.has_edge(u, v) {
                return Err(DecodeError::Inconsistent);
            }
            graph.add_edge(u, v);
            // Peel the edge out of u's residual sketch.
            residual[u].remove(v as u64);
        }
        finished[v] = true;
    }
}

/// Runs encode + decode in one call: the "omniscient referee" version used in
/// tests and by the detection algorithms after the broadcast phase.
///
/// # Errors
///
/// See [`decode_graph`].
pub fn reconstruct(graph: &Graph, k: usize) -> Result<Graph, DecodeError> {
    decode_graph(&encode_graph(graph, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_graphs::{degeneracy::degeneracy, generators};
    use clique_sim::bits::BitString;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn reconstruct_simple_families() {
        for (graph, k) in [
            (generators::path(20), 1),
            (generators::cycle(15), 2),
            (generators::star(12), 1),
            (generators::complete(6), 5),
            (generators::complete_bipartite(3, 9), 3),
            (generators::turan_graph(12, 3), 8),
        ] {
            let decoded = reconstruct(&graph, k).unwrap_or_else(|e| {
                panic!("reconstruction failed for k={k}: {e}");
            });
            assert_eq!(decoded, graph);
        }
    }

    #[test]
    fn reconstruct_with_exact_degeneracy_capacity() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for _ in 0..10 {
            let graph = generators::random_bounded_degeneracy(40, 4, &mut rng);
            let d = degeneracy(&graph);
            let decoded = reconstruct(&graph, d.max(1)).expect("capacity = degeneracy suffices");
            assert_eq!(decoded, graph);
        }
    }

    #[test]
    fn capacity_below_degeneracy_is_detected() {
        let graph = generators::complete(8); // degeneracy 7
        match reconstruct(&graph, 3) {
            Err(DecodeError::DegeneracyExceeded { capacity }) => assert_eq!(capacity, 3),
            other => panic!("expected DegeneracyExceeded, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let graph = Graph::empty(9);
        assert_eq!(reconstruct(&graph, 1).unwrap(), graph);
        assert_eq!(decode_graph(&[]).unwrap(), Graph::empty(0));
    }

    #[test]
    fn random_graphs_round_trip_when_capacity_sufficient() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        for _ in 0..8 {
            let graph = generators::erdos_renyi(30, 0.15, &mut rng);
            let d = degeneracy(&graph).max(1);
            assert_eq!(reconstruct(&graph, d).unwrap(), graph);
            assert_eq!(reconstruct(&graph, d + 3).unwrap(), graph);
        }
    }

    #[test]
    fn encoding_equals_adding_one_neighbour_at_a_time() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for _ in 0..6 {
            let graph = generators::erdos_renyi(30, 0.3, &mut rng);
            for k in [1, 5, 12] {
                let reference: Vec<PowerSumSketch> = (0..30)
                    .map(|v| {
                        let mut sketch = PowerSumSketch::new(30, k);
                        graph
                            .neighbors(v)
                            .iter()
                            .for_each(|&u| sketch.add(u as u64));
                        sketch
                    })
                    .collect();
                assert_eq!(encode_graph(&graph, k), reference);
            }
        }
    }

    #[test]
    fn a_tampered_degree_is_rejected_not_misdecoded() {
        let graph = generators::cycle(10);
        let mut sketches = encode_graph(&graph, 2);
        // Flip the low bit of node 3's count on the wire: degree 2 reads 3.
        let mut payload = sketches[3].write();
        payload.toggle_bit(0);
        sketches[3] = PowerSumSketch::read(&mut payload.reader(), 10, 2).unwrap();
        assert_eq!(sketches[3].count(), 3);
        let result = decode_graph(&sketches);
        assert!(result.is_err(), "tampered input must not decode silently");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Payloads off the wire: the shaped read equals the plain one,
        /// intact payloads read back exactly and reconstruct the graph
        /// when `k` reaches its degeneracy, and every proper prefix reads
        /// as `None`. With 1–3 bits flipped in up to three payloads,
        /// nothing panics and whatever decodes is sound: a decoded set
        /// re-sketches to its sketch, and a reconstructed graph to all of
        /// them.
        #[test]
        fn tampered_payloads_never_panic_or_misdecode(
            n in 2usize..40,
            density in 1usize..6,
            seed in any::<u64>(),
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let graph = generators::random_bounded_degeneracy(n, density, &mut rng);
            // Capacities on both sides of the degeneracy.
            let d = degeneracy(&graph);
            let k = rng.gen_range(1..d + 3);
            let shape = PowerSumSketch::new(n as u64, k);
            let read = |payload: &BitString| {
                let read = PowerSumSketch::read(&mut payload.reader(), n as u64, k);
                let like = PowerSumSketch::read_like(&mut payload.reader(), &shape);
                assert_eq!(like, read, "the shaped read differs");
                read
            };
            let encoded = encode_graph(&graph, k);
            let mut payloads: Vec<BitString> = encoded.iter().map(PowerSumSketch::write).collect();
            let read_all = |payloads: &[BitString]| -> Vec<PowerSumSketch> {
                payloads.iter().map(|payload| read(payload).unwrap()).collect()
            };
            let intact = read_all(&payloads);
            prop_assert_eq!(&intact, &encoded);
            let expected = if k >= d { Ok(&graph) } else { Err(()) };
            prop_assert_eq!(decode_graph(&intact).as_ref().map_err(|_| ()), expected);

            let victim = &payloads[rng.gen_range(0..n)];
            for cut in 0..victim.len() {
                prop_assert_eq!(read(&BitString::from_words(victim.words(), cut)), None);
            }

            for _ in 0..rng.gen_range(1..4) {
                let payload = &mut payloads[rng.gen_range(0..n)];
                for _ in 0..rng.gen_range(1..4) {
                    payload.toggle_bit(rng.gen_range(0..payload.len()));
                }
            }
            let sketches = read_all(&payloads);
            for sketch in &sketches {
                if let Some(set) = sketch.decode() {
                    let mut check = PowerSumSketch::new(n as u64, k);
                    set.iter().for_each(|&x| check.add(x));
                    prop_assert_eq!(&check, sketch);
                }
            }
            if let Ok(decoded) = decode_graph(&sketches) {
                prop_assert_eq!(encode_graph(&decoded, k), sketches);
            }
        }
    }
}
