//! Deterministic minimum-spanning-forest protocol on graph sketches.
//!
//! The flagship workload the paper's broadcast model is known to support in
//! constant rounds: Nowicki, *A Deterministic Algorithm for the MST Problem
//! in Constant Rounds of Congested Clique* (STOC 2021), building on the
//! sketch-based Borůvka line of Hegeman et al. and Ghaffari–Parter. This
//! module implements the core of that machinery — deterministic
//! edge-incidence sketching plus Borůvka contraction — as one more
//! [`Protocol`] over the blackboard model:
//!
//! 1. **Unique weights.** Edges are ordered by the `(w, u, v)` key of
//!    [`WeightedGraph::edge_order_key`], so the minimum spanning forest is
//!    unique and the cut property picks one safe edge per component. The
//!    whole triple is packed into a single integer `w·n² + u·n + v`, which
//!    makes "lightest cut edge" and "smallest decoded sketch element" the
//!    same thing — the decoder needs no access to the weights.
//! 2. **Incidence sketches.** Node `v` publishes the
//!    [`SignedPowerSumSketch`] of its incident edge keys, signed `+1`
//!    towards higher-numbered neighbours and `−1` towards lower-numbered
//!    ones. By linearity, summing the published sketches of any vertex set
//!    `S` cancels the edges inside `S` and leaves exactly the cut
//!    `E(S, V∖S)`, each edge with multiplicity `±1`.
//! 3. **Local Borůvka to exhaustion.** After one broadcast every node holds
//!    the same blackboard, so every node runs the same contraction: sum the
//!    member sketches of each component, decode the cut, pick the minimum
//!    key (the tie-broken lightest outgoing edge — safe by the cut
//!    property), merge, and repeat until no component's cut decodes any
//!    more. The vertex sketches are *static* under contraction — merging
//!    only changes which of them are summed — so one broadcast per
//!    capacity level supports arbitrarily many Borůvka merges.
//! 4. **Capacity escalation.** A phase ends with a one-bit all-done vote
//!    (the [`ApspProtocol`](crate::algebraic::ApspProtocol) early-exit
//!    pattern). If unfinished components remain, every one of them has a
//!    cut larger than the current capacity `k`; the capacity doubles and
//!    one more sketch broadcast follows. Families whose contractions keep
//!    a low-cut component available — paths, cycles, trees, stars, sparse
//!    random graphs — finish in a *single* phase at any size, which is the
//!    constant-round plateau experiment E15 measures; a clique forces
//!    `Θ(log(n/k))` escalations and serves as the contrast row. Every
//!    capacity is at most the edge count, which is below `n²` and so below
//!    the key universe and the field's modulus: the field is the same at
//!    every level, and a capacity-`k` sketch's `2k` sums are the first of
//!    its `4k` at the next. Each node lists its signed incident keys once
//!    per run and *grows* its sketch ([`SignedPowerSumSketch::grow`]),
//!    computing only the new sums. The wire is unchanged: every level
//!    still broadcasts all of its sums.
//!
//! Determinism note: the protocol is deterministic end to end — ties are
//! impossible under the `(w, u, v)` order, the contraction loop visits
//! components in ascending representative order, and a protocol run is
//! serial (DESIGN.md, Concurrency).
//!
//! Decoding guarantees: a component cut of at most `k` edges decodes
//! exactly. Every capacity is below the key universe, so the field's
//! modulus exceeds `2k`, and a cut with at most `k` edges of each sign
//! decodes exactly or is detected as over-capacity: by Newton's identities
//! no other signed set of at most `k` keys shares its `2k` power sums. A
//! cut with more than `k` edges of one sign can share its sums with a
//! signed set of at most `k` keys and decode to it
//! ([`SignedPowerSumSketch`]'s docs give three keys that do at capacity
//! 2). Such a false decode stalls the component when its minimum key does
//! not cross the cut (the crossing-edge check below); when it does cross,
//! the contraction would merge along it. Only the differential oracle
//! grids show that this does not happen on the tested families.

use clique_graphs::iso::SpanningForest;
use clique_graphs::weighted::UnionFind;
use clique_graphs::WeightedGraph;
use clique_sim::prelude::*;
use clique_sketch::field::PrimeField;
use clique_sketch::signed::CandidateTable;
use clique_sketch::SignedPowerSumSketch;

/// The output of [`MstProtocol`]: the minimum spanning forest plus the
/// sketch-protocol diagnostics (phase count and final capacity).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MsfOutput {
    /// The forest edges as `(u, v, w)` with `u < v`, ascending by `(u, v)`.
    pub(crate) edges: Vec<(usize, usize, u64)>,
    /// Sum of the raw weights of the forest edges.
    pub total_weight: u64,
    /// Number of connected components of the input graph.
    pub(crate) components: usize,
    /// Number of sketch-broadcast phases (capacity levels) used.
    pub phases: usize,
    /// The sketch capacity of the last phase.
    pub final_capacity: usize,
}

impl MsfOutput {
    /// The forest in the oracle's format, for direct comparison with
    /// [`minimum_spanning_forest`](clique_graphs::iso::minimum_spanning_forest).
    pub fn forest(&self) -> SpanningForest {
        SpanningForest {
            edges: self.edges.clone(),
            total_weight: self.total_weight,
            components: self.components,
        }
    }
}

/// Deterministic sketch-based Borůvka MST as a [`Protocol`] over
/// `CLIQUE-BCAST`: per capacity level, one `O(k log n)`-bit incidence-sketch
/// broadcast per node, a local contraction to exhaustion, and a one-bit
/// done vote.
///
/// # Examples
///
/// ```
/// use clique_core::mst::compute_msf;
/// use clique_core::graphs::weighted;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let g = weighted::weighted_cycle(32, 100, &mut rng);
/// let run = compute_msf(&g, 4, 5).unwrap();
/// assert_eq!(run.forest().edges.len(), 31);
/// assert_eq!(run.phases, 1); // cycle cuts never exceed 2
/// ```
#[derive(Clone, Debug)]
pub struct MstProtocol<'a> {
    graph: &'a WeightedGraph,
    base_capacity: usize,
    /// The packed edge-key universe (see [`edge_key_universe`]).
    universe: u64,
}

impl<'a> MstProtocol<'a> {
    /// Prepares the protocol with the given starting sketch capacity
    /// (doubled on every escalation).
    ///
    /// # Panics
    ///
    /// Panics if `base_capacity == 0`, or if the packed edge keys would
    /// overflow the sketch field ([`edge_key_universe`] is `None`).
    pub fn new(graph: &'a WeightedGraph, base_capacity: usize) -> Self {
        assert!(base_capacity > 0, "sketch capacity must be positive");
        let universe = edge_key_universe(graph.vertex_count(), graph.max_weight())
            .expect("edge-key universe (max_weight + 1)·n² must stay below 2^30");
        Self {
            graph,
            base_capacity,
            universe,
        }
    }

    /// The packed edge key `w·n² + u·n + v` (`u < v`) whose integer order
    /// is the `(w, u, v)` unique-weight order.
    fn edge_key(&self, u: usize, v: usize) -> u64 {
        let n = self.graph.vertex_count() as u64;
        let (w, a, b) = self.graph.edge_order_key(u, v);
        w * n * n + (a as u64) * n + b as u64
    }

    /// Node `v`'s signed incident keys, the set its sketch holds: every
    /// incident edge key, signed `+1` when `v` is the smaller endpoint and
    /// `−1` when it is the larger — local knowledge only.
    fn incident_keys(&self, v: usize) -> Vec<(u64, i8)> {
        self.graph
            .weighted_neighbors(v)
            .map(|(u, _)| (self.edge_key(v, u), if v < u { 1 } else { -1 }))
            .collect()
    }

    /// Node `v`'s incidence sketch at `capacity`, built from scratch one
    /// key at a time: the reference for the sketches the phase loop grows.
    #[cfg(test)]
    fn incidence_sketch(&self, v: usize, capacity: usize) -> SignedPowerSumSketch {
        let mut sketch = SignedPowerSumSketch::new(self.universe, capacity);
        for (key, sign) in self.incident_keys(v) {
            if sign > 0 {
                sketch.add(key);
            } else {
                sketch.remove(key);
            }
        }
        sketch
    }
}

/// Unpacks `w·n² + u·n + v` back into `(u, v, w)`.
fn unpack_key(key: u64, n: u64) -> (usize, usize, u64) {
    let w = key / (n * n);
    let rest = key % (n * n);
    ((rest / n) as usize, (rest % n) as usize, w)
}

/// Sums the published vertex sketches, taken one at a time in vertex
/// order, into one sketch per current component (linearity: each sum
/// sketches exactly its component's cut). Entry `r` holds the sum of the
/// component rooted at `r`, so no second copy of the blackboard is made.
///
/// # Errors
///
/// The first error among `sketches`.
fn component_sums(
    sketches: impl Iterator<Item = Result<SignedPowerSumSketch, SimError>>,
    n: usize,
    dsu: &mut UnionFind,
) -> Result<Vec<Option<SignedPowerSumSketch>>, SimError> {
    let mut component: Vec<Option<SignedPowerSumSketch>> = vec![None; n];
    for (v, incidence) in sketches.enumerate() {
        let incidence = incidence?;
        match &mut component[dsu.find(v)] {
            Some(sum) => sum.merge(&incidence),
            empty => *empty = Some(incidence),
        }
    }
    Ok(component)
}

/// One full Borůvka contraction from the component sums of the published
/// vertex sketches ([`component_sums`]) — the computation every node
/// performs identically. Components are decoded against the
/// (public-order) candidate table and merged on their minimum cut key
/// until no component makes progress. Returns `true` when every component
/// decoded an empty cut (forest done).
///
/// A component whose decode fails, or yields an edge that does not cross
/// its cut, is *stalled*: its sketch and its membership change only when
/// it merges, and decoding is a pure function of both, so it is skipped
/// until a merge absorbs it (the merged root starts unstalled). The
/// merges, their order and the forest are those of re-decoding every
/// component on every pass.
fn contract_to_exhaustion(
    mut component: Vec<Option<SignedPowerSumSketch>>,
    candidates: &CandidateTable,
    dsu: &mut UnionFind,
    forest: &mut Vec<(usize, usize, u64)>,
) -> bool {
    let n = component.len();
    let mut finished = vec![false; n];
    let mut stalled = vec![false; n];
    loop {
        let mut progress = false;
        for r in 0..n {
            if dsu.find(r) != r || finished[r] || stalled[r] {
                continue;
            }
            let sketch = component[r].as_ref().expect("every root has a sketch");
            let Some(cut) = sketch.decode_in(candidates) else {
                stalled[r] = true; // cut larger than capacity: wait for a merge or escalation
                continue;
            };
            if cut.is_empty() {
                finished[r] = true;
                continue;
            }
            // Minimum key = tie-broken lightest outgoing edge, safe by the
            // cut property (decode_in returns keys ascending).
            let (u, v, w) = unpack_key(cut[0].0, n as u64);
            let (ru, rv) = (dsu.find(u), dsu.find(v));
            if (ru == r) == (rv == r) {
                stalled[r] = true; // not a crossing edge: spurious decode, treat as over-capacity
                continue;
            }
            let other = if ru == r { rv } else { ru };
            let merged = {
                let mut sketch = component[r].take().expect("root sketch present");
                sketch.merge(
                    component[other]
                        .take()
                        .as_ref()
                        .expect("root sketch present"),
                );
                sketch
            };
            dsu.union(u, v);
            forest.push((u, v, w));
            let root = dsu.find(r);
            component[root] = Some(merged);
            stalled[root] = false;
            progress = true;
        }
        if !progress {
            break;
        }
    }
    (0..n).all(|v| dsu.find(v) != v || finished[v])
}

impl Protocol for MstProtocol<'_> {
    type Output = MsfOutput;

    fn run(&mut self, session: &mut Session) -> Result<MsfOutput, SimError> {
        self.run_phases(session, &self.edge_keys())
    }
}

impl MstProtocol<'_> {
    /// The decode scan's candidate table: the graph's edge keys, ascending,
    /// each with its first four powers in the sketch field, built once per
    /// run for every decode of every level (the field is the same at every
    /// capacity).
    ///
    /// The decode scan only ever needs to test genuine edge keys: cut
    /// elements are edges, and a restricted scan returns the full scan's
    /// answer or `None` ([`SignedPowerSumSketch::decode_among`]), so
    /// restricting the (model-free) local root scan is a pure simulation
    /// speed-up. The list is ordered data every node can derive after the
    /// broadcast; candidate order never influences the transcript.
    fn edge_keys(&self) -> CandidateTable {
        let edges = self.graph.edges();
        let mut keys: Vec<u64> = edges.map(|(u, v, _)| self.edge_key(u, v)).collect();
        keys.sort_unstable();
        CandidateTable::new(self.sketch_field(), &keys)
    }

    /// The field a run sketches in, at every capacity.
    fn sketch_field(&self) -> PrimeField {
        SignedPowerSumSketch::new(self.universe, 1).field()
    }

    /// The phase loop of [`Protocol::run`], decoding against `candidates`.
    ///
    /// # Errors
    ///
    /// Propagates the session's errors and [`read_sketch`]'s, and returns
    /// [`SimError::Stalled`] if a phase at full capacity leaves the forest
    /// unfinished, which `candidates` missing a cut's key can cause.
    fn run_phases(
        &self,
        session: &mut Session,
        candidates: &CandidateTable,
    ) -> Result<MsfOutput, SimError> {
        let n = self.graph.vertex_count();
        session.require_clique_of(n);
        let mut dsu = UnionFind::new(n);
        let mut forest: Vec<(usize, usize, u64)> = Vec::new();
        let mut phases = 0usize;
        let mut capacity = 0usize;

        if n > 1 {
            let max_capacity = self.graph.edge_count().max(1);
            capacity = self.base_capacity.min(max_capacity);
            // Each node's signed incident keys and its sketch of them, kept
            // from level to level: escalation grows the sketches.
            let incidence: Vec<Vec<(u64, i8)>> = (0..n).map(|v| self.incident_keys(v)).collect();
            let empty = SignedPowerSumSketch::new(self.universe, capacity);
            let mut sketches: Vec<SignedPowerSumSketch> = incidence
                .iter()
                .map(|keys| {
                    let mut sketch = empty.clone();
                    sketch.add_all(keys);
                    sketch
                })
                .collect();

            loop {
                phases += 1;
                // One sketch broadcast per node at the current capacity.
                let messages: Vec<BitString> =
                    sketches.iter().map(SignedPowerSumSketch::write).collect();
                let inboxes = session.broadcast_all(SKETCH_PHASE, &messages)?;
                drop(messages);

                // Every node now holds the same blackboard (own sketch plus
                // the n−1 received ones) and contracts identically; the
                // simulation performs the shared computation once, from
                // node 0's inbox, reading each sketch in node 0's field
                // straight into its component's sum. The messages and the
                // inboxes go before the contraction: besides the nodes'
                // own sketches, only the component sums hold the level.
                let own = &sketches[0];
                let blackboard = (0..n).map(|v| match v {
                    0 => Ok(own.clone()),
                    _ => read_sketch(&inboxes[0], v, own),
                });
                let component = component_sums(blackboard, n, &mut dsu)?;
                drop(inboxes);
                let done = contract_to_exhaustion(component, candidates, &mut dsu, &mut forest);

                // One-bit all-done vote (identical at every node).
                let votes: Vec<BitString> = (0..n)
                    .map(|_| BitString::from_bits(u64::from(done), 1))
                    .collect();
                session.broadcast_all("announce contraction-done flags", &votes)?;
                if done {
                    break;
                }
                // A full-capacity sketch decodes every cut among the
                // graph's edge keys, so only a short list ends here.
                if capacity == max_capacity {
                    return Err(SimError::Stalled {
                        phase: format!("mst phase {phases} at capacity {capacity}"),
                    });
                }
                capacity = (capacity * 2).min(max_capacity);
                for (sketch, keys) in sketches.iter_mut().zip(&incidence) {
                    sketch.grow(capacity, keys);
                }
            }
        }

        forest.sort_unstable();
        let total_weight = forest.iter().map(|&(_, _, w)| w).sum();
        Ok(MsfOutput {
            edges: forest,
            total_weight,
            components: dsu.components(),
            phases,
            final_capacity: capacity,
        })
    }
}

/// Label of the incidence-sketch broadcast.
const SKETCH_PHASE: &str = "broadcast incidence sketches";

/// Reads the sketch `sender` published on the blackboard, of the same
/// universe, capacity and field as the reader's own `shape`
/// ([`SignedPowerSumSketch::read_like`]).
///
/// # Errors
///
/// [`SimError::MalformedPayload`] if `sender` published nothing or its
/// broadcast is truncated.
fn read_sketch(
    inbox: &PhaseInbox,
    sender: usize,
    shape: &SignedPowerSumSketch,
) -> Result<SignedPowerSumSketch, SimError> {
    let sender = NodeId::new(sender);
    inbox
        .broadcast_from(sender)
        .and_then(|bits| SignedPowerSumSketch::read_like(&mut bits.reader(), shape))
        .ok_or_else(|| SimError::MalformedPayload {
            sender,
            phase: SKETCH_PHASE.to_owned(),
        })
}

/// Runs [`MstProtocol`] on `CLIQUE-BCAST(n, b)` — the blackboard model the
/// sketch broadcasts are stated for.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics if the graph is empty or any [`MstProtocol::new`] precondition
/// fails.
pub fn compute_msf(
    graph: &WeightedGraph,
    base_capacity: usize,
    bandwidth: usize,
) -> Result<RunOutcome<MsfOutput>, SimError> {
    let n = graph.vertex_count();
    assert!(n > 0, "the input graph must have at least one node");
    Runner::new(CliqueConfig::broadcast(n, bandwidth))
        .execute(&mut MstProtocol::new(graph, base_capacity))
}

/// The packed edge-key universe `(max_weight + 1) · n²` of an `n`-vertex
/// graph with weights up to `max_weight`, or `None` unless it stays below
/// `2³⁰`, the bound the sketch field is sized for (polynomially bounded
/// weights, the standard congested-clique assumption). The arithmetic is
/// checked, so no input overflows.
pub fn edge_key_universe(n: usize, max_weight: u64) -> Option<u64> {
    let n = u64::try_from(n).ok()?;
    max_weight
        .checked_add(1)?
        .checked_mul(n.checked_mul(n)?)
        .filter(|&universe| universe < 1 << 30)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{generate_input, InputKind, JobInput, WEIGHTED_FAMILIES};
    use clique_graphs::iso::minimum_spanning_forest;
    use clique_graphs::{generators, weighted};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn assert_matches_oracle(graph: &WeightedGraph, base_capacity: usize) -> MsfOutput {
        let run = compute_msf(graph, base_capacity, 4).unwrap();
        let oracle = minimum_spanning_forest(graph);
        assert_eq!(run.forest(), oracle, "protocol vs Kruskal oracle");
        run.output
    }

    #[test]
    fn edge_key_universe_is_checked() {
        assert_eq!(edge_key_universe(4, 7), Some(128));
        assert_eq!(edge_key_universe(0, 7), Some(0));
        assert_eq!(edge_key_universe(96, 1 << 20), None);
        assert_eq!(edge_key_universe(96, u64::MAX), None);
        assert_eq!(edge_key_universe(usize::MAX, 1), None);
    }

    #[test]
    fn matches_oracle_on_small_families() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x315);
        for graph in [
            weighted::weighted_path(9, 20, &mut rng),
            weighted::weighted_cycle(12, 20, &mut rng),
            weighted::weighted_star(10, 20, &mut rng),
            weighted::weighted_complete(8, 20, &mut rng),
            weighted::weighted_random_tree(14, 20, &mut rng),
            weighted::weighted_erdos_renyi(16, 0.3, 20, &mut rng),
        ] {
            assert_matches_oracle(&graph, 4);
        }
    }

    #[test]
    fn truncated_or_missing_sketches_are_typed_errors() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EE7);
        let graph = weighted::weighted_cycle(6, 20, &mut rng);
        let protocol = MstProtocol::new(&graph, 2);
        let shape = &SignedPowerSumSketch::new(protocol.universe, 2);
        let sketch = protocol.incidence_sketch(1, 2);
        let payload = sketch.write();
        let short = BitString::from_words(payload.words(), payload.len() - 1);
        let malformed = |sender| {
            Err(SimError::MalformedPayload {
                sender: NodeId::new(sender),
                phase: SKETCH_PHASE.into(),
            })
        };
        // Node 2 publishes nothing (an empty message is never broadcast).
        let inboxes = |payload| {
            Session::new(CliqueConfig::broadcast(3, 8))
                .broadcast_all(SKETCH_PHASE, &[BitString::new(), payload, BitString::new()])
                .unwrap()
        };
        let inbox = &inboxes(payload)[0];
        assert_eq!(read_sketch(inbox, 1, shape), Ok(sketch));
        assert_eq!(read_sketch(inbox, 2, shape), malformed(2));
        let inbox = &inboxes(short)[0];
        assert_eq!(read_sketch(inbox, 1, shape), malformed(1));
    }

    #[test]
    fn single_node_needs_no_communication() {
        let run = compute_msf(&WeightedGraph::empty(1), 4, 4).unwrap();
        assert_eq!(run.rounds(), 0);
        assert_eq!(run.edges, vec![]);
        assert_eq!(run.components, 1);
        assert_eq!(run.phases, 0);
    }

    #[test]
    fn two_nodes_single_edge() {
        let graph = WeightedGraph::from_edges(2, &[(0, 1, 9)]);
        let out = assert_matches_oracle(&graph, 4);
        assert_eq!(out.edges, vec![(0, 1, 9)]);
        assert_eq!(out.total_weight, 9);
        assert_eq!(out.phases, 1);
    }

    #[test]
    fn disconnected_inputs_yield_minimum_spanning_forests() {
        // Two weighted components plus two isolated vertices.
        let graph = WeightedGraph::from_edges(
            8,
            &[
                (0, 1, 3),
                (1, 2, 1),
                (0, 2, 2),
                (4, 5, 7),
                (5, 6, 4),
                (4, 6, 6),
            ],
        );
        let out = assert_matches_oracle(&graph, 2);
        assert_eq!(out.components, 4);
        assert_eq!(out.edges.len(), 4);
        // An entirely edgeless graph is a forest of isolated vertices.
        let out = assert_matches_oracle(&WeightedGraph::empty(5), 2);
        assert_eq!(out.components, 5);
        assert_eq!(out.phases, 1); // one (empty) broadcast phase settles it
    }

    #[test]
    fn all_equal_weights_follow_the_tie_break() {
        let graph = weighted::constant_weights(&generators::complete(9), 5);
        let out = assert_matches_oracle(&graph, 4);
        // The (w, u, v) order makes the star at vertex 0 the unique MSF.
        assert_eq!(out.edges, (1..9).map(|v| (0, v, 5)).collect::<Vec<_>>());
    }

    #[test]
    fn complete_graph_escalates_past_the_capacity_boundary() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xB0F);
        let graph = weighted::weighted_complete(16, 40, &mut rng);
        // Singleton cuts have size 15 > 2: escalation is forced…
        let out = assert_matches_oracle(&graph, 2);
        assert!(
            out.phases > 1,
            "expected escalation, got {} phase(s)",
            out.phases
        );
        assert!(out.final_capacity >= 15);
        // …while a capacity covering the worst intermediate cut (a
        // balanced bipartition, s·(n−s) ≤ 64) finishes in one phase.
        let out = assert_matches_oracle(&graph, 64);
        assert_eq!(out.phases, 1);
    }

    #[test]
    fn bounded_cut_families_use_one_phase_at_any_size() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x10E);
        for n in [8usize, 32, 64] {
            let path = weighted::weighted_path(n, 30, &mut rng);
            assert_eq!(assert_matches_oracle(&path, 4).phases, 1, "path n={n}");
            let star = weighted::weighted_star(n - 1, 30, &mut rng);
            assert_eq!(assert_matches_oracle(&star, 4).phases, 1, "star n={n}");
        }
    }

    #[test]
    fn rounds_charge_sketches_and_votes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x77);
        let graph = weighted::weighted_cycle(24, 50, &mut rng);
        let run = compute_msf(&graph, 4, 6).unwrap();
        assert_eq!(run.phases, 1);
        let universe = MstProtocol::new(&graph, 4).universe;
        let sketch_bits = SignedPowerSumSketch::new(universe, 4).encoded_bits();
        let expected_rounds = sketch_bits.div_ceil(6) as u64 + 1; // + the vote
        assert_eq!(run.rounds(), expected_rounds);
        assert_eq!(
            run.total_bits(),
            24 * (sketch_bits as u64 + 1),
            "every node publishes one sketch and one vote bit"
        );
    }

    #[test]
    fn duplicate_weights_on_random_graphs_match_the_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xD1);
        for _ in 0..5 {
            // max_weight 3 on 14 nodes: collisions guaranteed.
            let graph = weighted::weighted_erdos_renyi(14, 0.35, 3, &mut rng);
            assert_matches_oracle(&graph, 4);
        }
    }

    /// The capacity, the forest and the done flag after every phase of one
    /// run.
    type PhaseTrail = Vec<(usize, Vec<(usize, usize, u64)>, bool)>;

    /// Replays the protocol's phase loop with `candidates` as the decode
    /// scan's keys, rebuilding every sketch from scratch at every level.
    fn replay_phases(protocol: &MstProtocol<'_>, candidates: &CandidateTable) -> PhaseTrail {
        let n = protocol.graph.vertex_count();
        let max_capacity = protocol.graph.edge_count().max(1);
        let mut capacity = protocol.base_capacity.min(max_capacity);
        let mut dsu = UnionFind::new(n);
        let mut forest = Vec::new();
        let mut trail = Vec::new();
        loop {
            let blackboard = (0..n).map(|v| Ok(protocol.incidence_sketch(v, capacity)));
            let component = component_sums(blackboard, n, &mut dsu).unwrap();
            let done = contract_to_exhaustion(component, candidates, &mut dsu, &mut forest);
            trail.push((capacity, forest.clone(), done));
            if done {
                return trail;
            }
            assert!(
                capacity < max_capacity,
                "a full-capacity sketch decodes every cut"
            );
            capacity = (capacity * 2).min(max_capacity);
        }
    }

    /// Runs `check` on the protocol of every differential grid point: the
    /// registry's weighted families at n = 2..=10, seeds 1..=4, maximum
    /// weights 1, 7 and 40 and base capacities 1, 2 and 4.
    fn for_each_grid_protocol(mut check: impl FnMut(&MstProtocol<'_>, &str)) {
        for family in WEIGHTED_FAMILIES {
            for n in 2..=10 {
                for seed in 1..=4 {
                    for max_weight in [1, 7, 40] {
                        let input =
                            generate_input(InputKind::Weighted, family, n, seed, max_weight);
                        let Some(JobInput::Weighted(graph)) = input else {
                            panic!("{family} is a weighted family");
                        };
                        for base_capacity in [1, 2, 4] {
                            let context = format!(
                                "{family}, n = {n}, seed {seed}, max weight {max_weight}, \
                                 base capacity {base_capacity}"
                            );
                            check(&MstProtocol::new(&graph, base_capacity), &context);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn edge_key_candidates_are_only_a_speed_up() {
        // No node knows the graph's edge keys, so scanning only them must
        // decide every phase exactly as scanning the whole key universe.
        for_each_grid_protocol(|protocol, context| {
            let all_keys: Vec<u64> = (0..protocol.universe).collect();
            let all_keys = CandidateTable::new(protocol.sketch_field(), &all_keys);
            assert_eq!(
                replay_phases(protocol, &protocol.edge_keys()),
                replay_phases(protocol, &all_keys),
                "{context}"
            );
        });
    }

    /// The phase loop, which grows each node's sketch from level to level,
    /// ends as the replay that rebuilds every sketch at every level: the
    /// same forest after the same number of phases, at the same capacity.
    fn assert_grown_run_matches_the_rebuilt_replay(protocol: &MstProtocol<'_>, context: &str) {
        let candidates = protocol.edge_keys();
        let trail = replay_phases(protocol, &candidates);
        let (capacity, forest, done) = trail.last().expect("a phase runs");
        assert!(done, "{context}");
        let mut forest = forest.clone();
        forest.sort_unstable();
        let n = protocol.graph.vertex_count();
        let mut session = Session::new(CliqueConfig::broadcast(n, 4));
        let run = protocol.run_phases(&mut session, &candidates).unwrap();
        assert_eq!(
            (run.edges, run.phases, run.final_capacity),
            (forest, trail.len(), *capacity),
            "{context}"
        );
    }

    #[test]
    fn grown_sketches_decide_every_phase_as_rebuilt_ones() {
        for_each_grid_protocol(assert_grown_run_matches_the_rebuilt_replay);
        // A clique from capacity 1: singleton cuts of 15 need capacity 16,
        // four escalations away.
        let mut rng = ChaCha8Rng::seed_from_u64(0x6E0);
        let graph = weighted::weighted_complete(16, 40, &mut rng);
        let protocol = MstProtocol::new(&graph, 1);
        assert!(replay_phases(&protocol, &protocol.edge_keys()).len() >= 5);
        assert_grown_run_matches_the_rebuilt_replay(&protocol, "weighted K16, base capacity 1");
    }

    #[test]
    fn a_short_candidate_list_stalls_with_a_typed_error() {
        // Every edge of a path is a bridge. Without one edge's key, the two
        // sides never decode their shared cut, at any capacity: the real
        // phase loop escalates 1, 2, 4 to the edge count 5, then stops.
        let path: Vec<(usize, usize, u64)> = (0..5).map(|v| (v, v + 1, 3 + v as u64)).collect();
        let graph = WeightedGraph::from_edges(6, &path);
        let protocol = MstProtocol::new(&graph, 1);
        let mut keys: Vec<u64> = path
            .iter()
            .map(|&(u, v, _)| protocol.edge_key(u, v))
            .collect();
        keys.remove(2);
        let candidates = CandidateTable::new(protocol.sketch_field(), &keys);
        let mut session = Session::new(CliqueConfig::broadcast(6, 4));
        assert_eq!(
            protocol.run_phases(&mut session, &candidates).unwrap_err(),
            SimError::Stalled {
                phase: "mst phase 4 at capacity 5".into()
            }
        );
        // Eight phases ran: a sketch broadcast and a vote in each of four.
        assert_eq!(session.metrics().phases.len(), 8);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = MstProtocol::new(&WeightedGraph::empty(2), 0);
    }

    #[test]
    #[should_panic(expected = "below 2^30")]
    fn oversized_weights_are_rejected() {
        let graph = WeightedGraph::from_edges(64, &[(0, 1, 1 << 40)]);
        let _ = MstProtocol::new(&graph, 4);
    }
}
