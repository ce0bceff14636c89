//! Edge-weighted graphs with unique-weight normalization.
//!
//! The deterministic sketch-based MST protocols assume *distinct* edge
//! weights so that the minimum spanning forest is unique and the cut
//! property picks a single safe edge per component. [`WeightedGraph`]
//! provides that guarantee without restricting the inputs: raw weights may
//! repeat, and every comparison goes through the total order
//! `(w(e), u, v)` (endpoints sorted, `u < v`) — the standard tie-breaking
//! normalization. Two edges never compare equal, the minimum spanning
//! forest is unique, and its total *raw* weight still equals the optimum of
//! the unnormalized instance.
//!
//! The module also carries the weighted companions of the
//! [`generators`] module and the [`UnionFind`] structure
//! shared by the sequential Kruskal oracle
//! ([`iso::minimum_spanning_forest`](crate::iso::minimum_spanning_forest))
//! and the distributed Borůvka contraction.

use std::collections::BTreeMap;

use rand::Rng;

use crate::generators;
use crate::graph::Graph;

/// An undirected graph with a `u64` weight on every edge.
///
/// Structure and weights are kept separate: the adjacency lives in a
/// [`Graph`] (so every unweighted algorithm applies unchanged via
/// [`Self::graph`]) and the weights in a map keyed by the sorted endpoint
/// pair.
///
/// # Examples
///
/// ```
/// use clique_graphs::weighted::WeightedGraph;
///
/// // Same raw weight: the (w, u, v) order breaks the tie.
/// let g = WeightedGraph::from_edges(4, &[(0, 1, 5), (2, 1, 5)]);
/// assert_eq!(g.weight(1, 0), Some(5));
/// assert!(g.edge_order_key(0, 1) < g.edge_order_key(1, 2));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedGraph {
    graph: Graph,
    weights: BTreeMap<(usize, usize), u64>,
}

impl WeightedGraph {
    /// Creates a weighted graph on `n` vertices with no edges.
    pub fn empty(n: usize) -> Self {
        Self {
            graph: Graph::empty(n),
            weights: BTreeMap::new(),
        }
    }

    /// Builds a weighted graph from an edge list with weights.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(usize, usize, u64)]) -> Self {
        let mut g = Self::empty(n);
        for &(u, v, w) in edges {
            g.add_edge(u, v, w);
        }
        g
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Inserts the edge `{u, v}` with weight `w`, overwriting the weight if
    /// the edge already exists. Returns `true` if the edge was new.
    /// Self-loops are ignored (returns `false`), as in [`Graph::add_edge`].
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub(crate) fn add_edge(&mut self, u: usize, v: usize, w: u64) -> bool {
        if u == v {
            return false;
        }
        let inserted = self.graph.add_edge(u, v);
        self.weights.insert((u.min(v), u.max(v)), w);
        inserted
    }

    /// The weight of the edge `{u, v}`, or `None` if it is not present.
    pub fn weight(&self, u: usize, v: usize) -> Option<u64> {
        self.weights.get(&(u.min(v), u.max(v))).copied()
    }

    /// Returns `true` if the edge `{u, v}` is present.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.graph.has_edge(u, v)
    }

    /// The underlying unweighted graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Iterates over the edges as `(u, v, w)` with `u < v`, ascending by
    /// `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.weights.iter().map(|(&(u, v), &w)| (u, v, w))
    }

    /// The neighbors of `u` with the connecting edge weights, ascending by
    /// neighbor id.
    pub fn weighted_neighbors(&self, u: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.graph.neighbors(u).iter().map(move |&v| {
            let w = self.weight(u, v).expect("adjacency and weights in sync");
            (v, w)
        })
    }

    /// The largest edge weight (0 for an edgeless graph).
    pub fn max_weight(&self) -> u64 {
        self.weights.values().copied().max().unwrap_or(0)
    }

    /// The unique-weight normalization: edges compare by `(w, u, v)` with
    /// the endpoints sorted, so no two edges are ever tied. All MST
    /// algorithms in this workspace order edges by this key.
    ///
    /// # Panics
    ///
    /// Panics if the edge is not present.
    pub fn edge_order_key(&self, u: usize, v: usize) -> (u64, usize, usize) {
        let (a, b) = (u.min(v), u.max(v));
        let w = self
            .weight(a, b)
            .unwrap_or_else(|| panic!("edge ({a},{b}) not present"));
        (w, a, b)
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> u64 {
        self.weights.values().sum()
    }
}

/// Disjoint-set forest with union by size and path compression — the
/// component tracker of Kruskal's oracle and of the distributed Borůvka
/// contraction.
///
/// # Examples
///
/// ```
/// use clique_graphs::weighted::UnionFind;
///
/// let mut dsu = UnionFind::new(4);
/// assert!(dsu.union(0, 1));
/// assert!(!dsu.union(1, 0));
/// assert_eq!(dsu.find(0), dsu.find(1));
/// assert_eq!(dsu.components(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
    size: Vec<usize>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton components.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// The representative of `x`'s component.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the components of `x` and `y`; returns `true` if they were
    /// distinct. To keep runs reproducible regardless of call order, ties
    /// in size are broken towards the smaller representative.
    pub fn union(&mut self, x: usize, y: usize) -> bool {
        let (rx, ry) = (self.find(x), self.find(y));
        if rx == ry {
            return false;
        }
        let (big, small) = match self.size[rx].cmp(&self.size[ry]) {
            std::cmp::Ordering::Greater => (rx, ry),
            std::cmp::Ordering::Less => (ry, rx),
            std::cmp::Ordering::Equal => (rx.min(ry), rx.max(ry)),
        };
        self.parent[small] = big;
        self.size[big] += self.size[small];
        self.components -= 1;
        true
    }

    /// Number of components.
    pub fn components(&self) -> usize {
        self.components
    }
}

/// Assigns every edge of `graph` an independent uniform weight from
/// `1..=max_weight` (duplicates allowed — the `(w, u, v)` order breaks
/// ties). Edges are weighted in ascending `(u, v)` order, so a fixed seed
/// gives a fixed instance.
///
/// # Panics
///
/// Panics if `max_weight == 0`.
pub fn random_weights<R: Rng + ?Sized>(
    graph: &Graph,
    max_weight: u64,
    rng: &mut R,
) -> WeightedGraph {
    assert!(max_weight > 0, "weights must come from a non-empty range");
    let mut out = WeightedGraph::empty(graph.vertex_count());
    for (u, v) in graph.edges() {
        out.add_edge(u, v, rng.gen_range(1..max_weight + 1));
    }
    out
}

/// Assigns every edge of `graph` the same weight `w` — the all-equal-weight
/// instance where the `(w, u, v)` tie-break does all the work.
pub fn constant_weights(graph: &Graph, w: u64) -> WeightedGraph {
    let mut out = WeightedGraph::empty(graph.vertex_count());
    for (u, v) in graph.edges() {
        out.add_edge(u, v, w);
    }
    out
}

/// `G(n, p)` with uniform weights from `1..=max_weight`.
pub fn weighted_erdos_renyi<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    max_weight: u64,
    rng: &mut R,
) -> WeightedGraph {
    let graph = generators::erdos_renyi(n, p, rng);
    random_weights(&graph, max_weight, rng)
}

/// The path on `n` vertices with uniform weights from `1..=max_weight`.
pub fn weighted_path<R: Rng + ?Sized>(n: usize, max_weight: u64, rng: &mut R) -> WeightedGraph {
    random_weights(&generators::path(n), max_weight, rng)
}

/// The cycle on `n` vertices with uniform weights from `1..=max_weight`.
pub fn weighted_cycle<R: Rng + ?Sized>(n: usize, max_weight: u64, rng: &mut R) -> WeightedGraph {
    random_weights(&generators::cycle(n), max_weight, rng)
}

/// The star `K_{1,k}` with uniform weights from `1..=max_weight`.
pub fn weighted_star<R: Rng + ?Sized>(k: usize, max_weight: u64, rng: &mut R) -> WeightedGraph {
    random_weights(&generators::star(k), max_weight, rng)
}

/// The complete graph `K_n` with uniform weights from `1..=max_weight`.
pub fn weighted_complete<R: Rng + ?Sized>(n: usize, max_weight: u64, rng: &mut R) -> WeightedGraph {
    random_weights(&generators::complete(n), max_weight, rng)
}

/// A uniform random tree on `n` vertices with uniform weights from
/// `1..=max_weight`.
pub fn weighted_random_tree<R: Rng + ?Sized>(
    n: usize,
    max_weight: u64,
    rng: &mut R,
) -> WeightedGraph {
    let tree = generators::random_tree(n, rng);
    random_weights(&tree, max_weight, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn add_edge_and_lookup_are_symmetric() {
        let mut g = WeightedGraph::empty(5);
        assert!(g.add_edge(3, 1, 7));
        assert!(!g.add_edge(1, 3, 9)); // overwrite, not a new edge
        assert_eq!(g.weight(1, 3), Some(9));
        assert_eq!(g.weight(3, 1), Some(9));
        assert_eq!(g.weight(0, 4), None);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(3, 1));
    }

    #[test]
    fn edges_iterate_sorted_with_weights() {
        let g = WeightedGraph::from_edges(4, &[(2, 3, 1), (0, 1, 4), (1, 2, 2)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1, 4), (1, 2, 2), (2, 3, 1)]);
        assert_eq!(g.total_weight(), 7);
        assert_eq!(g.max_weight(), 4);
        assert_eq!(
            g.weighted_neighbors(1).collect::<Vec<_>>(),
            vec![(0, 4), (2, 2)]
        );
    }

    #[test]
    fn order_keys_are_distinct_even_with_equal_weights() {
        let g = constant_weights(&generators::complete(5), 3);
        let mut keys: Vec<_> = g.edges().map(|(u, v, _)| g.edge_order_key(u, v)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), g.edge_count(), "tie-break must separate edges");
    }

    #[test]
    fn random_weights_are_in_range_and_deterministic() {
        let base = generators::cycle(12);
        let mut r1 = ChaCha8Rng::seed_from_u64(3);
        let mut r2 = ChaCha8Rng::seed_from_u64(3);
        let a = random_weights(&base, 6, &mut r1);
        let b = random_weights(&base, 6, &mut r2);
        assert_eq!(a, b);
        assert!(a.edges().all(|(_, _, w)| (1..=6).contains(&w)));
        assert_eq!(a.graph(), &base);
    }

    #[test]
    fn weighted_generators_match_their_shapes() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        assert_eq!(weighted_path(6, 4, &mut rng).edge_count(), 5);
        assert_eq!(weighted_cycle(6, 4, &mut rng).edge_count(), 6);
        assert_eq!(weighted_star(6, 4, &mut rng).edge_count(), 6);
        assert_eq!(weighted_complete(6, 4, &mut rng).edge_count(), 15);
        let t = weighted_random_tree(9, 4, &mut rng);
        assert_eq!(t.edge_count(), 8);
        assert!(t.graph().is_connected());
        let g = weighted_erdos_renyi(10, 0.5, 4, &mut rng);
        assert!(g.edges().all(|(_, _, w)| (1..=4).contains(&w)));
    }

    #[test]
    fn union_find_merges_and_counts() {
        let mut dsu = UnionFind::new(6);
        assert_eq!(dsu.components(), 6);
        assert!(dsu.union(0, 1));
        assert!(dsu.union(2, 3));
        assert!(dsu.union(1, 2));
        assert!(!dsu.union(0, 3));
        assert_eq!(dsu.find(0), dsu.find(3));
        assert_ne!(dsu.find(0), dsu.find(5));
        assert_eq!(dsu.components(), 3);
    }

    #[test]
    fn union_find_is_call_order_independent_on_ties() {
        let mut a = UnionFind::new(4);
        let mut b = UnionFind::new(4);
        a.union(0, 1);
        b.union(1, 0);
        assert_eq!(a.find(0), b.find(1));
    }
}
