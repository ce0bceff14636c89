//! The undirected graph type shared by every crate in the workspace.
//!
//! Inputs to the congested clique in the subgraph-detection problem are
//! `n`-node undirected graphs in which player `i` knows the edges adjacent to
//! node `i`; [`Graph`] stores exactly that information (sorted adjacency
//! lists) and provides the operations the algorithms and constructions in the
//! paper need: edge queries, degrees, induced subgraphs, unions, and
//! adjacency rows for distributing the input among players.

use std::fmt;

use clique_sim::bits::BitString;
use clique_sim::lane::{DefaultLane, LANE_BITS};
use clique_sim::linalg::BitMatrix;

/// An undirected simple graph on vertices `0..n`.
///
/// # Examples
///
/// ```
/// use clique_graphs::Graph;
///
/// let mut g = Graph::empty(4);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// assert_eq!(g.edge_count(), 2);
/// assert!(g.has_edge(1, 0));
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Graph {
    adj: Vec<Vec<usize>>,
    edges: usize,
}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn empty(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Creates a graph from an undirected edge list on `n` vertices.
    ///
    /// Duplicate edges and self-loops are ignored.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = Self::empty(n);
        for &(u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Adds the undirected edge `{u, v}`. Returns `true` if the edge is new.
    ///
    /// Self-loops are ignored (returns `false`).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        let n = self.vertex_count();
        assert!(u < n && v < n, "edge ({u},{v}) out of range for n={n}");
        if u == v || self.has_edge(u, v) {
            return false;
        }
        let pos_u = self.adj[u].binary_search(&v).unwrap_err();
        self.adj[u].insert(pos_u, v);
        let pos_v = self.adj[v].binary_search(&u).unwrap_err();
        self.adj[v].insert(pos_v, u);
        self.edges += 1;
        true
    }

    /// Removes the undirected edge `{u, v}`. Returns `true` if it existed.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        if u >= self.vertex_count() || v >= self.vertex_count() || u == v {
            return false;
        }
        if let Ok(pos) = self.adj[u].binary_search(&v) {
            self.adj[u].remove(pos);
            let pos_v = self.adj[v]
                .binary_search(&u)
                .expect("adjacency lists out of sync");
            self.adj[v].remove(pos_v);
            self.edges -= 1;
            true
        } else {
            false
        }
    }

    /// Returns `true` if `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj
            .get(u)
            .is_some_and(|list| list.binary_search(&v).is_ok())
    }

    /// The sorted neighbour list of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.adj[u]
    }

    /// The degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub(crate) fn degree(&self, u: usize) -> usize {
        self.adj[u].len()
    }

    /// The maximum degree of the graph (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Iterates over all edges `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, list)| list.iter().filter(move |&&v| u < v).map(move |&v| (u, v)))
    }

    /// The adjacency row of `u` packed into a [`BitString`] of `n` bits
    /// (used to hand player `u` its share of the input, ready to ship as a
    /// message payload without a per-bit encode loop).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn adjacency_row_bits(&self, u: usize) -> BitString {
        let n = self.vertex_count();
        let mut words: Vec<DefaultLane> = vec![0; n.div_ceil(LANE_BITS)];
        for &v in &self.adj[u] {
            words[v / LANE_BITS] |= 1 << (v % LANE_BITS);
        }
        BitString::from_words(&words, n)
    }

    /// The full adjacency matrix packed into a [`BitMatrix`] (one lane
    /// word holds [`LANE_BITS`] entries), the representation the
    /// word-parallel `F₂` kernels consume.
    pub fn adjacency_bitmatrix(&self) -> BitMatrix {
        self.adjacency_bitmatrix_padded(self.vertex_count())
    }

    /// Builds a graph on `m.rows()` vertices from a packed adjacency
    /// matrix. The matrix is symmetrised by OR-ing `(u,v)` and `(v,u)`; the
    /// diagonal is ignored.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn from_adjacency_bitmatrix(m: &BitMatrix) -> Self {
        let n = m.rows();
        assert_eq!(m.cols(), n, "adjacency matrix must be square");
        let mut g = Self::empty(n);
        for u in 0..n {
            for (wi, &word) in m.row_words(u).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let v = wi * LANE_BITS + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if u != v {
                        g.add_edge(u, v);
                    }
                }
            }
        }
        g
    }

    /// The packed adjacency matrix padded with zero rows and columns to
    /// `dim × dim` — the form the matrix-multiplication pipelines consume
    /// (e.g. Strassen circuits need power-of-two dimensions). Padding never
    /// sets bits at or past column `dim`, preserving the [`BitMatrix`]
    /// invariant the word-parallel kernels rely on.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is below the vertex count (shrinking would drop
    /// edges).
    pub fn adjacency_bitmatrix_padded(&self, dim: usize) -> BitMatrix {
        let n = self.vertex_count();
        assert!(dim >= n, "padding dimension {dim} below vertex count {n}");
        let mut m = BitMatrix::zeros(dim, dim);
        for (u, neighbors) in self.adj.iter().enumerate() {
            let row = m.row_words_mut(u);
            for &v in neighbors {
                row[v / LANE_BITS] |= 1 << (v % LANE_BITS);
            }
        }
        m
    }

    /// Keeps only the edges for which `keep` returns `true`.
    pub(crate) fn filter_edges(&self, mut keep: impl FnMut(usize, usize) -> bool) -> Graph {
        let mut g = Graph::empty(self.vertex_count());
        for (u, v) in self.edges() {
            if keep(u, v) {
                g.add_edge(u, v);
            }
        }
        g
    }

    /// Returns `true` if the graph is connected (the empty graph and the
    /// one-vertex graph are considered connected): the generator tests'
    /// oracle.
    #[cfg(test)]
    pub(crate) fn is_connected(&self) -> bool {
        let n = self.vertex_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in &self.adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// Returns a proper 2-colouring if the graph is bipartite, `None`
    /// otherwise.
    pub fn bipartition(&self) -> Option<Vec<bool>> {
        let n = self.vertex_count();
        let mut color: Vec<Option<bool>> = vec![None; n];
        for start in 0..n {
            if color[start].is_some() {
                continue;
            }
            color[start] = Some(false);
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(u) = queue.pop_front() {
                let cu = color[u].expect("queued vertices are coloured");
                for &v in &self.adj[u] {
                    match color[v] {
                        None => {
                            color[v] = Some(!cu);
                            queue.push_back(v);
                        }
                        Some(cv) if cv == cu => return None,
                        Some(_) => {}
                    }
                }
            }
        }
        Some(color.into_iter().map(|c| c.unwrap_or(false)).collect())
    }

    /// Returns `true` if the graph contains no odd cycle.
    pub(crate) fn is_bipartite(&self) -> bool {
        self.bipartition().is_some()
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={})",
            self.vertex_count(),
            self.edge_count()
        )
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph on {} vertices:", self.vertex_count())?;
        for (u, v) in self.edges() {
            writeln!(f, "  {u} -- {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.vertex_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert!(!g.has_edge(0, 1));
        assert!(g.edges().next().is_none());
    }

    #[test]
    fn add_and_remove_edges() {
        let mut g = Graph::empty(4);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0), "duplicate edge not re-added");
        assert!(!g.add_edge(2, 2), "self loop ignored");
        assert!(g.add_edge(1, 2));
        assert_eq!(g.edge_count(), 2);
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(1), &[2]);
    }

    #[test]
    fn edges_iterator_is_sorted_pairs() {
        let g = Graph::from_edges(4, &[(2, 1), (0, 3), (3, 2)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn adjacency_round_trip() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let m = g.adjacency_bitmatrix();
        let g2 = Graph::from_adjacency_bitmatrix(&m);
        assert_eq!(g, g2);
        assert_eq!(
            g.adjacency_row_bits(0).to_bools(),
            vec![false, true, false, true]
        );
        // Packed rows agree with the matrix rows.
        for u in 0..4 {
            assert_eq!(g.adjacency_row_bits(u), m.row_bits(u));
        }
    }

    #[test]
    fn adjacency_round_trip_across_word_boundaries() {
        // 70 vertices forces two words per packed row.
        let mut g = Graph::empty(70);
        g.add_edge(0, 69);
        g.add_edge(63, 64);
        g.add_edge(1, 63);
        let m = g.adjacency_bitmatrix();
        assert_eq!(Graph::from_adjacency_bitmatrix(&m), g);
        assert_eq!(m.count_ones(), 2 * g.edge_count());
        let row = g.adjacency_row_bits(69);
        assert_eq!(row.len(), 70);
        assert!(row.bit(0) && !row.bit(1));
    }

    #[test]
    fn padded_adjacency_extends_with_zero_rows_and_columns() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let m = g.adjacency_bitmatrix_padded(70);
        assert_eq!((m.rows(), m.cols()), (70, 70));
        assert_eq!(m.count_ones(), 2 * g.edge_count());
        // The top-left block equals the unpadded adjacency matrix; padding
        // rows and columns stay empty.
        assert_eq!(m.submatrix(0, 0, 3, 3), g.adjacency_bitmatrix());
        for i in 3..70 {
            assert!(m.row_words(i).iter().all(|&w| w == 0));
        }
        // Padding a graph to its own size is the identity.
        assert_eq!(g.adjacency_bitmatrix_padded(3), g.adjacency_bitmatrix());
    }

    #[test]
    #[should_panic(expected = "below vertex count")]
    fn padded_adjacency_rejects_shrinking() {
        let _ = Graph::from_edges(4, &[(0, 1)]).adjacency_bitmatrix_padded(3);
    }

    #[test]
    fn connectivity() {
        assert!(Graph::empty(0).is_connected());
        assert!(Graph::empty(1).is_connected());
        assert!(!Graph::empty(2).is_connected());
        let path = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(path.is_connected());
        let split = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!split.is_connected());
    }

    #[test]
    fn bipartiteness() {
        let even_cycle = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(even_cycle.is_bipartite());
        let odd_cycle = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(!odd_cycle.is_bipartite());
        let coloring = even_cycle.bipartition().unwrap();
        for (u, v) in even_cycle.edges() {
            assert_ne!(coloring[u], coloring[v]);
        }
    }

    #[test]
    fn filter_edges_keeps_subset() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let f = g.filter_edges(|u, v| u + v >= 3);
        assert_eq!(f.edge_count(), 2);
        assert!(!f.has_edge(0, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut g = Graph::empty(2);
        g.add_edge(0, 5);
    }

    #[test]
    fn debug_and_display() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        assert_eq!(format!("{g:?}"), "Graph(n=3, m=1)");
        assert!(g.to_string().contains("0 -- 1"));
    }
}
