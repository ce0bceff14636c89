//! Graph generators: fixed families, random models, and planted instances.
//!
//! These produce the workloads for the subgraph-detection experiments:
//! pattern graphs `H` (cliques, cycles, complete bipartite graphs, paths,
//! stars), random host graphs `G(n, p)`, and hosts with planted copies of a
//! pattern for the "yes" instances.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::graph::Graph;

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::empty(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u, v);
        }
    }
    g
}

/// The cycle `C_n` (empty for `n < 3`).
pub fn cycle(n: usize) -> Graph {
    let mut g = Graph::empty(n);
    if n >= 3 {
        for u in 0..n {
            g.add_edge(u, (u + 1) % n);
        }
    }
    g
}

/// The path `P_n` on `n` vertices (`n - 1` edges).
pub fn path(n: usize) -> Graph {
    let mut g = Graph::empty(n);
    for u in 1..n {
        g.add_edge(u - 1, u);
    }
    g
}

/// The star `K_{1,k}`: one centre (vertex 0) joined to `k` leaves.
pub fn star(k: usize) -> Graph {
    let mut g = Graph::empty(k + 1);
    for leaf in 1..=k {
        g.add_edge(0, leaf);
    }
    g
}

/// The complete bipartite graph `K_{a,b}` with sides `0..a` and `a..a+b`.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut g = Graph::empty(a + b);
    for u in 0..a {
        for v in a..(a + b) {
            g.add_edge(u, v);
        }
    }
    g
}

/// The Turán graph `T(n, r)`: the complete `r`-partite graph on `n` vertices
/// with parts as equal as possible. It is the extremal `K_{r+1}`-free graph.
///
/// # Panics
///
/// Panics if `r == 0`.
pub fn turan_graph(n: usize, r: usize) -> Graph {
    assert!(r > 0, "Turán graph needs at least one part");
    let part = |v: usize| v % r;
    let mut g = Graph::empty(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if part(u) != part(v) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// An Erdős–Rényi random graph `G(n, p)`: every pair becomes an edge
/// independently with probability `p`.
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    let mut g = Graph::empty(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// A random graph with (roughly) bounded degeneracy: vertices are added one
/// by one and each new vertex chooses up to `k` random earlier neighbours.
///
/// The result always has degeneracy at most `k`, and for `k ≤ n/2` the
/// degeneracy is typically close to `k`.
pub fn random_bounded_degeneracy<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Graph {
    let mut g = Graph::empty(n);
    for v in 1..n {
        let picks = k.min(v);
        let mut earlier: Vec<usize> = (0..v).collect();
        earlier.shuffle(rng);
        for &u in earlier.iter().take(picks) {
            g.add_edge(u, v);
        }
    }
    g
}

/// Plants a copy of `pattern` into `host` on a uniformly random set of
/// vertices, returning the modified host and the vertices used (in pattern
/// order).
///
/// # Panics
///
/// Panics if `pattern` has more vertices than `host`.
pub fn plant_copy<R: Rng + ?Sized>(
    host: &Graph,
    pattern: &Graph,
    rng: &mut R,
) -> (Graph, Vec<usize>) {
    let n = host.vertex_count();
    let h = pattern.vertex_count();
    assert!(h <= n, "pattern has more vertices than the host");
    let mut vertices: Vec<usize> = (0..n).collect();
    vertices.shuffle(rng);
    vertices.truncate(h);
    let mut g = host.clone();
    for (u, v) in pattern.edges() {
        g.add_edge(vertices[u], vertices[v]);
    }
    (g, vertices)
}

/// A uniformly random tree on `n` vertices (random attachment).
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    let mut g = Graph::empty(n);
    for v in 1..n {
        let parent = rng.gen_range(0..v);
        g.add_edge(parent, v);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0xC11C)
    }

    #[test]
    fn complete_graph_counts() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.max_degree(), 5);
        assert_eq!(complete(0).edge_count(), 0);
        assert_eq!(complete(1).edge_count(), 0);
    }

    #[test]
    fn cycle_and_path_and_star() {
        assert_eq!(cycle(5).edge_count(), 5);
        assert_eq!(cycle(2).edge_count(), 0);
        assert_eq!(path(5).edge_count(), 4);
        assert_eq!(path(1).edge_count(), 0);
        let s = star(4);
        assert_eq!(s.edge_count(), 4);
        assert_eq!(s.degree(0), 4);
        assert_eq!(s.degree(1), 1);
    }

    #[test]
    fn complete_bipartite_counts() {
        let g = complete_bipartite(3, 4);
        assert_eq!(g.vertex_count(), 7);
        assert_eq!(g.edge_count(), 12);
        assert!(g.is_bipartite());
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(0, 3));
    }

    #[test]
    fn turan_graph_is_clique_free() {
        use crate::iso::contains_subgraph;
        let g = turan_graph(12, 3);
        // T(12, 3) = K_{4,4,4} has 3 * 4 * 4 + ... = 48 edges and no K4.
        assert_eq!(g.edge_count(), 48);
        assert!(!contains_subgraph(&g, &complete(4)));
        assert!(contains_subgraph(&g, &complete(3)));
    }

    #[test]
    fn erdos_renyi_edge_probability() {
        let mut r = rng();
        let g = erdos_renyi(60, 0.0, &mut r);
        assert_eq!(g.edge_count(), 0);
        let g = erdos_renyi(60, 1.0, &mut r);
        assert_eq!(g.edge_count(), 60 * 59 / 2);
        let g = erdos_renyi(80, 0.3, &mut r);
        let expected = 0.3 * (80.0 * 79.0 / 2.0);
        assert!((g.edge_count() as f64) > expected * 0.7);
        assert!((g.edge_count() as f64) < expected * 1.3);
    }

    #[test]
    fn bounded_degeneracy_generator_respects_bound() {
        use crate::degeneracy::degeneracy;
        let mut r = rng();
        for k in [1usize, 2, 4, 7] {
            let g = random_bounded_degeneracy(50, k, &mut r);
            assert!(degeneracy(&g) <= k, "degeneracy exceeded bound {k}");
        }
    }

    #[test]
    fn plant_copy_creates_pattern() {
        use crate::iso::contains_subgraph;
        let mut r = rng();
        let host = erdos_renyi(30, 0.02, &mut r);
        let pattern = cycle(4);
        let (planted, where_) = plant_copy(&host, &pattern, &mut r);
        assert_eq!(where_.len(), 4);
        assert!(contains_subgraph(&planted, &pattern));
        for (u, v) in pattern.edges() {
            assert!(planted.has_edge(where_[u], where_[v]));
        }
    }

    #[test]
    fn random_tree_is_connected_and_acyclic() {
        let mut r = rng();
        let t = random_tree(40, &mut r);
        assert_eq!(t.edge_count(), 39);
        assert!(t.is_connected());
        assert!(t.is_bipartite());
    }
}
