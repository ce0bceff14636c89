//! Degeneracy, degeneracy orderings and k-cores.
//!
//! The degeneracy of a graph `G` is the smallest `k` such that every subgraph
//! of `G` has a vertex of degree at most `k`. Claim 6 of the paper bounds the
//! degeneracy of `H`-free graphs by `4·ex(n, H)/n`, and the one-round
//! reconstruction protocol of Becker et al. (the backbone of Theorems 7
//! and 9) works exactly when the degeneracy is at most its parameter `k`.

use crate::graph::Graph;

/// The result of a degeneracy computation: the value and a witnessing
/// elimination ordering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegeneracyOrdering {
    /// The degeneracy of the graph.
    pub degeneracy: usize,
    /// An ordering `v_1, …, v_n` such that every vertex has at most
    /// `degeneracy` neighbours *later* in the ordering.
    pub order: Vec<usize>,
}

/// Computes the degeneracy and an elimination ordering in `O(n + m)` time
/// using the standard bucket-peeling algorithm.
///
/// # Examples
///
/// ```
/// use clique_graphs::{degeneracy::degeneracy_ordering, generators};
///
/// let g = generators::cycle(10);
/// let d = degeneracy_ordering(&g);
/// assert_eq!(d.degeneracy, 2);
/// assert_eq!(d.order.len(), 10);
/// ```
pub fn degeneracy_ordering(graph: &Graph) -> DegeneracyOrdering {
    let n = graph.vertex_count();
    if n == 0 {
        return DegeneracyOrdering {
            degeneracy: 0,
            order: Vec::new(),
        };
    }
    let mut degree: Vec<usize> = (0..n).map(|v| graph.degree(v)).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0);
    // Buckets of vertices by current degree.
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_deg + 1];
    for v in 0..n {
        buckets[degree[v]].push(v);
    }
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut degeneracy = 0usize;
    let mut current = 0usize;
    for _ in 0..n {
        // Find the lowest non-empty bucket; degrees only decrease by one per
        // removal, so scanning from `current.saturating_sub(1)` keeps the
        // total work linear.
        current = current.saturating_sub(1);
        loop {
            while current < buckets.len() {
                // Pop stale entries lazily.
                match buckets[current].last() {
                    Some(&v) if removed[v] || degree[v] != current => {
                        buckets[current].pop();
                    }
                    Some(_) => break,
                    None => break,
                }
            }
            if current < buckets.len() && !buckets[current].is_empty() {
                break;
            }
            current += 1;
        }
        let v = buckets[current].pop().expect("non-empty bucket");
        removed[v] = true;
        degeneracy = degeneracy.max(current);
        order.push(v);
        for &u in graph.neighbors(v) {
            if !removed[u] {
                degree[u] -= 1;
                buckets[degree[u]].push(u);
            }
        }
    }
    DegeneracyOrdering { degeneracy, order }
}

/// The degeneracy of the graph (see [`degeneracy_ordering`]).
pub fn degeneracy(graph: &Graph) -> usize {
    degeneracy_ordering(graph).degeneracy
}

/// Verifies that `order` is an elimination ordering witnessing degeneracy at
/// most `k`: every vertex has at most `k` neighbours appearing later.
pub fn verify_elimination_order(graph: &Graph, order: &[usize], k: usize) -> bool {
    let n = graph.vertex_count();
    if order.len() != n {
        return false;
    }
    let mut position = vec![usize::MAX; n];
    for (idx, &v) in order.iter().enumerate() {
        if v >= n || position[v] != usize::MAX {
            return false;
        }
        position[v] = idx;
    }
    for v in 0..n {
        let later = graph
            .neighbors(v)
            .iter()
            .filter(|&&u| position[u] > position[v])
            .count();
        if later > k {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn degeneracy_of_basic_families() {
        assert_eq!(degeneracy(&Graph::empty(0)), 0);
        assert_eq!(degeneracy(&Graph::empty(7)), 0);
        assert_eq!(degeneracy(&generators::path(10)), 1);
        assert_eq!(degeneracy(&generators::star(9)), 1);
        assert_eq!(degeneracy(&generators::cycle(9)), 2);
        assert_eq!(degeneracy(&generators::complete(6)), 5);
        assert_eq!(degeneracy(&generators::complete_bipartite(3, 7)), 3);
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xDE6E);
        assert_eq!(degeneracy(&generators::random_tree(30, &mut rng)), 1);
    }

    #[test]
    fn ordering_witnesses_degeneracy() {
        for g in [
            generators::complete(5),
            generators::cycle(12),
            generators::turan_graph(12, 3),
            generators::complete_bipartite(4, 9),
        ] {
            let d = degeneracy_ordering(&g);
            assert!(verify_elimination_order(&g, &d.order, d.degeneracy));
            if d.degeneracy > 0 {
                assert!(
                    !verify_elimination_order(&g, &d.order, d.degeneracy - 1),
                    "ordering should not witness a smaller degeneracy for this graph"
                );
            }
        }
    }

    #[test]
    fn verify_rejects_bad_orders() {
        let g = generators::complete(4);
        assert!(!verify_elimination_order(&g, &[0, 1, 2], 3));
        assert!(!verify_elimination_order(&g, &[0, 0, 1, 2], 3));
        assert!(verify_elimination_order(&g, &[0, 1, 2, 3], 3));
        assert!(!verify_elimination_order(&g, &[0, 1, 2, 3], 2));
    }

    #[test]
    fn degeneracy_matches_naive_definition_on_small_graphs() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        for _ in 0..20 {
            let g = generators::erdos_renyi(9, 0.4, &mut rng);
            let fast = degeneracy(&g);
            let naive = naive_degeneracy(&g);
            assert_eq!(fast, naive);
        }
    }

    /// Exponential-time reference: max over subsets of the min degree.
    fn naive_degeneracy(g: &Graph) -> usize {
        let n = g.vertex_count();
        let mut best = 0;
        for mask in 1u32..(1 << n) {
            let inside = |v: usize| mask >> v & 1 == 1;
            let min_deg = (0..n)
                .filter(|&v| inside(v))
                .map(|v| g.neighbors(v).iter().filter(|&&u| inside(u)).count())
                .min()
                .unwrap_or(0);
            best = best.max(min_deg);
        }
        best
    }
}
