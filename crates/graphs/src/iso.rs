//! Subgraph isomorphism for constant-size patterns.
//!
//! The subgraph-detection problem of the paper asks whether the input graph
//! `G` contains a (not necessarily induced) copy of a fixed pattern `H`.
//! Because `H` has constant size, a backtracking search with degree pruning
//! is fast enough to serve both as the local post-processing step of the
//! detection protocols (nodes search the reconstructed graph) and as the
//! ground-truth oracle in tests and experiments.

use crate::graph::Graph;
use crate::weighted::{UnionFind, WeightedGraph};
use clique_sim::linalg::IntMatrix;

/// Returns `true` if `host` contains a subgraph isomorphic to `pattern`.
///
/// An empty pattern (no vertices) is contained in every graph.
pub fn contains_subgraph(host: &Graph, pattern: &Graph) -> bool {
    find_subgraph(host, pattern).is_some()
}

/// Finds a copy of `pattern` in `host`, returning for each pattern vertex the
/// host vertex it is mapped to, or `None` if no copy exists.
///
/// The mapping is injective and preserves every pattern edge (the copy need
/// not be induced).
pub fn find_subgraph(host: &Graph, pattern: &Graph) -> Option<Vec<usize>> {
    let h = pattern.vertex_count();
    if h == 0 {
        return Some(Vec::new());
    }
    if h > host.vertex_count() || pattern.edge_count() > host.edge_count() {
        return None;
    }
    let order = search_order(pattern);
    let mut assignment = vec![usize::MAX; h];
    let mut used = vec![false; host.vertex_count()];
    if backtrack(host, pattern, &order, 0, &mut assignment, &mut used) {
        Some(assignment)
    } else {
        None
    }
}

/// Lists the triangles of `graph` as sorted vertex triples.
pub fn triangles(graph: &Graph) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for_each_triangle(graph, |u, v, w| out.push((u, v, w)));
    out
}

/// Number of triangles in `graph`, counted in the walk [`triangles`]
/// lists them with, without holding the list.
pub fn triangle_count(graph: &Graph) -> u64 {
    let mut count = 0;
    for_each_triangle(graph, |_, _, _| count += 1);
    count
}

/// Calls `visit(u, v, w)` on every triangle `u < v < w` of `graph`, in
/// lexicographic order.
fn for_each_triangle(graph: &Graph, mut visit: impl FnMut(usize, usize, usize)) {
    for u in 0..graph.vertex_count() {
        let nu = graph.neighbors(u);
        for (i, &v) in nu.iter().enumerate() {
            if v <= u {
                continue;
            }
            for &w in &nu[i + 1..] {
                if w > v && graph.has_edge(v, w) {
                    visit(u, v, w);
                }
            }
        }
    }
}

/// Returns `true` if `graph` contains a triangle.
pub fn has_triangle(graph: &Graph) -> bool {
    for u in 0..graph.vertex_count() {
        let nu = graph.neighbors(u);
        for (i, &v) in nu.iter().enumerate() {
            if v <= u {
                continue;
            }
            for &w in &nu[i + 1..] {
                if graph.has_edge(v, w) {
                    return true;
                }
            }
        }
    }
    false
}

/// All-pairs BFS distances, with [`IntMatrix::INFINITY`] for unreachable
/// pairs — the ground-truth oracle the `(min, +)` distance-product
/// protocols are checked against.
pub fn bfs_distances(graph: &Graph) -> IntMatrix {
    let n = graph.vertex_count();
    let mut out = IntMatrix::filled(n, n, IntMatrix::INFINITY);
    for s in 0..n {
        let mut queue = std::collections::VecDeque::from([s]);
        out.set(s, s, 0);
        while let Some(u) = queue.pop_front() {
            let du = out.get(s, u);
            for &v in graph.neighbors(u) {
                if out.get(s, v) == IntMatrix::INFINITY {
                    out.set(s, v, du + 1);
                    queue.push_back(v);
                }
            }
        }
    }
    out
}

/// The minimum spanning forest of a weighted graph, as computed by the
/// sequential oracle [`minimum_spanning_forest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanningForest {
    /// The forest edges as `(u, v, w)` with `u < v`, ascending by `(u, v)`.
    pub edges: Vec<(usize, usize, u64)>,
    /// Sum of the raw weights of the forest edges.
    pub total_weight: u64,
    /// Number of connected components (isolated vertices included); the
    /// forest has `n - components` edges.
    pub components: usize,
}

/// Kruskal's algorithm under the `(w, u, v)` unique-weight normalization —
/// the ground-truth oracle the distributed MST protocol is checked against.
///
/// On disconnected inputs this returns the minimum spanning *forest*: a
/// minimum spanning tree of every connected component. Because the
/// normalized weights are distinct, the forest is unique, so any correct
/// MST algorithm must return exactly [`SpanningForest::edges`] — tests can
/// compare edge sets, not just totals.
pub fn minimum_spanning_forest(graph: &WeightedGraph) -> SpanningForest {
    let n = graph.vertex_count();
    let mut edges: Vec<(usize, usize, u64)> = graph.edges().collect();
    edges.sort_unstable_by_key(|&(u, v, w)| (w, u, v));
    let mut dsu = UnionFind::new(n);
    let mut forest = Vec::new();
    let mut total_weight = 0u64;
    for (u, v, w) in edges {
        if dsu.union(u, v) {
            forest.push((u, v, w));
            total_weight += w;
            if dsu.components() == 1 {
                break;
            }
        }
    }
    forest.sort_unstable();
    SpanningForest {
        edges: forest,
        total_weight,
        components: dsu.components(),
    }
}

/// Orders pattern vertices so that each vertex (after the first) is adjacent
/// to an earlier one whenever the pattern is connected, which makes the
/// backtracking search prune early. Falls back to degree order across
/// components.
fn search_order(pattern: &Graph) -> Vec<usize> {
    let h = pattern.vertex_count();
    let mut order = Vec::with_capacity(h);
    let mut placed = vec![false; h];
    // Process components by decreasing max degree.
    let mut by_degree: Vec<usize> = (0..h).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(pattern.degree(v)));
    for &seed in &by_degree {
        if placed[seed] {
            continue;
        }
        placed[seed] = true;
        order.push(seed);
        loop {
            // Greedily pick the unplaced vertex with most placed neighbours,
            // breaking ties by degree.
            let next = (0..h)
                .filter(|&v| !placed[v])
                .map(|v| {
                    let connectivity = pattern.neighbors(v).iter().filter(|&&u| placed[u]).count();
                    (connectivity, pattern.degree(v), v)
                })
                .max_by_key(|&(c, d, _)| (c, d));
            match next {
                Some((c, _, v)) if c > 0 => {
                    placed[v] = true;
                    order.push(v);
                }
                _ => break,
            }
        }
    }
    // Any remaining isolated-or-disconnected vertices.
    for (v, &is_placed) in placed.iter().enumerate() {
        if !is_placed {
            order.push(v);
        }
    }
    order
}

fn candidate_ok(
    host: &Graph,
    pattern: &Graph,
    assignment: &[usize],
    pattern_vertex: usize,
    host_vertex: usize,
) -> bool {
    if host.degree(host_vertex) < pattern.degree(pattern_vertex) {
        return false;
    }
    for &pn in pattern.neighbors(pattern_vertex) {
        let mapped = assignment[pn];
        if mapped != usize::MAX && !host.has_edge(host_vertex, mapped) {
            return false;
        }
    }
    true
}

fn backtrack(
    host: &Graph,
    pattern: &Graph,
    order: &[usize],
    depth: usize,
    assignment: &mut Vec<usize>,
    used: &mut Vec<bool>,
) -> bool {
    if depth == order.len() {
        return true;
    }
    let pv = order[depth];
    for hv in candidate_hosts(host, pattern, assignment, pv) {
        if used[hv] || !candidate_ok(host, pattern, assignment, pv, hv) {
            continue;
        }
        assignment[pv] = hv;
        used[hv] = true;
        if backtrack(host, pattern, order, depth + 1, assignment, used) {
            return true;
        }
        assignment[pv] = usize::MAX;
        used[hv] = false;
    }
    false
}

/// Candidate host vertices for `pattern_vertex`: if some neighbour is already
/// mapped, only the host-neighbours of its image need to be considered;
/// otherwise all host vertices.
fn candidate_hosts(
    host: &Graph,
    pattern: &Graph,
    assignment: &[usize],
    pattern_vertex: usize,
) -> Vec<usize> {
    for &pn in pattern.neighbors(pattern_vertex) {
        let mapped = assignment[pn];
        if mapped != usize::MAX {
            return host.neighbors(mapped).to_vec();
        }
    }
    (0..host.vertex_count()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn empty_pattern_always_found() {
        let g = generators::cycle(5);
        assert!(contains_subgraph(&g, &Graph::empty(0)));
        assert_eq!(find_subgraph(&g, &Graph::empty(0)), Some(vec![]));
    }

    #[test]
    fn triangle_in_complete_graph() {
        let g = generators::complete(5);
        let k3 = generators::complete(3);
        let mapping = find_subgraph(&g, &k3).unwrap();
        assert_eq!(mapping.len(), 3);
        for (u, v) in k3.edges() {
            assert!(g.has_edge(mapping[u], mapping[v]));
        }
        assert!(has_triangle(&g));
        assert_eq!(triangle_count(&g), 10);
    }

    #[test]
    fn no_triangle_in_bipartite_graph() {
        let g = generators::complete_bipartite(4, 4);
        assert!(!has_triangle(&g));
        assert!(!contains_subgraph(&g, &generators::complete(3)));
        assert!(contains_subgraph(&g, &generators::cycle(4)));
        assert!(contains_subgraph(&g, &generators::complete_bipartite(2, 2)));
        assert!(!contains_subgraph(
            &g,
            &generators::complete_bipartite(5, 2)
        ));
    }

    #[test]
    fn cycle_detection_lengths() {
        let g = generators::cycle(7);
        assert!(contains_subgraph(&g, &generators::cycle(7)));
        assert!(!contains_subgraph(&g, &generators::cycle(4)));
        assert!(!contains_subgraph(&g, &generators::cycle(3)));
        assert!(contains_subgraph(&g, &generators::path(7)));
    }

    #[test]
    fn k4_detection() {
        let mut g = generators::turan_graph(12, 3);
        let k4 = generators::complete(4);
        assert!(!contains_subgraph(&g, &k4));
        // Add one edge inside a part to create a K4.
        g.add_edge(0, 3);
        assert!(contains_subgraph(&g, &k4));
    }

    #[test]
    fn planted_pattern_is_found_and_absence_detected() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let pattern = generators::complete_bipartite(2, 3);
        let host = generators::erdos_renyi(30, 0.04, &mut rng);
        let (with_copy, _) = generators::plant_copy(&host, &pattern, &mut rng);
        assert!(contains_subgraph(&with_copy, &pattern));
    }

    #[test]
    fn disconnected_pattern() {
        let two_edges = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let host = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(contains_subgraph(&host, &two_edges));
        let host_single = Graph::from_edges(2, &[(0, 1)]);
        assert!(!contains_subgraph(&host_single, &two_edges));
    }

    #[test]
    fn bfs_distances_handle_disconnection_and_paths() {
        // A path 0–1–2 plus an isolated vertex 3.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        let d = bfs_distances(&g);
        assert_eq!(d.get(0, 2), 2);
        assert_eq!(d.get(2, 0), 2);
        assert_eq!(d.get(1, 1), 0);
        assert_eq!(d.get(0, 3), IntMatrix::INFINITY);
        assert_eq!(d.get(3, 3), 0);
    }

    #[test]
    fn triangles_listing_is_sorted_and_correct() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]);
        let ts = triangles(&g);
        assert_eq!(ts, vec![(0, 1, 2), (2, 3, 4)]);
        assert_eq!(triangle_count(&g), 2);
    }

    #[test]
    fn count_matches_brute_force_on_random_graphs() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(10);
        for _ in 0..10 {
            let g = generators::erdos_renyi(8, 0.5, &mut rng);
            let brute = (0..8)
                .flat_map(|a| (a + 1..8).flat_map(move |b| (b + 1..8).map(move |c| (a, b, c))))
                .filter(|&(a, b, c)| g.has_edge(a, b) && g.has_edge(b, c) && g.has_edge(a, c))
                .count();
            assert_eq!(triangle_count(&g), brute as u64);
            assert_eq!(triangle_count(&g), triangles(&g).len() as u64);
        }
    }

    #[test]
    fn kruskal_on_a_known_instance() {
        // Classic 4-cycle with a chord: MST = {0-1, 1-2, 2-3}.
        let g =
            WeightedGraph::from_edges(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 5), (0, 2, 4)]);
        let forest = minimum_spanning_forest(&g);
        assert_eq!(forest.edges, vec![(0, 1, 1), (1, 2, 2), (2, 3, 1)]);
        assert_eq!(forest.total_weight, 4);
        assert_eq!(forest.components, 1);
    }

    #[test]
    fn kruskal_handles_forests_and_trivial_graphs() {
        // Two components plus an isolated vertex.
        let g = WeightedGraph::from_edges(5, &[(0, 1, 3), (1, 2, 1), (0, 2, 2), (3, 4, 7)]);
        let forest = minimum_spanning_forest(&g);
        assert_eq!(forest.edges, vec![(0, 2, 2), (1, 2, 1), (3, 4, 7)]);
        assert_eq!(forest.total_weight, 10);
        assert_eq!(forest.components, 2);

        let trivial = minimum_spanning_forest(&WeightedGraph::empty(1));
        assert_eq!(trivial.edges, vec![]);
        assert_eq!(trivial.components, 1);
        assert_eq!(
            minimum_spanning_forest(&WeightedGraph::empty(0)).components,
            0
        );
    }

    #[test]
    fn kruskal_tie_break_picks_lexicographically_smallest_edges() {
        // All weights equal on K4: the (w, u, v) order must pick the star
        // at vertex 0, the lexicographically smallest spanning tree.
        let g = crate::weighted::constant_weights(&generators::complete(4), 5);
        let forest = minimum_spanning_forest(&g);
        assert_eq!(forest.edges, vec![(0, 1, 5), (0, 2, 5), (0, 3, 5)]);
        assert_eq!(forest.total_weight, 15);
    }

    #[test]
    fn kruskal_weight_is_optimal_on_random_instances() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x312);
        for _ in 0..6 {
            let g = crate::weighted::weighted_erdos_renyi(9, 0.5, 6, &mut rng);
            let forest = minimum_spanning_forest(&g);
            // Spanning-forest size matches the component structure.
            assert_eq!(
                forest.edges.len(),
                g.vertex_count() - forest.components,
                "forest size vs components"
            );
            // Exhaustively check optimality over all spanning forests via
            // the cycle property: removing any forest edge and reconnecting
            // with any non-forest edge across the same cut never improves.
            for &(u, v, w) in &forest.edges {
                for (a, b, w2) in g.edges() {
                    if forest.edges.contains(&(a, b, w2)) {
                        continue;
                    }
                    let mut dsu = UnionFind::new(g.vertex_count());
                    for &(x, y, _) in forest.edges.iter().filter(|&&e| e != (u, v, w)) {
                        dsu.union(x, y);
                    }
                    // (a, b) reconnects the split iff it crosses the cut.
                    let (ra, rb, ru) = (dsu.find(a), dsu.find(b), dsu.find(u));
                    if ra != rb && (ra == ru) != (rb == ru) {
                        assert!(
                            (w2, a, b) > (w, u, v),
                            "swap ({a},{b},{w2}) for ({u},{v},{w}) would improve the forest"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pattern_larger_than_host_not_found() {
        let g = generators::complete(3);
        assert!(!contains_subgraph(&g, &generators::complete(4)));
    }
}
