//! Explicit dense pattern-free graphs.
//!
//! The lower-bound constructions of Section 3.2 build a template graph `G'`
//! around a dense `H`-free graph `F`: the denser `F` is, the larger the set
//! disjointness instance and hence the stronger the round lower bound of
//! Lemma 13. This module provides the explicit families used in the paper:
//!
//! * the complete bipartite graph `K_{N/2,N/2}` (extremal for odd cycles and
//!   used in Lemma 14/18),
//! * the Erdős–Rényi *polarity graph* `ER_q` on `q² + q + 1` vertices, a
//!   `C₄`-free graph with `≈ ½·q(q+1)²` edges (asymptotically extremal,
//!   used for Theorem 19 with `ℓ = 4`),
//! * the point–line *incidence graph* of the projective plane `PG(2, q)`,
//!   a bipartite `C₄`-free graph with `(q+1)(q²+q+1)` edges (Observation 20 /
//!   Lemma 21),
//! * a greedy randomized `C_ℓ`-free graph for even `ℓ ≥ 6`, where no simple
//!   explicit extremal construction exists (the lower-bound graph only needs
//!   *some* dense `C_ℓ`-free graph; density affects the bound's strength,
//!   not its validity).

use rand::seq::SliceRandom;
use rand::Rng;

use crate::generators;
use crate::graph::Graph;
use crate::iso::contains_subgraph;

/// Returns `true` if `q` is prime.
pub(crate) fn is_prime(q: usize) -> bool {
    if q < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= q {
        if q.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// Projective points of `PG(2, q)`: canonical representatives of nonzero
/// vectors in `F_q³` up to scalar multiples. Returns `q² + q + 1` triples.
fn projective_points(q: usize) -> Vec<[usize; 3]> {
    let mut points = Vec::with_capacity(q * q + q + 1);
    // Canonical forms: (1, y, z), (0, 1, z), (0, 0, 1).
    for y in 0..q {
        for z in 0..q {
            points.push([1, y, z]);
        }
    }
    for z in 0..q {
        points.push([0, 1, z]);
    }
    points.push([0, 0, 1]);
    points
}

fn dot_mod(a: &[usize; 3], b: &[usize; 3], q: usize) -> usize {
    (a[0] * b[0] + a[1] * b[1] + a[2] * b[2]) % q
}

/// The Erdős–Rényi polarity graph `ER_q` for a prime `q`.
///
/// Vertices are the `q² + q + 1` points of `PG(2, q)`; two distinct points
/// `u ≠ v` are adjacent iff `u · v ≡ 0 (mod q)`. The graph contains no `C₄`
/// and has `½(q+1)(q²+q+1) − O(q)` edges, which is `(½ − o(1))·n^{3/2}`.
///
/// # Panics
///
/// Panics if `q` is not prime.
pub(crate) fn polarity_graph(q: usize) -> Graph {
    assert!(is_prime(q), "polarity graph requires a prime q, got {q}");
    let points = projective_points(q);
    let n = points.len();
    let mut g = Graph::empty(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if dot_mod(&points[i], &points[j], q) == 0 {
                g.add_edge(i, j);
            }
        }
    }
    g
}

/// The point–line incidence graph of `PG(2, q)` for a prime `q`: a bipartite
/// graph on `2(q² + q + 1)` vertices (points on one side, lines on the
/// other) with `(q+1)(q²+q+1)` edges and girth 6, hence `C₄`-free.
///
/// # Panics
///
/// Panics if `q` is not prime.
pub(crate) fn projective_incidence_graph(q: usize) -> Graph {
    assert!(is_prime(q), "incidence graph requires a prime q, got {q}");
    let points = projective_points(q);
    let lines = projective_points(q); // lines are also projective triples
    let np = points.len();
    let mut g = Graph::empty(2 * np);
    for (i, p) in points.iter().enumerate() {
        for (j, l) in lines.iter().enumerate() {
            if dot_mod(p, l, q) == 0 {
                g.add_edge(i, np + j);
            }
        }
    }
    g
}

/// A dense `C₄`-free graph on exactly `n` vertices: the polarity graph of
/// the largest suitable prime, padded with isolated vertices.
///
/// Returns the empty graph when `n < 7` (the smallest polarity graph has
/// `2² + 2 + 1 = 7` vertices).
pub fn dense_c4_free(n: usize) -> Graph {
    let mut best = Graph::empty(n);
    let mut q = 2usize;
    while q * q + q < n {
        if is_prime(q) {
            let core = polarity_graph(q);
            let mut padded = Graph::empty(n);
            for (u, v) in core.edges() {
                padded.add_edge(u, v);
            }
            best = padded;
        }
        q += 1;
    }
    best
}

/// A dense *bipartite* `C₄`-free graph on exactly `n` vertices (the
/// incidence graph of the largest suitable projective plane, padded), as
/// required by Observation 20 and Lemma 21.
pub fn dense_bipartite_c4_free(n: usize) -> Graph {
    let mut best = Graph::empty(n);
    let mut q = 2usize;
    while 2 * (q * q + q + 1) <= n {
        if is_prime(q) {
            let core = projective_incidence_graph(q);
            let mut padded = Graph::empty(n);
            for (u, v) in core.edges() {
                padded.add_edge(u, v);
            }
            best = padded;
        }
        q += 1;
    }
    best
}

/// A dense `C_ℓ`-free graph on `n` vertices.
///
/// * odd `ℓ`: the complete bipartite graph `K_{⌊n/2⌋,⌈n/2⌉}` (extremal),
/// * `ℓ = 4`: the polarity graph (asymptotically extremal),
/// * even `ℓ ≥ 6`: a greedy randomized construction (dense but not
///   extremal; see the module documentation).
///
/// # Panics
///
/// Panics if `l < 3`.
pub fn dense_cycle_free<R: Rng + ?Sized>(n: usize, l: usize, rng: &mut R) -> Graph {
    assert!(l >= 3, "cycles have at least 3 vertices");
    if l % 2 == 1 {
        generators::complete_bipartite(n / 2, n - n / 2)
    } else if l == 4 {
        dense_c4_free(n)
    } else {
        greedy_pattern_free(n, &generators::cycle(l), 4 * n, rng)
    }
}

/// Greedily builds a graph on `n` vertices containing no copy of `pattern`:
/// random candidate edges are inserted and kept only if they do not create a
/// copy of the pattern. `attempts` bounds the number of candidate edges
/// tried.
pub fn greedy_pattern_free<R: Rng + ?Sized>(
    n: usize,
    pattern: &Graph,
    attempts: usize,
    rng: &mut R,
) -> Graph {
    let mut g = Graph::empty(n);
    if n < 2 {
        return g;
    }
    let mut pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .collect();
    pairs.shuffle(rng);
    for &(u, v) in pairs.iter().take(attempts.min(pairs.len())) {
        g.add_edge(u, v);
        if contains_subgraph(&g, pattern) {
            g.remove_edge(u, v);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::cycle;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn primality() {
        assert!(!is_prime(0));
        assert!(!is_prime(1));
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(!is_prime(9));
        assert!(is_prime(13));
        assert!(!is_prime(91));
    }

    #[test]
    fn projective_points_count() {
        for q in [2usize, 3, 5] {
            assert_eq!(projective_points(q).len(), q * q + q + 1);
        }
    }

    #[test]
    fn polarity_graph_is_c4_free_and_dense() {
        for q in [2usize, 3, 5] {
            let g = polarity_graph(q);
            let n = q * q + q + 1;
            assert_eq!(g.vertex_count(), n);
            assert!(
                !contains_subgraph(&g, &cycle(4)),
                "ER_{q} must not contain C4"
            );
            // Each point lies on q+1 lines; discounting absolute points the
            // edge count is at least (n(q+1) - 2n)/2.
            let min_edges = (n * (q + 1)).saturating_sub(2 * n) / 2;
            assert!(
                g.edge_count() >= min_edges,
                "ER_{q} has {} edges, expected at least {min_edges}",
                g.edge_count()
            );
        }
    }

    #[test]
    fn incidence_graph_is_bipartite_c4_free() {
        for q in [2usize, 3] {
            let g = projective_incidence_graph(q);
            let n = q * q + q + 1;
            assert_eq!(g.vertex_count(), 2 * n);
            assert_eq!(g.edge_count(), (q + 1) * n);
            assert!(g.is_bipartite());
            assert!(!contains_subgraph(&g, &cycle(4)));
            // Girth 6: it does contain a C6.
            assert!(contains_subgraph(&g, &cycle(6)));
        }
    }

    #[test]
    #[should_panic(expected = "prime")]
    fn polarity_rejects_composite() {
        let _ = polarity_graph(4);
    }

    #[test]
    fn dense_c4_free_padding() {
        let g = dense_c4_free(40); // largest fit: q=5 -> 31 vertices
        assert_eq!(g.vertex_count(), 40);
        assert!(!contains_subgraph(&g, &cycle(4)));
        assert!(g.edge_count() >= 70);
        assert_eq!(dense_c4_free(5).edge_count(), 0);
    }

    #[test]
    fn dense_bipartite_c4_free_properties() {
        let g = dense_bipartite_c4_free(30); // q=3 -> 26 vertices used
        assert_eq!(g.vertex_count(), 30);
        assert!(g.is_bipartite());
        assert!(!contains_subgraph(&g, &cycle(4)));
        assert!(g.edge_count() >= 4 * 13);
    }

    #[test]
    fn dense_cycle_free_is_cycle_free() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for l in [3usize, 4, 5, 6] {
            let g = dense_cycle_free(24, l, &mut rng);
            assert!(
                !contains_subgraph(&g, &cycle(l)),
                "construction for C{l} contains C{l}"
            );
            assert!(g.edge_count() > 0);
        }
        // Odd-cycle-free graphs should be the dense bipartite graph.
        let g5 = dense_cycle_free(20, 5, &mut rng);
        assert_eq!(g5.edge_count(), 100);
    }

    #[test]
    fn greedy_pattern_free_respects_pattern() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let pattern = crate::generators::complete(3);
        let g = greedy_pattern_free(20, &pattern, 400, &mut rng);
        assert!(!contains_subgraph(&g, &pattern));
        assert!(
            g.edge_count() >= 20,
            "greedy triangle-free graph too sparse"
        );
    }
}
