//! Behrend sets and Ruzsa–Szemerédi graphs.
//!
//! Theorem 24 reduces 3-party number-on-forehead set disjointness to triangle
//! detection using a family of tripartite graphs (Claim 23, due to Ruzsa and
//! Szemerédi) in which every edge lies in exactly one triangle and the number
//! of triangles is `n²/e^{O(√log n)}`. The standard explicit construction
//! goes through Behrend's large subsets of `[m]` with no 3-term arithmetic
//! progression, implemented here.

use crate::graph::Graph;

/// Computes a large subset of `{0, …, m-1}` containing no non-trivial
/// 3-term arithmetic progression (Behrend's construction).
///
/// The returned set has size `m / e^{O(√log m)}`; for small `m` the
/// construction falls back to exhaustively-known small AP-free sets so that
/// the result is never empty for `m ≥ 1`.
///
/// # Examples
///
/// ```
/// let s = clique_graphs::behrend::behrend_set(729);
/// assert!(clique_graphs::behrend::is_3ap_free(&s));
/// assert!(s.len() >= 20);
/// ```
pub fn behrend_set(m: usize) -> Vec<u64> {
    if m == 0 {
        return Vec::new();
    }
    if m <= 4 {
        // {0, 1} is AP-free (a progression needs three distinct elements);
        // include as much as fits.
        return (0..m.min(2) as u64).collect();
    }

    // For moderate m the greedy (Stanley-sequence) construction beats the
    // sphere construction by a wide margin; keep whichever is larger.
    let mut best: Vec<u64> = if m <= 1 << 15 {
        greedy_ap_free(m)
    } else {
        vec![0, 1]
    };
    // Try every dimension k up to ~2·sqrt(log2 m) and keep the best result.
    let max_k = ((m as f64).log2().sqrt() * 2.0).ceil() as usize + 1;
    for k in 1..=max_k.max(1) {
        let d = ((m as f64).powf(1.0 / k as f64) / 2.0).floor() as usize;
        if d < 2 {
            continue;
        }
        // All vectors in {0,…,d-1}^k, grouped by squared norm; the vectors of
        // any fixed norm lie on a sphere, which contains no three collinear
        // points, so mapping them to integers in base 2d (no carries when
        // adding two of them) yields an AP-free set.
        let mut by_norm: std::collections::HashMap<usize, Vec<u64>> =
            std::collections::HashMap::new();
        let mut vector = vec![0usize; k];
        loop {
            let norm: usize = vector.iter().map(|&x| x * x).sum();
            let mut value: u64 = 0;
            let base = (2 * d) as u64;
            for &digit in vector.iter().rev() {
                value = value * base + digit as u64;
            }
            if (value as usize) < m {
                by_norm.entry(norm).or_default().push(value);
            }
            // Increment the vector (odometer-style).
            let mut pos = 0;
            loop {
                if pos == k {
                    break;
                }
                vector[pos] += 1;
                if vector[pos] < d {
                    break;
                }
                vector[pos] = 0;
                pos += 1;
            }
            if pos == k {
                break;
            }
        }
        if let Some(candidate) = by_norm.into_values().max_by_key(Vec::len) {
            if candidate.len() > best.len() {
                best = candidate;
            }
        }
    }
    best.sort_unstable();
    best
}

/// Greedily builds an AP-free subset of `{0, …, m-1}` (the Stanley sequence:
/// integers with no digit 2 in base 3), of size `Θ(m^{log₃ 2}) ≈ Θ(m^{0.63})`.
fn greedy_ap_free(m: usize) -> Vec<u64> {
    let mut chosen: Vec<u64> = Vec::new();
    let mut member = vec![false; m];
    for c in 0..m as u64 {
        // Adding c (the largest element so far) creates a progression
        // a < b < c exactly when 2b - c is a chosen element for some chosen b.
        let creates_ap = chosen.iter().any(|&b| {
            let a2 = 2 * b;
            a2 >= c && a2 - c < b && member[(a2 - c) as usize]
        });
        if !creates_ap {
            member[c as usize] = true;
            chosen.push(c);
        }
    }
    chosen
}

/// Returns `true` if `set` contains no non-trivial 3-term arithmetic
/// progression `a, a+s, a+2s` with `s > 0`.
pub fn is_3ap_free(set: &[u64]) -> bool {
    let elements: std::collections::HashSet<u64> = set.iter().copied().collect();
    for (i, &a) in set.iter().enumerate() {
        for &b in set.iter().skip(i + 1) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            if lo == hi {
                continue;
            }
            let diff = hi - lo;
            if elements.contains(&(hi + diff)) {
                return false;
            }
        }
    }
    true
}

/// A Ruzsa–Szemerédi tripartite graph together with its triangle structure.
///
/// The graph has parts `A = {0,…,m-1}`, `B = {m,…,3m-1}`, `C = {3m,…,6m-1}`
/// and, for every `x ∈ [m]` and `s` in a Behrend set `S ⊆ [m]`, the triangle
/// `{A_x, B_{x+s}, C_{x+2s}}`. Every edge lies in exactly one of these
/// triangles, and because `S` is 3-AP-free these are the *only* triangles of
/// the graph — exactly the properties required by Claim 23 and Theorem 24.
#[derive(Clone, Debug)]
pub struct RuzsaSzemeredi {
    /// The underlying tripartite graph on `6m` vertices.
    pub graph: Graph,
    /// The designated edge-disjoint triangles `(a, b, c)` by vertex id.
    pub(crate) triangles: Vec<(usize, usize, usize)>,
    /// The parameter `m` (size of part `A`).
    pub(crate) m: usize,
}

impl RuzsaSzemeredi {
    /// Builds the Ruzsa–Szemerédi graph with parameter `m`.
    pub fn new(m: usize) -> Self {
        let behrend = behrend_set(m);
        let mut graph = Graph::empty(6 * m);
        let mut triangles = Vec::with_capacity(m * behrend.len());
        for x in 0..m {
            for &s in &behrend {
                let s = s as usize;
                let a = x;
                let b = m + x + s; // x+s < 2m
                let c = 3 * m + x + 2 * s; // x+2s < 3m
                graph.add_edge(a, b);
                graph.add_edge(b, c);
                graph.add_edge(a, c);
                triangles.push((a, b, c));
            }
        }
        Self {
            graph,
            triangles,
            m,
        }
    }

    /// Number of vertices of the graph.
    pub fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of designated (and, in fact, of all) triangles.
    pub fn triangle_count(&self) -> usize {
        self.triangles.len()
    }

    /// Index lookup: for an edge of the graph, the unique designated triangle
    /// containing it, as an index into the designated triangles. Returns `None`
    /// for pairs that are not edges.
    pub fn triangle_of_edge(&self, u: usize, v: usize) -> Option<usize> {
        // Every edge belongs to exactly one designated triangle, so a linear
        // index keyed by the sorted pair suffices.
        let key = if u < v { (u, v) } else { (v, u) };
        self.edge_index().get(&key).copied()
    }

    fn edge_index(&self) -> std::collections::HashMap<(usize, usize), usize> {
        let mut map = std::collections::HashMap::new();
        for (idx, &(a, b, c)) in self.triangles.iter().enumerate() {
            for (u, v) in [(a, b), (b, c), (a, c)] {
                let key = if u < v { (u, v) } else { (v, u) };
                map.insert(key, idx);
            }
        }
        map
    }

    /// Part sizes `(|A|, |B|, |C|)` as vertex-id ranges.
    pub fn parts(
        &self,
    ) -> (
        std::ops::Range<usize>,
        std::ops::Range<usize>,
        std::ops::Range<usize>,
    ) {
        (0..self.m, self.m..3 * self.m, 3 * self.m..6 * self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iso::triangles;

    #[test]
    fn behrend_sets_are_ap_free_and_nonempty() {
        for m in [1usize, 2, 5, 10, 64, 200, 729, 2048] {
            let s = behrend_set(m);
            assert!(!s.is_empty(), "Behrend set empty for m = {m}");
            assert!(is_3ap_free(&s), "Behrend set has a 3-AP for m = {m}");
            assert!(s.iter().all(|&x| (x as usize) < m));
            // Sorted and duplicate-free.
            assert!(s.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn behrend_sets_grow_superlinearly_in_practice() {
        // The construction should clearly beat the trivial {0, 1} answer and
        // grow with m.
        let small = behrend_set(100).len();
        let large = behrend_set(10_000).len();
        assert!(small >= 5, "|S(100)| = {small}");
        assert!(large >= 40, "|S(10000)| = {large}");
        assert!(large > small);
    }

    #[test]
    fn ap_detector_works() {
        assert!(is_3ap_free(&[]));
        assert!(is_3ap_free(&[5]));
        assert!(is_3ap_free(&[1, 2]));
        assert!(!is_3ap_free(&[1, 2, 3]));
        assert!(!is_3ap_free(&[0, 4, 8]));
        assert!(is_3ap_free(&[0, 1, 3, 4, 9]));
    }

    #[test]
    fn ruzsa_szemeredi_structure() {
        let rs = RuzsaSzemeredi::new(30);
        assert_eq!(rs.vertex_count(), 180);
        assert_eq!(rs.triangle_count(), 30 * behrend_set(30).len());
        // Every designated triangle is a triangle of the graph.
        for &(a, b, c) in &rs.triangles {
            assert!(rs.graph.has_edge(a, b));
            assert!(rs.graph.has_edge(b, c));
            assert!(rs.graph.has_edge(a, c));
        }
        // Edge-disjointness: 3 * #triangles = #edges.
        assert_eq!(rs.graph.edge_count(), 3 * rs.triangle_count());
    }

    #[test]
    fn ruzsa_szemeredi_has_no_extra_triangles() {
        let rs = RuzsaSzemeredi::new(20);
        let all = triangles(&rs.graph);
        assert_eq!(all.len(), rs.triangle_count());
        let designated: std::collections::HashSet<(usize, usize, usize)> = rs
            .triangles
            .iter()
            .map(|&(a, b, c)| {
                let mut t = [a, b, c];
                t.sort_unstable();
                (t[0], t[1], t[2])
            })
            .collect();
        for t in all {
            assert!(designated.contains(&t), "unexpected triangle {t:?}");
        }
    }

    #[test]
    fn triangle_of_edge_lookup() {
        let rs = RuzsaSzemeredi::new(12);
        for (idx, &(a, b, c)) in rs.triangles.iter().enumerate() {
            assert_eq!(rs.triangle_of_edge(a, b), Some(idx));
            assert_eq!(rs.triangle_of_edge(c, b), Some(idx));
            assert_eq!(rs.triangle_of_edge(a, c), Some(idx));
        }
        assert_eq!(rs.triangle_of_edge(0, 1), None); // both in part A
    }

    #[test]
    fn parts_are_disjoint_ranges() {
        let rs = RuzsaSzemeredi::new(8);
        let (a, b, c) = rs.parts();
        assert_eq!(a.len(), 8);
        assert_eq!(b.len(), 16);
        assert_eq!(c.len(), 24);
        assert!(a.end <= b.start && b.end <= c.start);
    }

    #[test]
    fn empty_parameter() {
        let rs = RuzsaSzemeredi::new(0);
        assert_eq!(rs.vertex_count(), 0);
        assert_eq!(rs.triangle_count(), 0);
    }
}
