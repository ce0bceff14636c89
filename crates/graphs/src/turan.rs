//! Fixed subgraph patterns and Turán-number bounds.
//!
//! The upper bound of Theorem 7 runs the reconstruction protocol with
//! degeneracy parameter `Θ(ex(n, H)/n)`, so the detection algorithms need a
//! per-pattern estimate of the Turán number `ex(n, H)` (Definition 5 /
//! Definition 17). [`Pattern`] names the pattern families used throughout
//! the paper and [`Pattern::ex_upper_bound`] returns the standard upper
//! bounds from extremal graph theory that the paper quotes:
//!
//! * odd cycles and non-bipartite `H` in general: `ex(n, H) = Θ(n²)`,
//! * the 4-cycle: `ex(n, C₄) = Θ(n^{3/2})`,
//! * even cycles `C_{2ℓ}`: `ex(n, C_{2ℓ}) = O(n^{1+1/ℓ})` (Bondy–Simonovits),
//! * `K_{r,s}` with `2 ≤ r ≤ s`: `ex(n, K_{r,s}) = O(n^{2−1/r})`
//!   (Kővári–Sós–Turán),
//! * trees/forests on `k` vertices: `ex(n, H) ≤ (k−2)·n` (Erdős–Gallai).

use crate::generators;
use crate::graph::Graph;

/// A fixed pattern graph `H` for the `H`-subgraph-detection problem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// The clique `K_ℓ`.
    Clique(usize),
    /// The cycle `C_ℓ` (`ℓ ≥ 3`).
    Cycle(usize),
    /// The complete bipartite graph `K_{ℓ,m}`.
    CompleteBipartite(usize, usize),
    /// The path on `k` vertices.
    Path(usize),
    /// The star `K_{1,k}`.
    Star(usize),
    /// An arbitrary fixed pattern.
    Custom(Graph),
}

impl Pattern {
    /// The pattern as a concrete graph.
    pub fn graph(&self) -> Graph {
        match self {
            Pattern::Clique(l) => generators::complete(*l),
            Pattern::Cycle(l) => generators::cycle(*l),
            Pattern::CompleteBipartite(l, m) => generators::complete_bipartite(*l, *m),
            Pattern::Path(k) => generators::path(*k),
            Pattern::Star(k) => generators::star(*k),
            Pattern::Custom(g) => g.clone(),
        }
    }

    /// Returns `true` if the pattern is bipartite (contains no odd cycle).
    ///
    /// Non-bipartite patterns have `ex(n, H) = Θ(n²)`, for which Theorem 7
    /// gives only the trivial `O(n log n / b)` upper bound.
    pub(crate) fn is_bipartite(&self) -> bool {
        match self {
            Pattern::Clique(l) => *l <= 2,
            Pattern::Cycle(l) => *l == 0 || l % 2 == 0,
            Pattern::CompleteBipartite(_, _) | Pattern::Path(_) | Pattern::Star(_) => true,
            Pattern::Custom(g) => g.is_bipartite(),
        }
    }

    /// Returns `true` if the pattern is a forest (`ex(n, H) = O(n)`).
    pub(crate) fn is_forest(&self) -> bool {
        match self {
            Pattern::Clique(l) => *l <= 2,
            Pattern::Cycle(l) => *l < 3,
            Pattern::CompleteBipartite(l, m) => l.min(m) <= &1,
            Pattern::Path(_) | Pattern::Star(_) => true,
            Pattern::Custom(g) => {
                let g = g.clone();
                g.edge_count() < g.vertex_count() && is_acyclic(&g)
            }
        }
    }

    /// A standard upper bound on the Turán number `ex(n, H)`, as a real
    /// number.
    ///
    /// These are the bounds quoted in Section 3.1 of the paper; they are
    /// used to choose the degeneracy threshold `4·ex(n, H)/n` of Claim 6 and
    /// the round budget of Theorem 7. For custom patterns the bound falls
    /// back to the Kővári–Sós–Turán bound through the largest complete
    /// bipartite subpattern when bipartite, and to `n²/2` otherwise.
    pub fn ex_upper_bound(&self, n: usize) -> f64 {
        let nf = n as f64;
        if n <= 1 {
            return 0.0;
        }
        match self {
            Pattern::Clique(l) => {
                if *l <= 2 {
                    0.0
                } else {
                    // Turán's theorem: ex(n, K_ℓ) = (1 - 1/(ℓ-1)) n²/2.
                    (1.0 - 1.0 / (*l as f64 - 1.0)) * nf * nf / 2.0
                }
            }
            Pattern::Cycle(l) => {
                if *l < 3 {
                    0.0
                } else if l % 2 == 1 {
                    // Odd cycles: the extremal graph is K_{n/2,n/2}.
                    (nf / 2.0) * (nf / 2.0)
                } else {
                    // Bondy–Simonovits: ex(n, C_{2ℓ}) ≤ c·n^{1 + 1/ℓ}; the
                    // constant is ≤ 100·ℓ in general and ≤ 1/2·(1+o(1)) for
                    // C4. We use the clean form n^{1+1/ℓ}.
                    let half = (*l / 2) as f64;
                    nf.powf(1.0 + 1.0 / half)
                }
            }
            Pattern::CompleteBipartite(l, m) => {
                let (r, s) = if l <= m { (*l, *m) } else { (*m, *l) };
                if r <= 1 {
                    // K_{1,s} is a star: ex(n, K_{1,s}) = (s-1)n/2.
                    (s as f64 - 1.0) * nf / 2.0
                } else {
                    // Kővári–Sós–Turán:
                    // ex(n, K_{r,s}) ≤ ½ ((s-1)^{1/r} (n - r + 1) n^{1-1/r} + (r-1) n).
                    let rf = r as f64;
                    let sf = s as f64;
                    0.5 * ((sf - 1.0).powf(1.0 / rf) * (nf - rf + 1.0) * nf.powf(1.0 - 1.0 / rf)
                        + (rf - 1.0) * nf)
                }
            }
            Pattern::Path(k) => {
                if *k <= 2 {
                    0.0
                } else {
                    // Erdős–Gallai: ex(n, P_k) ≤ (k-2)/2 · n.
                    (*k as f64 - 2.0) / 2.0 * nf
                }
            }
            Pattern::Star(k) => {
                if *k == 0 {
                    0.0
                } else {
                    (*k as f64 - 1.0) * nf / 2.0
                }
            }
            Pattern::Custom(g) => {
                if g.edge_count() == 0 {
                    0.0
                } else if self.is_forest() {
                    (g.vertex_count() as f64 - 1.0) * nf
                } else if self.is_bipartite() {
                    // Any bipartite H with parts of size a ≤ b is a subgraph
                    // of K_{a,b}, so ex(n, H) ≤ ex(n, K_{a,b}).
                    let coloring = g.bipartition().expect("pattern is bipartite");
                    let a = coloring.iter().filter(|&&c| c).count();
                    let b = g.vertex_count() - a;
                    Pattern::CompleteBipartite(a.min(b).max(1), a.max(b).max(1)).ex_upper_bound(n)
                } else {
                    nf * nf / 2.0
                }
            }
        }
    }

    /// The degeneracy threshold `⌈4·ex(n, H)/n⌉` used by Claim 6 and
    /// Theorem 7 (at least 1).
    pub fn degeneracy_threshold(&self, n: usize) -> usize {
        if n == 0 {
            return 1;
        }
        ((4.0 * self.ex_upper_bound(n) / n as f64).ceil() as usize).max(1)
    }

    /// A short human-readable name (e.g. `"K4"`, `"C6"`, `"K2,3"`).
    pub fn name(&self) -> String {
        match self {
            Pattern::Clique(l) => format!("K{l}"),
            Pattern::Cycle(l) => format!("C{l}"),
            Pattern::CompleteBipartite(l, m) => format!("K{l},{m}"),
            Pattern::Path(k) => format!("P{k}"),
            Pattern::Star(k) => format!("K1,{k}"),
            Pattern::Custom(g) => format!("H(n={},m={})", g.vertex_count(), g.edge_count()),
        }
    }
}

impl std::fmt::Display for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

fn is_acyclic(g: &Graph) -> bool {
    // A forest has fewer edges than vertices in every connected component;
    // simplest check: run a DFS counting edges vs vertices per component.
    let n = g.vertex_count();
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut stack = vec![start];
        seen[start] = true;
        let mut vertices = 0usize;
        let mut edge_endpoints = 0usize;
        while let Some(u) = stack.pop() {
            vertices += 1;
            edge_endpoints += g.degree(u);
            for &v in g.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        if edge_endpoints / 2 >= vertices {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iso::contains_subgraph;

    #[test]
    fn pattern_graphs_have_expected_shape() {
        assert_eq!(Pattern::Clique(4).graph().edge_count(), 6);
        assert_eq!(Pattern::Cycle(5).graph().edge_count(), 5);
        assert_eq!(Pattern::CompleteBipartite(2, 3).graph().edge_count(), 6);
        assert_eq!(Pattern::Path(4).graph().edge_count(), 3);
        assert_eq!(Pattern::Star(6).graph().edge_count(), 6);
    }

    #[test]
    fn bipartiteness_classification() {
        assert!(!Pattern::Clique(3).is_bipartite());
        assert!(!Pattern::Cycle(5).is_bipartite());
        assert!(Pattern::Cycle(6).is_bipartite());
        assert!(Pattern::CompleteBipartite(3, 3).is_bipartite());
        assert!(Pattern::Path(9).is_bipartite());
        assert!(Pattern::Custom(generators::cycle(4)).is_bipartite());
        assert!(!Pattern::Custom(generators::complete(3)).is_bipartite());
    }

    #[test]
    fn forest_classification() {
        assert!(Pattern::Path(5).is_forest());
        assert!(Pattern::Star(5).is_forest());
        assert!(!Pattern::Cycle(4).is_forest());
        assert!(!Pattern::Clique(3).is_forest());
        assert!(Pattern::CompleteBipartite(1, 4).is_forest());
        assert!(!Pattern::CompleteBipartite(2, 2).is_forest());
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x7EE5);
        assert!(Pattern::Custom(generators::random_tree(10, &mut rng)).is_forest());
    }

    #[test]
    fn turan_bounds_have_right_order_of_magnitude() {
        let n = 1_000usize;
        let nf = n as f64;
        // Cliques: Θ(n²).
        assert!(Pattern::Clique(4).ex_upper_bound(n) > 0.3 * nf * nf);
        // C4: Θ(n^{3/2}).
        let c4 = Pattern::Cycle(4).ex_upper_bound(n);
        assert!(c4 >= nf.powf(1.5) * 0.9 && c4 <= nf.powf(1.6));
        // C6: O(n^{4/3}).
        let c6 = Pattern::Cycle(6).ex_upper_bound(n);
        assert!(c6 <= nf.powf(1.4));
        // Odd cycles: Θ(n²).
        assert!(Pattern::Cycle(5).ex_upper_bound(n) >= nf * nf / 4.0 * 0.99);
        // Trees: O(n).
        assert!(Pattern::Path(5).ex_upper_bound(n) <= 2.0 * nf);
        assert!(Pattern::Star(4).ex_upper_bound(n) <= 2.0 * nf);
        // K_{2,2} matches C4 order.
        let k22 = Pattern::CompleteBipartite(2, 2).ex_upper_bound(n);
        assert!(k22 <= nf.powf(1.6) && k22 >= 0.3 * nf.powf(1.5));
    }

    #[test]
    fn turan_bound_is_actually_an_upper_bound_for_small_cases() {
        // For very small n we can verify ex(n, H) exhaustively against the
        // bound for a few patterns by checking the complete graph minus
        // nothing: any H-free graph has at most the bound many edges.
        // Here we verify the weaker but meaningful statement that known
        // extremal constructions do not exceed the bound.
        let turan = generators::turan_graph(10, 2); // K3-free
        assert!(!contains_subgraph(&turan, &Pattern::Clique(3).graph()));
        assert!(turan.edge_count() as f64 <= Pattern::Clique(3).ex_upper_bound(10) + 1e-9);

        let c4free = crate::extremal::dense_c4_free(31);
        assert!(!contains_subgraph(&c4free, &Pattern::Cycle(4).graph()));
        assert!(c4free.edge_count() as f64 <= Pattern::Cycle(4).ex_upper_bound(31) + 31.0);
    }

    #[test]
    fn degeneracy_threshold_positive_and_monotone_in_pattern_density() {
        let n = 256;
        let t_tree = Pattern::Path(4).degeneracy_threshold(n);
        let t_c4 = Pattern::Cycle(4).degeneracy_threshold(n);
        let t_k4 = Pattern::Clique(4).degeneracy_threshold(n);
        assert!(t_tree >= 1);
        assert!(t_tree < t_c4);
        assert!(t_c4 < t_k4);
        assert_eq!(Pattern::Clique(4).degeneracy_threshold(0), 1);
    }

    #[test]
    fn names_and_display() {
        assert_eq!(Pattern::Clique(4).name(), "K4");
        assert_eq!(Pattern::Cycle(6).to_string(), "C6");
        assert_eq!(Pattern::CompleteBipartite(2, 3).name(), "K2,3");
        assert_eq!(Pattern::Star(3).name(), "K1,3");
        assert!(Pattern::Custom(generators::path(3))
            .name()
            .starts_with("H("));
    }

    #[test]
    fn custom_bipartite_pattern_bound_uses_kst() {
        let h = Pattern::Custom(generators::cycle(4));
        let direct = Pattern::CompleteBipartite(2, 2).ex_upper_bound(500);
        assert!((h.ex_upper_bound(500) - direct).abs() < 1e-9);
    }
}
