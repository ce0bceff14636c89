//! The correlated edge-sampling scheme of Section 3.1 (Theorem 9 / Lemma 8).
//!
//! To detect a subgraph without knowing `ex(n, H)`, the paper samples nested
//! subgraphs `G_0 ⊇ G_1 ⊇ … ⊇ G_ℓ` of the input graph: each node `v` picks a
//! uniform value `X_v ∈ {0, …, N−1}` (where `N = 2^⌊log₂ n⌋`), and the level-
//! `j` subgraph keeps the edge `{u, v}` iff `X_u ≡ X_v (mod 2^j)`. Every edge
//! survives to level `j` with probability exactly `2^{-j}`, the edges at a
//! fixed vertex are independent, and a node only needs to learn its
//! neighbours' `X` values (`O(log n)` bits each) to know which of its edges
//! survive — this is the property that makes the sampling implementable with
//! one `O(log n)`-bit broadcast per node.

use rand::Rng;

use crate::degeneracy::degeneracy;
use crate::graph::Graph;

/// The nested sampled subgraphs `G_0, …, G_ℓ` of an input graph, determined
/// by one random value per node.
#[derive(Clone, Debug)]
pub struct SampledSubgraphs {
    /// The per-node random values `X_v ∈ {0, …, 2^ℓ − 1}`.
    pub values: Vec<u64>,
    /// `ℓ = ⌊log₂ n⌋`: the number of non-trivial levels.
    pub levels: usize,
    graph: Graph,
}

impl SampledSubgraphs {
    /// Samples fresh values `X_v` for every node of `graph`.
    pub fn sample<R: Rng + ?Sized>(graph: &Graph, rng: &mut R) -> Self {
        let n = graph.vertex_count();
        let levels = if n <= 1 {
            0
        } else {
            (n as f64).log2().floor() as usize
        };
        let modulus = 1u64 << levels;
        let values = (0..n).map(|_| rng.gen_range(0..modulus.max(1))).collect();
        Self::from_values(graph, values)
    }

    /// Builds the structure from explicit values (as the distributed protocol
    /// does after every node has broadcast its `X_v`).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the number of vertices.
    pub(crate) fn from_values(graph: &Graph, values: Vec<u64>) -> Self {
        assert_eq!(
            values.len(),
            graph.vertex_count(),
            "one sample value per vertex required"
        );
        let n = graph.vertex_count();
        let levels = if n <= 1 {
            0
        } else {
            (n as f64).log2().floor() as usize
        };
        Self {
            values,
            levels,
            graph: graph.clone(),
        }
    }

    /// The level-`j` subgraph `G_j`: edges `{u, v}` with
    /// `X_u ≡ X_v (mod 2^j)`.
    ///
    /// `G_0` is the whole input graph.
    ///
    /// # Panics
    ///
    /// Panics if `j > self.levels`.
    pub(crate) fn level(&self, j: usize) -> Graph {
        assert!(
            j <= self.levels,
            "level {j} out of range (ℓ = {})",
            self.levels
        );
        let modulus = 1u64 << j;
        self.graph
            .filter_edges(|u, v| self.values[u] % modulus == self.values[v] % modulus)
    }

    /// All levels `G_0, …, G_ℓ`.
    pub fn all_levels(&self) -> Vec<Graph> {
        (0..=self.levels).map(|j| self.level(j)).collect()
    }

    /// The degeneracy of each level, `K_0, …, K_ℓ` (the quantity bounded by
    /// Lemma 8).
    pub fn level_degeneracies(&self) -> Vec<usize> {
        self.all_levels().iter().map(degeneracy).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn level_zero_is_the_whole_graph() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::erdos_renyi(40, 0.3, &mut rng);
        let s = SampledSubgraphs::sample(&g, &mut rng);
        assert_eq!(s.level(0), g);
        assert_eq!(s.all_levels().len(), s.levels + 1);
    }

    #[test]
    fn levels_are_nested() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = generators::erdos_renyi(50, 0.4, &mut rng);
        let s = SampledSubgraphs::sample(&g, &mut rng);
        let levels = s.all_levels();
        for j in 1..levels.len() {
            for (u, v) in levels[j].edges() {
                assert!(
                    levels[j - 1].has_edge(u, v),
                    "edge ({u},{v}) at level {j} missing at level {}",
                    j - 1
                );
            }
        }
    }

    #[test]
    fn survival_probability_is_about_two_to_minus_j() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = generators::complete(128);
        let mut total_level3 = 0usize;
        let trials = 20;
        for _ in 0..trials {
            let s = SampledSubgraphs::sample(&g, &mut rng);
            total_level3 += s.level(3).edge_count();
        }
        let expected = g.edge_count() as f64 / 8.0;
        let mean = total_level3 as f64 / trials as f64;
        assert!(
            mean > expected * 0.75 && mean < expected * 1.25,
            "mean surviving edges {mean}, expected ≈ {expected}"
        );
    }

    #[test]
    fn degeneracy_shrinks_roughly_geometrically() {
        // Lemma 8: for levels with k·2^{-j} = Ω(log n) the degeneracy of G_j
        // is (1 ± 0.1)·k·2^{-j}. We test the qualitative statement with a
        // generous factor-2 tolerance on a clique (degeneracy n-1).
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let g = generators::complete(256);
        let k = 255.0;
        let s = SampledSubgraphs::sample(&g, &mut rng);
        let degs = s.level_degeneracies();
        for (j, &d) in degs.iter().enumerate().take(4) {
            let expected = k / f64::powi(2.0, j as i32);
            assert!(
                (d as f64) > expected / 2.0 && (d as f64) < expected * 2.0,
                "level {j}: degeneracy {d}, expected ≈ {expected}"
            );
        }
    }

    #[test]
    fn explicit_values_are_respected() {
        let g = generators::complete(4);
        // Values chosen so that only {0,2} agree mod 2 and mod 4.
        let s = SampledSubgraphs::from_values(&g, vec![0, 1, 4, 7]);
        let g1 = s.level(1);
        assert!(g1.has_edge(0, 2));
        assert!(g1.has_edge(1, 3));
        assert!(!g1.has_edge(0, 1));
        let g2 = s.level(2);
        assert!(g2.has_edge(0, 2));
        assert!(!g2.has_edge(1, 3));
    }

    #[test]
    fn tiny_graphs() {
        let g = Graph::empty(1);
        let s = SampledSubgraphs::from_values(&g, vec![0]);
        assert_eq!(s.levels, 0);
        assert_eq!(s.level(0).vertex_count(), 1);
    }

    #[test]
    #[should_panic(expected = "one sample value per vertex")]
    fn mismatched_values_panic() {
        let g = Graph::empty(3);
        let _ = SampledSubgraphs::from_values(&g, vec![0, 1]);
    }
}
