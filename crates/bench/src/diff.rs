//! Differential oracle testing: protocols vs. sequential reference code.
//!
//! The protocols in `clique-core` all have cheap sequential oracles
//! (`iso::triangle_count`, `iso::bfs_distances`,
//! `iso::minimum_spanning_forest`, …). This module provides the shared
//! harness that pins a protocol to its oracle over a *seeded grid* of graph
//! families: every case is labelled `(family, n, seed)` so a failure
//! reproduces with one generator call, and all mismatches in a grid are
//! collected before the harness panics, so one run shows the whole failure
//! pattern rather than its first point.
//!
//! The grids are deterministic (seeded [`ChaCha8Rng`] per case), so the
//! same cases run in the oracle-grid integration test, through the job
//! server at 1 and 4 workers, and in CI.

use clique_core::graphs::weighted::{self, WeightedGraph};
use clique_core::graphs::{generators, Graph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::fmt::Debug;

/// One grid point: a generated input labelled by how to regenerate it.
#[derive(Clone, Debug)]
pub struct LabeledCase<I> {
    /// Generator family name, e.g. `"erdos_renyi(p=0.2)"`.
    pub family: &'static str,
    /// Number of vertices of the generated graph.
    pub n: usize,
    /// The RNG seed the case was generated from (0 for deterministic
    /// families).
    pub seed: u64,
    /// The generated input itself.
    pub input: I,
}

impl<I> LabeledCase<I> {
    fn label(&self) -> String {
        format!(
            "(family: {}, n: {}, seed: {:#x})",
            self.family, self.n, self.seed
        )
    }
}

/// The standard unweighted grid: deterministic families at every size plus
/// seeded random families at every `(size, seed)` pair.
pub fn unweighted_grid(sizes: &[usize], seeds: &[u64]) -> Vec<LabeledCase<Graph>> {
    let mut cases = Vec::new();
    for &n in sizes {
        for (family, input) in [
            ("path", generators::path(n)),
            ("cycle", generators::cycle(n)),
            ("star", generators::star(n.saturating_sub(1))),
            ("complete", generators::complete(n)),
        ] {
            cases.push(LabeledCase {
                family,
                n,
                seed: 0,
                input,
            });
        }
        for &seed in seeds {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for (family, input) in [
                (
                    "erdos_renyi(p=0.15)",
                    generators::erdos_renyi(n, 0.15, &mut rng),
                ),
                (
                    "erdos_renyi(p=0.5)",
                    generators::erdos_renyi(n, 0.5, &mut rng),
                ),
                ("random_tree", generators::random_tree(n, &mut rng)),
            ] {
                cases.push(LabeledCase {
                    family,
                    n,
                    seed,
                    input,
                });
            }
        }
    }
    cases
}

/// The standard weighted grid over the same family mix, with weights drawn
/// uniformly from `1..=max_weight` (small `max_weight` forces duplicate
/// weights, exercising the `(w, u, v)` tie-break).
pub fn weighted_grid(
    sizes: &[usize],
    seeds: &[u64],
    max_weight: u64,
) -> Vec<LabeledCase<WeightedGraph>> {
    let mut cases = Vec::new();
    for &n in sizes {
        for &seed in seeds {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            for (family, input) in [
                (
                    "weighted_path",
                    weighted::weighted_path(n, max_weight, &mut rng),
                ),
                (
                    "weighted_cycle",
                    weighted::weighted_cycle(n, max_weight, &mut rng),
                ),
                (
                    "weighted_star",
                    weighted::weighted_star(n.saturating_sub(1), max_weight, &mut rng),
                ),
                (
                    "weighted_random_tree",
                    weighted::weighted_random_tree(n, max_weight, &mut rng),
                ),
                (
                    "weighted_erdos_renyi(p=0.2)",
                    weighted::weighted_erdos_renyi(n, 0.2, max_weight, &mut rng),
                ),
                (
                    "constant_weights(complete)",
                    weighted::constant_weights(&generators::complete(n), max_weight),
                ),
            ] {
                cases.push(LabeledCase {
                    family,
                    n,
                    seed,
                    input,
                });
            }
        }
    }
    cases
}

/// Runs `protocol` and `oracle` on every case and panics with the full list
/// of failing `(family, n, seed)` labels if any outputs differ.
///
/// `what` names the comparison in the failure report (e.g.
/// `"MstProtocol vs Kruskal"`).
///
/// # Panics
///
/// Panics if any grid point mismatches, listing every failing case.
pub fn assert_protocol_matches_oracle<I, O, P, Q>(
    what: &str,
    cases: &[LabeledCase<I>],
    mut protocol: P,
    mut oracle: Q,
) where
    O: PartialEq + Debug,
    P: FnMut(&I) -> O,
    Q: FnMut(&I) -> O,
{
    let mut failures = Vec::new();
    for case in cases {
        let got = protocol(&case.input);
        let want = oracle(&case.input);
        if got != want {
            failures.push(format!(
                "  {}: protocol produced {:?}, oracle produced {:?}",
                case.label(),
                got,
                want
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{what}: {} of {} grid cases disagree with the oracle:\n{}",
        failures.len(),
        cases.len(),
        failures.join("\n")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_deterministic() {
        let a = unweighted_grid(&[6, 9], &[1, 2]);
        let b = unweighted_grid(&[6, 9], &[1, 2]);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.family, x.n, x.seed), (y.family, y.n, y.seed));
            assert_eq!(x.input, y.input);
        }
        let a = weighted_grid(&[6], &[3], 4);
        let b = weighted_grid(&[6], &[3], 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.input.edges().collect::<Vec<_>>(),
                y.input.edges().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn matching_outputs_pass() {
        let cases = unweighted_grid(&[5], &[7]);
        assert_protocol_matches_oracle(
            "edge count vs itself",
            &cases,
            |g: &Graph| g.edge_count(),
            |g: &Graph| g.edge_count(),
        );
    }

    #[test]
    fn mismatches_report_family_size_and_seed() {
        let cases = vec![LabeledCase {
            family: "star",
            n: 4,
            seed: 0xABC,
            input: generators::star(3),
        }];
        let err = std::panic::catch_unwind(|| {
            assert_protocol_matches_oracle(
                "broken vs truth",
                &cases,
                |g: &Graph| g.edge_count() + 1,
                |g: &Graph| g.edge_count(),
            );
        })
        .unwrap_err();
        let message = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("broken vs truth"), "{message}");
        assert!(message.contains("family: star"), "{message}");
        assert!(message.contains("seed: 0xabc"), "{message}");
    }
}
