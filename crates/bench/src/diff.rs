//! Differential oracle testing: protocols vs. sequential reference code.
//!
//! The protocols in `clique-core` all have cheap sequential oracles
//! (`iso::triangle_count`, `iso::bfs_distances`,
//! `iso::minimum_spanning_forest`, …). This module provides the shared
//! harness that pins a protocol to its oracle over a *seeded grid* of the
//! registry's input families: every case is labelled `(family, n, seed)`
//! and is one [`registry::generate_input`] call on that label (plus the
//! grid's `max_weight` for weighted families), so a failure reproduces
//! with that one call. All mismatches in a grid are collected before the
//! harness panics, so one run shows the whole failure pattern rather than
//! its first point.
//!
//! The grids are deterministic (a freshly seeded RNG per case), and the
//! job server regenerates the same inputs from the same labels, so the
//! same cases run in the oracle-grid integration test, through the job
//! server at 1 and 4 workers, and in CI.

use clique_core::graphs::weighted::WeightedGraph;
use clique_core::graphs::Graph;
use clique_core::registry::{self, InputKind, JobInput};
use std::fmt::Debug;

/// One grid point: a generated input labelled by how to regenerate it.
#[derive(Clone, Debug)]
pub struct LabeledCase<I> {
    /// Registry family name, e.g. `"erdos_renyi(p=0.15)"`.
    pub family: &'static str,
    /// Number of vertices of the generated graph.
    pub n: usize,
    /// The RNG seed the case was generated from (0 for the registry's
    /// seedless families).
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

/// Every registry family of `kind` at every size: a seedless family once
/// per `n`, a seeded one at every seed; `graph` unwraps each input.
fn grid<I>(
    kind: InputKind,
    sizes: &[usize],
    seeds: &[u64],
    max_weight: u64,
    graph: fn(JobInput) -> Option<I>,
) -> Vec<LabeledCase<I>> {
    let families = match kind {
        InputKind::Unweighted => registry::UNWEIGHTED_FAMILIES,
        InputKind::Weighted => registry::WEIGHTED_FAMILIES,
    };
    let mut cases = Vec::new();
    for &n in sizes {
        for &family in families {
            let seeds = if registry::SEEDLESS_FAMILIES.contains(&family) {
                &[0][..]
            } else {
                seeds
            };
            for &seed in seeds {
                let input = registry::generate_input(kind, family, n, seed, max_weight)
                    .and_then(graph)
                    .expect("a registry family of the grid's kind");
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

/// The standard unweighted grid: every unweighted registry family at every
/// size, seeded families at every seed.
pub fn unweighted_grid(sizes: &[usize], seeds: &[u64]) -> Vec<LabeledCase<Graph>> {
    grid(
        InputKind::Unweighted,
        sizes,
        seeds,
        0,
        |input| match input {
            JobInput::Unweighted(graph) => Some(graph),
            JobInput::Weighted(_) => None,
        },
    )
}

/// The standard weighted grid over the weighted registry families, with
/// weights drawn uniformly from `1..=max_weight` (small `max_weight`
/// forces duplicate weights, exercising the `(w, u, v)` tie-break).
pub fn weighted_grid(
    sizes: &[usize],
    seeds: &[u64],
    max_weight: u64,
) -> Vec<LabeledCase<WeightedGraph>> {
    grid(
        InputKind::Weighted,
        sizes,
        seeds,
        max_weight,
        |input| match input {
            JobInput::Weighted(graph) => Some(graph),
            JobInput::Unweighted(_) => None,
        },
    )
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
    use clique_core::graphs::generators;

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
