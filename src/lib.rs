//! # congested-clique — reproduction of "On the Power of the Congested Clique Model"
//!
//! This is the top-level facade crate of the workspace: it re-exports
//! [`clique_core`] (the paper's algorithms) together with all substrate
//! crates and the [`serve`] job-server layer, so that the examples and
//! integration tests in this repository — and downstream users — only need
//! a single dependency.
//!
//! See `README.md` at the repository root for an overview,
//! `DESIGN.md` for the system inventory and the per-experiment index, and
//! `EXPERIMENTS.md` for the measured results of every experiment.
//!
//! # Examples
//!
//! ```
//! use congested_clique::graphs::{generators, Pattern};
//! use congested_clique::subgraph::detect_subgraph_turan;
//!
//! # fn main() -> Result<(), congested_clique::sim::SimError> {
//! // Detect a 4-cycle in CLIQUE-BCAST(n, log n) using Theorem 7.
//! let g = generators::complete_bipartite(8, 8);
//! let outcome = detect_subgraph_turan(&g, &Pattern::Cycle(4), 4)?;
//! assert!(outcome.contains);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use clique_core::*;

/// Re-export of the job-server layer (`clique-serve`): [`serve::Server`]
/// shards cached, batched simulation jobs over the protocol [`registry`].
pub use clique_serve as serve;

/// The Rust examples of `README.md`, compiled and run by `cargo test` as
/// doctests of this crate.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
