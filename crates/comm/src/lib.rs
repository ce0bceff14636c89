//! # clique-comm — communication complexity substrate and lower-bound gadgets
//!
//! Section 3 of Drucker, Kuhn & Oshman (PODC 2014) proves round lower bounds
//! for subgraph detection in the broadcast congested clique by reduction from
//! set disjointness. This crate makes those reductions executable:
//!
//! * [`disjointness`] — two-party and three-party number-on-forehead set
//!   disjointness instances, generators for the hard distributions, and the
//!   cited external lower bounds as explicit formulas;
//! * [`lbgraph`] — (H, F)-lower-bound graphs (Definition 10) with the
//!   concrete constructions of Lemma 14 (cliques), Lemma 18 (cycles) and
//!   Lemma 21 (complete bipartite subgraphs), plus a semantic checker for
//!   Observation 11;
//! * [`nof_reduction`] — the Ruzsa–Szemerédi-based reduction of Theorem 24
//!   from 3-party NOF disjointness to triangle detection;
//! * [`reduction`] — runners that execute a detection protocol through a
//!   reduction and report correctness and the implied round lower bounds
//!   (Lemma 13, Theorem 24);
//! * [`counting`] — the non-explicit counting lower bound and the matching
//!   trivial upper bound.
//!
//! # Examples
//!
//! ```
//! use clique_comm::disjointness::{DisjointnessBound, DisjointnessInstance};
//! use clique_comm::lbgraph::LowerBoundGraph;
//! use clique_graphs::iso::contains_subgraph;
//!
//! // Lemma 14: a K4 lower-bound graph on 32 nodes encodes disjointness on
//! // N² = 8² = 64 elements, so K4-detection needs Ω(N²/(n·b)) broadcast rounds.
//! let lbg = LowerBoundGraph::for_clique(4, 32).unwrap();
//! assert_eq!(lbg.elements(), 64);
//!
//! // Observation 11: the instantiated graph contains K4 iff the instance
//! // intersects.
//! let m = lbg.elements();
//! let disjoint = DisjointnessInstance::new(vec![true; m], vec![false; m]);
//! let g = lbg.instantiate(&disjoint);
//! assert!(!contains_subgraph(&g, &lbg.pattern().graph()));
//! assert!(lbg.implied_bcast_rounds(DisjointnessBound::TwoPartyDeterministic, 1) > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counting;
pub mod disjointness;
pub mod lbgraph;
pub mod nof_reduction;
pub mod reduction;
