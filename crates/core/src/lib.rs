//! # clique-core — the algorithms of "On the Power of the Congested Clique Model"
//!
//! This crate implements, on top of a bit-exact simulator, every protocol and
//! reduction of Drucker, Kuhn & Oshman (PODC 2014):
//!
//! Every algorithm is a [`sim::Protocol`]: the protocol type carries the
//! input, [`sim::Runner::execute`] runs it on any
//! [`sim::CliqueConfig`], and the per-algorithm free functions
//! (`detect_*`, `simulate_circuit`, …) are thin wrappers that pick the
//! model the paper states the bound for.
//!
//! * [`circuit_sim`] — the circuit-to-clique simulation of Theorem 2
//!   ([`circuit_sim::CircuitSimulation`]: heavy/light gate assignment,
//!   separable summaries, balanced routing of light wires);
//! * [`triangle`] — triangle detection in `CLIQUE-UCAST` through `F₂` matrix
//!   multiplication circuits (Section 2.1,
//!   [`triangle::detect_triangle_via_matmul`]), plus the trivial and
//!   Dolev–Lenzen–Peled ([`triangle::DlpTriangleDetection`]) baselines;
//! * [`algebraic`] — the `O(n^{1/3})`-round 3D-partitioned distributed
//!   semiring matrix product ([`algebraic::SemiringMatMul`]; Censor-Hillel
//!   et al. / Le Gall, the algebraic follow-up line Section 2.1 opened),
//!   the nnz-charged [`algebraic::SparseMatMul`], and their consumers:
//!   exact triangle counting ([`algebraic::TriangleCount`]) and `(min, +)`
//!   all-pairs shortest paths ([`algebraic::ApspProtocol`]). Its modules:
//!   `semiring` (semirings and their matrices), `wire` (partition, entry
//!   codecs, typed read errors), `dense` (the cube exchange and the cubic
//!   product), `sparse`, `schedule` (the dispatcher) and `consumers`;
//! * [`subgraph`] — the Becker et al. reconstruction protocol `A(G, k)`
//!   ([`subgraph::SketchReconstruction`]) and the Theorem 7 upper bound
//!   driven by Turán numbers ([`subgraph::TuranSketchDetection`]);
//! * [`adaptive`] — the Theorem 9 adaptive detection algorithm that does not
//!   need to know `ex(n, H)` ([`adaptive::detect_subgraph_adaptive`]; degeneracy
//!   sampling, Lemma 8);
//! * [`mst`] — deterministic minimum spanning forests on edge-incidence
//!   sketches ([`mst::MstProtocol`]: Borůvka phases of sketch broadcast,
//!   local contraction and capacity escalation — the constant-round
//!   plateau workload of the Nowicki / Ghaffari–Parter line);
//! * [`trivial`] — the broadcast-everything baseline
//!   ([`trivial::FullBroadcastDetection`]);
//! * [`lower_bounds`] — executable versions of the Section 3.2–3.6 lower
//!   bound reductions, run against the upper-bound protocols.
//!
//! The substrate crates are re-exported under [`sim`], [`graphs`],
//! [`circuits`], [`sketch`], [`routing`] and [`comm`], so depending on
//! `clique-core` alone is enough to reproduce every experiment.
//!
//! # Examples
//!
//! ```
//! use clique_core::graphs::{generators, Pattern};
//! use clique_core::subgraph::detect_subgraph_turan;
//! use clique_core::trivial::detect_by_full_broadcast;
//!
//! # fn main() -> Result<(), clique_core::sim::SimError> {
//! // A C4-free graph on 31 nodes (the Erdős–Rényi polarity graph).
//! let g = clique_core::graphs::extremal::dense_c4_free(31);
//!
//! // Theorem 7: detecting C4 with degeneracy sketches takes far fewer
//! // broadcast rounds than the trivial "everyone broadcasts its row".
//! let smart = detect_subgraph_turan(&g, &Pattern::Cycle(4), 1)?;
//! let trivial = detect_by_full_broadcast(&g, &Pattern::Cycle(4), 1)?;
//! assert!(!smart.contains && !trivial.contains);
//! assert!(smart.rounds() > 0);
//! assert!(trivial.rounds() == 31);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod algebraic;
pub mod circuit_sim;
pub mod lower_bounds;
pub mod mst;
pub mod outcome;
pub mod registry;
pub mod subgraph;
pub mod triangle;
pub mod trivial;

/// Re-export of the simulator crate (`clique-sim`).
pub use clique_sim as sim;

/// Re-export of the graph substrate (`clique-graphs`).
pub use clique_graphs as graphs;

/// Re-export of the circuit substrate (`clique-circuits`).
pub use clique_circuits as circuits;

/// Re-export of the sketch substrate (`clique-sketch`).
pub use clique_sketch as sketch;

/// Re-export of the routing substrate (`clique-routing`).
pub use clique_routing as routing;

/// Re-export of the communication-complexity substrate (`clique-comm`).
pub use clique_comm as comm;

pub use adaptive::detect_subgraph_adaptive;
pub use algebraic::{
    compute_apsp, count_triangles, ApspProtocol, Semiring, SemiringMatMul, SemiringMatrix,
    TriangleCount,
};
pub use circuit_sim::{simulate_circuit, CircuitSimulation, InputPartition};
pub use mst::{compute_msf, MstProtocol};
pub use outcome::DetectionOutcome;
pub use subgraph::{detect_subgraph_turan, TuranSketchDetection};
pub use triangle::DlpTriangleDetection;
pub use trivial::FullBroadcastDetection;
