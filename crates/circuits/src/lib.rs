//! # clique-circuits — bounded-depth circuits with `b`-separable gates
//!
//! The first half of Drucker, Kuhn & Oshman (PODC 2014) shows that the
//! unicast congested clique can simulate bounded-depth circuits whose gates
//! are `b`-separable (Definition 1) using `O(depth)` rounds and bandwidth
//! proportional to the circuit's wire density (Theorem 2). This crate
//! provides the circuit side of that simulation:
//!
//! * [`gate::GateKind`] — the gate families of Section 2 (AND/OR/NOT, parity,
//!   `MOD_m`, unweighted and weighted thresholds, majority) with their
//!   separability interface (per-part summaries + combiner);
//! * [`circuit::Circuit`] — DAG circuits with the paper's layering, depth and
//!   wire-count measures;
//! * [`builders`] — ready-made shallow circuits (parity trees, `MOD_m` of
//!   `MOD_m`, threshold predicates, inner product) used as simulation
//!   workloads;
//! * [`matmul`] — `F₂` matrix-multiplication circuits (naive cubic and
//!   Strassen) powering the Section 2.1 triangle-detection route.
//!
//! # Examples
//!
//! ```
//! use clique_circuits::builders::parity_tree;
//!
//! let c = parity_tree(64, 4);
//! assert_eq!(c.depth(), 3);
//! assert_eq!(c.max_separability_bits(), 1);
//! let input: Vec<bool> = (0..64).map(|i| i % 3 == 0).collect();
//! let ones = input.iter().filter(|&&b| b).count();
//! assert_eq!(c.evaluate(&input), vec![ones % 2 == 1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
pub mod circuit;
pub mod gate;
pub mod matmul;

pub use circuit::{Circuit, GateId};
pub use clique_sim::linalg::BitMatrix;
pub use gate::GateKind;
