//! # clique-sketch — finite-field sketches for one-round graph reconstruction
//!
//! The subgraph-detection upper bounds of the paper (Theorems 7 and 9) are
//! built on the one-round protocol of Becker et al. \[2\]: in a graph of
//! degeneracy at most `k`, every node can publish an `O(k log n)`-bit sketch
//! of its neighbourhood from which the entire graph can be reconstructed.
//! This crate implements that substrate:
//!
//! * [`field`] — prime-field arithmetic (`F_p`, `p > n`) with Barrett
//!   reduction, so no field arithmetic runs a hardware divide,
//! * [`sketch`] — linear power-sum sketches of vertex sets with exact
//!   decoding via Newton's identities and locator-polynomial root finding,
//! * [`mod@reconstruct`] — the encode/peel-decode pair implementing algorithm
//!   `A(G, k)` of Section 3.1, including detection of the failure case
//!   "degeneracy larger than `k`",
//! * [`signed`] — signed (±1-multiplicity) power-sum sketches whose
//!   component-wise sums cancel internal edges, the edge-incidence
//!   summaries behind the sketch-based MST protocol.
//!
//! Both sketch types are built on one private power-sum core (the field
//! choice, the lane-parallel accumulation of a whole set, growth to a
//! larger capacity, the ±1 update that peels one element, pointwise merge,
//! the lane-parallel locator root scan, verify-by-re-sketch and the wire
//! layout of the sums), and each owns its wire format: `write` puts the
//! sketch on the blackboard, `read_like` parses it back in the field of a
//! same-shape sketch the reader holds (`None` when the payload runs short),
//! and `encoded_bits` is the one statement of its size.
//!
//! # Examples
//!
//! ```
//! use clique_graphs::generators;
//! use clique_sketch::reconstruct::{encode_graph, reconstruct};
//!
//! // A cycle has degeneracy 2, so capacity-2 sketches reconstruct it.
//! let g = generators::cycle(32);
//! assert_eq!(reconstruct(&g, 2).unwrap(), g);
//! // Each node's message is O(k log n) bits: a 5-bit degree and two
//! // elements of F_37.
//! let sketch = &encode_graph(&g, 2)[0];
//! assert_eq!(sketch.write().len(), 5 + 2 * 6);
//!
//! // A clique has degeneracy n-1: capacity-2 sketches report failure instead
//! // of reconstructing something wrong.
//! let k6 = generators::complete(6);
//! assert!(reconstruct(&k6, 2).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod field;
mod power_sums;
pub mod reconstruct;
pub mod signed;
pub mod sketch;

pub use signed::SignedPowerSumSketch;
pub use sketch::PowerSumSketch;
