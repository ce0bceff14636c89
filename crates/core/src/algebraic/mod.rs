//! Algebraic protocols: distributed semiring matrix products and their
//! consumers.
//!
//! Section 2.1 of the paper treats matrix multiplication as *the* lever for
//! sub-trivial triangle detection; the follow-up line it opened —
//! Censor-Hillel et al., *Algebraic Methods in the Congested Clique*
//! (PODC 2015), and Le Gall, *Further Algebraic Algorithms in the Congested
//! Clique Model* (DISC 2016) — showed that the unicast clique supports a
//! genuinely *distributed* semiring matrix product in `O(n^{1/3}/b)` rounds
//! via 3D partitioning over Lenzen-style routing, with no circuit in sight.
//! This module implements that product, its sparsity-aware schedule, and
//! two workloads on top of them:
//!
//! * [`SemiringMatMul`] — the 3D-partitioned product. The `d³` scalar
//!   products of `C = A ⊗ B` are tiled into `g³ ≤ n` cubes (`g = ⌊n^{1/3}⌋`);
//!   cube node `(i, j, k)` receives block `A_{ik}` and block `B_{kj}` from
//!   the row owners through the [`BalancedRouter`], multiplies them locally,
//!   and routes the partial block `A_{ik} ⊗ B_{kj}` back to the owners of
//!   the rows of `C_{ij}`, who fold the `g` partials with the semiring
//!   addition. Both shipments carry one payload per player pair, so the
//!   router sends them directly, one hop each. Every node sends and
//!   receives `O(d²/n^{2/3})` entries per phase, so for `d = n` and
//!   constant-width entries the product costs `O(n^{1/3}/b)` rounds —
//!   experiment E13 measures exactly this scaling.
//! * [`SparseMatMul`] — the nnz-charged product, and [`ScheduledMatMul`],
//!   which runs one of the two by a [`MatMulSchedule`] (`Auto` picks
//!   sparse or cubic).
//! * [`TriangleCount`] — *exact* triangle counting (not just detection):
//!   `M = A·A` over the counting semiring, then `trace(A³) = Σ_{v,j}
//!   M[v][j]·A[v][j]` is assembled from one fixed-width broadcast per node
//!   and divided by 6.
//! * [`ApspProtocol`] — all-pairs shortest paths on unweighted graphs by
//!   repeated `(min, +)` squaring of the weight matrix (`⌈log₂(n−1)⌉`
//!   distance products, with a one-bit-per-node early-exit vote after each
//!   squaring).
//!
//! Four semirings are supported (see [`Semiring`]): the Boolean semiring
//! `(∨, ∧)` and the field `F₂` over packed [`BitMatrix`] operands, and the
//! counting `(+, ×)` and tropical `(min, +)` semirings over small-integer
//! [`IntMatrix`] operands. The wire width of an entry is derived from public
//! quantities (the dimension and the global entry bounds of the operands),
//! so both endpoints of every link agree on the format without extra
//! communication, and the router sends each payload bare.
//!
//! Host-side, the cube exchange moves whole row segments: the operands are
//! cut once into their `g × g` blocks, and `EntryCodec` packs a block row
//! into fixed-width fields through a 64-bit accumulator
//! ([`BitString::push_fields`] / [`BitReader::read_fields`]) — or, when
//! every input entry is one bit wide, ships and reassembles the rows as
//! packed [`BitMatrix`] lanes. The segments carry exactly the bits of the
//! entry-by-entry layout, so the transcripts do not depend on this.
//!
//! Each cube's local block product is one player's work and runs on the
//! serial [`clique_sim::linalg`](crate::sim::linalg) kernels, like the rest
//! of a protocol run (DESIGN.md, Concurrency).

mod consumers;
mod dense;
mod schedule;
mod semiring;
mod sparse;
mod wire;

pub use consumers::{compute_apsp, count_triangles, ApspProtocol, TriangleCount};
pub use dense::{semiring_matmul, SemiringMatMul};
pub use schedule::{MatMulSchedule, ScheduledMatMul};
pub use semiring::{Semiring, SemiringMatrix};
pub use sparse::{sparse_matmul, SparseMatMul};

use std::collections::BTreeMap;
use std::ops::Range;

use clique_graphs::Graph;
use clique_routing::{BalancedRouter, Delivered, Packet, Router, RoutingDemand};
use clique_sim::lane::mask_low;
use clique_sim::linalg::saturating_counting_add;
use clique_sim::prelude::*;

#[cfg(test)]
use tests::*;
use wire::{
    malformed, EntryCodec, Partition, Readers, INPUT_PHASE, PARTIAL_PHASE, SPARSE_INPUT_PHASE,
    SPARSE_PARTIAL_PHASE,
};

#[cfg(test)]
mod tests {
    pub(super) use clique_graphs::{generators, iso};
    pub(super) use rand::Rng;
    pub(super) use rand::SeedableRng;
    pub(super) use rand_chacha::ChaCha8Rng;

    use super::*;

    pub(super) fn random_bitmatrix(d: usize, seed: u64) -> BitMatrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rows: Vec<Vec<bool>> = (0..d)
            .map(|_| (0..d).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        BitMatrix::from_rows(&rows)
    }

    pub(super) fn random_intmatrix(d: usize, max: u64, infinities: bool, seed: u64) -> IntMatrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m = IntMatrix::zeros(d, d);
        for i in 0..d {
            for j in 0..d {
                let v = if infinities && rng.gen_bool(0.2) {
                    IntMatrix::INFINITY
                } else {
                    rng.gen_range(0..max + 1)
                };
                m.set(i, j, v);
            }
        }
        m
    }
}
