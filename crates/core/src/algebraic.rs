//! Algebraic protocols: the `O(n^{1/3})`-round distributed semiring matrix
//! product and its consumers.
//!
//! Section 2.1 of the paper treats matrix multiplication as *the* lever for
//! sub-trivial triangle detection; the follow-up line it opened —
//! Censor-Hillel et al., *Algebraic Methods in the Congested Clique*
//! (PODC 2015), and Le Gall, *Further Algebraic Algorithms in the Congested
//! Clique Model* (DISC 2016) — showed that the unicast clique supports a
//! genuinely *distributed* semiring matrix product in `O(n^{1/3}/b)` rounds
//! via 3D partitioning over Lenzen-style routing, with no circuit in sight.
//! This module implements that product and two workloads on top of it:
//!
//! * [`SemiringMatMul`] — the 3D-partitioned product. The `d³` scalar
//!   products of `C = A ⊗ B` are tiled into `g³ ≤ n` cubes (`g = ⌊n^{1/3}⌋`);
//!   cube node `(i, j, k)` receives block `A_{ik}` and block `B_{kj}` from
//!   the row owners through the [`BalancedRouter`], multiplies them locally,
//!   and routes the partial block `A_{ik} ⊗ B_{kj}` back to the owners of
//!   the rows of `C_{ij}`, who fold the `g` partials with the semiring
//!   addition. Every node sends and receives `O(d²/n^{2/3})` entries per
//!   phase, so for `d = n` and constant-width entries the product costs
//!   `O(n^{1/3}/b)` rounds — experiment E13 measures exactly this scaling.
//! * [`TriangleCount`] — *exact* triangle counting (not just detection):
//!   `M = A·A` over the counting semiring, then `trace(A³) = Σ_{v,j}
//!   M[v][j]·A[v][j]` is assembled from one fixed-width broadcast per node
//!   and divided by 6.
//! * [`ApspProtocol`] — all-pairs shortest paths on unweighted graphs by
//!   repeated `(min, +)` squaring of the weight matrix (`⌈log₂(n−1)⌉`
//!   distance products, with a one-bit-per-node early-exit vote after each
//!   squaring).
//!
//! Three semirings are supported (see [`Semiring`]): the Boolean semiring
//! `(∨, ∧)` over packed [`BitMatrix`] operands, and the counting `(+, ×)`
//! and tropical `(min, +)` semirings over small-integer [`IntMatrix`]
//! operands. Like the routers' packet framing, the wire width of an entry
//! is derived from public quantities (the dimension and the global entry
//! bounds of the operands), so both endpoints of every link agree on the
//! format without extra communication.
//!
//! Host-side, the cubic product moves whole row segments: the operands are
//! cut once into their `g × g` blocks, and `EntryCodec` packs a block row
//! into fixed-width fields through a 64-bit accumulator
//! ([`BitString::push_fields`] / [`BitReader::read_fields`]) — or, when
//! every input entry is one bit wide, ships and reassembles the rows as
//! packed [`BitMatrix`] lanes. The segments carry exactly the bits of the
//! entry-by-entry layout, so the transcripts do not depend on this.
//!
//! Each cube's local block product is one player's work and runs on the
//! serial [`clique_sim::linalg`](crate::sim::linalg) kernels
//! (`*_with_threads(…, 1)`), never spawning the
//! [`clique_sim::par`](crate::sim::par) pool. Parallelism stays in the
//! engines; by the parallelism-never-changes-transcripts invariant
//! (DESIGN.md, Concurrency) every round/bit count in this module —
//! including the E13 pins — is identical at any worker count. Experiment
//! E14 measures the wall-clock side of these protocols on the pool.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

use clique_graphs::Graph;
use clique_routing::{BalancedRouter, Router, RoutingDemand};
use clique_sim::linalg::{saturating_counting_add, strassen_padded_dim};
use clique_sim::prelude::*;

/// The semiring a [`SemiringMatMul`] multiplies over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Semiring {
    /// The Boolean semiring `(∨, ∧)` over 0/1 entries (packed
    /// [`BitMatrix`] operands).
    Boolean,
    /// The field `F₂ = (⊕, ∧)` over 0/1 entries (packed [`BitMatrix`]
    /// operands) — the ring the algebraic-methods line actually multiplies
    /// over (Shamir's reduction turns Boolean products into a few `F₂`
    /// products), and the natural home of the Strassen-partitioned
    /// [`FastMatMul`] schedule: subtraction *is* addition, so block
    /// combinations never widen an entry.
    F2,
    /// The counting semiring `(+, ×)` over small non-negative integers,
    /// saturating strictly below [`IntMatrix::INFINITY`].
    Counting,
    /// The tropical `(min, +)` semiring with [`IntMatrix::INFINITY`] as the
    /// additive identity ("no path").
    MinPlus,
}

impl Semiring {
    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Semiring::Boolean => "boolean",
            Semiring::F2 => "f2",
            Semiring::Counting => "counting",
            Semiring::MinPlus => "min-plus",
        }
    }

    /// Semiring addition, used to fold partial products.
    fn combine(&self, a: u64, b: u64) -> u64 {
        match self {
            Semiring::Boolean => a | b,
            Semiring::F2 => a ^ b,
            Semiring::Counting => saturating_counting_add(a, b),
            Semiring::MinPlus => a.min(b),
        }
    }
}

/// A square matrix in the representation its semiring multiplies fastest:
/// packed bits for the Boolean semiring, small integers for the counting
/// and `(min, +)` semirings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SemiringMatrix {
    /// Packed 0/1 entries (Boolean semiring operands).
    Bits(BitMatrix),
    /// Small-integer entries (counting and `(min, +)` semiring operands).
    Ints(IntMatrix),
}

impl SemiringMatrix {
    /// Number of rows.
    pub fn rows(&self) -> usize {
        match self {
            SemiringMatrix::Bits(m) => m.rows(),
            SemiringMatrix::Ints(m) => m.rows(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        match self {
            SemiringMatrix::Bits(m) => m.cols(),
            SemiringMatrix::Ints(m) => m.cols(),
        }
    }

    /// The entry at `(i, j)` widened to `u64` (0/1 for packed bits).
    pub fn entry(&self, i: usize, j: usize) -> u64 {
        match self {
            SemiringMatrix::Bits(m) => u64::from(m.get(i, j)),
            SemiringMatrix::Ints(m) => m.get(i, j),
        }
    }

    /// The inner [`IntMatrix`], if this is an integer matrix.
    pub fn as_ints(&self) -> Option<&IntMatrix> {
        match self {
            SemiringMatrix::Bits(_) => None,
            SemiringMatrix::Ints(m) => Some(m),
        }
    }

    /// The inner [`BitMatrix`], if this is a packed bit matrix.
    pub fn as_bits(&self) -> Option<&BitMatrix> {
        match self {
            SemiringMatrix::Bits(m) => Some(m),
            SemiringMatrix::Ints(_) => None,
        }
    }

    /// An accumulator of the given shape filled with the semiring's
    /// additive identity, in the semiring's representation.
    fn identity_filled(semiring: Semiring, rows: usize, cols: usize) -> SemiringMatrix {
        match semiring {
            Semiring::Boolean | Semiring::F2 => SemiringMatrix::Bits(BitMatrix::zeros(rows, cols)),
            Semiring::Counting => SemiringMatrix::Ints(IntMatrix::zeros(rows, cols)),
            Semiring::MinPlus => {
                SemiringMatrix::Ints(IntMatrix::filled(rows, cols, IntMatrix::INFINITY))
            }
        }
    }

    /// Overwrites the entry at `(i, j)`.
    fn set_entry(&mut self, i: usize, j: usize, value: u64) {
        match self {
            SemiringMatrix::Bits(m) => m.set(i, j, value != 0),
            SemiringMatrix::Ints(m) => m.set(i, j, value),
        }
    }

    /// Folds `value` into the entry at `(i, j)` with the semiring addition.
    fn combine_entry(&mut self, semiring: Semiring, i: usize, j: usize, value: u64) {
        let folded = semiring.combine(self.entry(i, j), value);
        self.set_entry(i, j, folded);
    }

    /// A block's local product in the given semiring, on the serial
    /// word-parallel kernels: a block product is one player's local work,
    /// so it never fans out to the worker pool. Counting operands whose
    /// entries are all 0/1 arrive packed and multiply by AND+popcount.
    fn product(&self, rhs: &SemiringMatrix, semiring: Semiring) -> SemiringMatrix {
        match (semiring, self, rhs) {
            (Semiring::Boolean, SemiringMatrix::Bits(a), SemiringMatrix::Bits(b)) => {
                SemiringMatrix::Bits(a.mul_bool_with_threads(b, 1))
            }
            (Semiring::F2, SemiringMatrix::Bits(a), SemiringMatrix::Bits(b)) => {
                SemiringMatrix::Bits(a.mul_f2_with_threads(b, 1))
            }
            (Semiring::Counting, SemiringMatrix::Bits(a), SemiringMatrix::Bits(b)) => {
                SemiringMatrix::Ints(a.popcount_product_with_threads(b, 1))
            }
            (Semiring::Counting, SemiringMatrix::Ints(a), SemiringMatrix::Ints(b)) => {
                SemiringMatrix::Ints(a.mul_counting_with_threads(b, 1))
            }
            (Semiring::MinPlus, SemiringMatrix::Ints(a), SemiringMatrix::Ints(b)) => {
                SemiringMatrix::Ints(a.mul_min_plus_with_threads(b, 1))
            }
            _ => unreachable!("operand representation checked in SemiringMatMul::new"),
        }
    }

    /// An all-zero matrix of the same shape and representation.
    fn zeros_like(&self) -> SemiringMatrix {
        match self {
            SemiringMatrix::Bits(m) => SemiringMatrix::Bits(BitMatrix::zeros(m.rows(), m.cols())),
            SemiringMatrix::Ints(m) => SemiringMatrix::Ints(IntMatrix::zeros(m.rows(), m.cols())),
        }
    }

    /// Overwrites row `i` with row `si` of `src`, a matrix of the same
    /// width and representation.
    fn copy_row(&mut self, i: usize, src: &SemiringMatrix, si: usize) {
        match (self, src) {
            (SemiringMatrix::Bits(m), SemiringMatrix::Bits(s)) => {
                m.row_words_mut(i).copy_from_slice(s.row_words(si));
            }
            (SemiringMatrix::Ints(m), SemiringMatrix::Ints(s)) => {
                m.row_mut(i).copy_from_slice(s.row(si));
            }
            _ => unreachable!("rows are copied between blocks of one representation"),
        }
    }

    /// Folds row `si` of `src` into row `r` from column `col0` on with the
    /// semiring addition: packed rows a lane at a time (shifted into place
    /// when `col0` is not lane-aligned), integer rows entry-wise over two
    /// slices.
    fn fold_row(
        &mut self,
        semiring: Semiring,
        r: usize,
        col0: usize,
        src: &SemiringMatrix,
        si: usize,
    ) {
        match (self, src) {
            (SemiringMatrix::Bits(m), SemiringMatrix::Bits(s)) => {
                let lane = <DefaultLane as Word>::BITS;
                let (word0, shift) = (col0 / lane, col0 % lane);
                let fold = |acc: &mut DefaultLane, bits: DefaultLane| match semiring {
                    Semiring::F2 => *acc ^= bits,
                    _ => *acc |= bits,
                };
                let row = m.row_words_mut(r);
                for (t, &word) in s.row_words(si).iter().enumerate() {
                    fold(&mut row[word0 + t], word << shift);
                    // Bits past the source's width are zero, so a nonzero
                    // spill always lands inside the row.
                    if shift > 0 && word >> (lane - shift) != DefaultLane::ZERO {
                        fold(&mut row[word0 + t + 1], word >> (lane - shift));
                    }
                }
            }
            (SemiringMatrix::Ints(m), SemiringMatrix::Ints(s)) => {
                let values = s.row(si);
                let out = &mut m.row_mut(r)[col0..col0 + values.len()];
                for (o, &v) in out.iter_mut().zip(values) {
                    *o = semiring.combine(*o, v);
                }
            }
            _ => unreachable!("partials fold into an output of their representation"),
        }
    }

    /// The largest finite entry (0 if there is none).
    fn max_finite(&self) -> u64 {
        match self {
            SemiringMatrix::Bits(m) => u64::from(m.count_ones() > 0),
            SemiringMatrix::Ints(m) => m.max_finite(),
        }
    }

    /// Number of entries that are not the semiring's additive identity —
    /// the "nonzeros" a [`SparseMatMul`] actually communicates (finite
    /// entries under `(min, +)`, set bits or nonzero integers elsewhere).
    pub fn nnz(&self, semiring: Semiring) -> usize {
        match self {
            SemiringMatrix::Bits(m) => m.count_ones(),
            SemiringMatrix::Ints(m) => {
                let identity = match semiring {
                    Semiring::MinPlus => IntMatrix::INFINITY,
                    _ => 0,
                };
                (0..m.rows())
                    .map(|r| m.row(r).iter().filter(|&&v| v != identity).count())
                    .sum()
            }
        }
    }
}

/// The 3D tiling of a `d × d × d` product cube onto `n` players.
#[derive(Clone, Copy, Debug)]
struct Partition {
    n: usize,
    d: usize,
    /// Cube side: the largest `g` with `g³ ≤ n`, i.e. `g = Θ(n^{1/3})`.
    g: usize,
}

impl Partition {
    fn new(n: usize, d: usize) -> Self {
        let g = (1..=n).take_while(|&g| g * g * g <= n).last().unwrap_or(1);
        Self { n, d, g }
    }

    /// Index range `t`-th of the `g` row/column blocks (they tile `0..d`).
    fn block(&self, t: usize) -> Range<usize> {
        t * self.d / self.g..(t + 1) * self.d / self.g
    }

    /// The largest block length (the inner-dimension bound of a partial
    /// product).
    fn max_block_len(&self) -> usize {
        (0..self.g).map(|t| self.block(t).len()).max().unwrap_or(0)
    }

    /// The player holding row `r` of the inputs and of the output.
    fn row_owner(&self, r: usize) -> usize {
        r * self.n / self.d
    }

    /// The player computing cube `(i, j, k)`.
    fn cube_node(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.g + j) * self.g + k
    }
}

/// Fixed wire widths for matrix entries, derived from public quantities
/// (the dimension and the operands' global entry bounds) so both endpoints
/// agree on the framing — the same convention the routers' `PacketCodec`
/// uses. `(min, +)` encodes [`IntMatrix::INFINITY`] as the all-ones
/// pattern; the widths are chosen so no finite entry collides with it.
#[derive(Clone, Copy, Debug)]
struct EntryCodec {
    semiring: Semiring,
    /// Width of an input-matrix entry (phase 1).
    input_bits: usize,
    /// Width of a partial-product entry (phase 2).
    partial_bits: usize,
}

impl EntryCodec {
    fn new(
        semiring: Semiring,
        a: &SemiringMatrix,
        b: &SemiringMatrix,
        max_inner: usize,
    ) -> EntryCodec {
        let (ma, mb) = (a.max_finite(), b.max_finite());
        let (input_bits, partial_bits) = match semiring {
            Semiring::Boolean | Semiring::F2 => (1, 1),
            Semiring::Counting => {
                // Partial entries are sums of ≤ max_inner products.
                let partial_max = u128::from(ma)
                    .saturating_mul(u128::from(mb))
                    .saturating_mul(max_inner as u128)
                    .min(u128::from(IntMatrix::INFINITY - 1))
                    as u64;
                (
                    bits_for_universe(ma.max(mb).saturating_add(1)).max(1),
                    bits_for_universe(partial_max.saturating_add(1)).max(1),
                )
            }
            Semiring::MinPlus => {
                // One extra value above the finite range for the all-ones
                // INFINITY sentinel.
                (
                    bits_for_universe(ma.max(mb).saturating_add(2)).max(1),
                    bits_for_universe(ma.saturating_add(mb).saturating_add(2)).max(1),
                )
            }
        };
        EntryCodec {
            semiring,
            input_bits,
            partial_bits,
        }
    }

    /// Whether the input blocks travel and multiply packed: every input
    /// entry is one bit wide and means 0 or 1 (Boolean, `F₂`, and counting
    /// with both operand bounds at most 1 — not `(min, +)`, whose one-bit
    /// pattern 1 is the INFINITY sentinel).
    fn packed_inputs(&self) -> bool {
        self.input_bits == 1 && self.semiring != Semiring::MinPlus
    }

    /// The operand cut into its `g × g` blocks (index `row_block · g +
    /// col_block`) in the representation they travel and multiply in:
    /// packed bits when [`Self::packed_inputs`], integers otherwise.
    fn operand_blocks(&self, m: &SemiringMatrix, part: &Partition) -> Vec<SemiringMatrix> {
        let packed;
        let m = match m {
            SemiringMatrix::Ints(ints) if self.packed_inputs() => {
                packed = SemiringMatrix::Bits(ints.to_bitmatrix());
                &packed
            }
            _ => m,
        };
        let g = part.g;
        (0..g * g)
            .map(|t| {
                let (rows, cols) = (part.block(t / g), part.block(t % g));
                let (r0, c0, h, w) = (rows.start, cols.start, rows.len(), cols.len());
                match m {
                    SemiringMatrix::Bits(m) => SemiringMatrix::Bits(m.submatrix(r0, c0, h, w)),
                    SemiringMatrix::Ints(m) => SemiringMatrix::Ints(m.submatrix(r0, c0, h, w)),
                }
            })
            .collect()
    }

    /// The all-ones pattern of a `width`-bit field (`1 ≤ width ≤ 64`).
    fn all_ones(width: usize) -> u64 {
        u64::MAX >> (u64::BITS as usize - width)
    }

    /// Appends `values` as `width`-bit fields. Masking to the width turns
    /// the `(min, +)` INFINITY into the all-ones sentinel.
    fn encode(&self, values: &[u64], width: usize, out: &mut BitString) {
        let ones = Self::all_ones(width);
        // Finite values must fit the width; under (min, +) they must
        // additionally stay clear of the all-ones sentinel.
        debug_assert!(
            values.iter().all(|&v| match self.semiring {
                Semiring::MinPlus => v < ones || v == IntMatrix::INFINITY,
                _ => v <= ones,
            }),
            "an entry does not fit its public wire width"
        );
        out.push_fields(values, width);
    }

    /// Reads `out.len()` fields of `width` bits, which `sender` routed in
    /// `phase`, mapping the all-ones sentinel back to INFINITY under
    /// `(min, +)`.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedPayload`] if the segment is truncated.
    fn decode(
        &self,
        reader: &mut BitReader<'_>,
        width: usize,
        out: &mut [u64],
        sender: usize,
        phase: &str,
    ) -> Result<(), SimError> {
        let sentinel = match self.semiring {
            Semiring::MinPlus => Some(Self::all_ones(width)),
            _ => None,
        };
        reader
            .read_fields(out.len(), width, |j, raw| {
                out[j] = if Some(raw) == sentinel {
                    IntMatrix::INFINITY
                } else {
                    raw
                };
            })
            .ok_or_else(|| malformed(sender, phase))
    }

    /// Appends row `i` of a block: packed rows a lane at a time, integer
    /// rows as `width`-bit fields.
    fn encode_row(&self, block: &SemiringMatrix, i: usize, width: usize, out: &mut BitString) {
        match block {
            SemiringMatrix::Bits(m) => out.push_words(m.row_words(i), m.cols()),
            SemiringMatrix::Ints(m) => self.encode(m.row(i), width, out),
        }
    }

    /// Overwrites row `i` of `block` with the next segment `sender` routed
    /// in `phase` (the inverse of [`Self::encode_row`]).
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedPayload`] if the segment is truncated.
    fn decode_row(
        &self,
        reader: &mut BitReader<'_>,
        block: &mut SemiringMatrix,
        i: usize,
        width: usize,
        sender: usize,
        phase: &str,
    ) -> Result<(), SimError> {
        match block {
            SemiringMatrix::Bits(m) => {
                let cols = m.cols();
                reader
                    .read_words_into(cols, m.row_words_mut(i))
                    .ok_or_else(|| malformed(sender, phase))
            }
            SemiringMatrix::Ints(m) => self.decode(reader, width, m.row_mut(i), sender, phase),
        }
    }
}

/// Phase label of the cubic product's input-block shipment in
/// [`SimError::MalformedPayload`] reports.
const INPUT_PHASE: &str = "semiring-matmul/inputs";

/// Phase label of the cubic product's partial-block shipment.
const PARTIAL_PHASE: &str = "semiring-matmul/partials";

/// Phase labels of the sparse product's two record shipments.
const SPARSE_INPUT_PHASE: &str = "sparse-matmul/inputs";
const SPARSE_PARTIAL_PHASE: &str = "sparse-matmul/partials";

/// The typed error for wire data from `sender` that does not parse.
fn malformed(sender: usize, phase: &str) -> SimError {
    SimError::MalformedPayload {
        sender: NodeId::new(sender),
        phase: phase.to_owned(),
    }
}

/// Per-destination readers over the packets one balanced-routing phase
/// delivered, keyed by source player.
fn readers_by_source<'a>(packets: &'a [clique_routing::Packet]) -> HashMap<usize, BitReader<'a>> {
    packets
        .iter()
        .map(|p| (p.src.index(), p.payload.reader()))
        .collect()
}

/// Chunk granularity (payload bits per routed packet) for the fast path.
///
/// The [`BalancedRouter`] spreads *distinct* packets of one `(src, dst)`
/// transfer across distinct intermediaries, but a single packet is atomic
/// on its two links — the round ledger charges `⌈max pair load / b⌉`, so a
/// monolithic payload concentrates its whole length on two links no matter
/// how balanced the demand is in aggregate. The fast path therefore splits
/// every logical payload into chunks of at most this many bits, letting
/// the greedy assignment flatten pair loads down to chunk granularity
/// while keeping the per-chunk framing (sequence tag plus the router's
/// node and length fields) a modest fraction of the payload.
const FAST_CHUNK_BITS: usize = 64;

/// Splits logical `(src, dst)` payloads into sequence-tagged chunks before
/// routing and reassembles them afterwards. Two-phase routing may deliver
/// a pair's chunks interleaved by intermediary, so each chunk carries its
/// sequence number; the tag width derives from a public bound on the
/// largest logical payload, so both endpoints agree on the framing without
/// extra communication (the [`EntryCodec`] convention).
struct Chunker {
    max_payload_bits: usize,
    seq_width: usize,
}

impl Chunker {
    fn new(max_payload_bits: usize) -> Chunker {
        let chunks = max_payload_bits.div_ceil(FAST_CHUNK_BITS).max(1);
        Chunker {
            max_payload_bits,
            seq_width: bits_for_universe(chunks as u64).max(1),
        }
    }

    /// Queues `payload` on the `(src, dst)` pair as tagged chunks (empty
    /// payloads send nothing).
    fn send(&self, demand: &mut RoutingDemand, src: usize, dst: usize, payload: &BitString) {
        debug_assert!(
            payload.len() <= self.max_payload_bits,
            "fast-matmul payload exceeds its public bound"
        );
        let mut reader = payload.reader();
        let mut remaining = payload.len();
        let mut seq = 0u64;
        while remaining > 0 {
            let take = remaining.min(FAST_CHUNK_BITS);
            let mut chunk = BitString::with_capacity(self.seq_width + take);
            chunk.push_bits(seq, self.seq_width);
            let words = reader.read_words(take).expect("chunk within payload");
            chunk.push_words(&words, take);
            demand.send(src, dst, chunk);
            remaining -= take;
            seq += 1;
        }
    }

    /// Regroups one destination's delivered chunks into per-source logical
    /// payloads, restoring sender order from the sequence tags.
    fn merge(&self, packets: &[clique_routing::Packet]) -> HashMap<usize, BitString> {
        let mut by_src: HashMap<usize, Vec<(u64, &BitString)>> = HashMap::new();
        for p in packets {
            let mut reader = p.payload.reader();
            let seq = reader
                .read_bits(self.seq_width)
                .expect("malformed fast-matmul chunk tag");
            by_src
                .entry(p.src.index())
                .or_default()
                .push((seq, &p.payload));
        }
        by_src
            .into_iter()
            .map(|(src, mut chunks)| {
                chunks.sort_unstable_by_key(|&(seq, _)| seq);
                let mut merged = BitString::new();
                for (_, payload) in chunks {
                    let mut reader = payload.reader();
                    reader.read_bits(self.seq_width).expect("tag parsed above");
                    let len = reader.remaining();
                    let words = reader.read_words(len).expect("chunk payload present");
                    merged.push_words(&words, len);
                }
                (src, merged)
            })
            .collect()
    }
}

/// Per-source readers over one destination's reassembled logical payloads.
fn readers_by_merged(merged: &HashMap<usize, BitString>) -> HashMap<usize, BitReader<'_>> {
    merged
        .iter()
        .map(|(&src, payload)| (src, payload.reader()))
        .collect()
}

/// The `O(n^{1/3})`-round distributed semiring matrix product as a
/// [`Protocol`]: `C = A ⊗ B` for square `d × d` operands, 3D-partitioned
/// over the `n` players of the session and routed through the
/// [`BalancedRouter`].
///
/// Player `v` holds rows `r` with `row_owner(r) = v` of both inputs (for
/// `d = n` this is the standard "player `i` knows row `i`" input
/// convention) and ends up holding the same rows of the output; the
/// returned matrix is the assembled whole.
///
/// # Examples
///
/// ```
/// use clique_core::algebraic::{semiring_matmul, Semiring, SemiringMatrix};
/// use clique_core::sim::linalg::BitMatrix;
///
/// let a = SemiringMatrix::Bits(BitMatrix::identity(8));
/// let product = semiring_matmul(&a, &a, Semiring::Boolean, 4).unwrap();
/// assert_eq!(product.as_bits().unwrap(), &BitMatrix::identity(8));
/// ```
#[derive(Clone, Debug)]
pub struct SemiringMatMul<'a> {
    a: &'a SemiringMatrix,
    b: &'a SemiringMatrix,
    semiring: Semiring,
}

impl<'a> SemiringMatMul<'a> {
    /// Prepares the product `A ⊗ B`.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not square matrices of the same
    /// dimension, if their representation does not match the semiring
    /// (Boolean needs [`SemiringMatrix::Bits`], counting and `(min, +)`
    /// need [`SemiringMatrix::Ints`]), or if a counting operand contains
    /// the reserved [`IntMatrix::INFINITY`] entry.
    pub fn new(a: &'a SemiringMatrix, b: &'a SemiringMatrix, semiring: Semiring) -> Self {
        let d = a.rows();
        assert!(
            a.cols() == d && b.rows() == d && b.cols() == d,
            "operands must be square matrices of one dimension, got {}×{} and {}×{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        for (name, m) in [("A", a), ("B", b)] {
            match (semiring, m) {
                (Semiring::Boolean | Semiring::F2, SemiringMatrix::Bits(_))
                | (Semiring::Counting | Semiring::MinPlus, SemiringMatrix::Ints(_)) => {}
                _ => panic!(
                    "operand {name} representation does not match the {} semiring",
                    semiring.name()
                ),
            }
            if semiring == Semiring::Counting {
                if let Some(ints) = m.as_ints() {
                    assert!(
                        (0..ints.rows())
                            .all(|i| ints.row(i).iter().all(|&v| v != IntMatrix::INFINITY)),
                        "counting operand {name} contains the reserved INFINITY entry"
                    );
                }
            }
        }
        Self { a, b, semiring }
    }

    /// The semiring this product multiplies over.
    pub fn semiring(&self) -> Semiring {
        self.semiring
    }
}

impl Protocol for SemiringMatMul<'_> {
    type Output = SemiringMatrix;

    fn run(&mut self, session: &mut Session) -> Result<SemiringMatrix, SimError> {
        session.require_clique();
        let n = session.n();
        let d = self.a.rows();
        if d == 0 {
            return Ok(SemiringMatrix::identity_filled(self.semiring, 0, 0));
        }
        let part = Partition::new(n, d);
        let g = part.g;
        let codec = EntryCodec::new(self.semiring, self.a, self.b, part.max_block_len());
        let a_blocks = codec.operand_blocks(self.a, &part);
        let b_blocks = codec.operand_blocks(self.b, &part);
        // The two input blocks of cube (i, j, k): A_{ik} and B_{kj}, each
        // with its row-block index.
        let inputs =
            |i: usize, j: usize, k: usize| [(&a_blocks[i * g + k], i), (&b_blocks[k * g + j], k)];

        // Phase 1: the row owners ship the input blocks to the cube nodes.
        // Cube node w = (i, j, k) needs A_{ik} (rows of block i, columns of
        // block k) and B_{kj}; each packet (v → w) carries v's rows of
        // A_{ik} then v's rows of B_{kj}, rows ascending, entries in column
        // order — a canonical layout both sides derive from (n, d, g) alone.
        let mut demand = RoutingDemand::new(n);
        for i in 0..g {
            for j in 0..g {
                for k in 0..g {
                    let w = part.cube_node(i, j, k);
                    let mut payloads: BTreeMap<usize, BitString> = BTreeMap::new();
                    for (block, row_block) in inputs(i, j, k) {
                        for (bi, r) in part.block(row_block).enumerate() {
                            let v = part.row_owner(r);
                            if v == w {
                                continue; // own input rows need no routing
                            }
                            let buf = payloads.entry(v).or_default();
                            codec.encode_row(block, bi, codec.input_bits, buf);
                        }
                    }
                    for (v, payload) in payloads {
                        if !payload.is_empty() {
                            demand.send(v, w, payload);
                        }
                    }
                }
            }
        }
        let delivered = BalancedRouter.route(&demand, session)?;

        // Local compute: every cube node reassembles its two blocks from
        // the delivered packets (plus its own rows) and multiplies them
        // with the semiring's local kernel.
        let mut partials: Vec<SemiringMatrix> = Vec::with_capacity(g * g * g);
        for i in 0..g {
            for j in 0..g {
                for k in 0..g {
                    let w = part.cube_node(i, j, k);
                    let mut readers = readers_by_source(&delivered[w]);
                    let mut blocks = Vec::with_capacity(2);
                    for (source, row_block) in inputs(i, j, k) {
                        let mut block = source.zeros_like();
                        for (bi, r) in part.block(row_block).enumerate() {
                            let v = part.row_owner(r);
                            if v == w {
                                block.copy_row(bi, source, bi);
                            } else if block.cols() > 0 {
                                // A zero-width segment was never sent (the
                                // sender skips empty payloads), so only
                                // look the reader up when there are entries
                                // to read.
                                let reader = readers
                                    .get_mut(&v)
                                    .ok_or_else(|| malformed(v, INPUT_PHASE))?;
                                codec.decode_row(
                                    reader,
                                    &mut block,
                                    bi,
                                    codec.input_bits,
                                    v,
                                    INPUT_PHASE,
                                )?;
                            }
                        }
                        blocks.push(block);
                    }
                    partials.push(blocks[0].product(&blocks[1], self.semiring));
                }
            }
        }

        // Phase 2: each cube node routes its partial block to the output
        // row owners, who fold the g partials per entry with the semiring
        // addition.
        let mut output = SemiringMatrix::identity_filled(self.semiring, d, d);
        let mut demand = RoutingDemand::new(n);
        let mut partial_iter = partials.iter();
        for i in 0..g {
            for j in 0..g {
                for k in 0..g {
                    let w = part.cube_node(i, j, k);
                    let partial = partial_iter.next().expect("one partial per cube");
                    let col0 = part.block(j).start;
                    let mut payloads: BTreeMap<usize, BitString> = BTreeMap::new();
                    for (bi, r) in part.block(i).enumerate() {
                        let v = part.row_owner(r);
                        if v == w {
                            // The cube node owns this output row itself.
                            output.fold_row(self.semiring, r, col0, partial, bi);
                        } else {
                            let buf = payloads.entry(v).or_default();
                            codec.encode_row(partial, bi, codec.partial_bits, buf);
                        }
                    }
                    for (v, payload) in payloads {
                        if !payload.is_empty() {
                            demand.send(w, v, payload);
                        }
                    }
                }
            }
        }
        let delivered = BalancedRouter.route(&demand, session)?;

        // Fold the routed partials, walking cubes in the same canonical
        // order the senders used. Each segment is decoded into a one-row
        // scratch block of its column block's width, then folded.
        let mut segments: Vec<SemiringMatrix> = (0..g)
            .map(|j| SemiringMatrix::identity_filled(self.semiring, 1, part.block(j).len()))
            .collect();
        for (v, packets) in delivered.iter().enumerate() {
            let mut readers = readers_by_source(packets);
            for i in 0..g {
                let owned: Vec<usize> = part.block(i).filter(|&r| part.row_owner(r) == v).collect();
                if owned.is_empty() {
                    continue;
                }
                for (j, segment) in segments.iter_mut().enumerate() {
                    let col0 = part.block(j).start;
                    if segment.cols() == 0 {
                        continue; // zero-width segments were never sent
                    }
                    for k in 0..g {
                        let w = part.cube_node(i, j, k);
                        if w == v {
                            continue; // folded locally above
                        }
                        let reader = readers
                            .get_mut(&w)
                            .ok_or_else(|| malformed(w, PARTIAL_PHASE))?;
                        for &r in &owned {
                            codec.decode_row(
                                reader,
                                segment,
                                0,
                                codec.partial_bits,
                                w,
                                PARTIAL_PHASE,
                            )?;
                            output.fold_row(self.semiring, r, col0, segment, 0);
                        }
                    }
                }
            }
        }
        Ok(output)
    }
}

/// Runs [`SemiringMatMul`] on `CLIQUE-UCAST(d, b)` — one player per matrix
/// row, the canonical input distribution.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics on empty operands or any [`SemiringMatMul::new`] precondition
/// violation.
pub fn semiring_matmul(
    a: &SemiringMatrix,
    b: &SemiringMatrix,
    semiring: Semiring,
    bandwidth: usize,
) -> Result<RunOutcome<SemiringMatrix>, SimError> {
    let n = a.rows();
    assert!(n > 0, "the operands must have at least one row");
    Runner::new(CliqueConfig::unicast(n, bandwidth))
        .execute(&mut SemiringMatMul::new(a, b, semiring))
}

/// One leaf of the flattened depth-`L` Strassen recursion: the signed
/// combinations of base blocks (on the `2^L × 2^L` grid) forming its two
/// operands, and the signed output blocks its product feeds. Every
/// coefficient is `±1` — Strassen's identities never scale a block — so a
/// combined entry's magnitude is bounded by the term count, a public
/// quantity both wire endpoints derive from `L` alone.
#[derive(Clone, Debug)]
struct LeafCoeffs {
    /// `(block_row, block_col, sign)` terms of the A-side operand.
    a_terms: Vec<(usize, usize, i64)>,
    /// `(block_row, block_col, sign)` terms of the B-side operand.
    b_terms: Vec<(usize, usize, i64)>,
    /// `(block_row, block_col, sign)` output blocks the product feeds.
    c_terms: Vec<(usize, usize, i64)>,
}

/// Per-level Strassen rules: the quadrants (with signs) feeding each of the
/// 7 products' A and B operands, and the C quadrants each product feeds —
/// M1 = (A11+A22)(B11+B22), M2 = (A21+A22)B11, M3 = A11(B12−B22),
/// M4 = A22(B21−B11), M5 = (A11+A12)B22, M6 = (A21−A11)(B11+B12),
/// M7 = (A12−A22)(B21+B22); C11 = M1+M4−M5+M7, C12 = M3+M5, C21 = M2+M4,
/// C22 = M1−M2+M3+M6. The same identities drive the local
/// `BitMatrix::mul_f2_strassen` kernel and the lifted Strassen circuit, so
/// all three seams agree block for block.
type StrassenRule = (
    &'static [(usize, usize, i64)],
    &'static [(usize, usize, i64)],
    &'static [(usize, usize, i64)],
);
const STRASSEN_RULES: [StrassenRule; 7] = [
    (
        &[(0, 0, 1), (1, 1, 1)],
        &[(0, 0, 1), (1, 1, 1)],
        &[(0, 0, 1), (1, 1, 1)],
    ),
    (
        &[(1, 0, 1), (1, 1, 1)],
        &[(0, 0, 1)],
        &[(1, 0, 1), (1, 1, -1)],
    ),
    (
        &[(0, 0, 1)],
        &[(0, 1, 1), (1, 1, -1)],
        &[(0, 1, 1), (1, 1, 1)],
    ),
    (
        &[(1, 1, 1)],
        &[(1, 0, 1), (0, 0, -1)],
        &[(0, 0, 1), (1, 0, 1)],
    ),
    (
        &[(0, 0, 1), (0, 1, 1)],
        &[(1, 1, 1)],
        &[(0, 0, -1), (0, 1, 1)],
    ),
    (
        &[(1, 0, 1), (0, 0, -1)],
        &[(0, 0, 1), (0, 1, 1)],
        &[(1, 1, 1)],
    ),
    (
        &[(0, 1, 1), (1, 1, -1)],
        &[(1, 0, 1), (1, 1, 1)],
        &[(0, 0, 1)],
    ),
];

/// Expands the Strassen recursion to depth `levels` and returns the `7^L`
/// leaves' signed block combinations. Depth 0 is the trivial single leaf
/// (the whole product).
fn strassen_leaf_coeffs(levels: u32) -> Vec<LeafCoeffs> {
    let mut leaves = vec![LeafCoeffs {
        a_terms: vec![(0, 0, 1)],
        b_terms: vec![(0, 0, 1)],
        c_terms: vec![(0, 0, 1)],
    }];
    for _ in 0..levels {
        let mut next = Vec::with_capacity(leaves.len() * 7);
        for leaf in &leaves {
            for (rule_a, rule_b, rule_c) in STRASSEN_RULES {
                // A parent block (pi, pj) splits into quadrants at
                // (2·pi + qi, 2·pj + qj) on the refined grid; signs multiply.
                let expand = |parent: &[(usize, usize, i64)], rule: &[(usize, usize, i64)]| {
                    parent
                        .iter()
                        .flat_map(|&(pi, pj, ps)| {
                            rule.iter()
                                .map(move |&(qi, qj, qs)| (2 * pi + qi, 2 * pj + qj, ps * qs))
                        })
                        .collect()
                };
                next.push(LeafCoeffs {
                    a_terms: expand(&leaf.a_terms, rule_a),
                    b_terms: expand(&leaf.b_terms, rule_b),
                    c_terms: expand(&leaf.c_terms, rule_c),
                });
            }
        }
        leaves = next;
    }
    leaves
}

/// Signed offset wire encoding for the fast path's intermediate values: a
/// value in `[-bound, bound]` travels as `value + bound` in
/// `bits_for_universe(2·bound + 1)` bits. Both endpoints derive `bound`
/// from public quantities (the operands' entry bounds and the leaf's term
/// counts), mirroring the [`EntryCodec`] convention.
#[derive(Clone, Copy, Debug)]
struct SignedCodec {
    bound: i64,
    width: usize,
}

impl SignedCodec {
    fn new(bound: u64) -> SignedCodec {
        SignedCodec {
            bound: bound as i64,
            width: bits_for_universe(2 * bound + 1).max(1),
        }
    }

    fn encode(&self, value: i64, out: &mut BitString) {
        debug_assert!(
            value.abs() <= self.bound,
            "signed value exceeds its public bound"
        );
        out.push_bits((value + self.bound) as u64, self.width);
    }

    fn decode(&self, reader: &mut BitReader<'_>) -> i64 {
        let raw = reader
            .read_bits(self.width)
            .expect("malformed fast-matmul record");
        raw as i64 - self.bound
    }
}

/// The per-leaf combined operands, in the representation the leaf's local
/// kernel multiplies: packed bits over `F₂` (block combination is XOR, so
/// entries stay one bit wide at every depth), two's-complement-wrapped
/// signed integers for counting.
enum LeafOperands {
    Bits(BitMatrix, BitMatrix),
    Ints(IntMatrix, IntMatrix),
}

/// A cube node's partial product of combined leaf blocks.
enum LeafPartial {
    Bits(BitMatrix),
    Ints(IntMatrix),
}

/// Whether a depth-`levels` counting-semiring Strassen schedule is exact:
/// the cubic comparison must not saturate (true entries `≤ ma·mb·d` stay
/// below [`IntMatrix::INFINITY`]) and every signed intermediate — combined
/// entries bounded by `2^L·m`, partials by `4^L·ma·mb·q`, fold sums by
/// `56^L·ma·mb·q` — must fit `i64` so wrapping arithmetic recovers the
/// exact integer product.
fn counting_headroom_ok(ma: u64, mb: u64, d: usize, levels: u32) -> bool {
    let q = strassen_padded_dim(d, levels) >> levels;
    let true_max = u128::from(ma) * u128::from(mb) * d as u128;
    let fold_max =
        56u128.pow(levels) * u128::from(ma.max(1)) * u128::from(mb.max(1)) * q.max(1) as u128;
    true_max <= u128::from(IntMatrix::INFINITY - 1) && fold_max < (1u128 << 62)
}

/// The Strassen-partitioned distributed matrix product of Censor-Hillel et
/// al. (*Algebraic Methods in the Congested Clique*) as a [`Protocol`]:
/// the depth-`L` Strassen recursion is flattened into `7^L` leaf products,
/// each handed to a disjoint group of `≈ n/7^L` players that runs the 3D
/// cubic partition on its quarter-sized (per level) blocks. Because each
/// recursion level multiplies the engaged node count by 7 while only
/// halving the block side, per-node load shrinks by `7/4` per level —
/// `O(n^{1-2/ω})` rounds in the limit against the cubic partition's
/// `O(n^{1/3})`.
///
/// Three balanced-routing phases:
///
/// 1. **Pre-combine** — the original row owners ship raw row segments of
///    every base block a leaf touches to the *leaf-row* owners, who fold
///    the signed block combinations (Strassen's `A11 + A22` etc.) locally.
/// 2. **Leaf products** — each group runs the cubic 3D exchange on its
///    combined `q × q` operands and multiplies locally (packed
///    [`BitMatrix::mul_f2`] over `F₂`, wrapping-exact
///    [`IntMatrix::mul_wrapping`] for counting).
/// 3. **Recombine** — signed partials route to the output row owners, who
///    fold each leaf's contribution into the output blocks its product
///    feeds.
///
/// Only *ring-embeddable* semirings are eligible: `F₂` is a field and
/// counting embeds in `ℤ` (saturation excluded by a public precondition).
/// The Boolean `(∨, ∧)` and tropical `(min, +)` semirings have no additive
/// inverse, so Strassen's subtractions do not exist there — those stay on
/// the cubic [`SemiringMatMul`] path, which the [`MatMulSchedule`]
/// dispatcher encodes explicitly.
///
/// # Examples
///
/// ```
/// use clique_core::algebraic::{fast_matmul, Semiring, SemiringMatrix};
/// use clique_core::sim::linalg::BitMatrix;
///
/// let a = SemiringMatrix::Bits(BitMatrix::identity(14));
/// let product = fast_matmul(&a, &a, Semiring::F2, 4).unwrap();
/// assert_eq!(product.as_bits().unwrap(), &BitMatrix::identity(14));
/// ```
#[derive(Clone, Debug)]
pub struct FastMatMul<'a> {
    a: &'a SemiringMatrix,
    b: &'a SemiringMatrix,
    semiring: Semiring,
    levels: Option<u32>,
}

impl<'a> FastMatMul<'a> {
    /// Prepares the Strassen-partitioned product `A ⊗ B`.
    ///
    /// # Panics
    ///
    /// Panics on any [`SemiringMatMul::new`] precondition violation, or if
    /// the semiring is not ring-embeddable ([`Semiring::F2`] or
    /// [`Semiring::Counting`]).
    pub fn new(a: &'a SemiringMatrix, b: &'a SemiringMatrix, semiring: Semiring) -> Self {
        assert!(
            matches!(semiring, Semiring::F2 | Semiring::Counting),
            "the strassen schedule needs a ring-embeddable semiring (f2 or counting); \
             {} stays on the cubic path",
            semiring.name()
        );
        // Shared operand validation (shape, representation, reserved
        // entries) lives in one place.
        let _ = SemiringMatMul::new(a, b, semiring);
        Self {
            a,
            b,
            semiring,
            levels: None,
        }
    }

    /// Forces the recursion depth instead of deriving it from `(n, d)` —
    /// a test and experiment seam. Depth `L` needs `7^L ≤ n` at run time.
    pub fn with_levels(mut self, levels: u32) -> Self {
        self.levels = Some(levels);
        self
    }

    /// The recursion depth the schedule picks for `n` players and
    /// dimension `d`: the largest `L ≤ 3` such that every one of the `7^L`
    /// groups keeps at least 8 players — enough to host a `2×2×2` cube in
    /// its internal 3D partition — and leaf blocks keep at least two rows.
    /// Splitting further would hand whole leaf products to single nodes,
    /// concentrating link load instead of spreading it (the very thing the
    /// schedule exists to avoid). Depth 0 means the clique is too small
    /// and the protocol falls back to the cubic partition in place.
    pub fn levels_for(n: usize, d: usize) -> u32 {
        let mut levels = 0;
        while levels < 3
            && n / 7usize.pow(levels + 1) >= 8
            && strassen_padded_dim(d, levels + 1) >> (levels + 1) >= 2
        {
            levels += 1;
        }
        levels
    }
}

impl Protocol for FastMatMul<'_> {
    type Output = SemiringMatrix;

    fn run(&mut self, session: &mut Session) -> Result<SemiringMatrix, SimError> {
        session.require_clique();
        let n = session.n();
        let d = self.a.rows();
        if d == 0 {
            return Ok(SemiringMatrix::identity_filled(self.semiring, 0, 0));
        }
        let levels = match self.levels {
            Some(levels) => {
                assert!(
                    levels == 0 || 7usize.pow(levels) <= n,
                    "a depth-{levels} strassen schedule needs 7^{levels} ≤ n = {n} players"
                );
                levels
            }
            None => Self::levels_for(n, d),
        };
        if levels == 0 {
            // Too few players for 7 disjoint groups: cubic fallback.
            return session.run_protocol(&mut SemiringMatMul::new(self.a, self.b, self.semiring));
        }

        let leaves = strassen_leaf_coeffs(levels);
        let p = strassen_padded_dim(d, levels);
        let q = p >> levels;
        let global = Partition::new(n, d);
        let group_start = |t: usize| t * n / leaves.len();
        let leaf_parts: Vec<Partition> = (0..leaves.len())
            .map(|t| Partition::new(group_start(t + 1) - group_start(t), q))
            .collect();
        let (ma, mb) = (self.a.max_finite(), self.b.max_finite());
        if self.semiring == Semiring::Counting {
            assert!(
                counting_headroom_ok(ma, mb, d, levels),
                "counting operands too large for a depth-{levels} strassen schedule \
                 (an intermediate or the cubic comparison would saturate)"
            );
        }
        // Raw input entries (phase 1) are unsigned originals; combined and
        // partial entries (phases 2–3) are signed with per-leaf public
        // bounds. Over F₂ every width is one bit.
        let raw_width = match self.semiring {
            Semiring::F2 => 1,
            _ => bits_for_universe(ma.max(mb).saturating_add(1)).max(1),
        };
        let wires: Vec<(SignedCodec, SignedCodec, SignedCodec)> = leaves
            .iter()
            .map(|leaf| {
                let ba = leaf.a_terms.len() as u64 * ma;
                let bb = leaf.b_terms.len() as u64 * mb;
                let bp = (u128::from(ba) * u128::from(bb) * q as u128) as u64;
                (
                    SignedCodec::new(ba),
                    SignedCodec::new(bb),
                    SignedCodec::new(bp),
                )
            })
            .collect();

        // Public per-pair payload bounds, which fix each phase's chunk
        // sequence width: what one sender can owe one receiver is capped by
        // the rows it owns, the widest term list, and the wire widths — all
        // public quantities.
        let global_rpo = d.div_ceil(n).max(1);
        let max_a_terms = leaves.iter().map(|l| l.a_terms.len()).max().unwrap_or(1);
        let max_b_terms = leaves.iter().map(|l| l.b_terms.len()).max().unwrap_or(1);
        let chunk1 = Chunker::new((max_a_terms + max_b_terms) * global_rpo * q * raw_width);
        let (mut bound2, mut bound3) = (0usize, 0usize);
        for (t, leaf) in leaves.iter().enumerate() {
            let lp = &leaf_parts[t];
            let bl = lp.max_block_len();
            let lp_rpo = lp.d.div_ceil(lp.n).max(1);
            let (w2, w3) = match self.semiring {
                Semiring::F2 => (1, 1),
                _ => (wires[t].0.width.max(wires[t].1.width), wires[t].2.width),
            };
            bound2 = bound2.max(2 * lp_rpo.min(bl) * bl * w2);
            bound3 = bound3.max(leaf.c_terms.len() * global_rpo.min(bl) * bl * w3);
        }
        let chunk2 = Chunker::new(bound2);
        let chunk3 = Chunker::new(bound3);

        // Phase 1 (pre-combine): original row owners → leaf-row owners.
        // Rows and columns at or beyond d are padding both endpoints skip
        // (p and the term lists are public).
        let mut demand = RoutingDemand::new(n);
        for (t, leaf) in leaves.iter().enumerate() {
            let (gs, lp) = (group_start(t), &leaf_parts[t]);
            let mut payloads: BTreeMap<(usize, usize), BitString> = BTreeMap::new();
            for (matrix, terms) in [(self.a, &leaf.a_terms), (self.b, &leaf.b_terms)] {
                for rl in 0..q {
                    let o = gs + lp.row_owner(rl);
                    for &(bi, bj, _) in terms {
                        let r = bi * q + rl;
                        if r >= d || bj * q >= d {
                            continue;
                        }
                        let v = global.row_owner(r);
                        if v == o {
                            continue;
                        }
                        let buf = payloads.entry((v, o)).or_default();
                        for c in bj * q..((bj + 1) * q).min(d) {
                            buf.push_bits(matrix.entry(r, c), raw_width);
                        }
                    }
                }
            }
            for ((v, o), payload) in payloads {
                chunk1.send(&mut demand, v, o, &payload);
            }
        }
        let delivered = BalancedRouter.route(&demand, session)?;
        let merged: Vec<HashMap<usize, BitString>> =
            delivered.iter().map(|p| chunk1.merge(p)).collect();

        // The leaf-row owners fold the signed combinations. Signed sums are
        // kept in i64 (wrapping-safe by the headroom precondition); over F₂
        // only the parity survives.
        let mut leaf_ops: Vec<LeafOperands> = Vec::with_capacity(leaves.len());
        for (t, leaf) in leaves.iter().enumerate() {
            let (gs, lp) = (group_start(t), &leaf_parts[t]);
            let mut readers: HashMap<usize, HashMap<usize, BitReader<'_>>> = (0..q)
                .map(|rl| gs + lp.row_owner(rl))
                .map(|o| (o, readers_by_merged(&merged[o])))
                .collect();
            let mut acc_a = vec![0i64; q * q];
            let mut acc_b = vec![0i64; q * q];
            for (matrix, terms, acc) in [
                (self.a, &leaf.a_terms, &mut acc_a),
                (self.b, &leaf.b_terms, &mut acc_b),
            ] {
                for rl in 0..q {
                    let o = gs + lp.row_owner(rl);
                    for &(bi, bj, sign) in terms {
                        let r = bi * q + rl;
                        if r >= d || bj * q >= d {
                            continue;
                        }
                        let v = global.row_owner(r);
                        for c in bj * q..((bj + 1) * q).min(d) {
                            let value = if v == o {
                                matrix.entry(r, c)
                            } else {
                                readers
                                    .get_mut(&o)
                                    .expect("owner readers built above")
                                    .get_mut(&v)
                                    .expect("missing fast-matmul input packet")
                                    .read_bits(raw_width)
                                    .expect("malformed fast-matmul input record")
                            };
                            acc[rl * q + (c - bj * q)] += sign * value as i64;
                        }
                    }
                }
            }
            leaf_ops.push(match self.semiring {
                Semiring::F2 => {
                    let to_bits = |acc: &[i64]| {
                        let mut m = BitMatrix::zeros(q, q);
                        for r in 0..q {
                            for c in 0..q {
                                m.set(r, c, acc[r * q + c] & 1 == 1);
                            }
                        }
                        m
                    };
                    LeafOperands::Bits(to_bits(&acc_a), to_bits(&acc_b))
                }
                _ => {
                    let to_ints = |acc: &[i64]| {
                        let mut m = IntMatrix::zeros(q, q);
                        for r in 0..q {
                            for c in 0..q {
                                m.set(r, c, acc[r * q + c] as u64);
                            }
                        }
                        m
                    };
                    LeafOperands::Ints(to_ints(&acc_a), to_ints(&acc_b))
                }
            });
        }

        // Phase 2 (leaf products): each group runs the cubic 3D exchange on
        // its combined operands — the same canonical layout SemiringMatMul
        // uses, offset into the group and with signed entry widths.
        let mut demand = RoutingDemand::new(n);
        for (t, _) in leaves.iter().enumerate() {
            let (gs, lp) = (group_start(t), &leaf_parts[t]);
            let (wire_a, wire_b, _) = &wires[t];
            for i in 0..lp.g {
                for j in 0..lp.g {
                    for k in 0..lp.g {
                        let w = gs + lp.cube_node(i, j, k);
                        let mut payloads: BTreeMap<usize, BitString> = BTreeMap::new();
                        for (side, row_block, col_block) in [(0, i, k), (1, k, j)] {
                            for r in lp.block(row_block) {
                                let v = gs + lp.row_owner(r);
                                if v == w {
                                    continue;
                                }
                                let buf = payloads.entry(v).or_default();
                                for c in lp.block(col_block) {
                                    match &leaf_ops[t] {
                                        LeafOperands::Bits(am, bm) => {
                                            let m = if side == 0 { am } else { bm };
                                            buf.push_bits(u64::from(m.get(r, c)), 1);
                                        }
                                        LeafOperands::Ints(am, bm) => {
                                            let (m, wire) = if side == 0 {
                                                (am, wire_a)
                                            } else {
                                                (bm, wire_b)
                                            };
                                            wire.encode(m.get(r, c) as i64, buf);
                                        }
                                    }
                                }
                            }
                        }
                        for (v, payload) in payloads {
                            chunk2.send(&mut demand, v, w, &payload);
                        }
                    }
                }
            }
        }
        let delivered = BalancedRouter.route(&demand, session)?;
        let merged: Vec<HashMap<usize, BitString>> =
            delivered.iter().map(|p| chunk2.merge(p)).collect();

        // Cube nodes reassemble their blocks and multiply with the packed
        // (F₂) or wrapping-exact (counting) leaf kernel.
        let mut partials: Vec<Vec<LeafPartial>> = Vec::with_capacity(leaves.len());
        for (t, _) in leaves.iter().enumerate() {
            let (gs, lp) = (group_start(t), &leaf_parts[t]);
            let (wire_a, wire_b, _) = &wires[t];
            let mut cubes = Vec::with_capacity(lp.g * lp.g * lp.g);
            for i in 0..lp.g {
                for j in 0..lp.g {
                    for k in 0..lp.g {
                        let w = gs + lp.cube_node(i, j, k);
                        let mut readers = readers_by_merged(&merged[w]);
                        let mut fill = |row_block: usize, col_block: usize, side: usize| {
                            let (rows, cols) = (lp.block(row_block), lp.block(col_block));
                            let mut bits = BitMatrix::zeros(rows.len(), cols.len());
                            let mut ints = IntMatrix::zeros(rows.len(), cols.len());
                            for (br, r) in rows.clone().enumerate() {
                                let v = gs + lp.row_owner(r);
                                for (bc, c) in cols.clone().enumerate() {
                                    match (&leaf_ops[t], v == w) {
                                        (LeafOperands::Bits(am, bm), true) => {
                                            let m = if side == 0 { am } else { bm };
                                            bits.set(br, bc, m.get(r, c));
                                        }
                                        (LeafOperands::Ints(am, bm), true) => {
                                            let m = if side == 0 { am } else { bm };
                                            ints.set(br, bc, m.get(r, c));
                                        }
                                        (LeafOperands::Bits(..), false) => {
                                            let reader = readers
                                                .get_mut(&v)
                                                .expect("missing fast-matmul block packet");
                                            let bit = reader
                                                .read_bits(1)
                                                .expect("malformed fast-matmul block record");
                                            bits.set(br, bc, bit == 1);
                                        }
                                        (LeafOperands::Ints(..), false) => {
                                            let wire = if side == 0 { wire_a } else { wire_b };
                                            let reader = readers
                                                .get_mut(&v)
                                                .expect("missing fast-matmul block packet");
                                            ints.set(br, bc, wire.decode(reader) as u64);
                                        }
                                    }
                                }
                            }
                            (bits, ints)
                        };
                        let (a_bits, a_ints) = fill(i, k, 0);
                        let (b_bits, b_ints) = fill(k, j, 1);
                        cubes.push(match self.semiring {
                            Semiring::F2 => {
                                LeafPartial::Bits(a_bits.mul_f2_with_threads(&b_bits, 1))
                            }
                            _ => LeafPartial::Ints(a_ints.mul_wrapping(&b_ints)),
                        });
                    }
                }
            }
            partials.push(cubes);
        }

        // Phase 3 (recombine): signed partials → output row owners. Each
        // cube's partial feeds every output block in its leaf's c_terms;
        // the receivers fold contributions in the same canonical
        // (leaf, cube, term, row, column) order the senders used. The i64
        // (counting) and XOR (F₂) folds are order-independent, unlike the
        // cubic path's saturating fold — exactness is the precondition.
        let mut acc_out = vec![0i64; d * d];
        let mut bits_out = BitMatrix::zeros(d, d);
        let fold = |semiring: Semiring,
                    acc_out: &mut Vec<i64>,
                    bits_out: &mut BitMatrix,
                    r: usize,
                    c: usize,
                    sign: i64,
                    value: i64| {
            match semiring {
                Semiring::F2 => {
                    if value & 1 == 1 {
                        let cur = bits_out.get(r, c);
                        bits_out.set(r, c, !cur);
                    }
                }
                _ => acc_out[r * d + c] += sign * value,
            }
        };
        let mut demand = RoutingDemand::new(n);
        for (t, leaf) in leaves.iter().enumerate() {
            let (gs, lp) = (group_start(t), &leaf_parts[t]);
            let (_, _, wire_p) = &wires[t];
            let mut cube_iter = partials[t].iter();
            for i in 0..lp.g {
                for j in 0..lp.g {
                    for k in 0..lp.g {
                        let w = gs + lp.cube_node(i, j, k);
                        let partial = cube_iter.next().expect("one partial per cube");
                        let mut payloads: BTreeMap<usize, BitString> = BTreeMap::new();
                        for &(ci, cj, sign) in &leaf.c_terms {
                            if cj * q >= d {
                                continue;
                            }
                            for (pi, rl) in lp.block(i).enumerate() {
                                let out_r = ci * q + rl;
                                if out_r >= d {
                                    continue;
                                }
                                let v = global.row_owner(out_r);
                                for (pj, cl) in lp.block(j).enumerate() {
                                    let out_c = cj * q + cl;
                                    if out_c >= d {
                                        continue;
                                    }
                                    let value = match partial {
                                        LeafPartial::Bits(m) => i64::from(m.get(pi, pj)),
                                        LeafPartial::Ints(m) => m.get(pi, pj) as i64,
                                    };
                                    if v == w {
                                        fold(
                                            self.semiring,
                                            &mut acc_out,
                                            &mut bits_out,
                                            out_r,
                                            out_c,
                                            sign,
                                            value,
                                        );
                                    } else {
                                        let buf = payloads.entry(v).or_default();
                                        match self.semiring {
                                            Semiring::F2 => buf.push_bits(value as u64, 1),
                                            _ => wire_p.encode(value, buf),
                                        }
                                    }
                                }
                            }
                        }
                        for (v, payload) in payloads {
                            chunk3.send(&mut demand, w, v, &payload);
                        }
                    }
                }
            }
        }
        let delivered = BalancedRouter.route(&demand, session)?;
        let merged: Vec<HashMap<usize, BitString>> =
            delivered.iter().map(|p| chunk3.merge(p)).collect();

        for (v, merged_sources) in merged.iter().enumerate() {
            let mut readers = readers_by_merged(merged_sources);
            for (t, leaf) in leaves.iter().enumerate() {
                let (gs, lp) = (group_start(t), &leaf_parts[t]);
                let (_, _, wire_p) = &wires[t];
                for i in 0..lp.g {
                    for j in 0..lp.g {
                        for k in 0..lp.g {
                            let w = gs + lp.cube_node(i, j, k);
                            if w == v {
                                continue; // folded locally above
                            }
                            for &(ci, cj, sign) in &leaf.c_terms {
                                if cj * q >= d {
                                    continue;
                                }
                                for rl in lp.block(i) {
                                    let out_r = ci * q + rl;
                                    if out_r >= d || global.row_owner(out_r) != v {
                                        continue;
                                    }
                                    for cl in lp.block(j) {
                                        let out_c = cj * q + cl;
                                        if out_c >= d {
                                            continue;
                                        }
                                        let reader = readers
                                            .get_mut(&w)
                                            .expect("missing fast-matmul partial packet");
                                        let value = match self.semiring {
                                            Semiring::F2 => reader
                                                .read_bits(1)
                                                .expect("malformed fast-matmul partial record")
                                                as i64,
                                            _ => wire_p.decode(reader),
                                        };
                                        fold(
                                            self.semiring,
                                            &mut acc_out,
                                            &mut bits_out,
                                            out_r,
                                            out_c,
                                            sign,
                                            value,
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }

        Ok(match self.semiring {
            Semiring::F2 => SemiringMatrix::Bits(bits_out),
            _ => {
                let mut out = IntMatrix::zeros(d, d);
                for r in 0..d {
                    for c in 0..d {
                        let value = acc_out[r * d + c];
                        debug_assert!(value >= 0, "the signed fold recovers the exact product");
                        out.set(r, c, value as u64);
                    }
                }
                SemiringMatrix::Ints(out)
            }
        })
    }
}

/// Runs [`FastMatMul`] on `CLIQUE-UCAST(d, b)`.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics on empty operands or any [`FastMatMul::new`] precondition
/// violation.
pub fn fast_matmul(
    a: &SemiringMatrix,
    b: &SemiringMatrix,
    semiring: Semiring,
    bandwidth: usize,
) -> Result<RunOutcome<SemiringMatrix>, SimError> {
    let n = a.rows();
    assert!(n > 0, "the operands must have at least one row");
    Runner::new(CliqueConfig::unicast(n, bandwidth)).execute(&mut FastMatMul::new(a, b, semiring))
}

/// Surviving sparse partials grouped per `(dst owner, output row)`:
/// `(row, col, value)` records awaiting the receiver-side fold.
type SparseRecords = BTreeMap<(usize, usize), Vec<(usize, usize, u64)>>;

/// The sparsity-aware distributed product (Le Gall, *Further Algebraic
/// Algorithms in the Congested Clique Model*) as a [`Protocol`]: only
/// entries that differ from the semiring's additive identity travel, so
/// the round count is charged off the actual `nnz` instead of `d²`.
///
/// The work is partitioned by *inner index*: the owner of inner index `k`
/// (the same `row_owner` map every path uses, so row `k` of `B` is already
/// in place and only `A`'s column nonzeros route) computes all products
/// `A[r][k] ⊗ B[k][c]`, folds them per output entry locally, and routes
/// the surviving partials to the output row owners. Because payloads are
/// data-dependent, records carry explicit count prefixes and index fields
/// (widths derived from public row counts, like the routers' packet
/// framing) — the fixed-width, data-oblivious layouts of the dense paths
/// do not apply.
///
/// Valid over **all four** semirings: unlike Strassen's subtractions, the
/// sparse path only reorders the same semiring additions the cubic path
/// performs (the folds are associative and commutative, saturation
/// included), so the result is identical entry for entry.
///
/// # Examples
///
/// ```
/// use clique_core::algebraic::{sparse_matmul, Semiring, SemiringMatrix};
/// use clique_core::sim::linalg::BitMatrix;
///
/// let a = SemiringMatrix::Bits(BitMatrix::identity(9));
/// let product = sparse_matmul(&a, &a, Semiring::Boolean, 4).unwrap();
/// assert_eq!(product.as_bits().unwrap(), &BitMatrix::identity(9));
/// ```
#[derive(Clone, Debug)]
pub struct SparseMatMul<'a> {
    a: &'a SemiringMatrix,
    b: &'a SemiringMatrix,
    semiring: Semiring,
}

impl<'a> SparseMatMul<'a> {
    /// Prepares the sparse product `A ⊗ B`.
    ///
    /// # Panics
    ///
    /// Panics on any [`SemiringMatMul::new`] precondition violation.
    pub fn new(a: &'a SemiringMatrix, b: &'a SemiringMatrix, semiring: Semiring) -> Self {
        let _ = SemiringMatMul::new(a, b, semiring);
        Self { a, b, semiring }
    }

    /// The additive identity ("zero") entries of this semiring never
    /// communicated by the sparse path.
    fn identity(semiring: Semiring) -> u64 {
        match semiring {
            Semiring::MinPlus => IntMatrix::INFINITY,
            _ => 0,
        }
    }

    /// The semiring product of two non-identity entries, matching the
    /// dense kernels' clamping exactly.
    fn multiply(semiring: Semiring, a: u64, b: u64) -> u64 {
        match semiring {
            Semiring::Boolean | Semiring::F2 => 1,
            Semiring::Counting => a.saturating_mul(b),
            Semiring::MinPlus => saturating_counting_add(a, b),
        }
    }
}

impl Protocol for SparseMatMul<'_> {
    type Output = SemiringMatrix;

    fn run(&mut self, session: &mut Session) -> Result<SemiringMatrix, SimError> {
        session.require_clique();
        let n = session.n();
        let d = self.a.rows();
        if d == 0 {
            return Ok(SemiringMatrix::identity_filled(self.semiring, 0, 0));
        }
        let part = Partition::new(n, d);
        let identity = Self::identity(self.semiring);
        let codec = EntryCodec::new(self.semiring, self.a, self.b, d);
        // Rows owned per player form a contiguous range (row_owner is a
        // monotone floor map), so local row indices are offsets from the
        // first owned row — all widths below are public.
        let owned: Vec<Range<usize>> = (0..n)
            .map(|v| {
                let first = (0..d).find(|&r| part.row_owner(r) == v).unwrap_or(d);
                let last = (first..d).take_while(|&r| part.row_owner(r) == v).last();
                first..last.map_or(first, |r| r + 1)
            })
            .collect();
        let idx_width = |len: usize| bits_for_universe(len as u64).max(1);
        let count_width = |bound: u64| bits_for_universe(bound.saturating_add(1)).max(1);

        // Phase 1: route A's column nonzeros to the inner-index owners
        // (B's rows are already in place). Records: (k offset among the
        // receiver's indices, r offset among the sender's rows, value).
        let mut demand = RoutingDemand::new(n);
        let mut records: SparseRecords = BTreeMap::new();
        for k in 0..d {
            let w = part.row_owner(k);
            for r in 0..d {
                let v = part.row_owner(r);
                if v == w {
                    continue; // the owner already holds its rows of A
                }
                let value = self.a.entry(r, k);
                if value != identity {
                    records.entry((v, w)).or_default().push((
                        k - owned[w].start,
                        r - owned[v].start,
                        value,
                    ));
                }
            }
        }
        for ((v, w), entries) in records {
            let mut payload = BitString::new();
            let bound = (owned[v].len() * owned[w].len()) as u64;
            payload.push_bits(entries.len() as u64, count_width(bound));
            for (kl, rl, value) in entries {
                payload.push_bits(kl as u64, idx_width(owned[w].len()));
                payload.push_bits(rl as u64, idx_width(owned[v].len()));
                codec.encode(&[value], codec.input_bits, &mut payload);
            }
            demand.send(v, w, payload);
        }
        let delivered = BalancedRouter.route(&demand, session)?;

        // Local compute at each inner-index owner: assemble the nonzero
        // columns of A, cross them with the owned nonzero rows of B, and
        // fold per output entry. Folding here and at the output owners
        // reorders the cubic path's identical semiring additions, which are
        // associative and commutative (saturation included) — so the
        // result matches the dense product exactly.
        let mut folded: Vec<BTreeMap<(usize, usize), u64>> = Vec::with_capacity(n);
        for w in 0..n {
            let mut columns: BTreeMap<usize, Vec<(usize, u64)>> = BTreeMap::new();
            for k in owned[w].clone() {
                for r in owned[w].clone() {
                    let value = self.a.entry(r, k);
                    if value != identity {
                        columns.entry(k).or_default().push((r, value));
                    }
                }
            }
            let mut readers = readers_by_source(&delivered[w]);
            for v in 0..n {
                let Some(reader) = readers.get_mut(&v) else {
                    continue; // no nonzeros from v (empty payloads unsent)
                };
                let bound = (owned[v].len() * owned[w].len()) as u64;
                let field = |reader: &mut BitReader<'_>, width| {
                    reader
                        .read_bits(width)
                        .ok_or_else(|| malformed(v, SPARSE_INPUT_PHASE))
                };
                let count = field(reader, count_width(bound))?;
                for _ in 0..count {
                    let kl = field(reader, idx_width(owned[w].len()))? as usize;
                    let rl = field(reader, idx_width(owned[v].len()))? as usize;
                    let mut value = [0];
                    codec.decode(reader, codec.input_bits, &mut value, v, SPARSE_INPUT_PHASE)?;
                    columns
                        .entry(owned[w].start + kl)
                        .or_default()
                        .push((owned[v].start + rl, value[0]));
                }
            }
            let mut partials: BTreeMap<(usize, usize), u64> = BTreeMap::new();
            for (k, col) in columns {
                for c in 0..d {
                    let b_value = self.b.entry(k, c);
                    if b_value == identity {
                        continue;
                    }
                    for &(r, a_value) in &col {
                        let product = Self::multiply(self.semiring, a_value, b_value);
                        let slot = partials.entry((r, c)).or_insert(identity);
                        *slot = self.semiring.combine(*slot, product);
                    }
                }
            }
            folded.push(partials);
        }

        // Phase 2: surviving partials route to the output row owners.
        // Records: (r offset among the receiver's rows, column, value).
        let mut output = SemiringMatrix::identity_filled(self.semiring, d, d);
        let mut demand = RoutingDemand::new(n);
        for (w, partials) in folded.iter().enumerate() {
            let mut records: BTreeMap<usize, Vec<(usize, usize, u64)>> = BTreeMap::new();
            for (&(r, c), &value) in partials {
                if value == identity {
                    continue; // e.g. an even F₂ parity folded away
                }
                let v = part.row_owner(r);
                if v == w {
                    output.combine_entry(self.semiring, r, c, value);
                } else {
                    records
                        .entry(v)
                        .or_default()
                        .push((r - owned[v].start, c, value));
                }
            }
            for (v, entries) in records {
                let mut payload = BitString::new();
                let bound = (owned[v].len() * d) as u64;
                payload.push_bits(entries.len() as u64, count_width(bound));
                for (rl, c, value) in entries {
                    payload.push_bits(rl as u64, idx_width(owned[v].len()));
                    payload.push_bits(c as u64, idx_width(d));
                    codec.encode(&[value], codec.partial_bits, &mut payload);
                }
                demand.send(w, v, payload);
            }
        }
        let delivered = BalancedRouter.route(&demand, session)?;

        for (v, packets) in delivered.iter().enumerate() {
            let mut readers = readers_by_source(packets);
            for w in 0..n {
                let Some(reader) = readers.get_mut(&w) else {
                    continue;
                };
                let bound = (owned[v].len() * d) as u64;
                let field = |reader: &mut BitReader<'_>, width| {
                    reader
                        .read_bits(width)
                        .ok_or_else(|| malformed(w, SPARSE_PARTIAL_PHASE))
                };
                let count = field(reader, count_width(bound))?;
                for _ in 0..count {
                    let rl = field(reader, idx_width(owned[v].len()))? as usize;
                    let c = field(reader, idx_width(d))? as usize;
                    let mut value = [0];
                    codec.decode(
                        reader,
                        codec.partial_bits,
                        &mut value,
                        w,
                        SPARSE_PARTIAL_PHASE,
                    )?;
                    output.combine_entry(self.semiring, owned[v].start + rl, c, value[0]);
                }
            }
        }
        Ok(output)
    }
}

/// Runs [`SparseMatMul`] on `CLIQUE-UCAST(d, b)`.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics on empty operands or any [`SparseMatMul::new`] precondition
/// violation.
pub fn sparse_matmul(
    a: &SemiringMatrix,
    b: &SemiringMatrix,
    semiring: Semiring,
    bandwidth: usize,
) -> Result<RunOutcome<SemiringMatrix>, SimError> {
    let n = a.rows();
    assert!(n > 0, "the operands must have at least one row");
    Runner::new(CliqueConfig::unicast(n, bandwidth)).execute(&mut SparseMatMul::new(a, b, semiring))
}

/// Auto dispatch sends a product to [`SparseMatMul`] when at most this
/// many eighths of the operands' entries are non-identity — below that the
/// nnz-charged phases beat the dense `d²`-charged ones at every measured
/// grid point (experiment E18).
pub const SPARSE_DENSITY_EIGHTHS: usize = 1;

/// Auto dispatch engages the Strassen schedule from this player count up —
/// the smallest clique whose seven depth-1 groups each keep the 8 players
/// a `2×2×2` internal cube needs (see [`FastMatMul::levels_for`]).
pub const STRASSEN_MIN_PLAYERS: usize = 56;

/// Auto dispatch engages the Strassen schedule only when `d ≥ aspect · n`:
/// with one row per player (`d = n`) the cubic partition's per-pair loads
/// are already a handful of bits and the fast path's three routed phases
/// plus chunk framing cost more than they save; from two rows per player
/// up, every measured grid point has the fast schedule strictly ahead on
/// rounds (experiment E18 pins the crossover).
pub const STRASSEN_MIN_ASPECT: usize = 2;

/// Which distributed product a consumer runs: the cubic 3D partition, the
/// Strassen-partitioned fast schedule, the nnz-charged sparse path, or an
/// automatic choice from `(semiring, n, d, density)`.
///
/// The dispatch rules are explicit (DESIGN.md "Fast algebraic matmul"):
/// `Auto` resolves to `Sparse` when the operands' density is at most
/// [`SPARSE_DENSITY_EIGHTHS`]/8; otherwise to `Strassen` when the semiring
/// is ring-embeddable (`F₂` or counting, with integer headroom), the
/// clique hosts at least one recursion level (`n` at or above
/// [`STRASSEN_MIN_PLAYERS`]), and the dimension gives every player at
/// least [`STRASSEN_MIN_ASPECT`] rows; otherwise — including **always**
/// for the Boolean and tropical `(min, +)` semirings, which have no
/// additive inverse for Strassen's subtractions — to `Cubic`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MatMulSchedule {
    /// Always the cubic 3D-partitioned [`SemiringMatMul`].
    #[default]
    Cubic,
    /// Always the Strassen-partitioned [`FastMatMul`] (panics on
    /// semirings without additive inverses; use `Auto` for dispatch).
    Strassen,
    /// Always the nnz-charged [`SparseMatMul`].
    Sparse,
    /// Pick the cheapest eligible schedule from `(semiring, n, d, density)`.
    Auto,
}

impl MatMulSchedule {
    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            MatMulSchedule::Cubic => "cubic",
            MatMulSchedule::Strassen => "strassen",
            MatMulSchedule::Sparse => "sparse",
            MatMulSchedule::Auto => "auto",
        }
    }

    /// The concrete schedule this dispatch runs for the given product —
    /// `Auto` applies the rules above; the explicit variants return
    /// themselves. Deterministic in public quantities plus the operand
    /// nnz, so every player resolves identically.
    pub fn resolve(
        self,
        a: &SemiringMatrix,
        b: &SemiringMatrix,
        semiring: Semiring,
        n: usize,
    ) -> MatMulSchedule {
        match self {
            MatMulSchedule::Auto => {
                let d = a.rows();
                let total = 2 * d * d;
                let nnz = a.nnz(semiring) + b.nnz(semiring);
                if total > 0 && nnz * 8 <= total * SPARSE_DENSITY_EIGHTHS {
                    MatMulSchedule::Sparse
                } else if matches!(semiring, Semiring::F2 | Semiring::Counting)
                    && n >= STRASSEN_MIN_PLAYERS
                    && d >= STRASSEN_MIN_ASPECT * n
                    && FastMatMul::levels_for(n, d) >= 1
                    && (semiring != Semiring::Counting
                        || counting_headroom_ok(
                            a.max_finite(),
                            b.max_finite(),
                            d,
                            FastMatMul::levels_for(n, d),
                        ))
                {
                    MatMulSchedule::Strassen
                } else {
                    MatMulSchedule::Cubic
                }
            }
            explicit => explicit,
        }
    }
}

/// A [`Protocol`] that resolves a [`MatMulSchedule`] and runs the chosen
/// distributed product in place — the single seam through which
/// [`TriangleCount`] and [`ApspProtocol`] pick their matmul path.
#[derive(Clone, Debug)]
pub struct ScheduledMatMul<'a> {
    a: &'a SemiringMatrix,
    b: &'a SemiringMatrix,
    semiring: Semiring,
    schedule: MatMulSchedule,
}

impl<'a> ScheduledMatMul<'a> {
    /// Prepares the product `A ⊗ B` under the given schedule.
    ///
    /// # Panics
    ///
    /// Panics on any [`SemiringMatMul::new`] precondition violation (an
    /// explicit `Strassen` schedule additionally needs a ring-embeddable
    /// semiring, checked at run time).
    pub fn new(
        a: &'a SemiringMatrix,
        b: &'a SemiringMatrix,
        semiring: Semiring,
        schedule: MatMulSchedule,
    ) -> Self {
        let _ = SemiringMatMul::new(a, b, semiring);
        Self {
            a,
            b,
            semiring,
            schedule,
        }
    }
}

impl Protocol for ScheduledMatMul<'_> {
    type Output = SemiringMatrix;

    fn run(&mut self, session: &mut Session) -> Result<SemiringMatrix, SimError> {
        match self
            .schedule
            .resolve(self.a, self.b, self.semiring, session.n())
        {
            MatMulSchedule::Cubic => {
                session.run_protocol(&mut SemiringMatMul::new(self.a, self.b, self.semiring))
            }
            MatMulSchedule::Strassen => {
                session.run_protocol(&mut FastMatMul::new(self.a, self.b, self.semiring))
            }
            MatMulSchedule::Sparse => {
                session.run_protocol(&mut SparseMatMul::new(self.a, self.b, self.semiring))
            }
            MatMulSchedule::Auto => unreachable!("resolve returns a concrete schedule"),
        }
    }
}

/// Runs [`ScheduledMatMul`] on `CLIQUE-UCAST(d, b)`.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics on empty operands or any schedule precondition violation.
pub fn scheduled_matmul(
    a: &SemiringMatrix,
    b: &SemiringMatrix,
    semiring: Semiring,
    schedule: MatMulSchedule,
    bandwidth: usize,
) -> Result<RunOutcome<SemiringMatrix>, SimError> {
    let n = a.rows();
    assert!(n > 0, "the operands must have at least one row");
    Runner::new(CliqueConfig::unicast(n, bandwidth))
        .execute(&mut ScheduledMatMul::new(a, b, semiring, schedule))
}

/// Exact triangle counting as a [`Protocol`]: `trace(A³)/6` through one
/// counting-semiring [`SemiringMatMul`] plus one fixed-width broadcast per
/// player.
///
/// Player `v` folds its rows of `M = A·A` against its own adjacency row
/// (`t_v = Σ_j M[v][j]·A[v][j]`, the closed 3-walks through `v`) and
/// broadcasts `t_v`; the sum over all players is `trace(A³) = 6·#triangles`.
#[derive(Clone, Debug)]
pub struct TriangleCount<'a> {
    graph: &'a Graph,
    schedule: MatMulSchedule,
}

impl<'a> TriangleCount<'a> {
    /// Prepares the protocol for the given input graph on the default
    /// cubic matmul schedule.
    pub fn new(graph: &'a Graph) -> Self {
        Self::with_schedule(graph, MatMulSchedule::Cubic)
    }

    /// Prepares the protocol with an explicit [`MatMulSchedule`] for the
    /// inner counting product (`Auto` picks from the adjacency density).
    pub fn with_schedule(graph: &'a Graph, schedule: MatMulSchedule) -> Self {
        Self { graph, schedule }
    }
}

impl Protocol for TriangleCount<'_> {
    type Output = u64;

    fn run(&mut self, session: &mut Session) -> Result<u64, SimError> {
        let n = self.graph.vertex_count();
        session.require_clique_of(n);
        let adjacency = IntMatrix::from_bitmatrix(&self.graph.adjacency_bitmatrix());
        let operand = SemiringMatrix::Ints(adjacency.clone());
        let product = session.run_protocol(&mut ScheduledMatMul::new(
            &operand,
            &operand,
            Semiring::Counting,
            self.schedule,
        ))?;
        let m = product.as_ints().expect("counting products are integers");

        // Player v's closed-3-walk count t_v ≤ n² fits in the fixed width
        // every player derives from n.
        let width = bits_for_universe((n as u64).saturating_mul(n as u64).saturating_add(1)).max(1);
        let part = Partition::new(n, n);
        let mut outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
        let mut locals = vec![0u64; n];
        for r in 0..n {
            let v = part.row_owner(r);
            let walks: u64 = m
                .row(r)
                .iter()
                .zip(adjacency.row(r))
                .map(|(&paths, &edge)| paths * edge)
                .sum();
            locals[v] += walks;
        }
        for (v, out) in outs.iter_mut().enumerate() {
            out.broadcast(BitString::from_bits(locals[v], width));
        }
        let inboxes = session.exchange(COUNT_PHASE, outs)?;

        // Everyone sums the announced counts; trace(A³) = 6·#triangles.
        let mut total = locals[0];
        for (src, payload) in inboxes[0].broadcasts() {
            if src.index() != 0 {
                total += payload
                    .reader()
                    .read_bits(width)
                    .ok_or_else(|| malformed(src.index(), COUNT_PHASE))?;
            }
        }
        Ok(total / 6)
    }
}

/// Label of [`TriangleCount`]'s closed-walk count broadcast.
const COUNT_PHASE: &str = "announce closed-walk counts";

/// Runs [`TriangleCount`] in `CLIQUE-UCAST(n, b)`.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics if the graph is empty.
pub fn count_triangles(graph: &Graph, bandwidth: usize) -> Result<RunOutcome<u64>, SimError> {
    let n = graph.vertex_count();
    assert!(n > 0, "the input graph must have at least one node");
    Runner::new(CliqueConfig::unicast(n, bandwidth)).execute(&mut TriangleCount::new(graph))
}

/// Runs [`TriangleCount`] in `CLIQUE-UCAST(n, b)` with an explicit matmul
/// schedule for the inner counting product.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics if the graph is empty or a forced schedule's preconditions fail.
pub fn count_triangles_scheduled(
    graph: &Graph,
    bandwidth: usize,
    schedule: MatMulSchedule,
) -> Result<RunOutcome<u64>, SimError> {
    let n = graph.vertex_count();
    assert!(n > 0, "the input graph must have at least one node");
    Runner::new(CliqueConfig::unicast(n, bandwidth))
        .execute(&mut TriangleCount::with_schedule(graph, schedule))
}

/// All-pairs shortest paths on an unweighted graph as a [`Protocol`]:
/// repeated `(min, +)` squaring of the hop matrix (0 on the diagonal, 1 on
/// edges, [`IntMatrix::INFINITY`] elsewhere) through [`SemiringMatMul`].
///
/// After `t` squarings the matrix holds exact distances up to `2^t`, so
/// `⌈log₂(n−1)⌉` distance products always suffice; a one-bit per-player
/// "my rows changed" vote after each squaring stops earlier on
/// small-diameter graphs. The output distance matrix has
/// [`IntMatrix::INFINITY`] for disconnected pairs.
#[derive(Clone, Debug)]
pub struct ApspProtocol<'a> {
    graph: &'a Graph,
    schedule: MatMulSchedule,
}

impl<'a> ApspProtocol<'a> {
    /// Prepares the protocol for the given input graph on the default
    /// cubic matmul schedule.
    pub fn new(graph: &'a Graph) -> Self {
        Self::with_schedule(graph, MatMulSchedule::Cubic)
    }

    /// Prepares the protocol with an explicit [`MatMulSchedule`]. `(min, +)`
    /// has no Strassen analogue, so `Auto` only ever picks between the
    /// sparse path (hop matrices of sparse graphs start mostly-INFINITY)
    /// and the cubic one — re-resolved before every squaring as the
    /// distance matrix densifies.
    pub fn with_schedule(graph: &'a Graph, schedule: MatMulSchedule) -> Self {
        Self { graph, schedule }
    }

    /// The hop matrix the squaring starts from: 0 on the diagonal, 1 on
    /// edges, [`IntMatrix::INFINITY`] elsewhere. Public so experiments can
    /// square exactly the matrix the protocol squares.
    pub fn hop_matrix(graph: &Graph) -> IntMatrix {
        let n = graph.vertex_count();
        let mut w = IntMatrix::filled(n, n, IntMatrix::INFINITY);
        for v in 0..n {
            w.set(v, v, 0);
        }
        for (u, v) in graph.edges() {
            w.set(u, v, 1);
            w.set(v, u, 1);
        }
        w
    }
}

impl Protocol for ApspProtocol<'_> {
    type Output = IntMatrix;

    fn run(&mut self, session: &mut Session) -> Result<IntMatrix, SimError> {
        let n = self.graph.vertex_count();
        session.require_clique_of(n);
        let mut distances = Self::hop_matrix(self.graph);
        if n <= 1 {
            return Ok(distances);
        }
        let part = Partition::new(n, n);
        let squarings = (usize::BITS - (n - 1).leading_zeros()) as usize;
        for _ in 0..squarings {
            let operand = SemiringMatrix::Ints(distances);
            let squared = session.run_protocol(&mut ScheduledMatMul::new(
                &operand,
                &operand,
                Semiring::MinPlus,
                self.schedule,
            ))?;
            let squared = squared
                .as_ints()
                .expect("min-plus products are integers")
                .clone();
            let previous = operand.as_ints().expect("operand is integers");

            // Early-exit vote: player v announces whether any of its rows
            // changed; everyone stops after a unanimous "no".
            let mut changed = vec![false; n];
            for r in 0..n {
                if squared.row(r) != previous.row(r) {
                    changed[part.row_owner(r)] = true;
                }
            }
            let mut outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
            for (v, out) in outs.iter_mut().enumerate() {
                out.broadcast(BitString::from_bits(u64::from(changed[v]), 1));
            }
            session.exchange("announce distance-change flags", outs)?;
            distances = squared;
            if !changed.iter().any(|&c| c) {
                break;
            }
        }
        Ok(distances)
    }
}

/// Runs [`ApspProtocol`] in `CLIQUE-UCAST(n, b)`.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics if the graph is empty.
pub fn compute_apsp(graph: &Graph, bandwidth: usize) -> Result<RunOutcome<IntMatrix>, SimError> {
    let n = graph.vertex_count();
    assert!(n > 0, "the input graph must have at least one node");
    Runner::new(CliqueConfig::unicast(n, bandwidth)).execute(&mut ApspProtocol::new(graph))
}

/// Runs [`ApspProtocol`] in `CLIQUE-UCAST(n, b)` with an explicit matmul
/// schedule for the `(min, +)` squarings.
///
/// # Errors
///
/// Propagates simulator errors (which cannot occur for well-formed inputs).
///
/// # Panics
///
/// Panics if the graph is empty or a forced schedule's preconditions fail
/// (in particular `Strassen`, which `(min, +)` does not support).
pub fn compute_apsp_scheduled(
    graph: &Graph,
    bandwidth: usize,
    schedule: MatMulSchedule,
) -> Result<RunOutcome<IntMatrix>, SimError> {
    let n = graph.vertex_count();
    assert!(n > 0, "the input graph must have at least one node");
    Runner::new(CliqueConfig::unicast(n, bandwidth))
        .execute(&mut ApspProtocol::with_schedule(graph, schedule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_graphs::{generators, iso};
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_bitmatrix(d: usize, seed: u64) -> BitMatrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rows: Vec<Vec<bool>> = (0..d)
            .map(|_| (0..d).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        BitMatrix::from_rows(&rows)
    }

    fn random_intmatrix(d: usize, max: u64, infinities: bool, seed: u64) -> IntMatrix {
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

    #[test]
    fn boolean_product_matches_local_kernel_across_sizes() {
        // d = 100 (g = 4) folds 25-column partials into lane offsets 25,
        // 50 and 75, spilling across a lane boundary.
        for (d, seed) in [(1usize, 1u64), (3, 2), (8, 3), (17, 4), (27, 5), (100, 6)] {
            let a = SemiringMatrix::Bits(random_bitmatrix(d, seed));
            let b = SemiringMatrix::Bits(random_bitmatrix(d, seed + 100));
            let outcome = semiring_matmul(&a, &b, Semiring::Boolean, 4).unwrap();
            let expected = a.as_bits().unwrap().mul_bool(b.as_bits().unwrap());
            assert_eq!(outcome.as_bits().unwrap(), &expected, "d = {d}");
        }
    }

    #[test]
    fn counting_product_matches_local_kernel() {
        for (d, max, seed) in [(1usize, 1u64, 11u64), (6, 1, 12), (13, 7, 13), (27, 3, 14)] {
            let a = SemiringMatrix::Ints(random_intmatrix(d, max, false, seed));
            let b = SemiringMatrix::Ints(random_intmatrix(d, max, false, seed + 100));
            let outcome = semiring_matmul(&a, &b, Semiring::Counting, 4).unwrap();
            let expected = a.as_ints().unwrap().mul_counting(b.as_ints().unwrap());
            assert_eq!(outcome.as_ints().unwrap(), &expected, "d = {d}");
        }
    }

    #[test]
    fn min_plus_product_matches_local_kernel_with_infinities() {
        for (d, max, seed) in [(2usize, 5u64, 21u64), (9, 9, 22), (27, 4, 23)] {
            let a = SemiringMatrix::Ints(random_intmatrix(d, max, true, seed));
            let b = SemiringMatrix::Ints(random_intmatrix(d, max, true, seed + 100));
            let outcome = semiring_matmul(&a, &b, Semiring::MinPlus, 4).unwrap();
            let expected = a.as_ints().unwrap().mul_min_plus(b.as_ints().unwrap());
            assert_eq!(outcome.as_ints().unwrap(), &expected, "d = {d}");
        }
    }

    #[test]
    fn tiny_matrices_on_large_sessions_have_empty_blocks() {
        // d < g = ⌊n^{1/3}⌋ makes some row/column blocks empty; the empty
        // segments are never routed, and the decode side must not expect
        // packets for them.
        for d in [1usize, 2] {
            for (semiring, operand) in [
                (
                    Semiring::Boolean,
                    SemiringMatrix::Bits(random_bitmatrix(d, 71)),
                ),
                (
                    Semiring::Counting,
                    SemiringMatrix::Ints(random_intmatrix(d, 3, false, 72)),
                ),
                (
                    Semiring::MinPlus,
                    SemiringMatrix::Ints(random_intmatrix(d, 3, true, 73)),
                ),
            ] {
                let outcome = Runner::new(CliqueConfig::unicast(27, 4))
                    .execute(&mut SemiringMatMul::new(&operand, &operand, semiring))
                    .unwrap();
                let expected = operand.product(&operand, semiring);
                assert_eq!(*outcome, expected, "{} d = {d} on n = 27", semiring.name());
            }
        }
    }

    #[test]
    fn truncated_segments_are_typed_errors() {
        // A (min, +) integer row (3-bit fields, INFINITY as the all-ones
        // sentinel), a one-bit counting row (packed) and a Boolean row.
        let square = |row: Vec<u64>| {
            let mut m = IntMatrix::zeros(7, 7);
            m.row_mut(2).copy_from_slice(&row);
            SemiringMatrix::Ints(m)
        };
        let ints = square(vec![0, 3, IntMatrix::INFINITY, 5, 1, 4, 2]);
        let ones = square(vec![1, 0, 1, 1, 0, 0, 1]);
        let bits = SemiringMatrix::Bits(ones.as_ints().unwrap().to_bitmatrix());
        // One player: a single 7 × 7 block, of which row 2 travels.
        let part = Partition::new(1, 7);
        for (semiring, operand) in [
            (Semiring::MinPlus, &ints),
            (Semiring::Counting, &ones),
            (Semiring::Boolean, &bits),
        ] {
            let codec = EntryCodec::new(semiring, operand, operand, 7);
            let block = &codec.operand_blocks(operand, &part)[0];
            assert_eq!(
                matches!(block, SemiringMatrix::Bits(_)),
                semiring != Semiring::MinPlus
            );
            let mut wire = BitString::new();
            codec.encode_row(block, 2, codec.input_bits, &mut wire);
            assert_eq!(wire.len(), 7 * codec.input_bits);
            let mut decoded = block.zeros_like();
            codec
                .decode_row(
                    &mut wire.reader(),
                    &mut decoded,
                    2,
                    codec.input_bits,
                    5,
                    INPUT_PHASE,
                )
                .unwrap();
            assert_eq!(&decoded, block, "{} round trip", semiring.name());
            for cut in 0..wire.len() {
                let prefix = BitString::from_words(wire.words(), cut);
                assert_eq!(
                    codec.decode_row(
                        &mut prefix.reader(),
                        &mut decoded,
                        2,
                        codec.input_bits,
                        5,
                        INPUT_PHASE
                    ),
                    Err(SimError::MalformedPayload {
                        sender: NodeId::new(5),
                        phase: INPUT_PHASE.into(),
                    }),
                    "{} prefix of {cut} bits",
                    semiring.name()
                );
            }
        }
        // Single-field reads (the sparse records) fail the same way.
        let codec = EntryCodec::new(Semiring::MinPlus, &ints, &ints, 7);
        let mut value = [0];
        let empty = BitString::new();
        assert_eq!(
            codec.decode(
                &mut empty.reader(),
                codec.partial_bits,
                &mut value,
                2,
                PARTIAL_PHASE
            ),
            Err(malformed(2, PARTIAL_PHASE))
        );
    }

    #[test]
    fn more_players_and_bandwidth_mean_fewer_rounds() {
        // The whole point of the 3D partition: rounds track n^{1/3}/b, so
        // doubling the bandwidth at fixed n must cut rounds roughly in half.
        let d = 32;
        let a = SemiringMatrix::Bits(random_bitmatrix(d, 31));
        let slow = semiring_matmul(&a, &a, Semiring::Boolean, 1).unwrap();
        let fast = semiring_matmul(&a, &a, Semiring::Boolean, 8).unwrap();
        assert!(
            fast.rounds() * 4 <= slow.rounds(),
            "bandwidth 8 took {} rounds vs {} at bandwidth 1",
            fast.rounds(),
            slow.rounds()
        );
    }

    #[test]
    fn triangle_count_matches_the_oracle() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x713);
        for (n, p) in [(4usize, 0.9f64), (9, 0.4), (16, 0.25), (27, 0.3)] {
            let g = generators::erdos_renyi(n, p, &mut rng);
            let outcome = count_triangles(&g, 4).unwrap();
            assert_eq!(*outcome, iso::triangle_count(&g), "n = {n}, p = {p}");
        }
    }

    #[test]
    fn triangle_count_on_degenerate_graphs() {
        assert_eq!(*count_triangles(&Graph::empty(1), 2).unwrap(), 0);
        assert_eq!(*count_triangles(&generators::complete(3), 2).unwrap(), 1);
        assert_eq!(*count_triangles(&generators::complete(6), 2).unwrap(), 20);
        let bip = generators::complete_bipartite(5, 5);
        assert_eq!(*count_triangles(&bip, 2).unwrap(), 0);
    }

    #[test]
    fn apsp_matches_bfs_distances() {
        let mut rng = ChaCha8Rng::seed_from_u64(0xA5B);
        for (n, p) in [(5usize, 0.5f64), (12, 0.2), (20, 0.12)] {
            let g = generators::erdos_renyi(n, p, &mut rng);
            let outcome = compute_apsp(&g, 4).unwrap();
            assert_eq!(*outcome, iso::bfs_distances(&g), "n = {n}, p = {p}");
        }
        // A path graph exercises the full ⌈log₂(n−1)⌉ squaring schedule.
        let path = generators::path(17);
        let outcome = compute_apsp(&path, 4).unwrap();
        assert_eq!(*outcome, iso::bfs_distances(&path));
        assert_eq!(outcome.get(0, 16), 16);
    }

    #[test]
    fn apsp_early_exit_saves_rounds_on_small_diameter() {
        // Diameter 2 converges after the first vote; a long path needs the
        // full schedule.
        let star = generators::complete_bipartite(1, 16);
        let path = generators::path(17);
        let star_rounds = compute_apsp(&star, 4).unwrap().rounds();
        let path_rounds = compute_apsp(&path, 4).unwrap().rounds();
        assert!(
            star_rounds < path_rounds,
            "star {star_rounds} vs path {path_rounds}"
        );
    }

    #[test]
    fn f2_product_matches_local_kernel_across_sizes() {
        for (d, seed) in [
            (1usize, 41u64),
            (3, 42),
            (8, 43),
            (17, 44),
            (27, 45),
            (100, 46),
        ] {
            let a = SemiringMatrix::Bits(random_bitmatrix(d, seed));
            let b = SemiringMatrix::Bits(random_bitmatrix(d, seed + 100));
            let outcome = semiring_matmul(&a, &b, Semiring::F2, 4).unwrap();
            let expected = a.as_bits().unwrap().mul_f2(b.as_bits().unwrap());
            assert_eq!(outcome.as_bits().unwrap(), &expected, "d = {d}");
        }
    }

    #[test]
    fn strassen_leaf_coeffs_reassemble_the_product() {
        // Local sanity for the flattened recursion: summing the signed leaf
        // products over ℤ must reassemble the full integer product at every
        // depth the distributed schedule uses.
        let mut rng = ChaCha8Rng::seed_from_u64(0xFA57);
        for levels in 1..=2u32 {
            let q = 3usize; // leaf block side
            let side = q << levels;
            let a: Vec<i64> = (0..side * side)
                .map(|_| rng.gen_range(0i64..9) - 4)
                .collect();
            let b: Vec<i64> = (0..side * side)
                .map(|_| rng.gen_range(0i64..9) - 4)
                .collect();
            let mut expected = vec![0i64; side * side];
            for r in 0..side {
                for k in 0..side {
                    for c in 0..side {
                        expected[r * side + c] += a[r * side + k] * b[k * side + c];
                    }
                }
            }
            let mut actual = vec![0i64; side * side];
            for leaf in strassen_leaf_coeffs(levels) {
                let combine = |m: &[i64], terms: &[(usize, usize, i64)]| {
                    let mut block = vec![0i64; q * q];
                    for &(bi, bj, s) in terms {
                        for r in 0..q {
                            for c in 0..q {
                                block[r * q + c] += s * m[(bi * q + r) * side + (bj * q + c)];
                            }
                        }
                    }
                    block
                };
                let (ca, cb) = (combine(&a, &leaf.a_terms), combine(&b, &leaf.b_terms));
                for &(ci, cj, s) in &leaf.c_terms {
                    for r in 0..q {
                        for c in 0..q {
                            let mut dot = 0i64;
                            for k in 0..q {
                                dot += ca[r * q + k] * cb[k * q + c];
                            }
                            actual[(ci * q + r) * side + (cj * q + c)] += s * dot;
                        }
                    }
                }
            }
            assert_eq!(actual, expected, "levels = {levels}");
        }
    }

    #[test]
    fn fast_f2_product_matches_cubic_and_local_kernels() {
        // Non-powers of two exercise the shared padding seam; the depth is
        // forced so small cliques still run the strassen phases.
        for (d, levels, seed) in [
            (8usize, 1u32, 51u64),
            (13, 1, 52),
            (27, 1, 53),
            (49, 2, 54),
            (56, 2, 55),
        ] {
            let a = SemiringMatrix::Bits(random_bitmatrix(d, seed));
            let b = SemiringMatrix::Bits(random_bitmatrix(d, seed + 100));
            let outcome = Runner::new(CliqueConfig::unicast(d, 4))
                .execute(&mut FastMatMul::new(&a, &b, Semiring::F2).with_levels(levels))
                .unwrap();
            let cubic = semiring_matmul(&a, &b, Semiring::F2, 4).unwrap();
            let local = a.as_bits().unwrap().mul_f2(b.as_bits().unwrap());
            assert_eq!(outcome.as_bits().unwrap(), &local, "d = {d} local");
            assert_eq!(*outcome, *cubic, "d = {d} cubic");
        }
    }

    #[test]
    fn fast_counting_product_matches_cubic_and_local_kernels() {
        for (d, max, levels, seed) in [
            (9usize, 3u64, 1u32, 61u64),
            (16, 7, 1, 62),
            (27, 1, 1, 63),
            (50, 5, 2, 64),
        ] {
            let a = SemiringMatrix::Ints(random_intmatrix(d, max, false, seed));
            let b = SemiringMatrix::Ints(random_intmatrix(d, max, false, seed + 100));
            let outcome = Runner::new(CliqueConfig::unicast(d, 4))
                .execute(&mut FastMatMul::new(&a, &b, Semiring::Counting).with_levels(levels))
                .unwrap();
            let cubic = semiring_matmul(&a, &b, Semiring::Counting, 4).unwrap();
            let local = a.as_ints().unwrap().mul_counting(b.as_ints().unwrap());
            assert_eq!(outcome.as_ints().unwrap(), &local, "d = {d} local");
            assert_eq!(*outcome, *cubic, "d = {d} cubic");
        }
    }

    #[test]
    fn fast_matmul_on_small_cliques_falls_back_to_cubic() {
        // n < 7 cannot host the 7 disjoint groups; the auto depth is 0 and
        // the cubic partition runs in place with an identical transcript.
        let d = 5;
        let a = SemiringMatrix::Bits(random_bitmatrix(d, 81));
        assert_eq!(FastMatMul::levels_for(d, d), 0);
        let fast = fast_matmul(&a, &a, Semiring::F2, 4).unwrap();
        let cubic = semiring_matmul(&a, &a, Semiring::F2, 4).unwrap();
        assert_eq!(*fast, *cubic);
        assert_eq!(fast.rounds(), cubic.rounds());
    }

    #[test]
    fn fast_matmul_handles_degenerate_dimensions() {
        // d = 1 keeps depth 0 (leaf blocks would be a single padded row);
        // the product still goes through and matches.
        let a = SemiringMatrix::Bits(BitMatrix::from_rows(&[vec![true]]));
        let fast = fast_matmul(&a, &a, Semiring::F2, 4).unwrap();
        assert_eq!(fast.as_bits().unwrap(), a.as_bits().unwrap());
    }

    #[test]
    #[should_panic(expected = "ring-embeddable")]
    fn fast_matmul_rejects_min_plus() {
        let m = SemiringMatrix::Ints(IntMatrix::zeros(8, 8));
        let _ = FastMatMul::new(&m, &m, Semiring::MinPlus);
    }

    #[test]
    #[should_panic(expected = "ring-embeddable")]
    fn fast_matmul_rejects_boolean() {
        let m = SemiringMatrix::Bits(BitMatrix::identity(8));
        let _ = FastMatMul::new(&m, &m, Semiring::Boolean);
    }

    #[test]
    fn sparse_product_matches_cubic_on_all_semirings() {
        for (d, seed) in [(6usize, 91u64), (17, 92), (27, 93)] {
            let bits = |s| SemiringMatrix::Bits(random_bitmatrix(d, s));
            let ints = |inf, s| SemiringMatrix::Ints(random_intmatrix(d, 4, inf, s));
            for (semiring, a, b) in [
                (Semiring::Boolean, bits(seed), bits(seed + 100)),
                (Semiring::F2, bits(seed + 1), bits(seed + 101)),
                (
                    Semiring::Counting,
                    ints(false, seed + 2),
                    ints(false, seed + 102),
                ),
                (
                    Semiring::MinPlus,
                    ints(true, seed + 3),
                    ints(true, seed + 103),
                ),
            ] {
                let sparse = sparse_matmul(&a, &b, semiring, 4).unwrap();
                let cubic = semiring_matmul(&a, &b, semiring, 4).unwrap();
                assert_eq!(*sparse, *cubic, "{} d = {d}", semiring.name());
            }
        }
    }

    #[test]
    fn sparse_identity_operands_cost_almost_nothing() {
        // nnz-charged rounds: multiplying identities (d nonzeros) must be
        // far cheaper than the dense cubic exchange of the same dimension.
        let d = 32;
        let a = SemiringMatrix::Bits(BitMatrix::identity(d));
        let sparse = sparse_matmul(&a, &a, Semiring::Boolean, 4).unwrap();
        let cubic = semiring_matmul(&a, &a, Semiring::Boolean, 4).unwrap();
        assert_eq!(*sparse, *cubic);
        assert!(
            sparse.rounds() * 2 <= cubic.rounds(),
            "sparse {} rounds vs cubic {}",
            sparse.rounds(),
            cubic.rounds()
        );
    }

    #[test]
    fn auto_schedule_dispatches_by_density_and_semiring() {
        let (n, d) = (56, 112);
        let dense = SemiringMatrix::Bits(random_bitmatrix(d, 95));
        let sparse = SemiringMatrix::Bits(BitMatrix::identity(d));
        let auto = MatMulSchedule::Auto;
        assert_eq!(
            auto.resolve(&sparse, &sparse, Semiring::F2, n),
            MatMulSchedule::Sparse
        );
        assert_eq!(
            auto.resolve(&dense, &dense, Semiring::F2, n),
            MatMulSchedule::Strassen
        );
        assert_eq!(
            auto.resolve(&dense, &dense, Semiring::Boolean, n),
            MatMulSchedule::Cubic,
            "no additive inverse: boolean stays cubic"
        );
        let mp = SemiringMatrix::Ints(random_intmatrix(d, 4, false, 96));
        assert_eq!(
            auto.resolve(&mp, &mp, Semiring::MinPlus, n),
            MatMulSchedule::Cubic,
            "no additive inverse: (min, +) stays cubic"
        );
        assert_eq!(
            auto.resolve(&dense, &dense, Semiring::F2, 8),
            MatMulSchedule::Cubic,
            "below the measured player crossover the cubic path wins"
        );
        assert_eq!(
            auto.resolve(&dense, &dense, Semiring::F2, d),
            MatMulSchedule::Cubic,
            "one row per player (d = n): the cubic pair loads are already \
             tiny and the fast path's routed phases cost more than they save"
        );
        for explicit in [
            MatMulSchedule::Cubic,
            MatMulSchedule::Strassen,
            MatMulSchedule::Sparse,
        ] {
            assert_eq!(explicit.resolve(&dense, &dense, Semiring::F2, d), explicit);
        }
    }

    #[test]
    fn scheduled_consumers_match_their_default_counterparts() {
        let mut rng = ChaCha8Rng::seed_from_u64(0x5C4E);
        let g = generators::erdos_renyi(28, 0.3, &mut rng);
        let default_triangles = count_triangles(&g, 4).unwrap();
        for schedule in [
            MatMulSchedule::Cubic,
            MatMulSchedule::Strassen,
            MatMulSchedule::Sparse,
            MatMulSchedule::Auto,
        ] {
            let scheduled = count_triangles_scheduled(&g, 4, schedule).unwrap();
            assert_eq!(*scheduled, *default_triangles, "{}", schedule.name());
        }
        let sparse_g = generators::path(20);
        let default_apsp = compute_apsp(&sparse_g, 4).unwrap();
        for schedule in [
            MatMulSchedule::Cubic,
            MatMulSchedule::Sparse,
            MatMulSchedule::Auto,
        ] {
            let scheduled = compute_apsp_scheduled(&sparse_g, 4, schedule).unwrap();
            assert_eq!(*scheduled, *default_apsp, "{}", schedule.name());
        }
    }

    #[test]
    #[should_panic(expected = "representation does not match")]
    fn mismatched_operand_representation_is_rejected() {
        let a = SemiringMatrix::Bits(BitMatrix::identity(4));
        let _ = SemiringMatMul::new(&a, &a, Semiring::Counting);
    }

    #[test]
    #[should_panic(expected = "reserved INFINITY")]
    fn counting_rejects_infinity_entries() {
        let m = SemiringMatrix::Ints(IntMatrix::filled(3, 3, IntMatrix::INFINITY));
        let _ = SemiringMatMul::new(&m, &m, Semiring::Counting);
    }

    #[test]
    #[should_panic(expected = "must be square")]
    fn rectangular_operands_are_rejected() {
        let a = SemiringMatrix::Ints(IntMatrix::zeros(3, 4));
        let _ = SemiringMatMul::new(&a, &a, Semiring::Counting);
    }
}
