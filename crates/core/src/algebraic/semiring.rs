use super::*;

/// The semiring a [`SemiringMatMul`] multiplies over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Semiring {
    /// The Boolean semiring `(∨, ∧)` over 0/1 entries (packed
    /// [`BitMatrix`] operands).
    Boolean,
    /// The field `F₂ = (⊕, ∧)` over 0/1 entries (packed [`BitMatrix`]
    /// operands) — the ring the algebraic-methods line actually multiplies
    /// over (Shamir's reduction turns Boolean products into a few `F₂`
    /// products).
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

    /// Semiring addition, used to fold partial products. The Boolean and
    /// `F₂` additions are bitwise, so they fold packed lanes a word at a
    /// time as well.
    pub(super) fn combine(&self, a: u64, b: u64) -> u64 {
        match self {
            Semiring::Boolean => a | b,
            Semiring::F2 => a ^ b,
            Semiring::Counting => saturating_counting_add(a, b),
            Semiring::MinPlus => a.min(b),
        }
    }

    /// Folds `word`, up to a lane of packed entries, into the packed `row`
    /// from column `col` on with the bitwise Boolean or `F₂` addition:
    /// shifted into place when `col` is not lane-aligned, and spilling into
    /// the next lane. Every set bit of `word` must land inside the row.
    pub(super) fn fold_lane(&self, row: &mut [u64], col: usize, word: u64) {
        let (at, shift) = (col / LANE_BITS, col % LANE_BITS);
        row[at] = self.combine(row[at], word << shift);
        if shift > 0 && word >> (LANE_BITS - shift) != 0 {
            let spill = word >> (LANE_BITS - shift);
            row[at + 1] = self.combine(row[at + 1], spill);
        }
    }

    /// The additive identity ("zero"): [`IntMatrix::INFINITY`] under
    /// `(min, +)`, 0 elsewhere. The sparse path never communicates it.
    pub(super) fn identity(&self) -> u64 {
        match self {
            Semiring::MinPlus => IntMatrix::INFINITY,
            _ => 0,
        }
    }

    /// The semiring product of two non-identity entries, matching the
    /// dense kernels' clamping exactly.
    pub(super) fn multiply(&self, a: u64, b: u64) -> u64 {
        match self {
            Semiring::Boolean | Semiring::F2 => 1,
            Semiring::Counting => a.saturating_mul(b),
            Semiring::MinPlus => saturating_counting_add(a, b),
        }
    }

    /// A block's local product on the serial word-parallel kernels.
    /// Counting operands whose entries are all 0/1 arrive packed and
    /// multiply on byte counters ([`BitMatrix::counting_product`]).
    pub(super) fn product(&self, a: &SemiringMatrix, b: &SemiringMatrix) -> SemiringMatrix {
        use SemiringMatrix::{Bits, Ints};
        match (self, a, b) {
            (Semiring::Boolean, Bits(a), Bits(b)) => Bits(a.mul_bool(b)),
            (Semiring::F2, Bits(a), Bits(b)) => Bits(a.mul_f2(b)),
            (Semiring::Counting, Bits(a), Bits(b)) => Ints(a.counting_product(b)),
            (Semiring::Counting, Ints(a), Ints(b)) => Ints(a.mul_counting(b)),
            (Semiring::MinPlus, Ints(a), Ints(b)) => Ints(a.mul_min_plus(b)),
            _ => unreachable!("operand representation checked in SemiringMatMul::new"),
        }
    }
}

/// A square matrix in the representation its semiring multiplies fastest:
/// packed bits for the Boolean and `F₂` semirings and for 0/1 counting
/// operands, small integers for the counting and `(min, +)` semirings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SemiringMatrix {
    /// Packed 0/1 entries (Boolean, `F₂` and 0/1 counting operands).
    Bits(BitMatrix),
    /// Small-integer entries (counting and `(min, +)` semiring operands).
    Ints(IntMatrix),
}

impl SemiringMatrix {
    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        match self {
            SemiringMatrix::Bits(m) => m.rows(),
            SemiringMatrix::Ints(m) => m.rows(),
        }
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        match self {
            SemiringMatrix::Bits(m) => m.cols(),
            SemiringMatrix::Ints(m) => m.cols(),
        }
    }

    /// The entry at `(i, j)` widened to `u64` (0/1 for packed bits).
    pub(crate) fn entry(&self, i: usize, j: usize) -> u64 {
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
    pub(super) fn identity_filled(semiring: Semiring, rows: usize, cols: usize) -> SemiringMatrix {
        match semiring {
            Semiring::Boolean | Semiring::F2 => SemiringMatrix::Bits(BitMatrix::zeros(rows, cols)),
            _ => SemiringMatrix::Ints(IntMatrix::filled(rows, cols, semiring.identity())),
        }
    }

    /// Folds `value` into the entry at `(i, j)` with the semiring addition.
    pub(super) fn combine_entry(&mut self, semiring: Semiring, i: usize, j: usize, value: u64) {
        match self {
            SemiringMatrix::Bits(m) => {
                m.set(i, j, semiring.combine(m.get(i, j).into(), value) != 0)
            }
            SemiringMatrix::Ints(m) => m.set(i, j, semiring.combine(m.get(i, j), value)),
        }
    }

    /// The block spanning the given rows and columns.
    pub(super) fn submatrix(&self, rows: Range<usize>, cols: Range<usize>) -> SemiringMatrix {
        let (r0, c0, h, w) = (rows.start, cols.start, rows.len(), cols.len());
        match self {
            SemiringMatrix::Bits(m) => SemiringMatrix::Bits(m.submatrix(r0, c0, h, w)),
            SemiringMatrix::Ints(m) => SemiringMatrix::Ints(m.submatrix(r0, c0, h, w)),
        }
    }

    /// An all-zero `rows × cols` matrix in this matrix's representation.
    pub(super) fn zeros_like(&self, rows: usize, cols: usize) -> SemiringMatrix {
        match self {
            SemiringMatrix::Bits(_) => SemiringMatrix::Bits(BitMatrix::zeros(rows, cols)),
            SemiringMatrix::Ints(_) => SemiringMatrix::Ints(IntMatrix::zeros(rows, cols)),
        }
    }

    /// Overwrites row `i` with row `si` of `src`, a matrix of the same
    /// width and representation.
    pub(super) fn copy_row(&mut self, i: usize, src: &SemiringMatrix, si: usize) {
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

    /// Folds the first `len` entries of row `si` of `src` into row `r` from
    /// column `col0` on with the semiring addition: packed rows a lane at a
    /// time (shifted into place when `col0` is not lane-aligned; the
    /// Boolean and `F₂` additions are bitwise), integer rows entry-wise
    /// over two slices.
    pub(super) fn fold_row(
        &mut self,
        semiring: Semiring,
        r: usize,
        col0: usize,
        src: &SemiringMatrix,
        si: usize,
        len: usize,
    ) {
        match (self, src) {
            (SemiringMatrix::Bits(m), SemiringMatrix::Bits(s)) => {
                let row = m.row_words_mut(r);
                let words = &s.row_words(si)[..len.div_ceil(LANE_BITS)];
                for (t, &word) in words.iter().enumerate() {
                    let word = word & mask_low(len - t * LANE_BITS);
                    semiring.fold_lane(row, col0 + t * LANE_BITS, word);
                }
            }
            (SemiringMatrix::Ints(m), SemiringMatrix::Ints(s)) => {
                let out = &mut m.row_mut(r)[col0..col0 + len];
                for (o, &v) in out.iter_mut().zip(&s.row(si)[..len]) {
                    *o = semiring.combine(*o, v);
                }
            }
            _ => unreachable!("partials fold into an output of their representation"),
        }
    }

    /// The largest finite entry (0 if there is none).
    pub(super) fn max_finite(&self) -> u64 {
        match self {
            SemiringMatrix::Bits(m) => u64::from(m.count_ones() > 0),
            SemiringMatrix::Ints(m) => m.max_finite(),
        }
    }

    /// Number of entries that are not the semiring's additive identity —
    /// the "nonzeros" a [`SparseMatMul`] actually communicates (finite
    /// entries under `(min, +)`, set bits or nonzero integers elsewhere).
    pub(crate) fn nnz(&self, semiring: Semiring) -> usize {
        match self {
            SemiringMatrix::Bits(m) => m.count_ones(),
            SemiringMatrix::Ints(m) => (0..m.rows())
                .map(|r| {
                    m.row(r)
                        .iter()
                        .filter(|&&v| v != semiring.identity())
                        .count()
                })
                .sum(),
        }
    }
}
