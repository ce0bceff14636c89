//! Word-parallel Boolean/`F₂` linear algebra.
//!
//! The Theorem 2 transfer makes `F₂` matrix multiplication the workhorse
//! primitive of the reproduction (Section 2.1 and the algebraic-methods
//! follow-ups), so the host-side representation matters: [`BitMatrix`] packs
//! each row into [`DefaultLane`] words and multiplies with word operations —
//! [`LANE_BITS`] field elements per machine instruction — instead of one
//! `bool` at a time.
//!
//! [`BitMatrix::mul_f2`] multiplies over `F₂`: for every set bit
//! `A[i][k]`, it XORs row `k` of `B` into the accumulator row, one word at
//! a time. [`BitMatrix::mul_bool`] (OR/AND) and
//! [`BitMatrix::counting_product`] (the counting product of 0/1 matrices,
//! summed in byte counters) serve the Boolean and counting semirings of the
//! algebraic protocols, and [`IntMatrix`] carries the small-integer
//! `(+, ×)` and `(min, +)` semiring operands with block extraction for
//! 3D-partitioned distributed products.
//!
//! Every product runs serially on the calling thread: the model charges a
//! player's local product nothing, and a protocol run is serial. Packing is a
//! *host-side* optimisation only: protocols built on these kernels exchange
//! exactly the same transcripts as the `Vec<Vec<bool>>` code they replaced
//! (pinned by `tests/protocol_regression.rs`).

use std::fmt;

use crate::bits::BitString;
use crate::lane::{mask_low, DefaultLane, LANE_BITS};

/// A dense Boolean matrix with rows packed into little-endian words
/// (column `j` of row `i` is bit `j % LANE_BITS` of word `j / LANE_BITS`).
///
/// Bits past `cols` in the last word of each row are always zero; every
/// mutating method maintains this invariant, which the multiplication
/// kernels rely on.
///
/// # Examples
///
/// ```
/// use clique_sim::linalg::BitMatrix;
///
/// let a: BitMatrix = BitMatrix::from_rows(&[vec![true, false], vec![true, true]]);
/// let id = BitMatrix::identity(2);
/// assert_eq!(a.mul_f2(&id), a);
/// assert!(a.get(1, 1));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<DefaultLane>,
}

impl BitMatrix {
    /// Creates an all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(LANE_BITS);
        Self {
            rows,
            cols,
            words_per_row,
            data: vec![0; rows * words_per_row],
        }
    }

    /// The `d × d` identity matrix.
    pub fn identity(d: usize) -> Self {
        let mut m = Self::zeros(d, d);
        for i in 0..d {
            m.set(i, i, true);
        }
        m
    }

    /// Packs a rectangular `Vec<Vec<bool>>` row by row.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<bool>]) -> Self {
        let cols = rows.first().map_or(0, Vec::len);
        let mut m = Self::zeros(rows.len(), cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "row {i} has length {}", row.len());
            let words = m.row_words_mut(i);
            for (j, &bit) in row.iter().enumerate() {
                if bit {
                    words[j / LANE_BITS] |= 1 << (j % LANE_BITS);
                }
            }
        }
        m
    }

    /// Packs a flat row-major bit slice into a `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, bits: &[bool]) -> Self {
        assert_eq!(bits.len(), rows * cols, "expected {} bits", rows * cols);
        let mut m = Self::zeros(rows, cols);
        for (i, row) in bits.chunks(cols.max(1)).enumerate().take(rows) {
            let words = m.row_words_mut(i);
            for (j, &bit) in row.iter().enumerate() {
                if bit {
                    words[j / LANE_BITS] |= 1 << (j % LANE_BITS);
                }
            }
        }
        m
    }

    /// Unpacks into a `Vec<Vec<bool>>` (the inverse of [`Self::from_rows`]).
    pub fn to_rows(&self) -> Vec<Vec<bool>> {
        (0..self.rows)
            .map(|i| (0..self.cols).map(|j| self.get(i, j)).collect())
            .collect()
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn get(&self, i: usize, j: usize) -> bool {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        (self.data[i * self.words_per_row + j / LANE_BITS] >> (j % LANE_BITS)) & 1 == 1
    }

    /// Sets the entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn set(&mut self, i: usize, j: usize, value: bool) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        let word = &mut self.data[i * self.words_per_row + j / LANE_BITS];
        if value {
            *word |= 1 << (j % LANE_BITS);
        } else {
            *word &= !(1 << (j % LANE_BITS));
        }
    }

    /// The packed words of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row_words(&self, i: usize) -> &[DefaultLane] {
        assert!(i < self.rows, "row {i} out of range");
        &self.data[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    /// Mutable access to the packed words of row `i`. Callers must keep the
    /// bits past `cols()` in the last word zero.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row_words_mut(&mut self, i: usize) -> &mut [DefaultLane] {
        assert!(i < self.rows, "row {i} out of range");
        &mut self.data[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    /// Row `i` as a [`BitString`] of `cols()` bits, ready to ship as a
    /// message payload.
    pub fn row_bits(&self, i: usize) -> BitString {
        BitString::from_words(self.row_words(i), self.cols)
    }

    /// Overwrites row `i` with the low `cols()` bits of `words` (extra high
    /// bits of the last word are masked off).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `words` holds fewer than `cols()`
    /// bits.
    pub fn set_row_words(&mut self, i: usize, words: &[DefaultLane]) {
        assert!(
            words.len() * LANE_BITS >= self.cols,
            "{} words cannot hold {} columns",
            words.len(),
            self.cols
        );
        let cols = self.cols;
        let row = self.row_words_mut(i);
        row.copy_from_slice(&words[..row.len()]);
        let rem = cols % LANE_BITS;
        if rem > 0 {
            if let Some(last) = row.last_mut() {
                *last &= mask_low(rem);
            }
        }
    }

    /// Number of set entries.
    pub fn count_ones(&self) -> usize {
        self.data.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The matrix with column `j` zeroed wherever `mask[j]` is `false`
    /// (each row is AND-ed with the packed mask, one word at a time).
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != cols()`.
    pub fn mask_columns(&self, mask: &[bool]) -> BitMatrix {
        assert_eq!(mask.len(), self.cols, "mask length must equal cols");
        let mut packed = vec![0; self.words_per_row];
        for (j, &keep) in mask.iter().enumerate() {
            if keep {
                packed[j / LANE_BITS] |= 1 << (j % LANE_BITS);
            }
        }
        let mut out = self.clone();
        for row in out.data.chunks_mut(self.words_per_row.max(1)) {
            for (word, &m) in row.iter_mut().zip(&packed) {
                *word &= m;
            }
        }
        out
    }

    /// The matrix product over `F₂`: for every set bit `A[i][k]`, XOR row
    /// `k` of `B` into output row `i` ([`LANE_BITS`] columns per word
    /// operation).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn mul_f2(&self, rhs: &BitMatrix) -> BitMatrix {
        self.fold_rows(rhs, |o, b| *o ^= b)
    }

    /// For every set bit `A[i][k]`, folds row `k` of `B` into output row `i`
    /// with `op`, one word at a time — the walk shared by the `F₂` product
    /// (XOR) and the Boolean product (OR).
    fn fold_rows(&self, rhs: &BitMatrix, op: impl Fn(&mut DefaultLane, DefaultLane)) -> BitMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimensions differ: {} vs {}",
            self.cols, rhs.rows
        );
        let w = rhs.words_per_row;
        let mut out = BitMatrix::zeros(self.rows, rhs.cols);
        if out.data.is_empty() {
            return out;
        }
        for (i, out_row) in out.data.chunks_exact_mut(w).enumerate() {
            for (wi, &word) in self.row_words(i).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let k = wi * LANE_BITS + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    for (o, &b) in out_row.iter_mut().zip(&rhs.data[k * w..(k + 1) * w]) {
                        op(o, b);
                    }
                }
            }
        }
        out
    }

    /// The transposed matrix.
    #[cfg(test)]
    pub(crate) fn transpose(&self) -> BitMatrix {
        let mut out = BitMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for (wi, &word) in self.row_words(i).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let j = wi * LANE_BITS + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    out.data[j * out.words_per_row + i / LANE_BITS] |= 1 << (i % LANE_BITS);
                }
            }
        }
        out
    }

    /// The `rows × cols` block starting at `(row0, col0)`, extracted with
    /// word shifts (`LANE_BITS` columns per operation).
    ///
    /// # Panics
    ///
    /// Panics if the block reaches past the matrix.
    pub fn submatrix(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> BitMatrix {
        assert!(
            row0 + rows <= self.rows && col0 + cols <= self.cols,
            "block {rows}×{cols} at ({row0},{col0}) exceeds {}×{}",
            self.rows,
            self.cols
        );
        let mut out = BitMatrix::zeros(rows, cols);
        if cols == 0 {
            return out;
        }
        let word_off = col0 / LANE_BITS;
        let bit_off = col0 % LANE_BITS;
        for i in 0..rows {
            let src = self.row_words(row0 + i);
            let dst = &mut out.data[i * out.words_per_row..(i + 1) * out.words_per_row];
            for (wi, d) in dst.iter_mut().enumerate() {
                let lo = src.get(word_off + wi).copied().unwrap_or(0) >> bit_off;
                let hi = if bit_off > 0 {
                    src.get(word_off + wi + 1).copied().unwrap_or(0) << (LANE_BITS - bit_off)
                } else {
                    0
                };
                *d = lo | hi;
            }
            let rem = cols % LANE_BITS;
            if rem > 0 {
                if let Some(last) = dst.last_mut() {
                    *last &= mask_low(rem);
                }
            }
        }
        out
    }

    /// The matrix product over the Boolean semiring `(∨, ∧)`: for every set
    /// bit `A[i][k]`, OR row `k` of `B` into output row `i` ([`LANE_BITS`]
    /// columns per word operation).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn mul_bool(&self, rhs: &BitMatrix) -> BitMatrix {
        self.fold_rows(rhs, |o, b| *o |= b)
    }

    /// The matrix product over the counting semiring `(+, ×)` of two 0/1
    /// matrices: `C[i][j] = |{k : A[i][k] ∧ B[k][j]}|`.
    ///
    /// The kernel walks `B` one strip of [`LANE_BITS`] columns at a time.
    /// It spreads each row's strip once into byte-wide counters, so that
    /// one lane addition advances one column count per byte of the lane.
    /// Each set bit `A[i][k]` then adds the spread row `k` into row `i`'s
    /// counters, which are flushed into the output before any byte could
    /// pass 255. No step counts bits, so the kernel needs no popcount
    /// instruction.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn counting_product(&self, rhs: &BitMatrix) -> IntMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimensions differ: {} vs {}",
            self.cols, rhs.rows
        );
        let mut out = IntMatrix::zeros(self.rows, rhs.cols);
        if out.data.is_empty() {
            return out;
        }
        let mut spread = vec![0; rhs.rows * COUNTER_LANES];
        for strip in 0..rhs.words_per_row {
            let first = strip * LANE_BITS;
            let width = (rhs.cols - first).min(LANE_BITS);
            for (k, lanes) in spread.chunks_exact_mut(COUNTER_LANES).enumerate() {
                let word = rhs.data[k * rhs.words_per_row + strip];
                for (t, lane) in lanes.iter_mut().enumerate() {
                    *lane = (word >> t) & BYTE_ONES;
                }
            }
            for (i, out_row) in out.data.chunks_exact_mut(rhs.cols).enumerate() {
                let out_strip = &mut out_row[first..first + width];
                let mut counters = [0; COUNTER_LANES];
                for (wi, &word) in self.row_words(i).iter().enumerate() {
                    if wi > 0 && wi % WORDS_PER_FLUSH == 0 {
                        flush_counters(&mut counters, out_strip);
                    }
                    let mut bits = word;
                    while bits != 0 {
                        let k = wi * LANE_BITS + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let row = &spread[k * COUNTER_LANES..(k + 1) * COUNTER_LANES];
                        for (c, &s) in counters.iter_mut().zip(row) {
                            *c += s;
                        }
                    }
                }
                flush_counters(&mut counters, out_strip);
            }
        }
        out
    }

    /// The counting product as the popcount of `row_i(A) ∧ row_j(Bᵀ)`: the
    /// kernel [`Self::counting_product`] replaced, kept as its reference.
    #[cfg(test)]
    pub(crate) fn popcount_product(&self, rhs: &BitMatrix) -> IntMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimensions differ: {} vs {}",
            self.cols, rhs.rows
        );
        let rhs_t = rhs.transpose();
        let mut out = IntMatrix::zeros(self.rows, rhs.cols);
        if out.data.is_empty() {
            return out;
        }
        for (i, out_row) in out.data.chunks_exact_mut(rhs.cols).enumerate() {
            let a_row = self.row_words(i);
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = a_row
                    .iter()
                    .zip(rhs_t.row_words(j))
                    .map(|(&a, &b)| u64::from((a & b).count_ones()))
                    .sum();
            }
        }
        out
    }
}

/// Lanes of byte counters that hold one strip of [`LANE_BITS`] columns in
/// [`BitMatrix::counting_product`]: lane `t` counts the columns `c` with
/// `c % COUNTER_LANES == t`, column `c` in byte `c / COUNTER_LANES`.
const COUNTER_LANES: usize = u8::BITS as usize;

/// The lane with the low bit of every byte set: masking a strip shifted
/// right by `t` with it spreads counter lane `t`.
const BYTE_ONES: DefaultLane = DefaultLane::MAX / u8::MAX as DefaultLane;

/// Words of an `A` row whose set bits one flush of the byte counters can
/// take: each adds at most one per byte, and a byte holds 255.
const WORDS_PER_FLUSH: usize = u8::MAX as usize / LANE_BITS;

/// Adds a strip's byte counters into its `out` entries (at most
/// [`LANE_BITS`] of them) and clears the counters.
fn flush_counters(counters: &mut [DefaultLane; COUNTER_LANES], out: &mut [u64]) {
    for (c, o) in out.iter_mut().enumerate() {
        let shift = c / COUNTER_LANES * u8::BITS as usize;
        *o += (counters[c % COUNTER_LANES] >> shift) & DefaultLane::from(u8::MAX);
    }
    *counters = [0; COUNTER_LANES];
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BitMatrix({}×{}, {} ones)",
            self.rows,
            self.cols,
            self.count_ones()
        )
    }
}

impl fmt::Display for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{}", u8::from(self.get(i, j)))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A dense matrix of small non-negative integers (row-major `u64` entries),
/// the operand type of the counting and `(min, +)` semirings used by the
/// algebraic clique protocols.
///
/// [`IntMatrix::INFINITY`] (`u64::MAX`) is the reserved "no path" value of
/// the `(min, +)` semiring; all arithmetic saturates below it, so finite
/// entries never collide with the sentinel.
///
/// # Examples
///
/// ```
/// use clique_sim::linalg::IntMatrix;
///
/// let a = IntMatrix::from_rows(&[vec![1, 0], vec![1, 1]]);
/// let c = a.mul_counting(&a);
/// assert_eq!(c.get(1, 0), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IntMatrix {
    rows: usize,
    cols: usize,
    data: Vec<u64>,
}

impl IntMatrix {
    /// The reserved "unreachable" entry of the `(min, +)` semiring.
    pub const INFINITY: u64 = u64::MAX;

    /// Creates an all-zero `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0u64; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix with every entry set to `value`.
    pub fn filled(rows: usize, cols: usize, value: u64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Packs a rectangular `Vec<Vec<u64>>` row by row.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<u64>]) -> Self {
        let cols = rows.first().map_or(0, Vec::len);
        let mut m = Self::zeros(rows.len(), cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "row {i} has length {}", row.len());
            m.data[i * cols..(i + 1) * cols].copy_from_slice(row);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn get(&self, i: usize, j: usize) -> u64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        self.data[i * self.cols + j]
    }

    /// Sets the entry at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn set(&mut self, i: usize, j: usize, value: u64) {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of range"
        );
        self.data[i * self.cols + j] = value;
    }

    /// The entries of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> &[u64] {
        assert!(i < self.rows, "row {i} out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable access to the entries of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row_mut(&mut self, i: usize) -> &mut [u64] {
        assert!(i < self.rows, "row {i} out of range");
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The largest entry strictly below [`Self::INFINITY`] (0 if there is
    /// none).
    pub fn max_finite(&self) -> u64 {
        self.data
            .iter()
            .copied()
            .filter(|&v| v != Self::INFINITY)
            .max()
            .unwrap_or(0)
    }

    /// Returns `true` if every entry is 0 or 1 (the fast-kernel precondition
    /// of [`Self::mul_counting`]).
    pub(crate) fn is_binary(&self) -> bool {
        self.data.iter().all(|&v| v <= 1)
    }

    /// The `rows × cols` block starting at `(row0, col0)`.
    ///
    /// # Panics
    ///
    /// Panics if the block reaches past the matrix.
    pub fn submatrix(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> IntMatrix {
        assert!(
            row0 + rows <= self.rows && col0 + cols <= self.cols,
            "block {rows}×{cols} at ({row0},{col0}) exceeds {}×{}",
            self.rows,
            self.cols
        );
        let mut out = IntMatrix::zeros(rows, cols);
        for i in 0..rows {
            let src =
                &self.data[(row0 + i) * self.cols + col0..(row0 + i) * self.cols + col0 + cols];
            out.data[i * cols..(i + 1) * cols].copy_from_slice(src);
        }
        out
    }

    /// Packs a 0/1 matrix into a [`BitMatrix`].
    ///
    /// # Panics
    ///
    /// Panics if an entry exceeds 1.
    pub fn to_bitmatrix(&self) -> BitMatrix {
        assert!(self.is_binary(), "entries must be 0/1 to pack into bits");
        let mut m = BitMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let row = self.row(i);
            let words = m.row_words_mut(i);
            for (j, &v) in row.iter().enumerate() {
                if v == 1 {
                    words[j / LANE_BITS] |= 1 << (j % LANE_BITS);
                }
            }
        }
        m
    }

    /// Unpacks a [`BitMatrix`] into 0/1 integer entries.
    pub fn from_bitmatrix(m: &BitMatrix) -> IntMatrix {
        let mut out = IntMatrix::zeros(m.rows(), m.cols());
        for i in 0..m.rows() {
            for (wi, &word) in m.row_words(i).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let j = wi * LANE_BITS + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    out.data[i * out.cols + j] = 1;
                }
            }
        }
        out
    }

    /// The matrix product over the counting semiring `(+, ×)`, saturating
    /// just below [`Self::INFINITY`]. 0/1 operands are packed and dispatch
    /// to the byte-counter kernel ([`BitMatrix::counting_product`]); general
    /// entries use the schoolbook triple loop.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn mul_counting(&self, rhs: &IntMatrix) -> IntMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimensions differ: {} vs {}",
            self.cols, rhs.rows
        );
        if self.is_binary() && rhs.is_binary() {
            return self.to_bitmatrix().counting_product(&rhs.to_bitmatrix());
        }
        let mut out = IntMatrix::zeros(self.rows, rhs.cols);
        for (r, out_row) in out.data.chunks_mut(rhs.cols.max(1)).enumerate() {
            for (k, &a) in self.row(r).iter().enumerate() {
                if a == 0 {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(rhs.row(k)) {
                    *o = saturating_counting_add(*o, a.saturating_mul(b));
                }
            }
        }
        out
    }

    /// The matrix product over the tropical `(min, +)` semiring:
    /// `C[i][j] = min_k (A[i][k] + B[k][j])`, with [`Self::INFINITY`]
    /// absorbing addition and neutral for `min`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn mul_min_plus(&self, rhs: &IntMatrix) -> IntMatrix {
        assert_eq!(
            self.cols, rhs.rows,
            "inner dimensions differ: {} vs {}",
            self.cols, rhs.rows
        );
        let mut out = IntMatrix::filled(self.rows, rhs.cols, Self::INFINITY);
        for (r, out_row) in out.data.chunks_mut(rhs.cols.max(1)).enumerate() {
            for (k, &a) in self.row(r).iter().enumerate() {
                if a == Self::INFINITY {
                    continue;
                }
                for (o, &b) in out_row.iter_mut().zip(rhs.row(k)) {
                    *o = (*o).min(min_plus_add(a, b));
                }
            }
        }
        out
    }
}

/// Counting-semiring addition saturating strictly below
/// [`IntMatrix::INFINITY`], so sums never collide with the `(min, +)`
/// sentinel.
pub fn saturating_counting_add(a: u64, b: u64) -> u64 {
    a.saturating_add(b).min(IntMatrix::INFINITY - 1)
}

/// `(min, +)` addition: [`IntMatrix::INFINITY`] absorbs, finite sums
/// saturate strictly below it.
pub(crate) fn min_plus_add(a: u64, b: u64) -> u64 {
    if a == IntMatrix::INFINITY || b == IntMatrix::INFINITY {
        IntMatrix::INFINITY
    } else {
        saturating_counting_add(a, b)
    }
}

impl fmt::Debug for IntMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IntMatrix({}×{}, max finite {})",
            self.rows,
            self.cols,
            self.max_finite()
        )
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    use super::*;

    /// The bool-at-a-time product the packed kernels must agree with.
    fn scalar_product(a: &BitMatrix, b: &BitMatrix) -> BitMatrix {
        let mut out = BitMatrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = false;
                for k in 0..a.cols() {
                    acc ^= a.get(i, k) & b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn pseudo_random(rows: usize, cols: usize, seed: u64) -> BitMatrix {
        let mut m = BitMatrix::zeros(rows, cols);
        let mut state = seed | 1;
        for i in 0..rows {
            for j in 0..cols {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                m.set(i, j, state >> 62 & 1 == 1);
            }
        }
        m
    }

    #[test]
    fn round_trips_between_representations() {
        let rows = vec![
            vec![true, false, true],
            vec![false, false, false],
            vec![true, true, true],
        ];
        let m = BitMatrix::from_rows(&rows);
        assert_eq!(m.to_rows(), rows);
        assert_eq!((m.rows(), m.cols()), (3, 3));
        assert_eq!(m.count_ones(), 5);
        let flat: Vec<bool> = rows.iter().flatten().copied().collect();
        assert_eq!(BitMatrix::from_row_major(3, 3, &flat), m);
        assert_eq!(m.row_bits(0).to_bools(), rows[0]);
    }

    #[test]
    fn set_and_get_across_word_boundaries() {
        let mut m = BitMatrix::zeros(2, 130);
        m.set(0, 0, true);
        m.set(0, 63, true);
        m.set(0, 64, true);
        m.set(1, 129, true);
        assert!(m.get(0, 0) && m.get(0, 63) && m.get(0, 64) && m.get(1, 129));
        assert_eq!(m.count_ones(), 4);
        m.set(0, 64, false);
        assert!(!m.get(0, 64));
        assert_eq!(m.count_ones(), 3);
    }

    #[test]
    fn mul_f2_matches_the_scalar_product() {
        // Inner dimensions 256 and 300 cover a multiple of the lane width
        // and a partial last word.
        for (ra, c, cb, seed) in [
            (1usize, 1usize, 1usize, 1u64),
            (3, 5, 4, 2),
            (17, 64, 9, 3),
            (8, 65, 70, 4),
            (20, 130, 20, 5),
            (9, 256, 60, 6),
            (40, 300, 333, 7),
        ] {
            let a = pseudo_random(ra, c, seed);
            let b = pseudo_random(c, cb, seed + 100);
            assert_eq!(a.mul_f2(&b), scalar_product(&a, &b), "{ra}x{c}x{cb}");
        }
    }

    #[test]
    fn identity_is_neutral() {
        let m = pseudo_random(9, 9, 11);
        let id = BitMatrix::identity(9);
        assert_eq!(m.mul_f2(&id), m);
        assert_eq!(id.mul_f2(&m), m);
    }

    #[test]
    fn mask_columns_zeroes_unselected_columns() {
        let m = pseudo_random(5, 70, 13);
        let mask: Vec<bool> = (0..70).map(|j| j % 3 != 0).collect();
        let masked = m.mask_columns(&mask);
        for i in 0..5 {
            for (j, &keep) in mask.iter().enumerate() {
                assert_eq!(masked.get(i, j), m.get(i, j) && keep);
            }
        }
    }

    #[test]
    fn set_row_words_masks_padding() {
        let mut m = BitMatrix::zeros(2, 70);
        let words = vec![DefaultLane::MAX; 70usize.div_ceil(LANE_BITS)];
        m.set_row_words(1, &words);
        assert_eq!(m.count_ones(), 70);
        let rem = 70 % LANE_BITS;
        assert_eq!(
            *m.row_words(1).last().unwrap() & !mask_low(rem),
            0,
            "padding bits must stay zero"
        );
    }

    #[test]
    fn empty_matrices_multiply() {
        let a = BitMatrix::zeros(0, 5);
        let b = BitMatrix::zeros(5, 3);
        assert_eq!(a.mul_f2(&b).rows(), 0);
        let a = BitMatrix::zeros(3, 0);
        let b = BitMatrix::zeros(0, 4);
        let c = a.mul_f2(&b);
        assert_eq!((c.rows(), c.cols()), (3, 4));
        assert_eq!(c.count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn mismatched_inner_dimensions_panic() {
        let a = BitMatrix::zeros(2, 3);
        let b = BitMatrix::zeros(4, 2);
        let _ = a.mul_f2(&b);
    }

    #[test]
    fn debug_and_display_are_informative() {
        let m = BitMatrix::identity(2);
        assert_eq!(format!("{m:?}"), "BitMatrix(2×2, 2 ones)");
        assert_eq!(m.to_string(), "10\n01\n");
    }

    #[test]
    fn transpose_round_trips_and_flips_entries() {
        let m = pseudo_random(7, 130, 23);
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (130, 7));
        for i in 0..7 {
            for j in 0..130 {
                assert_eq!(t.get(j, i), m.get(i, j));
            }
        }
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn submatrix_extracts_blocks_across_word_boundaries() {
        let m = pseudo_random(10, 200, 29);
        for (r0, c0, rows, cols) in [
            (0, 0, 10, 200),
            (3, 60, 4, 70),
            (2, 129, 5, 9),
            (0, 5, 0, 3),
        ] {
            let s = m.submatrix(r0, c0, rows, cols);
            assert_eq!((s.rows(), s.cols()), (rows, cols));
            for i in 0..rows {
                for j in 0..cols {
                    assert_eq!(s.get(i, j), m.get(r0 + i, c0 + j), "({i},{j})");
                }
            }
            // The BitMatrix invariant: no bits past `cols`.
            let rem = cols % LANE_BITS;
            if rem > 0 {
                for i in 0..rows {
                    assert_eq!(*s.row_words(i).last().unwrap() & !mask_low(rem), 0);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn submatrix_rejects_out_of_range_blocks() {
        let _ = BitMatrix::zeros(3, 3).submatrix(1, 1, 3, 2);
    }

    #[test]
    fn boolean_product_matches_scalar_or_and() {
        for (ra, c, cb, seed) in [
            (1usize, 1usize, 1usize, 31u64),
            (5, 70, 6, 32),
            (9, 130, 9, 33),
            (7, 300, 20, 34),
        ] {
            let a = pseudo_random(ra, c, seed);
            let b = pseudo_random(c, cb, seed + 50);
            let got = a.mul_bool(&b);
            for i in 0..ra {
                for j in 0..cb {
                    let expected = (0..c).any(|k| a.get(i, k) && b.get(k, j));
                    assert_eq!(got.get(i, j), expected, "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn counting_product_counts_witnesses() {
        for (ra, c, cb, seed) in [
            (1usize, 1usize, 1usize, 41u64),
            (6, 65, 7, 42),
            (8, 128, 8, 43),
            (7, 300, 20, 44),
        ] {
            let a = pseudo_random(ra, c, seed);
            let b = pseudo_random(c, cb, seed + 50);
            let got = a.counting_product(&b);
            for i in 0..ra {
                for j in 0..cb {
                    let expected = (0..c).filter(|&k| a.get(i, k) && b.get(k, j)).count() as u64;
                    assert_eq!(got.get(i, j), expected, "({i},{j})");
                }
            }
        }
    }

    /// A `rows × cols` matrix whose entries are set with probability
    /// `ones / 4`, drawn from `seed`.
    fn random_with_density(rows: usize, cols: usize, ones: u32, seed: u64) -> BitMatrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut m = BitMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m.set(i, j, rng.gen_range(0..4u32) < ones);
            }
        }
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The byte-counter kernel against the AND+popcount kernel it
        /// replaced. The inner dimensions include rows of more than 255
        /// set bits (300 and 1,000 columns at full density), which need a
        /// flush mid-row; the output widths include ones that are not a
        /// multiple of 8 or of the lane, and zero.
        #[test]
        fn counting_product_matches_the_popcount_reference(
            rows in 0usize..7,
            inner_pick in 0usize..8,
            inner_free in 0usize..200,
            cols_pick in 0usize..6,
            cols_free in 0usize..150,
            ones in 0u32..5,
            seed in any::<u64>(),
        ) {
            let inner = [0, 1, 7, LANE_BITS, LANE_BITS + 1, 300, 1_000, inner_free][inner_pick];
            let cols = [0, 1, 9, LANE_BITS, 2 * LANE_BITS + 3, cols_free][cols_pick];
            let a = random_with_density(rows, inner, ones, seed);
            let b = random_with_density(inner, cols, ones, seed ^ 0x5EED);
            prop_assert_eq!(a.counting_product(&b), a.popcount_product(&b));
        }
    }

    fn pseudo_random_ints(rows: usize, cols: usize, max: u64, seed: u64) -> IntMatrix {
        let mut m = IntMatrix::zeros(rows, cols);
        let mut state = seed | 1;
        for i in 0..rows {
            for j in 0..cols {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                m.set(i, j, (state >> 33) % (max + 1));
            }
        }
        m
    }

    #[test]
    fn int_matrix_round_trips_and_blocks() {
        let rows = vec![vec![3u64, 0, 7], vec![1, 2, 5]];
        let m = IntMatrix::from_rows(&rows);
        assert_eq!((m.rows(), m.cols()), (2, 3));
        assert_eq!(m.get(1, 2), 5);
        assert_eq!(m.row(0), &[3, 0, 7]);
        assert_eq!(m.max_finite(), 7);
        assert!(!m.is_binary());
        let s = m.submatrix(0, 1, 2, 2);
        assert_eq!(s, IntMatrix::from_rows(&[vec![0, 7], vec![2, 5]]));
        assert_eq!(format!("{m:?}"), "IntMatrix(2×3, max finite 7)");
    }

    #[test]
    fn binary_int_matrices_round_trip_through_bits() {
        let m = pseudo_random_ints(5, 70, 1, 51);
        assert!(m.is_binary());
        let packed = m.to_bitmatrix();
        assert_eq!(IntMatrix::from_bitmatrix(&packed), m);
    }

    #[test]
    fn counting_product_packed_path_matches_triple_loop() {
        // 0/1 operands dispatch to the byte-counter kernel; force the
        // schoolbook path via a non-binary clone and compare.
        let a = pseudo_random_ints(6, 67, 1, 61);
        let b = pseudo_random_ints(67, 5, 1, 62);
        let fast = a.mul_counting(&b);
        let mut a_slow = a.clone();
        a_slow.set(0, 0, a.get(0, 0) + 2); // breaks is_binary
        let mut slow = a_slow.mul_counting(&b);
        // Undo the perturbation's effect on row 0.
        for j in 0..5 {
            let delta = 2 * b.get(0, j);
            let v = slow.get(0, j) - delta;
            slow.set(0, j, v);
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn counting_product_saturates_below_infinity() {
        let a = IntMatrix::filled(1, 2, u64::MAX - 1);
        let b = IntMatrix::filled(2, 1, u64::MAX - 1);
        let c = a.mul_counting(&b);
        assert_eq!(c.get(0, 0), IntMatrix::INFINITY - 1);
    }

    #[test]
    fn min_plus_product_matches_shortest_two_hop_paths() {
        let inf = IntMatrix::INFINITY;
        let a = IntMatrix::from_rows(&[vec![0, 1, inf], vec![1, 0, 4], vec![inf, 4, 0]]);
        let sq = a.mul_min_plus(&a);
        assert_eq!(
            sq,
            IntMatrix::from_rows(&[vec![0, 1, 5], vec![1, 0, 4], vec![5, 4, 0]])
        );
        // INFINITY absorbs addition and is neutral for min.
        assert_eq!(min_plus_add(inf, 3), inf);
        assert_eq!(min_plus_add(7, 8), 15);
        assert_eq!(saturating_counting_add(u64::MAX - 3, 10), inf - 1);
    }

    #[test]
    fn min_plus_on_all_infinite_matrices_stays_infinite() {
        let a = IntMatrix::filled(3, 3, IntMatrix::INFINITY);
        assert_eq!(a.mul_min_plus(&a), a);
        assert_eq!(a.max_finite(), 0);
    }
}
