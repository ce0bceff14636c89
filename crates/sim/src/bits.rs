//! Bit-precise message payloads.
//!
//! The congested clique model is parameterised by a bandwidth `b` measured in
//! *bits* per link per round, so all message accounting in this workspace is
//! done at bit granularity. [`BitString`] is an append-only bit vector with a
//! cursor-based reader ([`BitReader`]); it is the payload type of a
//! session's phases.
//!
//! Bits are packed least-significant-first, [`LANE_BITS`] per
//! [`DefaultLane`] word.

use std::fmt;

use crate::lane::{mask_low, DefaultLane, LANE_BITS};

/// Width of the scalar accumulator the field codecs
/// ([`BitString::push_fields`], [`BitReader::read_fields`]) gather bits in:
/// fields are at most one `u64` wide, like [`BitString::push_bits`].
const ACC_BITS: usize = u64::BITS as usize;

/// An append-only sequence of bits used as a message payload.
///
/// Bits are stored least-significant-first inside [`LANE_BITS`]-bit words. The
/// type supports appending single bits, fixed-width unsigned integers and
/// whole bit strings, and reading them back in order with a [`BitReader`].
///
/// # Examples
///
/// ```
/// use clique_sim::bits::BitString;
///
/// let mut msg: BitString = BitString::new();
/// msg.push_bits(42, 16);
/// msg.push_bit(true);
/// assert_eq!(msg.len(), 17);
///
/// let mut reader = msg.reader();
/// assert_eq!(reader.read_bits(16), Some(42));
/// assert_eq!(reader.read_bit(), Some(true));
/// assert!(reader.is_exhausted());
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BitString {
    words: Vec<DefaultLane>,
    len: usize,
}

impl BitString {
    /// Creates an empty bit string.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bit string with capacity for at least `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: Vec::with_capacity(bits.div_ceil(LANE_BITS)),
            len: 0,
        }
    }

    /// Creates a bit string containing the `width` low-order bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn from_bits(value: u64, width: usize) -> Self {
        let mut bs = Self::with_capacity(width);
        bs.push_bits(value, width);
        bs
    }

    /// Creates a bit string from a slice of booleans, one bit per element.
    ///
    /// Packs `LANE_BITS` bits per word instead of appending bit by bit.
    pub fn from_bools(bits: &[bool]) -> Self {
        let words = bits
            .chunks(LANE_BITS)
            .map(|chunk| {
                let mut word = 0;
                for (i, &bit) in chunk.iter().enumerate() {
                    if bit {
                        word |= 1 << i;
                    }
                }
                word
            })
            .collect();
        Self {
            words,
            len: bits.len(),
        }
    }

    /// Creates a bit string of length `len` from packed little-endian words
    /// (bit `i` is bit `i % LANE_BITS` of `words[i / LANE_BITS]`).
    ///
    /// # Panics
    ///
    /// Panics if `words` holds fewer than `len` bits.
    pub fn from_words(words: &[DefaultLane], len: usize) -> Self {
        let mut bs = Self::with_capacity(len);
        bs.push_words(words, len);
        bs
    }

    /// The bits unpacked into a vector of booleans, one element per bit.
    pub fn to_bools(&self) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.len);
        for (w, &word) in self.words.iter().enumerate() {
            let take = (self.len - w * LANE_BITS).min(LANE_BITS);
            for i in 0..take {
                out.push((word >> i) & 1 == 1);
            }
        }
        out
    }

    /// The packed little-endian words backing the bit string. Bits past
    /// `len()` in the last word are zero.
    pub fn words(&self) -> &[DefaultLane] {
        &self.words
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no bits are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a single bit.
    pub fn push_bit(&mut self, bit: bool) {
        let word_idx = self.len / LANE_BITS;
        let bit_idx = self.len % LANE_BITS;
        if word_idx == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word_idx] |= 1 << bit_idx;
        }
        self.len += 1;
    }

    /// Appends the `width` low-order bits of `value`, least-significant first.
    ///
    /// The bits are shifted into the (at most two) straddled words in O(1)
    /// instead of one call per bit.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn push_bits(&mut self, value: u64, width: usize) {
        assert!(width <= 64, "width {width} exceeds 64 bits");
        if width == 0 {
            return;
        }
        let value = if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        };
        self.push_word_bits(value, width);
    }

    /// Appends the `width` low-order bits of a full lane (`value` must
    /// already be masked to `width` bits, `width <= LANE_BITS`).
    fn push_word_bits(&mut self, value: DefaultLane, width: usize) {
        debug_assert!(width <= LANE_BITS);
        debug_assert_eq!(value & !mask_low(width), 0);
        if width == 0 {
            return;
        }
        let word_idx = self.len / LANE_BITS;
        let bit_idx = self.len % LANE_BITS;
        while self.words.len() * LANE_BITS < self.len + width {
            self.words.push(0);
        }
        self.words[word_idx] |= value << bit_idx;
        if bit_idx + width > LANE_BITS {
            // The straddle spills `bit_idx + width - LANE_BITS` bits into the
            // next word; the shift amount is `< width <= LANE_BITS`.
            self.words[word_idx + 1] |= value >> (LANE_BITS - bit_idx);
        }
        self.len += width;
    }

    /// Appends the first `len` bits of the packed little-endian `words`
    /// (the inverse of [`BitReader::read_words`]).
    ///
    /// When the current length is word-aligned this is a bulk copy; otherwise
    /// each word is shifted into place with two word operations.
    ///
    /// # Panics
    ///
    /// Panics if `words` holds fewer than `len` bits.
    pub fn push_words(&mut self, words: &[DefaultLane], len: usize) {
        assert!(
            len <= words.len() * LANE_BITS,
            "{len} bits requested from {} words",
            words.len()
        );
        let full = len / LANE_BITS;
        let rem = len % LANE_BITS;
        if self.len.is_multiple_of(LANE_BITS) {
            // Word-aligned fast path: memcpy the full words.
            self.words.extend_from_slice(&words[..full]);
            if rem > 0 {
                self.words.push(words[full] & mask_low(rem));
            }
            self.len += len;
        } else {
            for &word in &words[..full] {
                self.push_word_bits(word, LANE_BITS);
            }
            if rem > 0 {
                self.push_word_bits(words[full] & mask_low(rem), rem);
            }
        }
    }

    /// Appends every value of `values` as a `width`-bit field (the low
    /// `width` bits, least-significant first) — the same bits as one
    /// [`Self::push_bits`] call per value, but gathered in a 64-bit
    /// accumulator and stored with one lane write per 64 bits.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn push_fields(&mut self, values: &[u64], width: usize) {
        assert!(width <= ACC_BITS, "width {width} exceeds 64 bits");
        if width == 0 || values.is_empty() {
            return;
        }
        let mask = u64::MAX >> (ACC_BITS - width);
        let words_after = (self.len + values.len() * width).div_ceil(LANE_BITS);
        self.words
            .reserve(words_after.saturating_sub(self.words.len()));
        let (mut acc, mut filled) = (0u64, 0usize);
        for &value in values {
            let value = value & mask;
            acc |= value << filled;
            filled += width;
            if filled >= ACC_BITS {
                self.push_word_bits(acc, ACC_BITS);
                filled -= ACC_BITS;
                // The bits of `value` that did not fit; `filled < width`.
                acc = if filled == 0 {
                    0
                } else {
                    value >> (width - filled)
                };
            }
        }
        self.push_word_bits(acc, filled);
    }

    /// Appends all bits of `other` (word-at-a-time).
    pub(crate) fn extend_from(&mut self, other: &BitString) {
        self.push_words(&other.words, other.len);
    }

    /// Returns the bit at position `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn bit(&self, index: usize) -> bool {
        assert!(index < self.len, "bit index {index} out of range");
        (self.words[index / LANE_BITS] >> (index % LANE_BITS)) & 1 == 1
    }

    /// Flips the bit at position `index` (used by fault injection; the
    /// position is a model-level coordinate).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn toggle_bit(&mut self, index: usize) {
        assert!(index < self.len, "bit index {index} out of range");
        self.words[index / LANE_BITS] ^= 1 << (index % LANE_BITS);
    }

    /// The bits serialised as little-endian bytes (`ceil(len / 8)` of them,
    /// zero-padded in the last byte) — the canonical byte order checksums
    /// and framing are computed over.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.words.len() * std::mem::size_of::<DefaultLane>());
        for word in &self.words {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.truncate(self.len.div_ceil(8));
        bytes
    }

    /// Returns a cursor for reading the bits back in order.
    pub fn reader(&self) -> BitReader<'_> {
        BitReader { bits: self, pos: 0 }
    }

    /// Concatenates `self` and `other` into a new bit string.
    pub(crate) fn concat(&self, other: &BitString) -> BitString {
        let mut out = self.clone();
        out.extend_from(other);
        out
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitString[{} bits: ", self.len)?;
        let shown = self.len.min(64);
        for i in 0..shown {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        if self.len > shown {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for BitString {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut bs = BitString::new();
        for bit in iter {
            bs.push_bit(bit);
        }
        bs
    }
}

impl Extend<bool> for BitString {
    fn extend<T: IntoIterator<Item = bool>>(&mut self, iter: T) {
        for bit in iter {
            self.push_bit(bit);
        }
    }
}

/// A cursor over a [`BitString`] that reads bits in the order they were
/// appended.
///
/// All read methods return `None` once the underlying data is exhausted,
/// which makes malformed-message handling explicit at the call site.
#[derive(Clone, Debug)]
pub struct BitReader<'a> {
    bits: &'a BitString,
    pos: usize,
}

impl BitReader<'_> {
    /// Reads a single bit, advancing the cursor.
    pub fn read_bit(&mut self) -> Option<bool> {
        if self.pos >= self.bits.len() {
            return None;
        }
        let bit = self.bits.bit(self.pos);
        self.pos += 1;
        Some(bit)
    }

    /// Reads up to `LANE_BITS` bits as one lane, least-significant first.
    /// `width <= LANE_BITS` and `pos + width <= len` are the caller's
    /// responsibility.
    fn read_word_bits(&mut self, width: usize) -> DefaultLane {
        debug_assert!(width <= LANE_BITS);
        debug_assert!(self.pos + width <= self.bits.len());
        if width == 0 {
            return 0;
        }
        let word_idx = self.pos / LANE_BITS;
        let bit_idx = self.pos % LANE_BITS;
        let mut value = self.bits.words[word_idx] >> bit_idx;
        if bit_idx + width > LANE_BITS {
            value |= self.bits.words[word_idx + 1] << (LANE_BITS - bit_idx);
        }
        self.pos += width;
        value & mask_low(width)
    }

    /// Reads `width` bits as an unsigned integer (least-significant first).
    ///
    /// Returns `None` if fewer than `width` bits remain. The bits are
    /// extracted from the (at most two) straddled words in O(1).
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn read_bits(&mut self, width: usize) -> Option<u64> {
        assert!(width <= 64, "width {width} exceeds 64 bits");
        if self.pos + width > self.bits.len() {
            return None;
        }
        Some(self.read_word_bits(width))
    }

    /// Reads `len` bits into packed little-endian words (the inverse of
    /// [`BitString::push_words`]).
    ///
    /// Returns `None` (without advancing) if fewer than `len` bits remain.
    pub fn read_words(&mut self, len: usize) -> Option<Vec<DefaultLane>> {
        if len > self.remaining() {
            return None;
        }
        let mut out = vec![0; len.div_ceil(LANE_BITS)];
        self.read_words_into(len, &mut out)?;
        Some(out)
    }

    /// [`Self::read_words`] into the first `len.div_ceil(LANE_BITS)` lanes
    /// of `out` (the bits of the last lane past `len` are cleared), without
    /// allocating.
    ///
    /// Returns `None` (without advancing or writing) if fewer than `len`
    /// bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `out` holds fewer than `len` bits.
    pub fn read_words_into(&mut self, len: usize, out: &mut [DefaultLane]) -> Option<()> {
        assert!(
            len <= out.len() * LANE_BITS,
            "{len} bits do not fit {} words",
            out.len()
        );
        if len > self.remaining() {
            return None;
        }
        let mut remaining = len;
        for word in out.iter_mut() {
            if remaining == 0 {
                break;
            }
            let take = remaining.min(LANE_BITS);
            *word = self.read_word_bits(take);
            remaining -= take;
        }
        Some(())
    }

    /// Reads `count` consecutive `width`-bit fields (the inverse of
    /// [`BitString::push_fields`]), handing each to `sink` with its index.
    /// The bits are pulled through a 64-bit accumulator with one lane read
    /// per accumulator load.
    ///
    /// Returns `None` (without advancing or calling `sink`) if fewer than
    /// `count · width` bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    pub fn read_fields(
        &mut self,
        count: usize,
        width: usize,
        mut sink: impl FnMut(usize, u64),
    ) -> Option<()> {
        assert!(width <= ACC_BITS, "width {width} exceeds 64 bits");
        let total = count.checked_mul(width)?;
        if total > self.remaining() {
            return None;
        }
        if width == 0 {
            (0..count).for_each(|i| sink(i, 0));
            return Some(());
        }
        let mask = u64::MAX >> (ACC_BITS - width);
        // `acc` holds the `held` not yet consumed bits of the last load;
        // `unread` counts the segment's bits not yet loaded.
        let (mut acc, mut held, mut unread) = (0u64, 0usize, total);
        for i in 0..count {
            let value = if held >= width {
                let value = acc & mask;
                acc = acc.checked_shr(width as u32).unwrap_or(0);
                held -= width;
                value
            } else {
                // The field straddles two loads; the remaining fields
                // cover `unread ≥ width − held` bits.
                let take = unread.min(ACC_BITS);
                let next = self.read_word_bits(take);
                unread -= take;
                let used = width - held;
                let value = (acc | (next << held)) & mask;
                acc = next.checked_shr(used as u32).unwrap_or(0);
                held = take - used;
                value
            };
            sink(i, value);
        }
        Some(())
    }

    /// Number of bits remaining.
    pub(crate) fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    /// Returns `true` if no bits remain.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }
}

/// Number of bits required to represent any value in `0..universe`.
///
/// Returns 0 when `universe <= 1` (a single possible value carries no
/// information).
///
/// # Examples
///
/// ```
/// assert_eq!(clique_sim::bits::bits_for_universe(1), 0);
/// assert_eq!(clique_sim::bits::bits_for_universe(2), 1);
/// assert_eq!(clique_sim::bits::bits_for_universe(1000), 10);
/// ```
pub fn bits_for_universe(universe: u64) -> usize {
    if universe <= 1 {
        0
    } else {
        (u64::BITS - (universe - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_bitstring() {
        let bs = BitString::new();
        assert!(bs.is_empty());
        assert_eq!(bs.len(), 0);
        assert!(bs.reader().is_exhausted());
    }

    #[test]
    fn push_and_read_single_bits() {
        let mut bs = BitString::new();
        bs.push_bit(true);
        bs.push_bit(false);
        bs.push_bit(true);
        assert_eq!(bs.len(), 3);
        assert!(bs.bit(0));
        assert!(!bs.bit(1));
        assert!(bs.bit(2));
        let mut r = bs.reader();
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bit(), Some(false));
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn push_and_read_fixed_width() {
        let mut bs = BitString::new();
        bs.push_bits(0xDEAD_BEEF, 32);
        bs.push_bits(7, 3);
        bs.push_bits(u64::MAX, 64);
        let mut r = bs.reader();
        assert_eq!(r.read_bits(32), Some(0xDEAD_BEEF));
        assert_eq!(r.read_bits(3), Some(7));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert!(r.is_exhausted());
    }

    #[test]
    fn read_past_end_returns_none() {
        let bs = BitString::from_bits(5, 3);
        let mut r = bs.reader();
        assert_eq!(r.read_bits(4), None);
        assert_eq!(r.read_bits(3), Some(5));
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn zero_width_reads_and_writes() {
        let mut bs = BitString::new();
        bs.push_bits(0, 0);
        assert!(bs.is_empty());
        let mut r = bs.reader();
        assert_eq!(r.read_bits(0), Some(0));
    }

    #[test]
    fn bits_for_universe_values() {
        assert_eq!(bits_for_universe(0), 0);
        assert_eq!(bits_for_universe(1), 0);
        assert_eq!(bits_for_universe(2), 1);
        assert_eq!(bits_for_universe(3), 2);
        assert_eq!(bits_for_universe(4), 2);
        assert_eq!(bits_for_universe(5), 3);
        assert_eq!(bits_for_universe(1 << 20), 20);
        assert_eq!(bits_for_universe(u64::MAX), 64);
    }

    #[test]
    fn extend_and_concat() {
        let a = BitString::from_bools(&[true, false]);
        let b = BitString::from_bools(&[true, true, false]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 5);
        assert_eq!(c.to_bools(), vec![true, false, true, true, false]);
        let mut d = a.clone();
        d.extend_from(&b);
        assert_eq!(c, d);
    }

    #[test]
    fn from_iterator_and_extend_trait() {
        let bs: BitString = [true, true, false].into_iter().collect();
        assert_eq!(bs.len(), 3);
        let mut bs2 = bs.clone();
        bs2.extend([false, true]);
        assert_eq!(bs2.len(), 5);
        assert!(bs2.bit(4));
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        let bs = BitString::from_bools(&[true, false, true]);
        assert_eq!(format!("{bs}"), "101");
        assert!(format!("{bs:?}").contains("3 bits"));
    }

    #[test]
    fn push_words_and_read_words_round_trip() {
        let probes = [0usize, 1, 3, LANE_BITS - 1, LANE_BITS, LANE_BITS + 1];
        let lens = [
            0usize,
            1,
            37,
            LANE_BITS,
            LANE_BITS + 36,
            2 * LANE_BITS,
            3 * LANE_BITS + 8,
        ];
        for &offset in &probes {
            for &len in &lens {
                let words: Vec<DefaultLane> = (0..len.div_ceil(LANE_BITS).max(1))
                    .map(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1))
                    .collect();
                let mut bs = BitString::new();
                for i in 0..offset {
                    bs.push_bit(i % 3 == 0);
                }
                bs.push_words(&words, len);
                assert_eq!(bs.len(), offset + len);
                let mut r = bs.reader();
                for i in 0..offset {
                    assert_eq!(r.read_bit(), Some(i % 3 == 0));
                }
                let got = r.read_words(len).expect("enough bits");
                assert_eq!(got.len(), len.div_ceil(LANE_BITS));
                for (w, &word) in got.iter().enumerate() {
                    let width = (len - w * LANE_BITS).min(LANE_BITS);
                    assert_eq!(
                        word,
                        words[w] & mask_low(width),
                        "offset {offset}, len {len}, word {w}"
                    );
                }
                assert!(r.is_exhausted());
            }
        }
    }

    /// `push_fields` / `read_fields` agree bit for bit with one
    /// `push_bits` / `read_bits` call per field, at every width and from
    /// start offsets on both sides of a lane boundary (so fields straddle
    /// both the accumulator and the lane boundaries).
    #[test]
    fn fields_match_per_field_calls() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state ^ (state >> 29)
        };
        for width in 0..=64usize {
            for offset in [0usize, 1, 7, LANE_BITS - 1, LANE_BITS + 3] {
                let values: Vec<u64> = (0..2 * LANE_BITS / width.max(1) + 3)
                    .map(|_| next())
                    .collect();
                let mut fields = BitString::new();
                let mut per_field = BitString::new();
                for i in 0..offset {
                    fields.push_bit(i % 3 == 0);
                    per_field.push_bit(i % 3 == 0);
                }
                fields.push_fields(&values, width);
                for &v in &values {
                    per_field.push_bits(v, width);
                }
                assert_eq!(fields, per_field, "width {width}, offset {offset}");
                // A trailing bit checks that the reader stops exactly.
                fields.push_bit(true);

                let mut reader = fields.reader();
                reader.read_words(offset).expect("offset bits present");
                let mut read = vec![u64::MAX; values.len()];
                reader
                    .read_fields(values.len(), width, |i, v| read[i] = v)
                    .expect("fields present");
                let mask = u64::MAX.checked_shr(64 - width as u32).unwrap_or(0);
                let expected: Vec<u64> = values.iter().map(|v| v & mask).collect();
                assert_eq!(read, expected, "width {width}, offset {offset}");
                assert_eq!(reader.read_bit(), Some(true));
                assert!(reader.is_exhausted());
            }
        }
    }

    #[test]
    fn short_field_reads_do_not_advance() {
        let mut bs = BitString::new();
        bs.push_fields(&[5, 6, 7], 3);
        let mut r = bs.reader();
        let mut calls = 0;
        assert_eq!(r.read_fields(4, 3, |_, _| calls += 1), None);
        assert_eq!((calls, r.pos), (0, 0));
        assert_eq!(r.read_fields(usize::MAX, 2, |_, _| calls += 1), None);
        let mut got = Vec::new();
        assert_eq!(r.read_fields(3, 3, |_, v| got.push(v)), Some(()));
        assert_eq!(got, vec![5, 6, 7]);
    }

    #[test]
    fn read_words_into_fills_and_masks() {
        let lane = LANE_BITS;
        let bs = BitString::from_bools(&vec![true; lane + 6]);
        let mut r = bs.reader();
        let mut out = [DefaultLane::MAX; 3];
        assert_eq!(r.read_words_into(lane + 7, &mut out), None);
        assert_eq!(r.read_words_into(lane + 2, &mut out), Some(()));
        assert_eq!(out[0], DefaultLane::MAX);
        assert_eq!(out[1], mask_low(2));
        assert_eq!(
            out[2],
            DefaultLane::MAX,
            "lanes past the read stay untouched"
        );
        assert_eq!(r.remaining(), 4);
    }

    #[test]
    fn read_words_past_end_does_not_advance() {
        let bs = BitString::from_bits(0b101, 3);
        let mut r = bs.reader();
        assert_eq!(r.read_words(4), None);
        assert_eq!(r.pos, 0);
        assert_eq!(r.read_words(3), Some(vec![0b101]));
    }

    #[test]
    fn from_words_and_to_bools_match_per_bit_paths() {
        let bools: Vec<bool> = (0..150).map(|i| (i * 7) % 5 < 2).collect();
        let packed = BitString::from_bools(&bools);
        let mut per_bit = BitString::new();
        for &b in &bools {
            per_bit.push_bit(b);
        }
        assert_eq!(packed, per_bit);
        assert_eq!(packed.to_bools(), bools);
        let rebuilt = BitString::from_words(packed.words(), packed.len());
        assert_eq!(rebuilt, packed);
    }

    #[test]
    fn unused_high_bits_stay_zero() {
        // `words()` promises zeroed padding; push paths must maintain it.
        let mut bs = BitString::from_bools(&[true; 70]);
        bs.push_bits(u64::MAX, 3);
        bs.push_words(&[DefaultLane::MAX], 5);
        let last = *bs.words().last().unwrap();
        let used = bs.len() % LANE_BITS;
        assert_eq!(last & !mask_low(used), 0);
    }

    #[test]
    fn crossing_word_boundaries() {
        let mut bs = BitString::new();
        for i in 0..200u64 {
            bs.push_bits(i % 2, 1);
        }
        bs.push_bits(0xABCD, 16);
        let mut r = bs.reader();
        for i in 0..200u64 {
            assert_eq!(r.read_bits(1), Some(i % 2));
        }
        assert_eq!(r.read_bits(16), Some(0xABCD));
    }

    #[test]
    fn toggle_bit_flips_exactly_one_bit() {
        let mut bs = BitString::from_bools(&[false; 150]);
        bs.toggle_bit(0);
        bs.toggle_bit(149);
        bs.toggle_bit(64);
        assert!(bs.bit(0) && bs.bit(149) && bs.bit(64));
        bs.toggle_bit(64);
        assert!(!bs.bit(64));
        assert_eq!(bs.to_bools().iter().filter(|&&b| b).count(), 2);
    }

    #[test]
    fn le_bytes_are_canonical_and_truncated() {
        let mut bs = BitString::new();
        bs.push_bits(0xABCD, 16);
        bs.push_bits(0b101, 3);
        // 19 bits -> 3 bytes: CD AB 05 (bit 16..18 = 101 -> 0b101 = 5).
        assert_eq!(bs.to_le_bytes(), vec![0xCD, 0xAB, 0x05]);
    }
}
