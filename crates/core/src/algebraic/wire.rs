use super::*;

/// The 3D tiling of a `d × d × d` product cube onto `n` players.
#[derive(Clone, Copy, Debug)]
pub(super) struct Partition {
    pub(super) n: usize,
    pub(super) d: usize,
    /// Cube side: the largest `g` with `g³ ≤ n`, i.e. `g = Θ(n^{1/3})`.
    pub(super) g: usize,
}

impl Partition {
    pub(super) fn new(n: usize, d: usize) -> Self {
        let g = (1..=n).take_while(|&g| g * g * g <= n).last().unwrap_or(1);
        Self { n, d, g }
    }

    /// Index range `t`-th of the `g` row/column blocks (they tile `0..d`).
    pub(super) fn block(&self, t: usize) -> Range<usize> {
        t * self.d / self.g..(t + 1) * self.d / self.g
    }

    /// The largest block length (the inner-dimension bound of a partial
    /// product).
    pub(super) fn max_block_len(&self) -> usize {
        (0..self.g).map(|t| self.block(t).len()).max().unwrap_or(0)
    }

    /// The player holding row `r` of the inputs and of the output.
    pub(super) fn row_owner(&self, r: usize) -> usize {
        r * self.n / self.d
    }

    /// Row block `t` in runs of rows that share one owner, as `(owner,
    /// run)` pairs in ascending owner order, each run in block-local row
    /// indices. [`Self::row_owner`] never decreases in `r`, and owner `v`'s
    /// rows end before row `⌈(v + 1)·d / n⌉`.
    pub(super) fn owner_runs(&self, t: usize) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let rows = self.block(t);
        let mut next = rows.start;
        std::iter::from_fn(move || {
            (next < rows.end).then(|| {
                let v = self.row_owner(next);
                let end = ((v + 1) * self.d).div_ceil(self.n).min(rows.end);
                let run = next - rows.start..end - rows.start;
                next = end;
                (v, run)
            })
        })
    }

    /// The player computing cube `(i, j, k)`.
    pub(super) fn cube_node(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.g + j) * self.g + k
    }
}

/// Fixed wire widths for matrix entries, derived from public quantities
/// (the dimension and the operands' global entry bounds) so both endpoints
/// agree on the layout without a header, as the routers split links by the
/// demand's shape. Entries travel unsigned; `(min, +)` encodes
/// [`IntMatrix::INFINITY`] as the all-ones pattern, and the widths are
/// chosen so no finite entry collides with it.
#[derive(Clone, Copy, Debug)]
pub(super) struct EntryCodec {
    /// The semiring the entries live in.
    pub(super) semiring: Semiring,
    /// Width of an input entry of either operand.
    pub(super) input: usize,
    /// Width of a partial-product entry.
    pub(super) partial: usize,
}

impl EntryCodec {
    pub(super) fn new(
        semiring: Semiring,
        a: &SemiringMatrix,
        b: &SemiringMatrix,
        max_inner: usize,
    ) -> EntryCodec {
        let (ma, mb) = (a.max_finite(), b.max_finite());
        let (input, partial) = match semiring {
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
            input,
            partial,
        }
    }

    /// The operand cut into its `g × g` blocks (index `row_block · g +
    /// col_block`) in the representation they travel and multiply in.
    /// Integer blocks travel packed when every input entry is one unsigned
    /// bit meaning 0 or 1: counting with both operand bounds at most 1, not
    /// `(min, +)`, whose one-bit pattern 1 is the INFINITY sentinel.
    pub(super) fn operand_blocks(
        &self,
        m: &SemiringMatrix,
        part: &Partition,
    ) -> Vec<SemiringMatrix> {
        let packed;
        let one_bit = self.input == 1;
        let m = match m {
            SemiringMatrix::Ints(ints) if one_bit && self.semiring == Semiring::Counting => {
                packed = SemiringMatrix::Bits(ints.to_bitmatrix());
                &packed
            }
            _ => m,
        };
        let g = part.g;
        (0..g * g)
            .map(|t| m.submatrix(part.block(t / g), part.block(t % g)))
            .collect()
    }

    /// Appends `values` as `width`-bit entries. Masking to the width turns
    /// the `(min, +)` INFINITY into the all-ones sentinel.
    pub(super) fn encode(&self, values: &[u64], width: usize, out: &mut BitString) {
        let ones = mask_low(width);
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

    /// Reads `out.len()` `width`-bit entries, which `sender` routed in
    /// `phase`, mapping the all-ones sentinel back to INFINITY under
    /// `(min, +)`.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedPayload`] if the segment is truncated.
    pub(super) fn decode(
        &self,
        reader: &mut BitReader<'_>,
        width: usize,
        out: &mut [u64],
        sender: usize,
        phase: &str,
    ) -> Result<(), SimError> {
        let sentinel = match self.semiring {
            Semiring::MinPlus => Some(mask_low(width)),
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

    /// Appends the first `len` entries of row `i` of a block: packed rows a
    /// lane at a time, integer rows as `width`-bit entries.
    pub(super) fn encode_row(
        &self,
        block: &SemiringMatrix,
        i: usize,
        len: usize,
        width: usize,
        out: &mut BitString,
    ) {
        match block {
            SemiringMatrix::Bits(m) => out.push_words(m.row_words(i), len),
            SemiringMatrix::Ints(m) => self.encode(&m.row(i)[..len], width, out),
        }
    }

    /// Folds the next segment `sender` routed in `phase` into row `r` of
    /// `output` over the columns `cols`, with the semiring addition and no
    /// intermediate row: packed rows a lane at a time, integer rows as each
    /// `width`-bit entry is read, by an addition chosen once per segment.
    /// Under `(min, +)` the all-ones sentinel is INFINITY, the additive
    /// identity, and leaves its entry as it is.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedPayload`] if the segment is truncated.
    pub(super) fn fold_row(
        &self,
        reader: &mut BitReader<'_>,
        output: &mut SemiringMatrix,
        r: usize,
        cols: Range<usize>,
        sender: usize,
        phase: &str,
    ) -> Result<(), SimError> {
        let width = self.partial;
        let read = match output {
            SemiringMatrix::Bits(m) => {
                let row = m.row_words_mut(r);
                (cols.start..cols.end)
                    .step_by(LANE_BITS)
                    .try_for_each(|col| {
                        let word = reader.read_bits((cols.end - col).min(LANE_BITS))?;
                        self.semiring.fold_lane(row, col, word);
                        Some(())
                    })
            }
            SemiringMatrix::Ints(m) => {
                let out = &mut m.row_mut(r)[cols];
                let len = out.len();
                match self.semiring {
                    Semiring::MinPlus => {
                        let sentinel = mask_low(width);
                        reader.read_fields(len, width, |t, raw| {
                            if raw != sentinel {
                                out[t] = out[t].min(raw);
                            }
                        })
                    }
                    Semiring::Counting => reader.read_fields(len, width, |t, raw| {
                        out[t] = saturating_counting_add(out[t], raw);
                    }),
                    Semiring::Boolean | Semiring::F2 => {
                        unreachable!("Boolean and F₂ outputs are packed")
                    }
                }
            }
        };
        read.ok_or_else(|| malformed(sender, phase))
    }

    /// Overwrites row `i` of `block` with the next segment `sender` routed
    /// in `phase` (the inverse of [`Self::encode_row`] over a whole row).
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedPayload`] if the segment is truncated.
    pub(super) fn decode_row(
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

/// Phase label of a cube exchange's input-block shipment in
/// [`SimError::MalformedPayload`] reports.
pub(super) const INPUT_PHASE: &str = "semiring-matmul/inputs";

/// Phase label of a cube exchange's partial-block shipment.
pub(super) const PARTIAL_PHASE: &str = "semiring-matmul/partials";

/// Phase labels of the sparse product's two record shipments.
pub(super) const SPARSE_INPUT_PHASE: &str = "sparse-matmul/inputs";
pub(super) const SPARSE_PARTIAL_PHASE: &str = "sparse-matmul/partials";

/// The typed error for wire data from `sender` that does not parse.
pub(super) fn malformed(sender: usize, phase: &str) -> SimError {
    SimError::MalformedPayload {
        sender: NodeId::new(sender),
        phase: phase.to_owned(),
    }
}

/// Per-source readers over the logical payloads one player received, in
/// ascending source order.
pub(super) struct Readers<'a>(Vec<(usize, BitReader<'a>)>);

impl<'a> Readers<'a> {
    /// Readers over `packets`, found by binary search. The dense and sparse
    /// shipments deliver in ascending source order already; any other list
    /// is sorted once.
    pub(super) fn new(packets: &'a [Packet]) -> Self {
        let mut readers: Vec<_> = packets
            .iter()
            .map(|p| (p.src.index(), p.payload.reader()))
            .collect();
        if !readers.is_sorted_by_key(|&(src, _)| src) {
            readers.sort_by_key(|&(src, _)| src);
        }
        Self(readers)
    }

    /// The reader over the payload `src` sent, if it sent one.
    pub(super) fn get_mut(&mut self, src: usize) -> Option<&mut BitReader<'a>> {
        let at = self.0.binary_search_by_key(&src, |&(s, _)| s).ok()?;
        Some(&mut self.0[at].1)
    }

    /// Ends the receiver's walk over the payloads of `phase`. A payload
    /// with bits left unread carries more than the layout both ends derive,
    /// so it is a [`SimError::MalformedPayload`] naming its sender.
    pub(super) fn finish(self, phase: &str) -> Result<(), SimError> {
        match self.0.iter().find(|(_, reader)| !reader.is_exhausted()) {
            Some(&(src, _)) => Err(malformed(src, phase)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for (codec, operand, packed) in [
            (
                EntryCodec::new(Semiring::MinPlus, &ints, &ints, 7),
                &ints,
                false,
            ),
            (
                EntryCodec::new(Semiring::Counting, &ones, &ones, 7),
                &ones,
                true,
            ),
            (
                EntryCodec::new(Semiring::Boolean, &bits, &bits, 7),
                &bits,
                true,
            ),
        ] {
            let block = &codec.operand_blocks(operand, &part)[0];
            assert_eq!(matches!(block, SemiringMatrix::Bits(_)), packed);
            let mut wire = BitString::new();
            codec.encode_row(block, 2, 7, codec.input, &mut wire);
            assert_eq!(wire.len(), 7 * codec.input);
            let mut decoded = block.zeros_like(7, 7);
            codec
                .decode_row(
                    &mut wire.reader(),
                    &mut decoded,
                    2,
                    codec.input,
                    5,
                    INPUT_PHASE,
                )
                .unwrap();
            assert_eq!(&decoded, block, "{:?} round trip", codec.semiring);
            for cut in 0..wire.len() {
                let prefix = BitString::from_words(wire.words(), cut);
                assert_eq!(
                    codec.decode_row(
                        &mut prefix.reader(),
                        &mut decoded,
                        2,
                        codec.input,
                        5,
                        INPUT_PHASE
                    ),
                    Err(SimError::MalformedPayload {
                        sender: NodeId::new(5),
                        phase: INPUT_PHASE.into(),
                    }),
                    "{:?} prefix of {cut} bits",
                    codec.semiring
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
                codec.partial,
                &mut value,
                2,
                PARTIAL_PHASE
            ),
            Err(malformed(2, PARTIAL_PHASE))
        );
    }
}
