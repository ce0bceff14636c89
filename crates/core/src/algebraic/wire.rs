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

    /// The player computing cube `(i, j, k)`.
    pub(super) fn cube_node(&self, i: usize, j: usize, k: usize) -> usize {
        (i * self.g + j) * self.g + k
    }
}

/// One entry's wire field: the value travels as `value + offset` (wrapping)
/// in `width` bits.
#[derive(Clone, Copy, Debug)]
pub(super) struct Field {
    pub(super) width: usize,
    pub(super) offset: u64,
}

/// Fixed wire fields for matrix entries, derived from public quantities
/// (the dimension and the operands' global entry bounds) so both endpoints
/// agree on the framing — the same convention the routers' `PacketCodec`
/// uses. The cubic product's fields are unsigned; `(min, +)` encodes
/// [`IntMatrix::INFINITY`] as the all-ones pattern, and the widths are
/// chosen so no finite entry collides with it. A Strassen counting leaf's
/// fields are signed, each with its own public bound as offset.
#[derive(Clone, Copy, Debug)]
pub(super) struct EntryCodec {
    /// The arithmetic the entries live in.
    pub(super) arith: Arith,
    /// A-side input entries (phase 1).
    pub(super) a: Field,
    /// B-side input entries (phase 1).
    pub(super) b: Field,
    /// Partial-product entries (phase 2).
    pub(super) partial: Field,
}

impl EntryCodec {
    pub(super) fn new(
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
        let unsigned = |width| Field { width, offset: 0 };
        EntryCodec {
            arith: Arith::Semiring(semiring),
            a: unsigned(input_bits),
            b: unsigned(input_bits),
            partial: unsigned(partial_bits),
        }
    }

    /// The codec of a Strassen counting leaf over wrapping `ℤ`: combined
    /// A and B entries bounded by `ba` and `bb` in absolute value, partial
    /// entries by `bp`.
    pub(super) fn signed(ba: u64, bb: u64, bp: u64) -> EntryCodec {
        // A value in [-bound, bound] travels as value + bound.
        let signed = |bound: u64| Field {
            width: bits_for_universe(2 * bound + 1).max(1),
            offset: bound,
        };
        EntryCodec {
            arith: Arith::Wrapping,
            a: signed(ba),
            b: signed(bb),
            partial: signed(bp),
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
        let one_bit = self.a.width == 1 && self.b.width == 1;
        let m = match m {
            SemiringMatrix::Ints(ints)
                if one_bit && self.arith == Arith::Semiring(Semiring::Counting) =>
            {
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

    /// Appends `values` as `field` entries. Masking to the width turns the
    /// `(min, +)` INFINITY into the all-ones sentinel; unsigned fields go
    /// straight to [`BitString::push_fields`].
    pub(super) fn encode(&self, values: &[u64], field: Field, out: &mut BitString) {
        let ones = mask_low(field.width);
        // Finite values must fit the width; under (min, +) they must
        // additionally stay clear of the all-ones sentinel.
        debug_assert!(
            values.iter().all(|&v| match self.arith {
                Arith::Semiring(Semiring::MinPlus) => v < ones || v == IntMatrix::INFINITY,
                _ => v.wrapping_add(field.offset) <= ones,
            }),
            "an entry does not fit its public wire width"
        );
        if field.offset == 0 {
            out.push_fields(values, field.width);
        } else {
            let shifted: Vec<u64> = values
                .iter()
                .map(|&v| v.wrapping_add(field.offset))
                .collect();
            out.push_fields(&shifted, field.width);
        }
    }

    /// Reads `out.len()` `field` entries, which `sender` routed in `phase`,
    /// mapping the all-ones sentinel back to INFINITY under `(min, +)`.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedPayload`] if the segment is truncated.
    pub(super) fn decode(
        &self,
        reader: &mut BitReader<'_>,
        field: Field,
        out: &mut [u64],
        sender: usize,
        phase: &str,
    ) -> Result<(), SimError> {
        let sentinel = match self.arith {
            Arith::Semiring(Semiring::MinPlus) => Some(mask_low(field.width)),
            _ => None,
        };
        reader
            .read_fields(out.len(), field.width, |j, raw| {
                out[j] = if Some(raw) == sentinel {
                    IntMatrix::INFINITY
                } else {
                    raw.wrapping_sub(field.offset)
                };
            })
            .ok_or_else(|| malformed(sender, phase))
    }

    /// Appends the first `len` entries of row `i` of a block: packed rows a
    /// lane at a time, integer rows as `field` entries.
    pub(super) fn encode_row(
        &self,
        block: &SemiringMatrix,
        i: usize,
        len: usize,
        field: Field,
        out: &mut BitString,
    ) {
        match block {
            SemiringMatrix::Bits(m) => out.push_words(m.row_words(i), len),
            SemiringMatrix::Ints(m) => self.encode(&m.row(i)[..len], field, out),
        }
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
        field: Field,
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
            SemiringMatrix::Ints(m) => self.decode(reader, field, m.row_mut(i), sender, phase),
        }
    }
}

/// Phase label of a cube exchange's input-block shipment in
/// [`SimError::MalformedPayload`] reports.
pub(super) const INPUT_PHASE: &str = "semiring-matmul/inputs";

/// Phase label of a cube exchange's partial-block shipment.
pub(super) const PARTIAL_PHASE: &str = "semiring-matmul/partials";

/// Phase label of the Strassen schedule's pre-combine shipment.
pub(super) const PRECOMBINE_PHASE: &str = "fast-matmul/pre-combine";

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

/// Per-source readers over the logical payloads one player received.
pub(super) fn readers(packets: &[Packet]) -> HashMap<usize, BitReader<'_>> {
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
/// node and length fields) a modest fraction of the payload. On
/// full-scale E18 this keeps the Strassen schedule within 2× of the cubic
/// product's rounds (1.95× on its worst row); sent whole, its payloads
/// took 1.9–3.4× the chunked rounds. The cubic product, whose whole
/// payloads go direct, still takes fewer rounds at every E18 point.
const FAST_CHUNK_BITS: usize = 64;

/// Splits logical `(src, dst)` payloads into sequence-tagged chunks before
/// routing and reassembles them afterwards. Two-phase routing may deliver
/// a pair's chunks interleaved by intermediary, so each chunk carries its
/// sequence number; the tag width derives from a public bound on the
/// largest logical payload, so both endpoints agree on the framing without
/// extra communication (the [`EntryCodec`] convention).
pub(super) struct Chunker {
    max_payload_bits: usize,
    seq_width: usize,
}

impl Chunker {
    pub(super) fn new(max_payload_bits: usize) -> Chunker {
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

    /// Regroups one destination's delivered chunks into one logical packet
    /// per source, restoring sender order from the sequence tags.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedPayload`], labelled `phase`, for a chunk too
    /// short to hold its sequence tag.
    fn merge(&self, packets: &[Packet], phase: &str) -> Result<Vec<Packet>, SimError> {
        let mut by_src: HashMap<usize, Vec<(u64, BitReader<'_>)>> = HashMap::new();
        for p in packets {
            let mut reader = p.payload.reader();
            let seq = reader
                .read_bits(self.seq_width)
                .ok_or_else(|| malformed(p.src.index(), phase))?;
            by_src.entry(p.src.index()).or_default().push((seq, reader));
        }
        Ok(by_src
            .into_iter()
            .map(|(src, mut chunks)| {
                chunks.sort_unstable_by_key(|&(seq, _)| seq);
                let mut merged = BitString::new();
                for (_, mut reader) in chunks {
                    let len = reader.remaining();
                    let words = reader
                        .read_words(len)
                        .expect("the rest of a chunk is present");
                    merged.push_words(&words, len);
                }
                Packet::new(NodeId::new(src), packets[0].dst, merged)
            })
            .collect())
    }
}

/// How a routed phase frames its logical `(src, dst)` payloads.
pub(super) enum Link {
    /// One packet per pair (the cubic product).
    Whole,
    /// Sequence-tagged chunks of at most [`FAST_CHUNK_BITS`] bits (the
    /// Strassen schedule).
    Chunked(Chunker),
}

impl Link {
    /// Queues `payload` on the `(src, dst)` pair (empty payloads send
    /// nothing).
    pub(super) fn send(
        &self,
        demand: &mut RoutingDemand,
        src: usize,
        dst: usize,
        payload: BitString,
    ) {
        match self {
            Link::Whole if !payload.is_empty() => demand.send(src, dst, payload),
            Link::Whole => {}
            Link::Chunked(chunker) => chunker.send(demand, src, dst, &payload),
        }
    }

    /// Routes `demand` through the [`BalancedRouter`] and hands every
    /// player one logical packet per source.
    ///
    /// # Errors
    ///
    /// Propagates routing errors; a chunk that cannot be reassembled is a
    /// [`SimError::MalformedPayload`] labelled `phase`.
    pub(super) fn route(
        &self,
        demand: &RoutingDemand,
        session: &mut Session,
        phase: &str,
    ) -> Result<Delivered, SimError> {
        let delivered = BalancedRouter.route(demand, session)?;
        match self {
            Link::Whole => Ok(delivered),
            Link::Chunked(chunker) => delivered
                .iter()
                .map(|packets| chunker.merge(packets, phase))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_segments_are_typed_errors() {
        // A (min, +) integer row (3-bit fields, INFINITY as the all-ones
        // sentinel), a one-bit counting row (packed), a Boolean row and a
        // signed counting row (4-bit fields offset by 6, negative entries
        // wrapped).
        let square = |row: Vec<u64>| {
            let mut m = IntMatrix::zeros(7, 7);
            m.row_mut(2).copy_from_slice(&row);
            SemiringMatrix::Ints(m)
        };
        let ints = square(vec![0, 3, IntMatrix::INFINITY, 5, 1, 4, 2]);
        let ones = square(vec![1, 0, 1, 1, 0, 0, 1]);
        let bits = SemiringMatrix::Bits(ones.as_ints().unwrap().to_bitmatrix());
        let signed = square([0i64, 3, -5, 6, -6, 1, -1].map(|v| v as u64).to_vec());
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
            (EntryCodec::signed(6, 6, 0), &signed, false),
        ] {
            let block = &codec.operand_blocks(operand, &part)[0];
            assert_eq!(matches!(block, SemiringMatrix::Bits(_)), packed);
            let mut wire = BitString::new();
            codec.encode_row(block, 2, 7, codec.a, &mut wire);
            assert_eq!(wire.len(), 7 * codec.a.width);
            let mut decoded = block.zeros_like(7, 7);
            codec
                .decode_row(&mut wire.reader(), &mut decoded, 2, codec.a, 5, INPUT_PHASE)
                .unwrap();
            assert_eq!(&decoded, block, "{:?} round trip", codec.arith);
            for cut in 0..wire.len() {
                let prefix = BitString::from_words(wire.words(), cut);
                assert_eq!(
                    codec.decode_row(
                        &mut prefix.reader(),
                        &mut decoded,
                        2,
                        codec.a,
                        5,
                        INPUT_PHASE
                    ),
                    Err(SimError::MalformedPayload {
                        sender: NodeId::new(5),
                        phase: INPUT_PHASE.into(),
                    }),
                    "{:?} prefix of {cut} bits",
                    codec.arith
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
        // Chunks reassemble in tag order; a chunk too short to hold its
        // 2-bit sequence tag is a typed error too.
        let chunker = Chunker::new(4 * FAST_CHUNK_BITS);
        let payload = BitString::from_bools(&[true, false, true].repeat(50));
        let mut demand = RoutingDemand::new(4);
        chunker.send(&mut demand, 3, 1, &payload);
        let mut packets = demand.packets().to_vec();
        packets.reverse();
        let merged = chunker.merge(&packets, PARTIAL_PHASE).unwrap();
        assert_eq!(
            merged,
            [Packet::new(NodeId::new(3), NodeId::new(1), payload)]
        );
        packets[1].payload = BitString::from_bits(1, 1);
        assert_eq!(
            chunker.merge(&packets, PARTIAL_PHASE),
            Err(malformed(3, PARTIAL_PHASE))
        );
    }
}
