use super::*;

/// The cube exchange of the 3D partition. The players hold the rows of two
/// `part.d`-dimensional operands under `part`'s row-owner map, tile the
/// product cube over `g³` cube nodes, and send each cube's partial to the
/// owners of its output rows, in three steps: the input shipment, the cube
/// nodes' multiply-and-ship, and the owners' fold. The cube nodes multiply
/// one cube at a time and put each partial on the wire before the next, so
/// one partial block is alive at a time.
///
/// Every node walks the cubes in the canonical `(i, j, k)` order and packs
/// a payload's rows ascending, entries in column order — a layout both
/// sides derive from public quantities alone. A zero-width row is never
/// sent, so no payload is empty, and a receiver whose walk leaves bits of a
/// payload unread rejects it.
struct CubeExchange {
    /// The 3D tiling of the operands over the session's players.
    part: Partition,
    codec: EntryCodec,
    /// The two operands cut into their `g × g` blocks.
    blocks: [Vec<SemiringMatrix>; 2],
}

impl CubeExchange {
    fn new(part: Partition, codec: EntryCodec, operands: [&SemiringMatrix; 2]) -> Self {
        Self {
            part,
            codec,
            blocks: operands.map(|m| codec.operand_blocks(m, &part)),
        }
    }

    /// The cubes in canonical order.
    fn cubes(&self) -> impl Iterator<Item = (usize, usize, usize)> {
        let g = self.part.g;
        (0..g).flat_map(move |i| (0..g).flat_map(move |j| (0..g).map(move |k| (i, j, k))))
    }

    /// The two input blocks of cube `(i, j, k)` — `A_{ik}` and `B_{kj}` —
    /// each with its row-block index.
    fn inputs(&self, i: usize, j: usize, k: usize) -> [(&SemiringMatrix, usize); 2] {
        let g = self.part.g;
        [
            (&self.blocks[0][i * g + k], i),
            (&self.blocks[1][k * g + j], k),
        ]
    }

    /// Step 1: the row owners' input shipment. Each payload `v → w`
    /// carries `v`'s run of rows of `A_{ik}`, then its run of `B_{kj}`; a
    /// cube's payloads go out in ascending `v`.
    fn input_demand(&self) -> RoutingDemand {
        let mut demand = RoutingDemand::new(self.part.n);
        let width = self.codec.input;
        for (i, j, k) in self.cubes() {
            let w = self.part.cube_node(i, j, k);
            let inputs = self.inputs(i, j, k);
            // The two blocks' owner runs, merged by owner.
            let mut runs = inputs.map(|(_, row_block)| self.part.owner_runs(row_block).peekable());
            while let Some(v) = runs.iter_mut().filter_map(|r| Some(r.peek()?.0)).min() {
                let taken = runs
                    .each_mut()
                    .map(|r| r.next_if(|&(u, _)| u == v).map_or(0..0, |(_, run)| run));
                if v == w {
                    continue; // own rows need no routing
                }
                let mut payload = BitString::new();
                for ((block, _), run) in inputs.iter().zip(taken) {
                    for bi in run {
                        self.codec
                            .encode_row(block, bi, block.cols(), width, &mut payload);
                    }
                }
                // Zero-width rows carry nothing, so no payload is empty.
                if !payload.is_empty() {
                    demand.send(v, w, payload);
                }
            }
        }
        demand
    }

    /// Step 2: cube by cube in canonical order, the cube node rebuilds its
    /// two blocks from the delivered payloads (plus its own rows),
    /// multiplies them and ships the partial. Partial row `bi` of cube
    /// `(i, j, ·)` is output row `block(i).start + bi` over the columns
    /// `block(j)`. Rows the cube node owns fold into `output` in place;
    /// every other owner's run of partial rows is one payload of the
    /// returned partial demand.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedPayload`] for a missing or truncated segment,
    /// or a payload with bits the cube node's walk does not read.
    fn multiply_and_ship(
        &self,
        delivered: &Delivered,
        output: &mut SemiringMatrix,
    ) -> Result<RoutingDemand, SimError> {
        let mut demand = RoutingDemand::new(self.part.n);
        let (semiring, width) = (self.codec.semiring, self.codec.partial);
        for (i, j, k) in self.cubes() {
            let w = self.part.cube_node(i, j, k);
            let mut inbox = Readers::new(&delivered[w]);
            let [a, b] = self
                .inputs(i, j, k)
                .map(|(source, row_block)| self.rebuild(source, row_block, w, &mut inbox));
            let (a, b) = (a?, b?);
            inbox.finish(INPUT_PHASE)?;
            let partial = semiring.product(&a, &b);
            let cols = self.part.block(j);
            if cols.is_empty() {
                continue; // a cube without columns has no partial to ship
            }
            let first_row = self.part.block(i).start;
            for (v, run) in self.part.owner_runs(i) {
                if v == w {
                    for bi in run {
                        let r = first_row + bi;
                        output.fold_row(semiring, r, cols.start, &partial, bi, cols.len());
                    }
                } else {
                    let mut payload = BitString::with_capacity(run.len() * cols.len() * width);
                    for bi in run {
                        self.codec
                            .encode_row(&partial, bi, cols.len(), width, &mut payload);
                    }
                    demand.send(w, v, payload);
                }
            }
        }
        Ok(demand)
    }

    /// Cube node `w`'s copy of the input block `source` of row block
    /// `row_block`: its own rows copied, every other owner's run read from
    /// that owner's payload in `inbox`.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedPayload`] for a missing or truncated segment.
    fn rebuild(
        &self,
        source: &SemiringMatrix,
        row_block: usize,
        w: usize,
        inbox: &mut Readers<'_>,
    ) -> Result<SemiringMatrix, SimError> {
        let mut block = source.zeros_like(source.rows(), source.cols());
        for (v, run) in self.part.owner_runs(row_block) {
            if v == w {
                run.for_each(|bi| block.copy_row(bi, source, bi));
            } else if block.cols() > 0 {
                let reader = inbox.get_mut(v).ok_or_else(|| malformed(v, INPUT_PHASE))?;
                for bi in run {
                    let codec = &self.codec;
                    codec.decode_row(reader, &mut block, bi, codec.input, v, INPUT_PHASE)?;
                }
            }
        }
        Ok(block)
    }

    /// Step 3: the output row owners fold the delivered partial rows
    /// straight into `output`, walking them in the order step 2 wrote them.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedPayload`] for a missing or truncated segment,
    /// or a payload with bits the owner's walk does not read.
    fn fold_partials(
        &self,
        delivered: &Delivered,
        output: &mut SemiringMatrix,
    ) -> Result<(), SimError> {
        let mut inbox: Vec<_> = delivered
            .iter()
            .map(|packets| Readers::new(packets))
            .collect();
        for (i, j, k) in self.cubes() {
            let (w, cols) = (self.part.cube_node(i, j, k), self.part.block(j));
            if cols.is_empty() {
                continue;
            }
            let first_row = self.part.block(i).start;
            for (v, run) in self.part.owner_runs(i).filter(|&(v, _)| v != w) {
                let reader = inbox[v]
                    .get_mut(w)
                    .ok_or_else(|| malformed(w, PARTIAL_PHASE))?;
                for bi in run {
                    let r = first_row + bi;
                    self.codec
                        .fold_row(reader, output, r, cols.clone(), w, PARTIAL_PHASE)?;
                }
            }
        }
        inbox
            .into_iter()
            .try_for_each(|readers| readers.finish(PARTIAL_PHASE))
    }
}

/// The `O(n^{1/3})`-round distributed semiring matrix product as a
/// [`Protocol`]: `C = A ⊗ B` for square `d × d` operands, 3D-partitioned
/// over the `n` players of the session and routed through the
/// [`BalancedRouter`].
///
/// Player `v` holds rows `r` with `row_owner(r) = v` of both inputs (for
/// `d = n` this is the standard "player `i` knows row `i`" input
/// convention) and ends up holding the same rows of the output; the
/// returned matrix is the assembled whole. The product runs in three
/// steps: the input shipment to the cube nodes; the cube nodes' local
/// block products, each shipped to the output row owners as soon as it is
/// computed; and the owners' fold. Both shipments carry one payload per
/// player pair, so the router sends them directly.
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
    /// (Boolean and `F₂` need [`SemiringMatrix::Bits`], `(min, +)` needs
    /// [`SemiringMatrix::Ints`], counting takes either for both), or if a
    /// counting operand contains the reserved [`IntMatrix::INFINITY`] entry.
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
                | (Semiring::MinPlus, SemiringMatrix::Ints(_)) => {}
                (Semiring::Counting, _) if m.as_bits().is_some() == a.as_bits().is_some() => {}
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
}

impl Protocol for SemiringMatMul<'_> {
    type Output = SemiringMatrix;

    fn run(&mut self, session: &mut Session) -> Result<SemiringMatrix, SimError> {
        let d = self.a.rows();
        let mut output = SemiringMatrix::identity_filled(self.semiring, d, d);
        if d > 0 {
            let part = Partition::new(session.n(), d);
            let codec = EntryCodec::new(self.semiring, self.a, self.b, part.max_block_len());
            let cube = CubeExchange::new(part, codec, [self.a, self.b]);
            let inputs = BalancedRouter.route(cube.input_demand(), session)?;
            let demand = cube.multiply_and_ship(&inputs, &mut output)?;
            drop(inputs); // read in full: free it before the partials travel
            let partials = BalancedRouter.route(demand, session)?;
            cube.fold_partials(&partials, &mut output)?;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubic_products_match_local_kernels() {
        // d = 100 (g = 4) folds 25-column partials into lane offsets 25,
        // 50 and 75, spilling across a lane boundary. On n = 27, d < g = 3
        // makes some row/column blocks empty; the empty segments are never
        // routed, and the decode side must not expect packets for them.
        let bits = |d, seed| SemiringMatrix::Bits(random_bitmatrix(d, seed));
        let ints = |d, max, inf, seed| SemiringMatrix::Ints(random_intmatrix(d, max, inf, seed));
        let mut cases = Vec::new(); // (semiring, n, A, B)
        for (d, seed) in [(1usize, 1u64), (3, 2), (8, 3), (17, 4), (27, 5), (100, 6)] {
            cases.push((Semiring::Boolean, d, bits(d, seed), bits(d, seed + 100)));
            cases.push((Semiring::F2, d, bits(d, seed + 40), bits(d, seed + 140)));
            cases.push((
                Semiring::Counting,
                d,
                bits(d, seed + 80),
                bits(d, seed + 180),
            ));
        }
        for (d, max, seed) in [(1usize, 1u64, 11u64), (6, 1, 12), (13, 7, 13), (27, 3, 14)] {
            let (a, b) = (ints(d, max, false, seed), ints(d, max, false, seed + 100));
            cases.push((Semiring::Counting, d, a, b));
        }
        for (d, max, seed) in [(2usize, 5u64, 21u64), (9, 9, 22), (27, 4, 23)] {
            let (a, b) = (ints(d, max, true, seed), ints(d, max, true, seed + 100));
            cases.push((Semiring::MinPlus, d, a, b));
        }
        for d in [1usize, 2] {
            let (b, c, m) = (bits(d, 71), ints(d, 3, false, 72), ints(d, 3, true, 73));
            cases.push((Semiring::Boolean, 27, b.clone(), b));
            cases.push((Semiring::Counting, 27, c.clone(), c));
            cases.push((Semiring::MinPlus, 27, m.clone(), m));
        }
        for (semiring, n, a, b) in cases {
            let outcome = Runner::new(CliqueConfig::unicast(n, 4))
                .execute(&mut SemiringMatMul::new(&a, &b, semiring))
                .unwrap();
            let expected = semiring.product(&a, &b);
            let d = a.rows();
            assert_eq!(*outcome, expected, "{} d = {d} on n = {n}", semiring.name());
        }
    }

    #[test]
    fn unread_rows_are_typed_errors() {
        // n = d = 27: cube side 3, blocks of 9 rows and one row per player.
        // One extra row on one routed payload, of the inputs and then of
        // the partials, is rejected naming that payload's sender, for
        // packed and for integer partials.
        let d = 27;
        // Appends a row of `cols` zero entries to `packet`; returns its sender.
        let extra = |packet: &mut Packet, cols, width| {
            packet.payload.push_fields(&vec![0; cols], width);
            packet.src.index()
        };
        for semiring in [Semiring::Boolean, Semiring::Counting] {
            let a = SemiringMatrix::Bits(random_bitmatrix(d, 41));
            let part = Partition::new(d, d);
            let codec = EntryCodec::new(semiring, &a, &a, part.max_block_len());
            let cube = CubeExchange::new(part, codec, [&a, &a]);
            let mut output = SemiringMatrix::identity_filled(semiring, d, d);
            let mut session = Session::new(CliqueConfig::unicast(d, 4));
            let mut inputs = BalancedRouter
                .route(cube.input_demand(), &mut session)
                .unwrap();
            let demand = cube.multiply_and_ship(&inputs, &mut output).unwrap();
            let mut partials = BalancedRouter.route(demand, &mut session).unwrap();
            cube.fold_partials(&partials, &mut output.clone()).unwrap();

            let sender = extra(&mut inputs[5][0], 9, codec.input);
            assert_eq!(
                cube.multiply_and_ship(&inputs, &mut output).unwrap_err(),
                malformed(sender, INPUT_PHASE),
                "{} inputs",
                semiring.name()
            );
            let sender = extra(&mut partials[5][0], 9, codec.partial);
            assert_eq!(
                cube.fold_partials(&partials, &mut output).unwrap_err(),
                malformed(sender, PARTIAL_PHASE),
                "{} partials",
                semiring.name()
            );
        }
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
    #[should_panic(expected = "representation does not match")]
    fn mismatched_operand_representation_is_rejected() {
        let a = SemiringMatrix::Ints(IntMatrix::zeros(4, 4));
        let _ = SemiringMatMul::new(&a, &a, Semiring::F2);
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
