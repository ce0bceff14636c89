use super::*;

/// A signed block term `(block_row, block_col, sign)` on a block grid.
type Term = (usize, usize, i64);

/// The cubic product's only output term: its partials feed the output
/// unchanged.
const IDENTITY_TERM: &[Term] = &[(0, 0, 1)];

/// One group's cube exchange: the 3D-partitioned block product both dense
/// schedules run. The group is the `part.n` players from `base` on. They
/// hold the rows of two `part.d`-dimensional operands under `part`'s
/// row-owner map, tile the product cube over `g³` cube nodes, and send each
/// cube's partial to the output blocks its `terms` name, clipped to the
/// output dimension.
///
/// Every node walks the cubes in the canonical `(i, j, k)` order and packs
/// a payload's rows ascending, entries in column order — a layout both
/// sides derive from public quantities alone.
struct CubeExchange<'t> {
    /// The group's first player.
    base: usize,
    /// The group's 3D tiling of its operands.
    part: Partition,
    codec: EntryCodec,
    /// The two operands cut into their `g × g` blocks.
    blocks: [Vec<SemiringMatrix>; 2],
    /// The output blocks, on a grid of side `part.d`, each partial feeds.
    terms: &'t [Term],
}

impl<'t> CubeExchange<'t> {
    fn new(
        base: usize,
        part: Partition,
        codec: EntryCodec,
        operands: [&SemiringMatrix; 2],
        terms: &'t [Term],
    ) -> Self {
        Self {
            base,
            part,
            codec,
            blocks: operands.map(|m| codec.operand_blocks(m, &part)),
            terms,
        }
    }

    /// The cubes in canonical order.
    fn cubes(&self) -> impl Iterator<Item = (usize, usize, usize)> {
        let g = self.part.g;
        (0..g).flat_map(move |i| (0..g).flat_map(move |j| (0..g).map(move |k| (i, j, k))))
    }

    /// The player computing cube `(i, j, k)`.
    fn cube_node(&self, i: usize, j: usize, k: usize) -> usize {
        self.base + self.part.cube_node(i, j, k)
    }

    /// The player holding operand row `r`.
    fn row_owner(&self, r: usize) -> usize {
        self.base + self.part.row_owner(r)
    }

    /// The two input blocks of cube `(i, j, k)` — `A_{ik}` and `B_{kj}` —
    /// each with its row-block index and wire field.
    fn inputs(&self, i: usize, j: usize, k: usize) -> [(&SemiringMatrix, usize, Field); 2] {
        let g = self.part.g;
        [
            (&self.blocks[0][i * g + k], i, self.codec.a),
            (&self.blocks[1][k * g + j], k, self.codec.b),
        ]
    }

    /// The partial row segments cube `(i, j, ·)` sends, in payload order:
    /// for each term `(ci, cj, sign)`, partial row `bi` covers output row
    /// `r` from column `col0` on for `len` entries — clipped to the output
    /// dimension `d`, so padding is never sent.
    fn segments(
        &self,
        i: usize,
        j: usize,
        d: usize,
    ) -> impl Iterator<Item = (usize, usize, usize, usize, i64)> + '_ {
        let (q, cols) = (self.part.d, self.part.block(j));
        self.terms.iter().flat_map(move |&(ci, cj, sign)| {
            let col0 = cj * q + cols.start;
            let len = cols.len().min(d.saturating_sub(col0));
            self.part
                .block(i)
                .enumerate()
                .map(move |(bi, rl)| (bi, ci * q + rl, col0, len, sign))
                .take_while(move |&(_, r, ..)| r < d && len > 0)
        })
    }

    /// Step 1: the row owners append the input blocks to `demand`. Each
    /// payload `v → w` carries `v`'s rows of `A_{ik}`, then its rows of
    /// `B_{kj}`.
    fn send_inputs(&self, link: &Link, demand: &mut RoutingDemand) {
        for (i, j, k) in self.cubes() {
            let w = self.cube_node(i, j, k);
            let mut payloads: BTreeMap<usize, BitString> = BTreeMap::new();
            for (block, row_block, field) in self.inputs(i, j, k) {
                for (bi, r) in self.part.block(row_block).enumerate() {
                    let v = self.row_owner(r);
                    if v != w {
                        // Own input rows need no routing.
                        let buf = payloads.entry(v).or_default();
                        self.codec.encode_row(block, bi, block.cols(), field, buf);
                    }
                }
            }
            for (v, payload) in payloads {
                link.send(demand, v, w, payload);
            }
        }
    }

    /// Step 2: every cube node rebuilds its two blocks from the delivered
    /// payloads (plus its own rows) and multiplies them.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedPayload`] for a missing or truncated segment.
    fn multiply(&self, delivered: &Delivered) -> Result<Vec<SemiringMatrix>, SimError> {
        self.cubes()
            .map(|(i, j, k)| {
                let w = self.cube_node(i, j, k);
                let mut inbox = readers(&delivered[w]);
                let [a, b] = self.inputs(i, j, k).map(|(source, row_block, field)| {
                    let mut block = source.zeros_like(source.rows(), source.cols());
                    for (bi, r) in self.part.block(row_block).enumerate() {
                        let v = self.row_owner(r);
                        if v == w {
                            block.copy_row(bi, source, bi);
                        } else if block.cols() > 0 {
                            // A zero-width segment was never sent (empty
                            // payloads are skipped), so only look the
                            // reader up when there are entries to read.
                            let reader =
                                inbox.get_mut(&v).ok_or_else(|| malformed(v, INPUT_PHASE))?;
                            self.codec
                                .decode_row(reader, &mut block, bi, field, v, INPUT_PHASE)?;
                        }
                    }
                    Ok::<_, SimError>(block)
                });
                Ok(self.codec.arith.product(&a?, &b?))
            })
            .collect()
    }

    /// Step 3: every cube node appends its partial's segments to `demand`,
    /// one payload per output row owner of `global`; rows it owns itself
    /// fold into `output` in place.
    fn send_partials(
        &self,
        partials: &[SemiringMatrix],
        global: &Partition,
        output: &mut SemiringMatrix,
        link: &Link,
        demand: &mut RoutingDemand,
    ) {
        for ((i, j, k), partial) in self.cubes().zip(partials) {
            let w = self.cube_node(i, j, k);
            let mut payloads: BTreeMap<usize, BitString> = BTreeMap::new();
            for (bi, r, col0, len, sign) in self.segments(i, j, global.d) {
                let v = global.row_owner(r);
                if v == w {
                    output.fold_row(r, col0, partial, bi, len, self.codec.arith.add(sign));
                } else {
                    let buf = payloads.entry(v).or_default();
                    self.codec
                        .encode_row(partial, bi, len, self.codec.partial, buf);
                }
            }
            for (v, payload) in payloads {
                link.send(demand, w, v, payload);
            }
        }
    }

    /// Step 4: the output row owners fold the delivered segments, walking
    /// them in the order step 3 wrote them.
    ///
    /// # Errors
    ///
    /// [`SimError::MalformedPayload`] for a missing or truncated segment.
    fn fold_partials(
        &self,
        inbox: &mut [HashMap<usize, BitReader<'_>>],
        global: &Partition,
        output: &mut SemiringMatrix,
    ) -> Result<(), SimError> {
        // A one-row scratch block holds each segment until it is folded.
        let mut segment = output.zeros_like(1, 0);
        for (i, j, k) in self.cubes() {
            let w = self.cube_node(i, j, k);
            for (_, r, col0, len, sign) in self.segments(i, j, global.d) {
                let v = global.row_owner(r);
                if v != w {
                    if segment.cols() != len {
                        segment = output.zeros_like(1, len);
                    }
                    let reader = inbox[v]
                        .get_mut(&w)
                        .ok_or_else(|| malformed(w, PARTIAL_PHASE))?;
                    let field = self.codec.partial;
                    self.codec
                        .decode_row(reader, &mut segment, 0, field, w, PARTIAL_PHASE)?;
                    output.fold_row(r, col0, &segment, 0, len, self.codec.arith.add(sign));
                }
            }
        }
        Ok(())
    }
}

/// Runs the cube exchanges of disjoint player groups through their four
/// steps, with one routing demand per shipment in group order, and folds
/// every partial into `output` (whose row owners are the session's
/// `Partition`).
///
/// # Errors
///
/// Propagates routing errors and malformed-payload reads.
fn exchange_cubes(
    session: &mut Session,
    cubes: &[CubeExchange<'_>],
    [input_link, partial_link]: [Link; 2],
    output: &mut SemiringMatrix,
) -> Result<(), SimError> {
    let n = session.n();
    let global = Partition::new(n, output.rows());
    let mut demand = RoutingDemand::new(n);
    for cube in cubes {
        cube.send_inputs(&input_link, &mut demand);
    }
    let delivered = input_link.route(&demand, session, INPUT_PHASE)?;
    let partials = cubes
        .iter()
        .map(|cube| cube.multiply(&delivered))
        .collect::<Result<Vec<_>, _>>()?;

    let mut demand = RoutingDemand::new(n);
    for (cube, partials) in cubes.iter().zip(&partials) {
        cube.send_partials(partials, &global, output, &partial_link, &mut demand);
    }
    let delivered = partial_link.route(&demand, session, PARTIAL_PHASE)?;
    let mut inbox: Vec<_> = delivered.iter().map(|packets| readers(packets)).collect();
    for cube in cubes {
        cube.fold_partials(&mut inbox, &global, output)?;
    }
    Ok(())
}

/// The `O(n^{1/3})`-round distributed semiring matrix product as a
/// [`Protocol`]: `C = A ⊗ B` for square `d × d` operands, 3D-partitioned
/// over the `n` players of the session and routed through the
/// [`BalancedRouter`].
///
/// Player `v` holds rows `r` with `row_owner(r) = v` of both inputs (for
/// `d = n` this is the standard "player `i` knows row `i`" input
/// convention) and ends up holding the same rows of the output; the
/// returned matrix is the assembled whole. It is the depth-0 case of
/// [`FastMatMul`]: one cube exchange over all players, with the identity
/// output term, whole payloads and the semiring's own arithmetic.
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
        let d = self.a.rows();
        let mut output = SemiringMatrix::identity_filled(self.semiring, d, d);
        if d > 0 {
            let part = Partition::new(session.n(), d);
            let codec = EntryCodec::new(self.semiring, self.a, self.b, part.max_block_len());
            let cube = CubeExchange::new(0, part, codec, [self.a, self.b], IDENTITY_TERM);
            exchange_cubes(session, &[cube], [Link::Whole, Link::Whole], &mut output)?;
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
    /// Terms of the A-side operand.
    a_terms: Vec<Term>,
    /// Terms of the B-side operand.
    b_terms: Vec<Term>,
    /// Output blocks the product feeds.
    c_terms: Vec<Term>,
}

/// Per-level Strassen rules: the quadrants (with signs) feeding each of the
/// 7 products' A and B operands, and the C quadrants each product feeds —
/// M1 = (A11+A22)(B11+B22), M2 = (A21+A22)B11, M3 = A11(B12−B22),
/// M4 = A22(B21−B11), M5 = (A11+A12)B22, M6 = (A21−A11)(B11+B12),
/// M7 = (A12−A22)(B21+B22); C11 = M1+M4−M5+M7, C12 = M3+M5, C21 = M2+M4,
/// C22 = M1−M2+M3+M6. The same identities drive the lifted Strassen
/// circuit, so both seams agree block for block.
type StrassenRule = (&'static [Term], &'static [Term], &'static [Term]);
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
        a_terms: IDENTITY_TERM.to_vec(),
        b_terms: IDENTITY_TERM.to_vec(),
        c_terms: IDENTITY_TERM.to_vec(),
    }];
    for _ in 0..levels {
        let mut next = Vec::with_capacity(leaves.len() * 7);
        for leaf in &leaves {
            for (rule_a, rule_b, rule_c) in STRASSEN_RULES {
                // A parent block (pi, pj) splits into quadrants at
                // (2·pi + qi, 2·pj + qj) on the refined grid; signs multiply.
                let expand = |parent: &[Term], rule: &[Term]| {
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

/// Whether a depth-`levels` counting-semiring Strassen schedule is exact:
/// the cubic comparison must not saturate (true entries `≤ ma·mb·d` stay
/// below [`IntMatrix::INFINITY`]) and every signed intermediate — combined
/// entries bounded by `2^L·m`, partials by `4^L·ma·mb·q`, fold sums by
/// `56^L·ma·mb·q` — must fit `i64` so wrapping arithmetic recovers the
/// exact integer product.
pub(super) fn counting_headroom_ok(ma: u64, mb: u64, d: usize, levels: u32) -> bool {
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
/// 2. **Leaf products** — every group ships its combined `q × q` operands
///    through the cube exchange [`SemiringMatMul`] runs, and its cube nodes
///    multiply locally (packed [`BitMatrix::mul_f2`] over `F₂`,
///    wrapping-exact [`IntMatrix::mul_wrapping`] for counting).
/// 3. **Recombine** — signed partials route to the output row owners, who
///    fold each leaf's contribution into the output blocks its product
///    feeds.
///
/// All groups share one routing demand per phase, and the phases route
/// payloads in 64-bit chunks. At depth 0 the schedule is the cubic product
/// itself.
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
    /// and the protocol runs the cubic partition in place.
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
        let n = session.n();
        let d = self.a.rows();
        let levels = match self.levels {
            _ if d == 0 => 0,
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
            // The depth-0 schedule is the cubic product: one group, no
            // pre-combine, whole payloads.
            return session.run_protocol(&mut SemiringMatMul::new(self.a, self.b, self.semiring));
        }

        let leaves = strassen_leaf_coeffs(levels);
        let side = 1usize << levels;
        let q = strassen_padded_dim(d, levels) >> levels;
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
        // bounds. Over F₂ every field is one bit.
        let raw = EntryCodec::new(self.semiring, self.a, self.b, 0);
        let codecs: Vec<EntryCodec> = leaves
            .iter()
            .map(|leaf| match self.semiring {
                Semiring::F2 => raw,
                _ => {
                    let ba = leaf.a_terms.len() as u64 * ma;
                    let bb = leaf.b_terms.len() as u64 * mb;
                    let bp = (u128::from(ba) * u128::from(bb) * q as u128) as u64;
                    EntryCodec::signed(ba, bb, bp)
                }
            })
            .collect();

        // Public per-pair payload bounds, which fix each phase's chunk
        // sequence width: what one sender can owe one receiver is capped by
        // the rows it owns, the widest term list, and the wire widths — all
        // public quantities.
        let global_rpo = d.div_ceil(n).max(1);
        let max_a_terms = leaves.iter().map(|l| l.a_terms.len()).max().unwrap_or(1);
        let max_b_terms = leaves.iter().map(|l| l.b_terms.len()).max().unwrap_or(1);
        let precombine = Link::Chunked(Chunker::new(
            (max_a_terms + max_b_terms) * global_rpo * q * raw.a.width,
        ));
        let (mut bound2, mut bound3) = (0usize, 0usize);
        for ((leaf, lp), codec) in leaves.iter().zip(&leaf_parts).zip(&codecs) {
            let bl = lp.max_block_len();
            let lp_rpo = lp.d.div_ceil(lp.n).max(1);
            bound2 = bound2.max(2 * lp_rpo.min(bl) * bl * codec.a.width.max(codec.b.width));
            bound3 = bound3.max(leaf.c_terms.len() * global_rpo.min(bl) * bl * codec.partial.width);
        }

        // Phase 1 (pre-combine): each leaf-row owner gathers, side by side
        // and leaf row by leaf row, the rows of the base blocks its leaf's
        // terms name. The base blocks are clipped to d, so padding is never
        // sent (p and the term lists are public). Senders and receivers
        // walk the same per-leaf list of (side, leaf row, base block, sign,
        // holder, leaf-row owner).
        let clip = |t: usize| (t * q).min(d)..((t + 1) * q).min(d);
        let bases = [self.a, self.b].map(|m| {
            (0..side * side)
                .map(|t| m.submatrix(clip(t / side), clip(t % side)))
                .collect::<Vec<_>>()
        });
        let gathers: Vec<Vec<_>> = leaves
            .iter()
            .enumerate()
            .map(|(t, leaf)| {
                let mut rows = Vec::new();
                for (s, terms) in [&leaf.a_terms, &leaf.b_terms].into_iter().enumerate() {
                    for rl in 0..q {
                        for &(bi, bj, sign) in terms {
                            let block = &bases[s][bi * side + bj];
                            if rl < block.rows() && block.cols() > 0 {
                                let v = global.row_owner(bi * q + rl);
                                let o = group_start(t) + leaf_parts[t].row_owner(rl);
                                rows.push((s, rl, block, sign, v, o));
                            }
                        }
                    }
                }
                rows
            })
            .collect();
        let mut demand = RoutingDemand::new(n);
        for rows in &gathers {
            let mut payloads: BTreeMap<(usize, usize), BitString> = BTreeMap::new();
            for &(_, rl, block, _, v, o) in rows {
                if v != o {
                    let buf = payloads.entry((v, o)).or_default();
                    raw.encode_row(block, rl, block.cols(), raw.a, buf);
                }
            }
            for ((v, o), payload) in payloads {
                precombine.send(&mut demand, v, o, payload);
            }
        }
        let delivered = precombine.route(&demand, session, PRECOMBINE_PHASE)?;
        let mut inbox: Vec<_> = delivered.iter().map(|packets| readers(packets)).collect();

        // The leaf-row owners fold the signed combinations in their leaf's
        // arithmetic (XOR over F₂, wrapping ℤ for counting), and each group
        // cuts its combined operands for its cube exchange.
        let mut cubes = Vec::with_capacity(leaves.len());
        for (t, (rows, leaf)) in gathers.iter().zip(&leaves).enumerate() {
            let mut operands =
                [(); 2].map(|_| SemiringMatrix::identity_filled(self.semiring, q, q));
            for &(s, rl, block, sign, v, o) in rows {
                let add = codecs[t].arith.add(sign);
                if v == o {
                    operands[s].fold_row(rl, 0, block, rl, block.cols(), add);
                } else {
                    let mut segment = block.zeros_like(1, block.cols());
                    let reader = inbox[o]
                        .get_mut(&v)
                        .ok_or_else(|| malformed(v, PRECOMBINE_PHASE))?;
                    raw.decode_row(reader, &mut segment, 0, raw.a, v, PRECOMBINE_PHASE)?;
                    operands[s].fold_row(rl, 0, &segment, 0, block.cols(), add);
                }
            }
            let (gs, operands) = (group_start(t), operands.each_ref());
            cubes.push(CubeExchange::new(
                gs,
                leaf_parts[t],
                codecs[t],
                operands,
                &leaf.c_terms,
            ));
        }

        // Phases 2–3: every group's cube exchange, in one demand per
        // phase. The XOR (F₂) and wrapping (counting) folds are
        // order-independent, unlike the cubic path's saturating fold —
        // exactness is the headroom precondition.
        let links = [bound2, bound3].map(|bound| Link::Chunked(Chunker::new(bound)));
        let mut output = SemiringMatrix::identity_filled(self.semiring, d, d);
        exchange_cubes(session, &cubes, links, &mut output)?;
        debug_assert!(
            output
                .as_ints()
                .is_none_or(|m| (0..d).all(|r| m.row(r).iter().all(|&v| v as i64 >= 0))),
            "the signed fold recovers the exact product"
        );
        Ok(output)
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
            let expected = Arith::Semiring(semiring).product(&a, &b);
            let d = a.rows();
            assert_eq!(*outcome, expected, "{} d = {d} on n = {n}", semiring.name());
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
    fn fast_products_match_cubic_and_local_kernels() {
        // Non-powers of two exercise the shared padding seam; the depth is
        // forced so small cliques still run the strassen phases.
        let mut cases = Vec::new(); // (semiring, levels, A, B)
        for (d, levels, seed) in [
            (8, 1, 51),
            (13, 1, 52),
            (27, 1, 53),
            (49, 2, 54),
            (56, 2, 55),
        ] {
            let [a, b] = [seed, seed + 100].map(|s| SemiringMatrix::Bits(random_bitmatrix(d, s)));
            cases.push((Semiring::F2, levels, a, b));
        }
        for (d, max, levels, seed) in [
            (9, 3, 1, 61),
            (16, 7, 1, 62),
            (27, 1, 1, 63),
            (50, 5, 2, 64),
        ] {
            let [a, b] = [seed, seed + 100]
                .map(|s| SemiringMatrix::Ints(random_intmatrix(d, max, false, s)));
            cases.push((Semiring::Counting, levels, a, b));
        }
        for (semiring, levels, a, b) in cases {
            let d = a.rows();
            let outcome = Runner::new(CliqueConfig::unicast(d, 4))
                .execute(&mut FastMatMul::new(&a, &b, semiring).with_levels(levels))
                .unwrap();
            let cubic = semiring_matmul(&a, &b, semiring, 4).unwrap();
            let local = Arith::Semiring(semiring).product(&a, &b);
            assert_eq!(*outcome, local, "{} d = {d} local", semiring.name());
            assert_eq!(*outcome, *cubic, "{} d = {d} cubic", semiring.name());
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
