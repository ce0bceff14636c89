use super::*;

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
/// (widths derived from public row counts) — the fixed-width,
/// data-oblivious layouts of the dense paths do not apply. Each shipment
/// holds at most one payload per ordered pair, so a link's bits are its
/// payload and the router needs no length field to deliver it.
///
/// Valid over **all four** semirings: the sparse path only reorders the
/// same semiring additions the cubic path performs (the folds are
/// associative and commutative, saturation included), so the result is
/// identical entry for entry.
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
}

impl Protocol for SparseMatMul<'_> {
    type Output = SemiringMatrix;

    fn run(&mut self, session: &mut Session) -> Result<SemiringMatrix, SimError> {
        let n = session.n();
        let d = self.a.rows();
        if d == 0 {
            return Ok(SemiringMatrix::identity_filled(self.semiring, 0, 0));
        }
        let part = Partition::new(n, d);
        let identity = self.semiring.identity();
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
                codec.encode(&[value], codec.input, &mut payload);
            }
            demand.send(v, w, payload);
        }
        let delivered = BalancedRouter.route(demand, session)?;

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
            let mut inbox = Readers::new(&delivered[w]);
            for v in 0..n {
                let Some(reader) = inbox.get_mut(v) else {
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
                    codec.decode(reader, codec.input, &mut value, v, SPARSE_INPUT_PHASE)?;
                    columns
                        .entry(owned[w].start + kl)
                        .or_default()
                        .push((owned[v].start + rl, value[0]));
                }
            }
            inbox.finish(SPARSE_INPUT_PHASE)?;
            let mut partials: BTreeMap<(usize, usize), u64> = BTreeMap::new();
            for (k, col) in columns {
                for c in 0..d {
                    let b_value = self.b.entry(k, c);
                    if b_value == identity {
                        continue;
                    }
                    for &(r, a_value) in &col {
                        let product = self.semiring.multiply(a_value, b_value);
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
                    codec.encode(&[value], codec.partial, &mut payload);
                }
                demand.send(w, v, payload);
            }
        }
        let delivered = BalancedRouter.route(demand, session)?;

        for (v, packets) in delivered.iter().enumerate() {
            let mut inbox = Readers::new(packets);
            for w in 0..n {
                let Some(reader) = inbox.get_mut(w) else {
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
                    codec.decode(reader, codec.partial, &mut value, w, SPARSE_PARTIAL_PHASE)?;
                    output.combine_entry(self.semiring, owned[v].start + rl, c, value[0]);
                }
            }
            inbox.finish(SPARSE_PARTIAL_PHASE)?;
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
