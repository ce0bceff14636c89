use super::*;

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
                let (d, levels) = (a.rows(), FastMatMul::levels_for(n, a.rows()));
                let total = 2 * d * d;
                let nnz = a.nnz(semiring) + b.nnz(semiring);
                if total > 0 && nnz * 8 <= total * SPARSE_DENSITY_EIGHTHS {
                    MatMulSchedule::Sparse
                } else if matches!(semiring, Semiring::F2 | Semiring::Counting)
                    && n >= STRASSEN_MIN_PLAYERS
                    && d >= STRASSEN_MIN_ASPECT * n
                    && levels >= 1
                    && (semiring != Semiring::Counting
                        || counting_headroom_ok(a.max_finite(), b.max_finite(), d, levels))
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
