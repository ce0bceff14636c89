use super::*;

/// Auto dispatch sends a product to [`SparseMatMul`] when at most this
/// many eighths of the operands' entries are non-identity. Experiment E18
/// measures operands of density about `2/n`: there the nnz-charged phases
/// move fewer bits than the dense `d²`-charged ones at every point, and
/// from n = 56 on they never take more rounds (at n = 27 the one-bit
/// semirings take 10 rounds against the cubic 8). No E18 point sits near
/// the 1/8 threshold itself.
pub(crate) const SPARSE_DENSITY_EIGHTHS: usize = 1;

/// Which distributed product a consumer runs: the cubic 3D partition, the
/// nnz-charged sparse path, or an automatic choice from the operands'
/// density.
///
/// The dispatch rule is explicit (DESIGN.md "Sparse algebraic matmul"):
/// `Auto` resolves to `Sparse` when the operands' density is at most
/// `SPARSE_DENSITY_EIGHTHS`/8 and to `Cubic` otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatMulSchedule {
    /// Always the cubic 3D-partitioned [`SemiringMatMul`].
    Cubic,
    /// Always the nnz-charged [`SparseMatMul`].
    Sparse,
    /// `Sparse` at low density, else `Cubic`.
    Auto,
}

impl MatMulSchedule {
    /// A short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            MatMulSchedule::Cubic => "cubic",
            MatMulSchedule::Sparse => "sparse",
            MatMulSchedule::Auto => "auto",
        }
    }

    /// The concrete schedule this dispatch runs for the given product —
    /// `Auto` applies the rule above; the explicit variants return
    /// themselves. Deterministic in public quantities plus the operand
    /// nnz, so every player resolves identically.
    pub(crate) fn resolve(
        self,
        a: &SemiringMatrix,
        b: &SemiringMatrix,
        semiring: Semiring,
    ) -> MatMulSchedule {
        match self {
            MatMulSchedule::Auto => {
                let d = a.rows();
                let total = 2 * d * d;
                let nnz = a.nnz(semiring) + b.nnz(semiring);
                if total > 0 && nnz * 8 <= total * SPARSE_DENSITY_EIGHTHS {
                    MatMulSchedule::Sparse
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
    /// Panics on any [`SemiringMatMul::new`] precondition violation.
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
        match self.schedule.resolve(self.a, self.b, self.semiring) {
            MatMulSchedule::Cubic => {
                session.run_protocol(&mut SemiringMatMul::new(self.a, self.b, self.semiring))
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
        let d = 112;
        let dense = SemiringMatrix::Bits(random_bitmatrix(d, 95));
        let sparse = SemiringMatrix::Bits(BitMatrix::identity(d));
        let auto = MatMulSchedule::Auto;
        assert_eq!(
            auto.resolve(&sparse, &sparse, Semiring::F2),
            MatMulSchedule::Sparse
        );
        for semiring in [Semiring::F2, Semiring::Boolean] {
            assert_eq!(
                auto.resolve(&dense, &dense, semiring),
                MatMulSchedule::Cubic,
                "dense {} operands stay cubic",
                semiring.name()
            );
        }
        let mp = SemiringMatrix::Ints(random_intmatrix(d, 4, false, 96));
        assert_eq!(
            auto.resolve(&mp, &mp, Semiring::MinPlus),
            MatMulSchedule::Cubic,
            "dense (min, +) operands stay cubic"
        );
        for explicit in [MatMulSchedule::Cubic, MatMulSchedule::Sparse] {
            assert_eq!(explicit.resolve(&dense, &dense, Semiring::F2), explicit);
        }
    }
}
