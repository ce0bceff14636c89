//! Matrix-multiplication circuits over `F₂`.
//!
//! Section 2.1 of the paper observes that size-`O(n^{2+ε})` arithmetic
//! circuits for matrix multiplication would give `O(n^ε)`-round triangle
//! detection in `CLIQUE-UCAST(n, 1)`, via the simulation of Theorem 2 and a
//! randomized reduction from Boolean to `F₂` matrix products. The conjecture
//! itself cannot be implemented, but the *transfer* can: this module builds
//! explicit `F₂` matrix-multiplication circuits with the two exponents we
//! have constructions for —
//!
//! * [`matmul_f2_naive`]: `Θ(d³)` wires (`ω = 3`),
//! * [`strassen_matmul_f2`]: `Θ(d^{log₂ 7}) ≈ Θ(d^{2.81})` wires —
//!
//! and `clique-core` feeds them through the Theorem 2 simulation to obtain
//! triangle-detection protocols whose bandwidth scales with the circuit's
//! wire density.

use crate::circuit::{Circuit, GateId};
use crate::gate::GateKind;
use clique_sim::linalg::BitMatrix;

/// A matrix-multiplication circuit `C = A·B` over `F₂` and its dimension.
///
/// Input order (for [`Circuit::evaluate`]): all of `A` row-major, then all of
/// `B` row-major. The outputs are the entries of `C`, row-major.
#[derive(Clone, Debug)]
pub struct MatMulCircuit {
    /// The underlying circuit.
    pub circuit: Circuit,
    /// Matrix dimension `d` (the product is `d × d`).
    pub dim: usize,
}

impl MatMulCircuit {
    /// Flattens two packed `d × d` matrices into the circuit's input
    /// assignment (all of `A` row-major, then all of `B` row-major).
    ///
    /// # Panics
    ///
    /// Panics if a matrix does not match the circuit dimension `d × d` —
    /// mismatches are rejected here, up front, rather than surfacing as a
    /// confusing failure deep inside circuit evaluation. Callers must pad
    /// their matrices to the circuit's dimension (e.g. with
    /// `Graph::adjacency_bitmatrix_padded`) *before* building the
    /// assignment.
    pub fn assignment(&self, a: &BitMatrix, b: &BitMatrix) -> Vec<bool> {
        let d = self.dim;
        for (name, m) in [("A", a), ("B", b)] {
            assert!(
                m.rows() == d && m.cols() == d,
                "matrix {name} must match the circuit dimension {d}×{d}, got {}×{} \
                 (pad the inputs to the circuit dimension before building the assignment)",
                m.rows(),
                m.cols()
            );
        }
        let mut out = Vec::with_capacity(2 * d * d);
        for m in [a, b] {
            for i in 0..d {
                for j in 0..d {
                    out.push(m.get(i, j));
                }
            }
        }
        out
    }
}

/// The straightforward cubic circuit: `C[i][j] = ⊕_k A[i][k] ∧ B[k][j]`.
///
/// Uses `d³` AND gates and `d²` XOR gates of fan-in `d`, i.e. `3d³` wires
/// and depth 2.
pub fn matmul_f2_naive(dim: usize) -> MatMulCircuit {
    let mut c = Circuit::new();
    let a_inputs = c.add_inputs(dim * dim);
    let b_inputs = c.add_inputs(dim * dim);
    for i in 0..dim {
        for j in 0..dim {
            let products: Vec<GateId> = (0..dim)
                .map(|k| {
                    c.add_gate(
                        GateKind::And,
                        &[a_inputs[i * dim + k], b_inputs[k * dim + j]],
                    )
                })
                .collect();
            let entry = if products.len() == 1 {
                products[0]
            } else {
                c.add_gate(GateKind::Xor, &products)
            };
            c.mark_output(entry);
        }
    }
    MatMulCircuit { circuit: c, dim }
}

/// Strassen's recursive circuit over `F₂` (where subtraction equals
/// addition equals XOR): `Θ(d^{log₂ 7})` wires, depth `Θ(log d)`.
///
/// # Panics
///
/// Panics if `dim` is not a power of two or is zero.
pub fn strassen_matmul_f2(dim: usize) -> MatMulCircuit {
    // The circuit splits all the way to 1×1 blocks
    // (`MatMulStrategy::padded_dim` produces exactly these dimensions).
    assert!(
        dim.is_power_of_two(),
        "Strassen circuit needs a power-of-two dimension"
    );
    let mut c = Circuit::new();
    let a_inputs = c.add_inputs(dim * dim);
    let b_inputs = c.add_inputs(dim * dim);
    let a = SquareIds::new(a_inputs, dim);
    let b = SquareIds::new(b_inputs, dim);
    let product = strassen_rec(&mut c, &a, &b);
    for &id in &product.ids {
        c.mark_output(id);
    }
    MatMulCircuit { circuit: c, dim }
}

/// A square matrix of gate ids.
#[derive(Clone, Debug)]
struct SquareIds {
    ids: Vec<GateId>,
    dim: usize,
}

impl SquareIds {
    fn new(ids: Vec<GateId>, dim: usize) -> Self {
        assert_eq!(ids.len(), dim * dim);
        Self { ids, dim }
    }

    fn at(&self, i: usize, j: usize) -> GateId {
        self.ids[i * self.dim + j]
    }

    /// Extracts a quadrant (half = dim/2): `(ri, cj)` selects the block.
    fn quadrant(&self, ri: usize, cj: usize) -> SquareIds {
        let half = self.dim / 2;
        let mut ids = Vec::with_capacity(half * half);
        for i in 0..half {
            for j in 0..half {
                ids.push(self.at(ri * half + i, cj * half + j));
            }
        }
        SquareIds { ids, dim: half }
    }
}

/// Elementwise XOR of two equal-size blocks (addition = subtraction in F₂).
fn add_blocks(c: &mut Circuit, x: &SquareIds, y: &SquareIds) -> SquareIds {
    assert_eq!(x.dim, y.dim);
    let ids = x
        .ids
        .iter()
        .zip(&y.ids)
        .map(|(&a, &b)| c.add_gate(GateKind::Xor, &[a, b]))
        .collect();
    SquareIds { ids, dim: x.dim }
}

/// XOR of several equal-size blocks in one layer of wider XOR gates.
fn add_many(c: &mut Circuit, blocks: &[&SquareIds]) -> SquareIds {
    let dim = blocks[0].dim;
    let ids = (0..dim * dim)
        .map(|idx| {
            let inputs: Vec<GateId> = blocks.iter().map(|b| b.ids[idx]).collect();
            c.add_gate(GateKind::Xor, &inputs)
        })
        .collect();
    SquareIds { ids, dim }
}

fn strassen_rec(c: &mut Circuit, a: &SquareIds, b: &SquareIds) -> SquareIds {
    let d = a.dim;
    if d == 1 {
        let prod = c.add_gate(GateKind::And, &[a.at(0, 0), b.at(0, 0)]);
        return SquareIds {
            ids: vec![prod],
            dim: 1,
        };
    }
    let (a11, a12, a21, a22) = (
        a.quadrant(0, 0),
        a.quadrant(0, 1),
        a.quadrant(1, 0),
        a.quadrant(1, 1),
    );
    let (b11, b12, b21, b22) = (
        b.quadrant(0, 0),
        b.quadrant(0, 1),
        b.quadrant(1, 0),
        b.quadrant(1, 1),
    );

    let s1 = add_blocks(c, &a11, &a22);
    let s2 = add_blocks(c, &b11, &b22);
    let m1 = strassen_rec(c, &s1, &s2);

    let s3 = add_blocks(c, &a21, &a22);
    let m2 = strassen_rec(c, &s3, &b11);

    let s4 = add_blocks(c, &b12, &b22);
    let m3 = strassen_rec(c, &a11, &s4);

    let s5 = add_blocks(c, &b21, &b11);
    let m4 = strassen_rec(c, &a22, &s5);

    let s6 = add_blocks(c, &a11, &a12);
    let m5 = strassen_rec(c, &s6, &b22);

    let s7 = add_blocks(c, &a21, &a11);
    let s8 = add_blocks(c, &b11, &b12);
    let m6 = strassen_rec(c, &s7, &s8);

    let s9 = add_blocks(c, &a12, &a22);
    let s10 = add_blocks(c, &b21, &b22);
    let m7 = strassen_rec(c, &s9, &s10);

    let c11 = add_many(c, &[&m1, &m4, &m5, &m7]);
    let c12 = add_blocks(c, &m3, &m5);
    let c21 = add_blocks(c, &m2, &m4);
    let c22 = add_many(c, &[&m1, &m2, &m3, &m6]);

    // Assemble the four quadrants into one block.
    let half = d / 2;
    let mut ids = vec![GateId(0); d * d];
    for i in 0..half {
        for j in 0..half {
            ids[i * d + j] = c11.ids[i * half + j];
            ids[i * d + (j + half)] = c12.ids[i * half + j];
            ids[(i + half) * d + j] = c21.ids[i * half + j];
            ids[(i + half) * d + (j + half)] = c22.ids[i * half + j];
        }
    }
    SquareIds { ids, dim: d }
}

/// The retained bool-at-a-time `F₂` product: the oracle the packed kernel
/// is property-tested against.
pub fn matmul_f2_scalar(a: &[Vec<bool>], b: &[Vec<bool>]) -> Vec<Vec<bool>> {
    let d = a.len();
    let mut out = vec![vec![false; d]; d];
    for i in 0..d {
        for j in 0..d {
            let mut acc = false;
            for (k, row_b) in b.iter().enumerate().take(d) {
                acc ^= a[i][k] & row_b[j];
            }
            out[i][j] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Evaluates `circuit` on two packed matrices: `A·B` over `F₂`.
    fn multiply(circuit: &MatMulCircuit, a: &BitMatrix, b: &BitMatrix) -> BitMatrix {
        let flat = circuit.circuit.evaluate(&circuit.assignment(a, b));
        BitMatrix::from_row_major(circuit.dim, circuit.dim, &flat)
    }

    fn random_matrix(rng: &mut impl Rng, d: usize) -> BitMatrix {
        let rows: Vec<Vec<bool>> = (0..d)
            .map(|_| (0..d).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        BitMatrix::from_rows(&rows)
    }

    #[test]
    fn naive_circuit_matches_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        for d in [1usize, 2, 3, 5] {
            let circuit = matmul_f2_naive(d);
            for _ in 0..5 {
                let a = random_matrix(&mut rng, d);
                let b = random_matrix(&mut rng, d);
                assert_eq!(multiply(&circuit, &a, &b), a.mul_f2(&b));
            }
        }
    }

    #[test]
    fn strassen_circuit_matches_reference() {
        // The explicit circuit, the packed kernel and the bool-at-a-time
        // oracle all compute one product.
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for d in [1usize, 2, 4, 8] {
            let circuit = strassen_matmul_f2(d);
            for _ in 0..5 {
                let a = random_matrix(&mut rng, d);
                let b = random_matrix(&mut rng, d);
                let lifted = multiply(&circuit, &a, &b);
                assert_eq!(lifted, a.mul_f2(&b), "Strassen mismatch at d = {d}");
                assert_eq!(
                    lifted.to_rows(),
                    matmul_f2_scalar(&a.to_rows(), &b.to_rows()),
                    "oracle mismatch at d = {d}"
                );
            }
        }
    }

    #[test]
    fn packed_reference_matches_retained_scalar_product() {
        let mut rng = ChaCha8Rng::seed_from_u64(44);
        for d in [1usize, 3, 7, 16, 65] {
            let a = random_matrix(&mut rng, d);
            let b = random_matrix(&mut rng, d);
            let packed = a.mul_f2(&b);
            let scalar = matmul_f2_scalar(&a.to_rows(), &b.to_rows());
            assert_eq!(packed.to_rows(), scalar, "mismatch at d = {d}");
        }
    }

    #[test]
    fn wire_counts_reflect_the_exponents() {
        let naive8 = matmul_f2_naive(8).circuit.wire_count();
        let strassen8 = strassen_matmul_f2(8).circuit.wire_count();
        // At d = 8 Strassen already uses fewer multiplication gates; with the
        // XOR overhead total wires are comparable, and the gap widens with d.
        let naive16 = matmul_f2_naive(16).circuit.wire_count();
        let strassen16 = strassen_matmul_f2(16).circuit.wire_count();
        let naive_growth = naive16 as f64 / naive8 as f64;
        let strassen_growth = strassen16 as f64 / strassen8 as f64;
        // Doubling d multiplies the naive wire count by 8 (ω = 3) and the
        // Strassen count by ≈ 7 plus lower-order XOR overhead (ω ≈ 2.81).
        assert!(naive_growth > 7.5, "naive growth {naive_growth}");
        assert!(
            strassen_growth < naive_growth && strassen_growth < 7.8,
            "Strassen growth {strassen_growth} should be ≈ 7, below naive {naive_growth}"
        );
    }

    #[test]
    fn depth_profile() {
        assert_eq!(matmul_f2_naive(4).circuit.depth(), 2);
        let s = strassen_matmul_f2(8);
        assert!(s.circuit.depth() >= 4);
        assert!(s.circuit.depth() <= 24, "depth {}", s.circuit.depth());
    }

    #[test]
    fn identity_matrix_behaviour() {
        let d = 4;
        let circuit = strassen_matmul_f2(d);
        let identity = BitMatrix::identity(d);
        let mut rng = ChaCha8Rng::seed_from_u64(43);
        let a = random_matrix(&mut rng, d);
        assert_eq!(multiply(&circuit, &a, &identity), a);
        assert_eq!(multiply(&circuit, &identity, &a), a);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn strassen_rejects_non_power_of_two() {
        let _ = strassen_matmul_f2(6);
    }

    #[test]
    #[should_panic(expected = "must match the circuit dimension")]
    fn mismatched_matrix_dimensions_panic() {
        let circuit = matmul_f2_naive(3);
        let bad = BitMatrix::zeros(3, 2);
        let good = BitMatrix::zeros(3, 3);
        let _ = multiply(&circuit, &bad, &good);
    }

    #[test]
    #[should_panic(expected = "must match the circuit dimension")]
    fn unpadded_matrices_are_rejected_up_front() {
        // The caller pads; a 6×6 input against a padded-to-8 circuit must
        // fail immediately with an actionable message, not deep inside the
        // evaluation.
        let circuit = strassen_matmul_f2(8);
        let unpadded = BitMatrix::zeros(6, 6);
        let _ = circuit.assignment(&unpadded, &unpadded);
    }
}
