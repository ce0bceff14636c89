//! Ready-made circuits for the gate families discussed in Section 2.
//!
//! These are the workloads of experiment E1: shallow circuits over `n²`
//! inputs made of `b`-separable gates (parity/`MOD_m`/threshold/majority),
//! which Theorem 2 simulates in `O(depth)` rounds of `CLIQUE-UCAST`.

use crate::circuit::{Circuit, GateId};
use crate::gate::GateKind;

/// A single unbounded fan-in XOR (parity) gate over `n` inputs: depth 1.
pub fn parity(n: usize) -> Circuit {
    single_gate(n, GateKind::Xor)
}

/// A single `MOD_m` gate over `n` inputs: outputs 1 iff the number of ones is
/// divisible by `m`. Depth 1.
///
/// # Panics
///
/// Panics if `m < 2`.
pub fn mod_m(n: usize, m: u64) -> Circuit {
    assert!(m >= 2, "MOD_m needs m >= 2");
    single_gate(n, GateKind::Mod(m))
}

/// A single majority gate over `n` inputs. Depth 1.
pub fn majority(n: usize) -> Circuit {
    single_gate(n, GateKind::Majority)
}

fn single_gate(n: usize, kind: GateKind) -> Circuit {
    let mut c = Circuit::new();
    let xs = c.add_inputs(n);
    let out = c.add_gate(kind, &xs);
    c.mark_output(out);
    c
}

/// A balanced tree of XOR gates with the given arity, computing the parity of
/// `n` inputs in depth `⌈log_arity n⌉`.
///
/// # Panics
///
/// Panics if `arity < 2` or `n == 0`.
pub fn parity_tree(n: usize, arity: usize) -> Circuit {
    assert!(arity >= 2, "tree arity must be at least 2");
    assert!(n > 0, "parity of zero inputs is undefined here");
    let mut c = Circuit::new();
    let mut frontier = c.add_inputs(n);
    while frontier.len() > 1 {
        frontier = frontier
            .chunks(arity)
            .map(|chunk| {
                if chunk.len() == 1 {
                    chunk[0]
                } else {
                    c.add_gate(GateKind::Xor, chunk)
                }
            })
            .collect();
    }
    c.mark_output(frontier[0]);
    c
}

/// The "exactly `k` ones" predicate as a depth-3 circuit of threshold gates:
/// `THR_k(x) AND NOT THR_{k+1}(x)`.
pub fn exactly_k(n: usize, k: u64) -> Circuit {
    let mut c = Circuit::new();
    let xs = c.add_inputs(n);
    let at_least_k = c.add_gate(GateKind::Threshold(k), &xs);
    let at_least_k1 = c.add_gate(GateKind::Threshold(k + 1), &xs);
    let not_more = c.add_gate(GateKind::Not, &[at_least_k1]);
    let out = c.add_gate(GateKind::And, &[at_least_k, not_more]);
    c.mark_output(out);
    c
}

/// The inner product mod 2 of two `n`-bit vectors (inputs `x₀…x_{n−1}` then
/// `y₀…y_{n−1}`): `⊕_i (x_i ∧ y_i)`. Depth 2, `3n` wires.
pub fn inner_product_mod2(n: usize) -> Circuit {
    let mut c = Circuit::new();
    let xs = c.add_inputs(n);
    let ys = c.add_inputs(n);
    let products: Vec<GateId> = (0..n)
        .map(|i| c.add_gate(GateKind::And, &[xs[i], ys[i]]))
        .collect();
    let out = c.add_gate(GateKind::Xor, &products);
    c.mark_output(out);
    c
}

/// A depth-2 `CC[m]` circuit: a `MOD_m` gate of `MOD_m` gates over random-ish
/// fixed wiring (each bottom gate reads a contiguous block of `block` inputs).
/// Used to exercise the ACC/CC discussion of Section 2 in experiment E1.
pub fn mod_of_mods(n: usize, m: u64, block: usize) -> Circuit {
    assert!(m >= 2, "MOD_m needs m >= 2");
    assert!(block >= 1, "block size must be positive");
    let mut c = Circuit::new();
    let xs = c.add_inputs(n);
    let bottom: Vec<GateId> = xs
        .chunks(block)
        .map(|chunk| c.add_gate(GateKind::Mod(m), chunk))
        .collect();
    let out = c.add_gate(GateKind::Mod(m), &bottom);
    c.mark_output(out);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_of(mask: u64, n: usize) -> Vec<bool> {
        (0..n).map(|i| mask >> i & 1 == 1).collect()
    }

    #[test]
    fn parity_circuits_agree_with_popcount() {
        for n in [1usize, 3, 7] {
            let flat = parity(n);
            let tree = parity_tree(n, 2);
            let tree3 = parity_tree(n, 3);
            for mask in 0..(1u64 << n) {
                let input = bits_of(mask, n);
                let expected = mask.count_ones() % 2 == 1;
                assert_eq!(flat.evaluate(&input), vec![expected]);
                assert_eq!(tree.evaluate(&input), vec![expected]);
                assert_eq!(tree3.evaluate(&input), vec![expected]);
            }
        }
    }

    #[test]
    fn parity_tree_depth_is_logarithmic() {
        let c = parity_tree(64, 2);
        assert_eq!(c.depth(), 6);
        let c4 = parity_tree(64, 4);
        assert_eq!(c4.depth(), 3);
        assert_eq!(parity(64).depth(), 1);
    }

    #[test]
    fn mod_and_majority() {
        let c = mod_m(6, 3);
        assert_eq!(c.evaluate(&bits_of(0b000111, 6)), vec![true]);
        assert_eq!(c.evaluate(&bits_of(0b000011, 6)), vec![false]);
        let m = majority(5);
        assert_eq!(m.evaluate(&bits_of(0b00111, 5)), vec![true]);
        assert_eq!(m.evaluate(&bits_of(0b00011, 5)), vec![false]);
    }

    #[test]
    fn exactly_k_works() {
        let c = exactly_k(6, 2);
        assert_eq!(c.depth(), 3);
        for mask in 0..64u64 {
            let expected = mask.count_ones() == 2;
            assert_eq!(c.evaluate(&bits_of(mask, 6)), vec![expected]);
        }
    }

    #[test]
    fn inner_product_matches_reference() {
        let n = 5;
        let c = inner_product_mod2(n);
        for xm in 0..(1u64 << n) {
            for ym in [0u64, 1, 9, 21, 31] {
                let mut input = bits_of(xm, n);
                input.extend(bits_of(ym, n));
                let expected = (xm & ym).count_ones() % 2 == 1;
                assert_eq!(c.evaluate(&input), vec![expected], "IP({xm:b},{ym:b})");
            }
        }
    }

    #[test]
    fn mod_of_mods_structure() {
        let c = mod_of_mods(12, 6, 4);
        assert_eq!(c.depth(), 2);
        assert_eq!(c.max_separability_bits(), 3);
        // All-zero input: every MOD6 gate sees 0 ones -> outputs 1 -> top
        // gate sees 3 ones -> 3 mod 6 != 0 -> false.
        assert_eq!(c.evaluate(&[false; 12]), vec![false]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn parity_tree_rejects_arity_one() {
        let _ = parity_tree(4, 1);
    }
}
