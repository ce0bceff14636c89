//! The non-explicit counting lower bound and the matching trivial upper
//! bound (Section 1 / full version).
//!
//! With `n` bits of input per player, `⌈n/b⌉` rounds of `CLIQUE-UCAST(n, b)`
//! always suffice for any function: every player can ship its whole input to
//! player 0, who answers locally. Conversely, a counting argument shows that
//! *some* function of the `n²` input bits requires `(n − O(log n))/b` rounds:
//! in `R` rounds a fixed player receives at most `R·(n−1)·b` bits, and if
//! that is much less than `n` there are more functions of the unseen input
//! bits than behaviours the player can exhibit. These quantities are
//! provided here as explicit formulas (experiment E10).

/// The trivial upper bound: rounds for every player to ship its `n`-bit
/// input to a single designated player, `⌈n/b⌉`.
pub fn trivial_upper_bound_rounds(n: usize, bandwidth: usize) -> u64 {
    (n as u64).div_ceil(bandwidth as u64)
}

/// The non-explicit counting lower bound `(n − c·log₂ n)/b` on the rounds
/// needed to compute *some* function `f : {0,1}^{n²} → {0,1}` in
/// `CLIQUE-UCAST(n, b)` (with `c = 2`, a conservative constant covering the
/// bookkeeping in the full version's argument). Returns 0 when the bound is
/// vacuous.
pub fn nonexplicit_lower_bound_rounds(n: usize, bandwidth: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let log = (n as f64).log2();
    ((n as f64 - 2.0 * log) / bandwidth as f64).max(0.0)
}

/// The gap between the trivial upper bound and the counting lower bound,
/// as a ratio `upper / lower` (`f64::INFINITY` when the lower bound is 0).
/// The paper notes this gap is `1 + o(1)`: the non-explicit bound is nearly
/// tight.
pub fn counting_gap(n: usize, bandwidth: usize) -> f64 {
    let lower = nonexplicit_lower_bound_rounds(n, bandwidth);
    if lower == 0.0 {
        f64::INFINITY
    } else {
        trivial_upper_bound_rounds(n, bandwidth) as f64 / lower
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_upper_bound_values() {
        assert_eq!(trivial_upper_bound_rounds(64, 1), 64);
        assert_eq!(trivial_upper_bound_rounds(64, 8), 8);
        assert_eq!(trivial_upper_bound_rounds(65, 8), 9);
        assert_eq!(trivial_upper_bound_rounds(1, 1), 1);
    }

    #[test]
    fn lower_bound_close_to_upper_bound() {
        for n in [64usize, 256, 1024, 4096] {
            for b in [1usize, 8, 16] {
                let lower = nonexplicit_lower_bound_rounds(n, b);
                let upper = trivial_upper_bound_rounds(n, b) as f64;
                assert!(lower <= upper, "lower bound exceeds upper bound");
                // The gap is exactly the O(log n)/b slack of the argument.
                assert!(
                    upper - lower <= (2.0 * (n as f64).log2()) / b as f64 + 1.0,
                    "n={n}, b={b}: gap between {lower} and {upper} too large"
                );
            }
        }
        // The ratio upper/lower tends to 1 as n grows.
        assert!(counting_gap(4096, 1) < counting_gap(64, 1));
        assert!(counting_gap(4096, 1) < 1.01);
        assert!(counting_gap(1, 1).is_infinite());
    }

    #[test]
    fn vacuous_cases() {
        assert_eq!(nonexplicit_lower_bound_rounds(0, 4), 0.0);
        assert_eq!(nonexplicit_lower_bound_rounds(1, 4), 0.0);
        assert_eq!(nonexplicit_lower_bound_rounds(2, 100), 0.0);
    }
}
