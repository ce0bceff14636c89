//! Prime-field arithmetic for the power-sum sketches.
//!
//! The sketches encode neighbour sets as power sums over a prime field
//! `F_p` with `p` larger than both the universe of node identifiers and the
//! sketch capacity `k` (so that Newton's identities, which divide by
//! `1, …, k`, are well defined). All arithmetic is done on `u64` values with
//! `p < 2³¹`, so products never overflow.
//!
//! **Reduced-operand contract.** [`PrimeField::add`], [`PrimeField::sub`],
//! [`PrimeField::neg`], [`PrimeField::mul`] and [`PrimeField::eval_poly`]
//! take operands that are already field elements (`< p`) and return field
//! elements; debug builds assert it. [`PrimeField::reduce`] is the only
//! entry point for raw integers (element shifts, sums read off the wire).
//! In exchange, addition and subtraction are a compare-and-subtract with no
//! division, multiplication costs one `%`, and each Horner step costs one
//! `%` — the sketch decoders spend nearly all their time in these four.

use std::fmt;

/// A prime field `F_p` with `p < 2³¹`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PrimeField {
    p: u64,
}

impl PrimeField {
    /// Creates the field `F_p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a prime below `2³¹`.
    pub fn new(p: u64) -> Self {
        assert!(
            (2..(1 << 31)).contains(&p),
            "modulus {p} out of supported range"
        );
        assert!(is_prime_u64(p), "modulus {p} is not prime");
        Self { p }
    }

    /// The field suitable for sketching subsets of `{0, …, universe-1}` with
    /// capacity `k`: the smallest prime exceeding both `universe` and `k`.
    pub fn for_universe(universe: u64, k: u64) -> Self {
        Self::new(next_prime(universe.max(k).max(2) + 1))
    }

    /// The modulus `p`.
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// Number of bits needed to transmit a field element.
    pub fn element_bits(&self) -> usize {
        clique_element_bits(self.p)
    }

    /// Reduces an arbitrary integer into the field.
    pub fn reduce(&self, x: u64) -> u64 {
        x % self.p
    }

    /// Addition in `F_p` of two reduced operands.
    pub fn add(&self, a: u64, b: u64) -> u64 {
        self.debug_assert_reduced(a, b);
        let sum = a + b;
        if sum >= self.p {
            sum - self.p
        } else {
            sum
        }
    }

    /// Subtraction in `F_p` of two reduced operands.
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        self.debug_assert_reduced(a, b);
        if a >= b {
            a - b
        } else {
            a + self.p - b
        }
    }

    /// Negation in `F_p` of a reduced operand.
    pub fn neg(&self, a: u64) -> u64 {
        self.debug_assert_reduced(a, 0);
        if a == 0 {
            0
        } else {
            self.p - a
        }
    }

    /// Multiplication in `F_p` of two reduced operands (`a·b < p² < 2⁶²`).
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        self.debug_assert_reduced(a, b);
        a * b % self.p
    }

    /// Exponentiation `a^e` in `F_p`.
    pub fn pow(&self, a: u64, mut e: u64) -> u64 {
        let mut base = a % self.p;
        let mut acc = 1u64;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse of a nonzero element (via Fermat's little
    /// theorem).
    ///
    /// # Panics
    ///
    /// Panics if `a ≡ 0 (mod p)`.
    pub fn inv(&self, a: u64) -> u64 {
        assert!(
            !a.is_multiple_of(self.p),
            "zero has no multiplicative inverse"
        );
        self.pow(a, self.p - 2)
    }

    /// Evaluates the polynomial with the given reduced coefficients
    /// (constant term first) at the reduced point `x`, by Horner's rule.
    /// Each step `acc·x + c < p² + p < 2⁶³` is reduced with one `%`.
    pub fn eval_poly(&self, coefficients: &[u64], x: u64) -> u64 {
        self.debug_assert_reduced(x, 0);
        let mut acc = 0u64;
        for &c in coefficients.iter().rev() {
            debug_assert!(c < self.p, "coefficient {c} not reduced mod {}", self.p);
            acc = (acc * x + c) % self.p;
        }
        acc
    }

    fn debug_assert_reduced(&self, a: u64, b: u64) {
        debug_assert!(
            a < self.p && b < self.p,
            "operands ({a}, {b}) not reduced mod {}",
            self.p
        );
    }
}

impl fmt::Display for PrimeField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F_{}", self.p)
    }
}

fn clique_element_bits(p: u64) -> usize {
    (64 - (p - 1).leading_zeros()) as usize
}

/// Deterministic Miller–Rabin primality test, exact for all `u64` values.
pub fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for small in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n.is_multiple_of(small) {
            return n == small;
        }
    }
    let mut d = n - 1;
    let mut r = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        r += 1;
    }
    'witness: for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = mod_pow_u128(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..r - 1 {
            x = ((x as u128 * x as u128) % n as u128) as u64;
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

fn mod_pow_u128(mut base: u64, mut exp: u64, modulus: u64) -> u64 {
    let mut acc: u128 = 1;
    let m = modulus as u128;
    let mut b = base as u128 % m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * b % m;
        }
        b = b * b % m;
        exp >>= 1;
    }
    base = acc as u64;
    base
}

/// The smallest prime `≥ x`.
pub fn next_prime(mut x: u64) -> u64 {
    if x <= 2 {
        return 2;
    }
    if x.is_multiple_of(2) {
        x += 1;
    }
    while !is_prime_u64(x) {
        x += 2;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primality_and_next_prime() {
        assert!(is_prime_u64(2));
        assert!(is_prime_u64(3));
        assert!(!is_prime_u64(1));
        assert!(!is_prime_u64(0));
        assert!(is_prime_u64(101));
        assert!(!is_prime_u64(1001));
        assert!(is_prime_u64(2_147_483_647)); // 2^31 - 1
        assert_eq!(next_prime(0), 2);
        assert_eq!(next_prime(8), 11);
        assert_eq!(next_prime(11), 11);
        assert_eq!(next_prime(1000), 1009);
    }

    #[test]
    fn field_construction() {
        let f = PrimeField::new(101);
        assert_eq!(f.modulus(), 101);
        assert_eq!(f.element_bits(), 7);
        let g = PrimeField::for_universe(1000, 10);
        assert!(g.modulus() > 1000);
        assert!(is_prime_u64(g.modulus()));
    }

    #[test]
    #[should_panic(expected = "not prime")]
    fn composite_modulus_rejected() {
        let _ = PrimeField::new(100);
    }

    #[test]
    fn arithmetic_identities() {
        let f = PrimeField::new(97);
        for a in [0u64, 1, 5, 50, 96] {
            for b in [0u64, 1, 13, 96] {
                assert_eq!(f.add(a, b), (a + b) % 97);
                assert_eq!(f.add(f.sub(a, b), b), a % 97);
                assert_eq!(f.mul(a, b), a * b % 97);
                assert_eq!(f.add(a, f.neg(a)), 0);
            }
        }
        assert_eq!(f.pow(3, 0), 1);
        assert_eq!(f.pow(3, 5), 243 % 97);
        // Fermat: a^(p-1) = 1.
        assert_eq!(f.pow(10, 96), 1);
    }

    #[test]
    fn inverses() {
        let f = PrimeField::new(101);
        for a in 1..101u64 {
            assert_eq!(f.mul(a, f.inv(a)), 1);
        }
    }

    #[test]
    #[should_panic(expected = "no multiplicative inverse")]
    fn zero_inverse_panics() {
        let f = PrimeField::new(101);
        let _ = f.inv(0);
    }

    #[test]
    fn polynomial_evaluation() {
        let f = PrimeField::new(97);
        // 3 + 2x + x^2 at x = 5 -> 3 + 10 + 25 = 38.
        assert_eq!(f.eval_poly(&[3, 2, 1], 5), 38);
        assert_eq!(f.eval_poly(&[], 5), 0);
        assert_eq!(f.eval_poly(&[7], 5), 7);
    }

    /// The largest prime below `2³¹`, where `a·b` and the Horner step come
    /// closest to overflowing.
    const P31: u64 = (1 << 31) - 1;

    #[test]
    fn reduced_operand_ops_match_u128_reference_at_the_largest_prime() {
        use rand::{Rng, SeedableRng};
        let f = PrimeField::new(P31);
        let p = P31 as u128;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xF1E1D);
        let edges = [0u64, 1, 2, P31 / 2, P31 - 2, P31 - 1];
        let mut operands: Vec<u64> = edges.to_vec();
        operands.extend((0..200).map(|_| rng.gen_range(0..P31)));
        for &a in &operands {
            for &b in edges.iter().chain(&operands[..40]) {
                let (wa, wb) = (a as u128, b as u128);
                assert_eq!(f.add(a, b) as u128, (wa + wb) % p);
                assert_eq!(f.sub(a, b) as u128, (wa + p - wb) % p);
                assert_eq!(f.mul(a, b) as u128, wa * wb % p);
            }
            assert_eq!(f.neg(a) as u128, (p - a as u128) % p);
            assert_eq!(f.reduce(a + P31), a);
        }
        for len in [0usize, 1, 2, 7, 64] {
            let coefficients: Vec<u64> = (0..len)
                .map(|i| {
                    if i % 3 == 0 {
                        P31 - 1
                    } else {
                        rng.gen_range(0..P31)
                    }
                })
                .collect();
            for &x in &operands[..20] {
                let reference = coefficients
                    .iter()
                    .rev()
                    .fold(0u128, |acc, &c| (acc * x as u128 + c as u128) % p);
                assert_eq!(f.eval_poly(&coefficients, x) as u128, reference);
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not reduced")]
    fn unreduced_operands_are_caught_in_debug_builds() {
        let f = PrimeField::new(97);
        let _ = f.mul(97, 2);
    }

    #[test]
    fn display() {
        assert_eq!(PrimeField::new(13).to_string(), "F_13");
    }
}
