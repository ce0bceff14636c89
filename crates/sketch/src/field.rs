//! Prime-field arithmetic for the power-sum sketches.
//!
//! The sketches encode neighbour sets as power sums over a prime field
//! `F_p` with `p` larger than both the universe of node identifiers and the
//! sketch capacity `k` (so that Newton's identities, which divide by
//! `1, …, k`, are well defined). All arithmetic is done on `u64` values with
//! `p < 2³¹`, so products never overflow.
//!
//! **Reduced-operand contract.** `PrimeField::add`, `PrimeField::sub`,
//! `PrimeField::neg`, `PrimeField::mul` and the crate's Horner step
//! and polynomial evaluation take operands that are already field elements
//! (`< p`) and return field elements; debug builds assert it.
//! `PrimeField::reduce` is the entry point for raw integers (element
//! shifts, sums read off the wire), and the crate's wide reduction for
//! `u128` sums of products.
//!
//! **No hardware divide.** Every reduction is Barrett's: the field stores
//! `m = ⌊(2⁶⁴ − 1)/p⌋`, and `x mod p` is `x − q·p` for the estimate
//! `q = ⌊x·m / 2⁶⁴⌋`. Because `2⁶⁴ − p ≤ m·p < 2⁶⁴`, the estimate is
//! `⌊x/p⌋` or one less for every `u64` `x`, so one conditional subtraction
//! finishes it: a reduction is one multiply-high, one multiply and one
//! compare. Addition and subtraction are a compare-and-subtract;
//! multiplication (`a·b < p² < 2⁶²`) and the Horner step
//! (`acc·x + c < p² < 2⁶²`) each cost one reduction, and a `u128` sum of
//! products costs three and a Horner step. The sketch decoders spend
//! nearly all their time in these.

use std::fmt;

use clique_sim::bits::bits_for_universe;

/// Independent chains the sketch kernels run side by side: the points
/// [`PrimeField::eval_poly`] evaluates per call, and the elements whose
/// power chains the power-sum accumulation advances together. Each chain
/// waits on its own multiply and reduction, so eight of them keep the
/// multiplier busy where one would stall on every product.
pub(crate) const LANES: usize = 8;

/// A prime field `F_p` with `p < 2³¹`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PrimeField {
    p: u64,
    /// Barrett's reciprocal `⌊(2⁶⁴ − 1)/p⌋`: a function of `p`, so the
    /// derived `Eq` and `Hash` still compare moduli.
    reciprocal: u64,
}

impl PrimeField {
    /// Creates the field `F_p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not a prime below `2³¹`.
    pub(crate) fn new(p: u64) -> Self {
        assert!(
            (2..(1 << 31)).contains(&p),
            "modulus {p} out of supported range"
        );
        assert!(is_prime_u64(p), "modulus {p} is not prime");
        Self {
            p,
            reciprocal: u64::MAX / p,
        }
    }

    /// The field suitable for sketching subsets of `{0, …, universe-1}` with
    /// capacity `k`: the smallest prime exceeding both `universe` and `k`.
    ///
    /// # Panics
    ///
    /// Panics unless `universe` and `k` are below `2³¹ − 1`, which keeps the
    /// prime below `2³¹`.
    pub(crate) fn for_universe(universe: u64, k: u64) -> Self {
        let floor = universe.max(k).max(2).saturating_add(1);
        assert!(
            floor < 1 << 31,
            "universe {universe} and capacity {k} out of supported range"
        );
        Self::new(next_prime(floor))
    }

    /// The modulus `p`.
    pub(crate) fn modulus(&self) -> u64 {
        self.p
    }

    /// Number of bits needed to transmit a field element.
    pub fn element_bits(&self) -> usize {
        bits_for_universe(self.p)
    }

    /// Reduces an arbitrary integer into the field.
    pub(crate) fn reduce(&self, x: u64) -> u64 {
        let estimate = ((u128::from(x) * u128::from(self.reciprocal)) >> 64) as u64;
        let r = x - estimate * self.p;
        if r >= self.p {
            r - self.p
        } else {
            r
        }
    }

    /// Reduces a `u128` into the field without a divide: with
    /// `x = h·2⁶⁴ + l`, it is the Horner step `h·(2⁶⁴ mod p) + l` on the
    /// reduced words.
    pub(crate) fn reduce_wide(&self, x: u128) -> u64 {
        let two_pow_64 = self.add(self.reduce(u64::MAX), 1);
        let (high, low) = (self.reduce((x >> 64) as u64), self.reduce(x as u64));
        self.mul_add(high, two_pow_64, low)
    }

    /// Addition in `F_p` of two reduced operands.
    pub(crate) fn add(&self, a: u64, b: u64) -> u64 {
        self.debug_assert_reduced(a, b);
        let sum = a + b;
        if sum >= self.p {
            sum - self.p
        } else {
            sum
        }
    }

    /// Subtraction in `F_p` of two reduced operands.
    pub(crate) fn sub(&self, a: u64, b: u64) -> u64 {
        self.debug_assert_reduced(a, b);
        if a >= b {
            a - b
        } else {
            a + self.p - b
        }
    }

    /// Negation in `F_p` of a reduced operand.
    pub(crate) fn neg(&self, a: u64) -> u64 {
        self.debug_assert_reduced(a, 0);
        if a == 0 {
            0
        } else {
            self.p - a
        }
    }

    /// Multiplication in `F_p` of two reduced operands (`a·b < p² < 2⁶²`).
    pub(crate) fn mul(&self, a: u64, b: u64) -> u64 {
        self.debug_assert_reduced(a, b);
        self.reduce(a * b)
    }

    /// The Horner step `a·b + c` in `F_p` of three reduced operands
    /// (`a·b + c < p² < 2⁶²`), with one reduction.
    pub(crate) fn mul_add(&self, a: u64, b: u64, c: u64) -> u64 {
        self.debug_assert_reduced(a, b);
        self.debug_assert_reduced(c, 0);
        self.reduce(a * b + c)
    }

    /// Exponentiation `a^e` in `F_p`.
    pub(crate) fn pow(&self, a: u64, mut e: u64) -> u64 {
        let mut base = self.reduce(a);
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
    pub(crate) fn inv(&self, a: u64) -> u64 {
        assert!(self.reduce(a) != 0, "zero has no multiplicative inverse");
        self.pow(a, self.p - 2)
    }

    /// Evaluates the polynomial with the given reduced coefficients
    /// (constant term first) at each of the [`LANES`] reduced `points`, by
    /// Horner's rule. The chains are independent, so the multiplies of one
    /// point overlap the reductions of the others.
    pub(crate) fn eval_poly(&self, coefficients: &[u64], points: [u64; LANES]) -> [u64; LANES] {
        let mut acc = [0u64; LANES];
        for &c in coefficients.iter().rev() {
            for (acc, &x) in acc.iter_mut().zip(&points) {
                *acc = self.mul_add(*acc, x, c);
            }
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

/// Below this bound the Miller–Rabin [`WITNESSES`] decide primality
/// exactly (Jaeschke, 1993); the bound itself, `48,781 · 97,561`, is the
/// least composite all three pass.
const THREE_WITNESS_BOUND: u64 = 4_759_123_141;

/// The Miller–Rabin bases of [`is_prime_u64`].
const WITNESSES: [u64; 3] = [2, 7, 61];

/// Deterministic primality test for `n <` [`THREE_WITNESS_BOUND`], which
/// covers every modulus a field accepts: trial division by the first
/// twelve primes, then Miller–Rabin to the bases [`WITNESSES`].
fn is_prime_u64(n: u64) -> bool {
    const SMALL_PRIMES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];
    debug_assert!(n < THREE_WITNESS_BOUND, "{n} is beyond the exact witnesses");
    if n < 2 {
        return false;
    }
    for small in SMALL_PRIMES {
        if n.is_multiple_of(small) {
            return n == small;
        }
    }
    // A witness that is a multiple of `n` (61 for `n = 61`) proves nothing.
    WITNESSES
        .into_iter()
        .filter(|a| !a.is_multiple_of(n))
        .all(|a| is_strong_probable_prime(n, a))
}

/// Whether the odd `n > 2` passes the Miller–Rabin round to base `a`.
fn is_strong_probable_prime(n: u64, a: u64) -> bool {
    let r = (n - 1).trailing_zeros();
    let mut x = mod_pow_u128(a, (n - 1) >> r, n);
    if x == 1 || x == n - 1 {
        return true;
    }
    for _ in 1..r {
        x = ((x as u128 * x as u128) % n as u128) as u64;
        if x == n - 1 {
            return true;
        }
    }
    false
}

fn mod_pow_u128(base: u64, mut exp: u64, modulus: u64) -> u64 {
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
    acc as u64
}

/// The smallest prime `≥ x`; for `x ≤ 2³¹` it is below
/// [`THREE_WITNESS_BOUND`], so every number it tests is too.
fn next_prime(mut x: u64) -> u64 {
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
    use rand::{Rng, SeedableRng};

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
    fn primality_agrees_with_trial_division_below_2_pow_16() {
        let trial_division = |n: u64| {
            n >= 2
                && (2..)
                    .take_while(|d| d * d <= n)
                    .all(|d| !n.is_multiple_of(d))
        };
        for n in 0..1 << 16 {
            assert_eq!(is_prime_u64(n), trial_division(n), "n = {n}");
        }
    }

    #[test]
    fn three_witness_range_edges() {
        // 61 is itself a witness: skipped, not mistaken for a liar.
        assert!(is_prime_u64(61));
        // The least strong pseudoprime to 2, 3, 5 and 7, below the bound.
        assert!(!is_prime_u64(3_215_031_751));
        // The bound is a composite that all three witnesses pass, so the
        // test's domain must stop strictly below it.
        assert_eq!(THREE_WITNESS_BOUND, 48_781 * 97_561);
        assert!(WITNESSES
            .into_iter()
            .all(|a| is_strong_probable_prime(THREE_WITNESS_BOUND, a)));
        assert!(is_prime_u64(4_294_967_291)); // the largest prime below 2^32
        assert_eq!(next_prime(1 << 31), 2_147_483_659);
    }

    #[test]
    #[should_panic(expected = "out of supported range")]
    fn universe_beyond_the_largest_modulus_rejected() {
        let _ = PrimeField::for_universe(1 << 31, 1);
    }

    #[test]
    #[should_panic(expected = "out of supported range")]
    fn largest_universe_rejected_not_wrapped() {
        let _ = crate::signed::SignedPowerSumSketch::new(u64::MAX, 1);
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
        // One point per lane, among them both ends of the field.
        let mut points: [u64; LANES] = std::array::from_fn(|i| (5 + 30 * i as u64) % 97);
        points[1] = 0;
        points[LANES - 1] = 96;
        // 3 + 2x + x^2, e.g. 38 at 5, 3 at 0 and 2 at 96.
        let expected = points.map(|x| (3 + 2 * x + x * x) % 97);
        assert_eq!(expected[..2], [38, 3]);
        assert_eq!(expected[LANES - 1], 2);
        assert_eq!(f.eval_poly(&[3, 2, 1], points), expected);
        assert_eq!(f.eval_poly(&[], points), [0; LANES]);
        assert_eq!(f.eval_poly(&[7], points), [7; LANES]);
    }

    /// Primes from the smallest to the largest a field accepts: `2³¹ − 1`
    /// is where `a·b` and the Horner step come closest to overflowing, and
    /// `2²⁰ − 3` is the largest prime below `2²⁰`.
    const PRIMES: [u64; 5] = [2, 3, 97, 1_048_573, (1 << 31) - 1];

    #[test]
    fn reduced_operand_ops_match_u128_reference_at_several_primes() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xF1E1D);
        for p in PRIMES {
            let f = PrimeField::new(p);
            let wide = p as u128;
            let edges = [0u64, 1, p / 2, p - 2, p - 1];
            let mut operands = edges.to_vec();
            operands.extend((0..200).map(|_| rng.gen_range(0..p)));
            for &a in &operands {
                for &b in edges.iter().chain(&operands[..40]) {
                    let (wa, wb) = (a as u128, b as u128);
                    assert_eq!(f.add(a, b) as u128, (wa + wb) % wide);
                    assert_eq!(f.sub(a, b) as u128, (wa + wide - wb) % wide);
                    assert_eq!(f.mul(a, b) as u128, wa * wb % wide);
                    for &c in &edges {
                        assert_eq!(
                            f.mul_add(a, b, c) as u128,
                            (wa * wb + c as u128) % wide,
                            "p = {p}: {a}·{b} + {c}"
                        );
                    }
                }
                assert_eq!(f.neg(a) as u128, (wide - a as u128) % wide);
                assert_eq!(f.reduce(a + p), a);
            }
            for len in [0usize, 1, 2, 7, 64] {
                let coefficients: Vec<u64> = (0..len)
                    .map(|i| {
                        if i % 3 == 0 {
                            p - 1
                        } else {
                            rng.gen_range(0..p)
                        }
                    })
                    .collect();
                for points in operands[..3 * LANES].chunks_exact(LANES) {
                    let reference = points.iter().map(|&x| {
                        coefficients
                            .iter()
                            .rev()
                            .fold(0u128, |acc, &c| (acc * x as u128 + c as u128) % wide)
                            as u64
                    });
                    let points: [u64; LANES] = points.try_into().unwrap();
                    assert!(f.eval_poly(&coefficients, points).into_iter().eq(reference));
                }
            }
        }
    }

    #[test]
    fn barrett_reductions_match_the_remainder() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xBA22);
        for p in PRIMES {
            let f = PrimeField::new(p);
            let mut edges = vec![0, 1, p - 1, p, p + 1, 2 * p - 1, 2 * p, 1 << 62];
            edges.extend([(1 << 63) - 1, 1 << 63, u64::MAX - 1, u64::MAX]);
            // Around the multiples of p nearest 2⁶⁴, where the estimate
            // can fall one short.
            let top = u64::MAX / p * p;
            edges.extend([top - 1, top, top - p, top - p + 1]);
            let mut values = edges.clone();
            values.extend((0..2_000).map(|_| rng.gen::<u64>()));
            for &x in &values {
                assert_eq!(f.reduce(x), x % p, "{x} mod {p}");
            }
            // `u128`s with an edge as one word and any value as the other,
            // and Berlekamp–Massey's sums of thousands of products below p².
            let wide = u128::from(p);
            let mut wides = vec![(wide - 1) * (wide - 1) * 4_096, wide * wide * 600 - 1];
            for &edge in &edges {
                for &value in &values {
                    let (edge, value) = (u128::from(edge), u128::from(value));
                    wides.extend([edge << 64 | value, value << 64 | edge]);
                }
            }
            for x in wides {
                assert_eq!(u128::from(f.reduce_wide(x)), x % wide, "{x} mod {p}");
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
