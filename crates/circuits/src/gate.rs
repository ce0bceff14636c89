//! Gate types and `b`-separability (Definition 1 of the paper).
//!
//! A function `f : {0,1}^m → {0,1}` is *`b`-separable* if for every partition
//! of its inputs into groups there are `b`-bit summaries `g_j` of each group
//! and a combiner `h` with `f(x) = h(g_1(x_{I_1}), …, g_k(x_{I_k}))`. The
//! circuit-to-clique simulation of Theorem 2 only needs, for each gate, a way
//! to compute a short summary of the input bits a single player owns and a
//! way to combine the summaries. [`GateKind`] provides exactly that interface
//! for the gate families the paper discusses:
//!
//! * `AND`, `OR`, `NOT` — 1-separable,
//! * `XOR` (parity) and `MOD_m` — `⌈log₂ m⌉`-separable (2-valued summaries
//!   for parity),
//! * unweighted `THR_t` and `MAJ` — `O(log fan-in)`-separable,
//! * weighted threshold gates — `O(log(total weight))`-separable.

use clique_sim::bits::bits_for_universe;

/// The Boolean function computed by a gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GateKind {
    /// An input of the circuit (no predecessors).
    Input,
    /// A constant.
    Const(bool),
    /// Unbounded fan-in AND.
    And,
    /// Unbounded fan-in OR.
    Or,
    /// Negation (fan-in 1).
    Not,
    /// Unbounded fan-in XOR (parity; equivalently a `MOD₂` sum bit).
    Xor,
    /// `MOD_m` gate: outputs 1 iff the number of 1-inputs is ≡ 0 (mod m).
    Mod(u64),
    /// Unweighted threshold: outputs 1 iff at least `t` inputs are 1.
    Threshold(u64),
    /// Majority: outputs 1 iff more than half of the inputs are 1.
    Majority,
    /// Weighted threshold `Σ wᵢxᵢ ≥ t` with non-negative integer weights
    /// (indexed by position in the gate's input list).
    WeightedThreshold {
        /// Per-input non-negative weights.
        weights: Vec<u64>,
        /// The threshold `t`.
        threshold: u64,
    },
}

impl GateKind {
    /// Evaluates the gate on its ordered input values.
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs is invalid for the gate kind
    /// (`Not` requires exactly one, `WeightedThreshold` requires one value
    /// per weight, `Input` takes none, `Mod(0)` is rejected at construction
    /// sites via `validate_fan_in`).
    pub fn eval(&self, inputs: &[bool]) -> bool {
        self.eval_iter(inputs.iter().copied())
    }

    /// Evaluates the gate on a stream of ordered input values without
    /// materialising them into a slice (the allocation-free path used by
    /// `Circuit::evaluate_all`).
    ///
    /// # Panics
    ///
    /// Same contract as [`Self::eval`].
    pub fn eval_iter(&self, mut inputs: impl Iterator<Item = bool>) -> bool {
        match self {
            GateKind::Input => panic!("input gates are evaluated by assignment, not eval()"),
            GateKind::Const(value) => *value,
            GateKind::And => inputs.all(|x| x),
            GateKind::Or => inputs.any(|x| x),
            GateKind::Not => {
                let first = inputs.next();
                assert!(
                    first.is_some() && inputs.next().is_none(),
                    "NOT gate takes exactly one input"
                );
                !first.expect("checked above")
            }
            GateKind::Xor => inputs.fold(false, |acc, x| acc ^ x),
            GateKind::Mod(m) => {
                assert!(*m >= 2, "MOD_m needs m >= 2");
                (inputs.filter(|&x| x).count() as u64).is_multiple_of(*m)
            }
            GateKind::Threshold(t) => (inputs.filter(|&x| x).count() as u64) >= *t,
            GateKind::Majority => {
                let (ones, total) = inputs.fold((0usize, 0usize), |(ones, total), x| {
                    (ones + usize::from(x), total + 1)
                });
                2 * ones > total
            }
            GateKind::WeightedThreshold { weights, threshold } => {
                let mut sum = 0u64;
                let mut count = 0usize;
                for x in inputs {
                    assert!(
                        count < weights.len(),
                        "weighted threshold needs one weight per input"
                    );
                    if x {
                        sum += weights[count];
                    }
                    count += 1;
                }
                assert_eq!(
                    count,
                    weights.len(),
                    "weighted threshold needs one weight per input"
                );
                sum >= *threshold
            }
        }
    }

    /// Checks that `fan_in` is a legal fan-in for this gate kind.
    pub(crate) fn validate_fan_in(&self, fan_in: usize) -> bool {
        match self {
            GateKind::Input | GateKind::Const(_) => fan_in == 0,
            GateKind::Not => fan_in == 1,
            GateKind::Mod(m) => *m >= 2,
            GateKind::WeightedThreshold { weights, .. } => weights.len() == fan_in,
            _ => true,
        }
    }

    /// The number of summary bits (`b` of Definition 1) sufficient for this
    /// gate at the given fan-in, i.e. the gate is
    /// `separability_bits(fan_in)`-separable.
    pub fn separability_bits(&self, fan_in: usize) -> usize {
        match self {
            GateKind::Input | GateKind::Const(_) => 0,
            GateKind::And | GateKind::Or | GateKind::Not => 1,
            GateKind::Xor => 1,
            GateKind::Mod(m) => bits_for_universe(*m).max(1),
            GateKind::Threshold(t) => bits_for_universe((*t + 1).min(fan_in as u64 + 1)).max(1),
            GateKind::Majority => bits_for_universe(fan_in as u64 + 1).max(1),
            GateKind::WeightedThreshold { threshold, .. } => {
                bits_for_universe(*threshold + 1).max(1)
            }
        }
    }

    /// Computes the `b`-bit summary of the inputs a single player owns, given
    /// as `(position, value)` pairs (positions index the gate's input list,
    /// which is only relevant for weighted gates).
    pub fn summary(&self, part: &[(usize, bool)]) -> u64 {
        let ones = || part.iter().filter(|&&(_, v)| v).count() as u64;
        match self {
            GateKind::Input | GateKind::Const(_) => 0,
            GateKind::And => u64::from(part.iter().all(|&(_, v)| v)),
            GateKind::Or | GateKind::Not => u64::from(part.iter().any(|&(_, v)| v)),
            GateKind::Xor => ones() % 2,
            GateKind::Mod(m) => ones() % m,
            GateKind::Threshold(t) => ones().min(*t),
            GateKind::Majority => ones(),
            GateKind::WeightedThreshold { weights, threshold } => part
                .iter()
                .filter(|&&(_, v)| v)
                .map(|&(pos, _)| weights[pos])
                .sum::<u64>()
                .min(*threshold),
        }
    }

    /// Combines the per-player summaries into the gate's output (`h` of
    /// Definition 1). `fan_in` is the gate's total fan-in (needed by
    /// majority).
    pub fn combine(&self, summaries: &[u64], fan_in: usize) -> bool {
        match self {
            GateKind::Input => panic!("input gates have no combiner"),
            GateKind::Const(value) => *value,
            GateKind::And => summaries.iter().all(|&s| s == 1),
            GateKind::Or | GateKind::Not => {
                let any = summaries.contains(&1);
                if matches!(self, GateKind::Not) {
                    !any
                } else {
                    any
                }
            }
            GateKind::Xor => summaries.iter().sum::<u64>() % 2 == 1,
            GateKind::Mod(m) => summaries.iter().sum::<u64>() % m == 0,
            GateKind::Threshold(t) => summaries.iter().sum::<u64>() >= *t,
            GateKind::Majority => 2 * summaries.iter().sum::<u64>() > fan_in as u64,
            GateKind::WeightedThreshold { threshold, .. } => {
                summaries.iter().sum::<u64>() >= *threshold
            }
        }
    }

    /// A short name used in debug output.
    pub(crate) fn name(&self) -> String {
        match self {
            GateKind::Input => "IN".into(),
            GateKind::Const(v) => format!("CONST({})", u8::from(*v)),
            GateKind::And => "AND".into(),
            GateKind::Or => "OR".into(),
            GateKind::Not => "NOT".into(),
            GateKind::Xor => "XOR".into(),
            GateKind::Mod(m) => format!("MOD{m}"),
            GateKind::Threshold(t) => format!("THR{t}"),
            GateKind::Majority => "MAJ".into(),
            GateKind::WeightedThreshold { threshold, .. } => format!("WTHR{threshold}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn random_inputs(rng: &mut impl Rng, len: usize) -> Vec<bool> {
        (0..len).map(|_| rng.gen_bool(0.5)).collect()
    }

    /// Splits inputs into contiguous chunks, computes summaries, and combines
    /// them — the separable evaluation path of Definition 1.
    fn separable_eval(kind: &GateKind, inputs: &[bool], parts: usize) -> bool {
        let chunk = inputs.len().div_ceil(parts.max(1)).max(1);
        let summaries: Vec<u64> = inputs
            .chunks(chunk)
            .enumerate()
            .map(|(c, vals)| {
                let indexed: Vec<(usize, bool)> = vals
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (c * chunk + i, v))
                    .collect();
                kind.summary(&indexed)
            })
            .collect();
        kind.combine(&summaries, inputs.len())
    }

    #[test]
    fn direct_evaluation_of_each_kind() {
        assert!(GateKind::And.eval(&[true, true, true]));
        assert!(!GateKind::And.eval(&[true, false]));
        assert!(GateKind::And.eval(&[]));
        assert!(GateKind::Or.eval(&[false, true]));
        assert!(!GateKind::Or.eval(&[]));
        assert!(GateKind::Not.eval(&[false]));
        assert!(GateKind::Xor.eval(&[true, true, true]));
        assert!(!GateKind::Xor.eval(&[true, true]));
        assert!(GateKind::Mod(3).eval(&[true, true, true]));
        assert!(!GateKind::Mod(3).eval(&[true, true]));
        assert!(GateKind::Mod(2).eval(&[]));
        assert!(GateKind::Threshold(2).eval(&[true, false, true]));
        assert!(!GateKind::Threshold(3).eval(&[true, false, true]));
        assert!(GateKind::Majority.eval(&[true, true, false]));
        assert!(!GateKind::Majority.eval(&[true, false]));
        assert!(GateKind::Const(true).eval(&[]));
        let wt = GateKind::WeightedThreshold {
            weights: vec![5, 1, 1],
            threshold: 5,
        };
        assert!(wt.eval(&[true, false, false]));
        assert!(!wt.eval(&[false, true, true]));
    }

    #[test]
    fn separable_evaluation_agrees_with_direct() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let kinds: Vec<GateKind> = vec![
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Mod(2),
            GateKind::Mod(3),
            GateKind::Mod(6),
            GateKind::Threshold(4),
            GateKind::Majority,
            GateKind::WeightedThreshold {
                weights: (0..12).map(|i| (i % 3) + 1).collect(),
                threshold: 9,
            },
        ];
        for kind in &kinds {
            for _ in 0..50 {
                let inputs = random_inputs(&mut rng, 12);
                let direct = kind.eval(&inputs);
                for parts in [1usize, 2, 3, 5, 12] {
                    assert_eq!(
                        separable_eval(kind, &inputs, parts),
                        direct,
                        "{} disagreed on {:?} with {} parts",
                        kind.name(),
                        inputs,
                        parts
                    );
                }
            }
        }
    }

    #[test]
    fn separability_bit_budgets() {
        assert_eq!(GateKind::And.separability_bits(1000), 1);
        assert_eq!(GateKind::Or.separability_bits(1000), 1);
        assert_eq!(GateKind::Xor.separability_bits(1000), 1);
        assert_eq!(GateKind::Mod(6).separability_bits(1000), 3);
        // MOD_6 is O(1)-separable regardless of fan-in (as used in Section 2
        // for the CC/ACC discussion).
        assert_eq!(
            GateKind::Mod(6).separability_bits(10),
            GateKind::Mod(6).separability_bits(1_000_000)
        );
        // Unweighted threshold gates are Θ(log n)-separable.
        assert!(GateKind::Majority.separability_bits(1024) <= 11);
        assert!(GateKind::Threshold(1024).separability_bits(1024) <= 11);
        assert_eq!(
            GateKind::WeightedThreshold {
                weights: vec![1 << 20; 4],
                threshold: 1 << 20
            }
            .separability_bits(4),
            21
        );
    }

    #[test]
    fn summaries_fit_in_the_declared_bit_budget() {
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let kinds = vec![
            GateKind::And,
            GateKind::Or,
            GateKind::Xor,
            GateKind::Mod(5),
            GateKind::Threshold(7),
            GateKind::Majority,
        ];
        for kind in &kinds {
            for _ in 0..20 {
                let inputs = random_inputs(&mut rng, 16);
                let indexed: Vec<(usize, bool)> = inputs.iter().copied().enumerate().collect();
                let summary = kind.summary(&indexed);
                let bits = kind.separability_bits(16);
                assert!(
                    summary < (1u64 << bits),
                    "{}: summary {summary} does not fit in {bits} bits",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn fan_in_validation() {
        assert!(GateKind::Input.validate_fan_in(0));
        assert!(!GateKind::Input.validate_fan_in(1));
        assert!(GateKind::Not.validate_fan_in(1));
        assert!(!GateKind::Not.validate_fan_in(2));
        assert!(GateKind::And.validate_fan_in(100));
        assert!(!GateKind::Mod(1).validate_fan_in(3));
        assert!(GateKind::WeightedThreshold {
            weights: vec![1, 2],
            threshold: 2
        }
        .validate_fan_in(2));
        assert!(!GateKind::WeightedThreshold {
            weights: vec![1, 2],
            threshold: 2
        }
        .validate_fan_in(3));
    }

    #[test]
    fn names_are_informative() {
        assert_eq!(GateKind::Mod(6).name(), "MOD6");
        assert_eq!(GateKind::Threshold(3).name(), "THR3");
        assert_eq!(GateKind::Const(false).name(), "CONST(0)");
    }

    #[test]
    #[should_panic(expected = "assignment")]
    fn eval_of_input_gate_panics() {
        let _ = GateKind::Input.eval(&[]);
    }
}
