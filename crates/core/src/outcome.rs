//! Common result types for the detection protocols.
//!
//! Every protocol's result is a [`RunOutcome`] pairing a protocol-specific
//! output with the communication [`Metrics`](clique_sim::Metrics) of the
//! run; the aliases here fix the output type per protocol family.
//! `RunOutcome` dereferences to its output, so `outcome.contains` and
//! `outcome.rounds()` both read naturally.

use clique_sim::outcome::RunOutcome;

/// The decision (and witness) produced by a subgraph- or triangle-detection
/// protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Detection {
    /// Whether the protocol declared that the input contains the pattern.
    pub contains: bool,
    /// A witness copy (pattern vertex → input vertex), when the protocol
    /// produced one.
    pub witness: Option<Vec<usize>>,
}

/// The result of running a detection protocol on the simulator.
pub type DetectionOutcome = RunOutcome<Detection>;

/// The output of simulating a circuit on the unicast clique (Theorem 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CircuitOutput {
    /// Output values of the circuit, in output order.
    pub outputs: Vec<bool>,
    /// The player owning (and therefore knowing) each output, in output
    /// order — useful for protocols that post-process the outputs (e.g. the
    /// triangle-detection route of Section 2.1).
    pub(crate) output_owners: Vec<usize>,
    /// Number of layers of the circuit (its depth).
    pub depth: usize,
}

/// The result of the Theorem 2 circuit simulation. Theorem 2 predicts
/// [`RunOutcome::max_phase_rounds`] is `O(1)` once the bandwidth reaches
/// `Θ(b_sep + s)` (up to the header overhead discussed in
/// [`crate::circuit_sim`]).
pub(crate) type CircuitSimOutcome = RunOutcome<CircuitOutput>;

#[cfg(test)]
mod tests {
    use super::*;
    use clique_sim::metrics::PhaseRecord;
    use clique_sim::Metrics;

    #[test]
    fn outcome_wraps_decision_and_metrics() {
        let mut metrics = Metrics::new();
        metrics.record_phase(PhaseRecord {
            label: "x".into(),
            rounds: 3,
            bits: 17,
            messages: 2,
            max_link_bits_per_round: 4,
        });
        let outcome = RunOutcome::new(
            Detection {
                contains: true,
                witness: Some(vec![1, 2, 3]),
            },
            metrics,
        );
        assert!(outcome.contains);
        assert_eq!(outcome.rounds(), 3);
        assert_eq!(outcome.total_bits(), 17);
        assert_eq!(outcome.witness.as_deref(), Some(&[1, 2, 3][..]));
    }
}
