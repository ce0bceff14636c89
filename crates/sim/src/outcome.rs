//! The shared result type of protocol executions.
//!
//! Every protocol run on the simulator produces the same two things: a
//! protocol-specific output (a decision, a reconstructed graph, circuit
//! outputs, …) and the communication [`Metrics`] the run was charged.
//! [`RunOutcome`] pairs them once, so the algorithm crates no longer
//! duplicate `rounds`/`total_bits` fields in every result struct. The
//! outcome [`Deref`]s to the output, so `outcome.contains` and friends keep
//! reading naturally at call sites.

use std::ops::{Deref, DerefMut};

use crate::metrics::Metrics;

/// The result of executing a [`Protocol`](crate::protocol::Protocol): the
/// protocol's output plus the full communication accounting of the run.
///
/// # Examples
///
/// ```
/// use clique_sim::prelude::*;
///
/// # fn main() -> Result<(), clique_sim::model::SimError> {
/// let config = CliqueConfig::broadcast(4, 2);
/// let outcome = Runner::new(config).execute(&mut |session: &mut Session| {
///     let msgs: Vec<BitString> = (0..4).map(|i| BitString::from_bits(i, 6)).collect();
///     session.broadcast_all("announce", &msgs)?;
///     Ok("done")
/// })?;
/// assert_eq!(*outcome, "done");
/// assert_eq!(outcome.rounds(), 3); // ceil(6 / 2)
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunOutcome<T> {
    /// The protocol-specific output of the run.
    pub output: T,
    /// Communication metrics charged to the run.
    pub metrics: Metrics,
}

impl<T> RunOutcome<T> {
    /// Pairs an output with the metrics of its run.
    pub fn new(output: T, metrics: Metrics) -> Self {
        Self { output, metrics }
    }

    /// Rounds used by the run.
    pub fn rounds(&self) -> u64 {
        self.metrics.rounds
    }

    /// Total payload bits placed on the network / blackboard.
    pub fn total_bits(&self) -> u64 {
        self.metrics.total_bits
    }

    /// The maximum number of rounds charged to any single phase of the run.
    pub fn max_phase_rounds(&self) -> u64 {
        self.metrics
            .phases
            .iter()
            .map(|p| p.rounds)
            .max()
            .unwrap_or(0)
    }

    /// Consumes the outcome, returning the output and dropping the metrics.
    pub fn into_output(self) -> T {
        self.output
    }
}

impl<T> Deref for RunOutcome<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.output
    }
}

impl<T> DerefMut for RunOutcome<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PhaseRecord;

    fn metrics() -> Metrics {
        let mut m = Metrics::new();
        m.record_phase(PhaseRecord {
            label: "a".into(),
            rounds: 2,
            bits: 9,
            messages: 3,
            max_link_bits_per_round: 4,
        });
        m.record_phase(PhaseRecord {
            label: "b".into(),
            rounds: 5,
            bits: 1,
            messages: 1,
            max_link_bits_per_round: 1,
        });
        m
    }

    #[test]
    fn accessors_read_the_metrics() {
        let o = RunOutcome::new(true, metrics());
        assert_eq!(o.rounds(), 7);
        assert_eq!(o.total_bits(), 10);
        assert_eq!(o.metrics.messages, 4);
        assert_eq!(o.max_phase_rounds(), 5);
        assert!(*o);
    }

    #[test]
    fn deref_and_into_output() {
        struct Inner {
            value: u32,
        }
        let o = RunOutcome::new(Inner { value: 7 }, metrics());
        assert_eq!(o.value, 7);
        assert_eq!(o.into_output().value, 7);
    }
}
