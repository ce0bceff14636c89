//! Round and bit accounting: the ledger a
//! [`Session`](crate::session::Session) charges, one record per phase.

use std::fmt;

/// Cumulative communication metrics of a protocol execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Rounds elapsed so far.
    pub rounds: u64,
    /// Total payload bits placed on the network (a broadcast of `m` bits to
    /// `k` receivers counts as `m` blackboard bits in a broadcast model and
    /// `m·k` link bits in a unicast model).
    pub total_bits: u64,
    /// Total number of messages placed on the network.
    pub messages: u64,
    /// Maximum number of bits carried by a single link in a single round.
    pub max_link_bits_per_round: u64,
    /// Per-phase breakdown: one record per named phase, in execution order.
    pub phases: Vec<PhaseRecord>,
}

impl Metrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one executed phase.
    pub fn record_phase(&mut self, record: PhaseRecord) {
        self.rounds += record.rounds;
        self.total_bits += record.bits;
        self.messages += record.messages;
        self.max_link_bits_per_round = self
            .max_link_bits_per_round
            .max(record.max_link_bits_per_round);
        self.phases.push(record);
    }

    /// Merges metrics from a sub-execution (e.g. a nested protocol).
    pub(crate) fn absorb(&mut self, other: &Metrics) {
        self.rounds += other.rounds;
        self.total_bits += other.total_bits;
        self.messages += other.messages;
        self.max_link_bits_per_round = self
            .max_link_bits_per_round
            .max(other.max_link_bits_per_round);
        self.phases.extend(other.phases.iter().cloned());
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rounds, {} bits, {} messages",
            self.rounds, self.total_bits, self.messages
        )
    }
}

/// Communication accounting for a single named phase.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Human-readable phase label (e.g. `"layer 3: heavy gates"`).
    pub label: String,
    /// Rounds charged to this phase.
    pub rounds: u64,
    /// Payload bits placed on the network during this phase.
    pub bits: u64,
    /// Messages placed on the network during this phase.
    pub messages: u64,
    /// Maximum bits on one link in one round within this phase.
    pub max_link_bits_per_round: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_phase_accumulates() {
        let mut m = Metrics::new();
        m.record_phase(PhaseRecord {
            label: "a".into(),
            rounds: 2,
            bits: 10,
            messages: 3,
            max_link_bits_per_round: 4,
        });
        m.record_phase(PhaseRecord {
            label: "b".into(),
            rounds: 1,
            bits: 5,
            messages: 1,
            max_link_bits_per_round: 6,
        });
        assert_eq!(m.rounds, 3);
        assert_eq!(m.total_bits, 15);
        assert_eq!(m.messages, 4);
        assert_eq!(m.max_link_bits_per_round, 6);
        assert_eq!(m.phases.len(), 2);
    }

    #[test]
    fn absorb_merges() {
        let mut a = Metrics::new();
        a.record_phase(PhaseRecord {
            label: "a".into(),
            rounds: 1,
            bits: 1,
            messages: 1,
            max_link_bits_per_round: 1,
        });
        let mut b = Metrics::new();
        b.record_phase(PhaseRecord {
            label: "b".into(),
            rounds: 2,
            bits: 2,
            messages: 2,
            max_link_bits_per_round: 2,
        });
        a.absorb(&b);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.phases.len(), 2);
    }

    #[test]
    fn display_is_informative() {
        let metrics = Metrics {
            rounds: 4,
            total_bits: 9,
            messages: 2,
            ..Metrics::default()
        };
        assert_eq!(metrics.to_string(), "4 rounds, 9 bits, 2 messages");
    }
}
