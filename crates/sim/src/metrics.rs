//! Round and bit accounting shared by the round engine and session phases.

use std::borrow::Cow;
use std::fmt;

/// Label given to the aggregated record under which
/// [`Metrics::record_round`] collects consecutive round-engine rounds (a
/// static string, so per-round recording allocates nothing). The
/// aggregation itself is keyed on [`PhaseRecord::strict_rounds`], not on
/// this label, so user phases may reuse the string freely.
pub const ROUNDS_LABEL: &str = "rounds";

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
    /// Per-phase breakdown: one record per named bulk-synchronous phase,
    /// plus one aggregated [`ROUNDS_LABEL`] record (with
    /// [`PhaseRecord::strict_rounds`] set) per run of consecutive strict
    /// engine rounds.
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

    /// Records one strict engine round, merging it into a trailing
    /// [`ROUNDS_LABEL`] record so that long round-by-round executions keep a
    /// single aggregated phase entry instead of one allocation per round.
    pub fn record_round(&mut self, bits: u64, messages: u64, max_link_bits: u64) {
        self.rounds += 1;
        self.total_bits += bits;
        self.messages += messages;
        self.max_link_bits_per_round = self.max_link_bits_per_round.max(max_link_bits);
        if let Some(last) = self.phases.last_mut() {
            if last.strict_rounds {
                last.rounds += 1;
                last.bits += bits;
                last.messages += messages;
                last.max_link_bits_per_round = last.max_link_bits_per_round.max(max_link_bits);
                return;
            }
        }
        self.phases.push(PhaseRecord {
            label: Cow::Borrowed(ROUNDS_LABEL),
            rounds: 1,
            bits,
            messages,
            max_link_bits_per_round: max_link_bits,
            strict_rounds: true,
        });
    }

    /// Merges metrics from a sub-execution (e.g. a nested protocol).
    pub fn absorb(&mut self, other: &Metrics) {
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
    /// Human-readable phase label (e.g. `"layer 3: heavy gates"`). A
    /// [`Cow`] so that static labels (such as [`ROUNDS_LABEL`]) cost no
    /// allocation.
    pub label: Cow<'static, str>,
    /// Rounds charged to this phase.
    pub rounds: u64,
    /// Payload bits placed on the network during this phase.
    pub bits: u64,
    /// Messages placed on the network during this phase.
    pub messages: u64,
    /// Maximum bits on one link in one round within this phase.
    pub max_link_bits_per_round: u64,
    /// True when this record aggregates consecutive strict engine rounds
    /// (each a one-round step); false for named bulk-synchronous phases.
    pub strict_rounds: bool,
}

/// Summary of a completed protocol execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Final communication metrics.
    pub metrics: Metrics,
    /// Whether all nodes halted before the round limit.
    pub completed: bool,
}

impl RunReport {
    /// Rounds used by the execution.
    pub fn rounds(&self) -> u64 {
        self.metrics.rounds
    }

    /// Total bits placed on the network.
    pub fn total_bits(&self) -> u64 {
        self.metrics.total_bits
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({})",
            self.metrics,
            if self.completed {
                "completed"
            } else {
                "cut off"
            }
        )
    }
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
            strict_rounds: false,
        });
        m.record_phase(PhaseRecord {
            label: "b".into(),
            rounds: 1,
            bits: 5,
            messages: 1,
            max_link_bits_per_round: 6,
            strict_rounds: false,
        });
        assert_eq!(m.rounds, 3);
        assert_eq!(m.total_bits, 15);
        assert_eq!(m.messages, 4);
        assert_eq!(m.max_link_bits_per_round, 6);
        assert_eq!(m.phases.len(), 2);
    }

    #[test]
    fn record_round_aggregates_consecutive_rounds() {
        let mut m = Metrics::new();
        m.record_round(4, 2, 2);
        m.record_round(0, 0, 0);
        m.record_round(6, 1, 3);
        assert_eq!(m.rounds, 3);
        assert_eq!(m.total_bits, 10);
        assert_eq!(m.messages, 3);
        assert_eq!(m.max_link_bits_per_round, 3);
        // All three rounds share one aggregated record with a static label.
        assert_eq!(m.phases.len(), 1);
        assert_eq!(m.phases[0].label, ROUNDS_LABEL);
        assert!(m.phases[0].strict_rounds);
        assert_eq!(m.phases[0].rounds, 3);
        // A named phase in between starts a fresh aggregation run — even
        // one that reuses the "rounds" label (aggregation keys on the
        // strict_rounds flag, not the string).
        m.record_phase(PhaseRecord {
            label: ROUNDS_LABEL.into(),
            rounds: 1,
            ..PhaseRecord::default()
        });
        m.record_round(1, 1, 1);
        assert_eq!(m.phases.len(), 3);
        assert!(!m.phases[1].strict_rounds);
        assert!(m.phases[2].strict_rounds);
        assert_eq!(m.rounds, 5);
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
            strict_rounds: false,
        });
        let mut b = Metrics::new();
        b.record_phase(PhaseRecord {
            label: "b".into(),
            rounds: 2,
            bits: 2,
            messages: 2,
            max_link_bits_per_round: 2,
            strict_rounds: false,
        });
        a.absorb(&b);
        assert_eq!(a.rounds, 3);
        assert_eq!(a.phases.len(), 2);
    }

    #[test]
    fn display_is_informative() {
        let report = RunReport {
            metrics: Metrics {
                rounds: 4,
                total_bits: 9,
                messages: 2,
                ..Metrics::default()
            },
            completed: true,
        };
        let s = report.to_string();
        assert!(s.contains("4 rounds"));
        assert!(s.contains("completed"));
        assert_eq!(report.rounds(), 4);
        assert_eq!(report.total_bits(), 9);
    }
}
