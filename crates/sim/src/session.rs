//! The execution context handed to [`Protocol`] implementations.
//!
//! A [`Session`] is one protocol execution on one model instance, and the
//! one path that executes and charges communication. Every message moves
//! in a bulk-synchronous phase ([`Session::exchange`]: `⌈max link load / b⌉`
//! rounds per phase, over the [`phase`](crate::phase) outboxes and
//! inboxes); [`Session::charge_rounds`] charges analytically accounted
//! black boxes. Sub-protocols run through [`Session::run_protocol`] (same
//! ledger) or [`Session::run_nested`] (own ledger over the same model,
//! absorbed into the parent), so a composed protocol gets one coherent
//! metrics trail.

use crate::bits::BitString;
use crate::metrics::{Metrics, PhaseRecord};
use crate::model::{CliqueConfig, SimError};
use crate::node::NodeId;
use crate::outcome::RunOutcome;
use crate::phase::{phase_inboxes, summarize_outbox, PhaseInbox, PhaseOutbox};
use crate::protocol::Protocol;
use crate::transport::Transport;

/// One protocol execution on one model instance.
///
/// # Examples
///
/// ```
/// use clique_sim::prelude::*;
///
/// # fn main() -> Result<(), clique_sim::model::SimError> {
/// let mut session = Session::new(CliqueConfig::broadcast(4, 2));
/// let msgs: Vec<BitString> = (0..4).map(|i| BitString::from_bits(i, 6)).collect();
/// let inboxes = session.broadcast_all("announce", &msgs)?;
/// assert_eq!(session.rounds(), 3); // ceil(6 / 2)
/// assert!(inboxes[0].broadcast_from(NodeId::new(3)).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Session {
    config: CliqueConfig,
    metrics: Metrics,
    /// Per-destination load scratch, reused across senders and phases and
    /// all zero between them.
    dest_load: Vec<u64>,
    /// The message-delivery backend. Accounting never touches it, so the
    /// ledger is identical under every backend.
    transport: Box<dyn Transport>,
}

impl Session {
    /// Opens a session on the given model, delivering through an
    /// [`InMemoryTransport`](crate::transport::InMemoryTransport).
    pub fn new(config: CliqueConfig) -> Self {
        Self {
            config,
            metrics: Metrics::new(),
            dest_load: Vec::new(),
            transport: crate::transport::default_transport(),
        }
    }

    /// Replaces the message-delivery backend (e.g. with a
    /// [`FaultyTransport`](crate::transport::FaultyTransport)). Nested
    /// sessions inherit a clone of the backend.
    /// Transports never change transcripts, ledgers or outputs (see
    /// [`transport`](crate::transport)) — only delivery mechanics.
    pub fn set_transport(&mut self, transport: Box<dyn Transport>) {
        self.transport = transport;
    }

    /// The model configuration.
    pub fn config(&self) -> &CliqueConfig {
        &self.config
    }

    /// Number of players.
    pub fn n(&self) -> usize {
        self.config.n
    }

    /// Asserts the session has as many players as the protocol's input
    /// has vertices — the one-player-per-vertex layout every clique
    /// protocol on a graph input assumes.
    ///
    /// # Panics
    ///
    /// Panics if the session has a different number of players than `n`.
    pub fn require_clique_of(&self, n: usize) {
        assert_eq!(
            self.n(),
            n,
            "session has {} players, protocol input has {n}",
            self.n()
        );
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Rounds charged so far.
    pub fn rounds(&self) -> u64 {
        self.metrics.rounds
    }

    /// Total bits charged so far.
    pub fn total_bits(&self) -> u64 {
        self.metrics.total_bits
    }

    /// Executes one phase: `outs[i]` is node `i`'s outgoing data.
    ///
    /// The phase is charged `ceil(L / b)` rounds where `L` is the maximum
    /// load of any link (unicast) or any node's blackboard message
    /// (broadcast). An all-silent phase is charged zero rounds.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnicastInBroadcastModel`] if a unicast payload is
    ///   submitted in a broadcast model.
    /// * [`SimError::InvalidNode`], [`SimError::SelfMessage`] for malformed
    ///   destinations.
    /// * [`SimError::TransportFault`] if the transport loses or damages a
    ///   delivery. The phase is validated before any delivery but recorded
    ///   only after every delivery succeeds, so a faulted phase never
    ///   reaches the ledger: the error's `round` is the rounds charged
    ///   before it, and the session keeps exactly those.
    ///
    /// # Panics
    ///
    /// Panics if `outs.len() != config.n`.
    pub fn exchange(
        &mut self,
        label: &str,
        outs: Vec<PhaseOutbox>,
    ) -> Result<Vec<PhaseInbox>, SimError> {
        let n = self.config.n;
        let b = self.config.bandwidth as u64;
        assert_eq!(outs.len(), n, "expected {} outboxes, got {}", n, outs.len());

        // Pass 1 — validation and load accounting, in ascending sender
        // order, so the first sender with a model violation reports it.
        // Each sender touches only the links it uses; `arrivals` counts
        // the unicasts each inbox will receive.
        let mut max_load = 0u64;
        let mut total_bits = 0u64;
        let mut messages = 0u64;
        let mut arrivals = vec![0usize; n];
        self.dest_load.resize(n, 0);
        for (i, out) in outs.iter().enumerate() {
            let summary = summarize_outbox(
                &self.config,
                NodeId::new(i),
                out,
                &mut self.dest_load,
                &mut arrivals,
            )?;
            max_load = max_load.max(summary.max_load);
            total_bits += summary.bits;
            messages += summary.messages;
        }

        // Pass 2 — delivery through the transport, strictly in ascending
        // sender order. The ledger was fully computed in pass 1, so the
        // backend cannot affect the accounting. The inboxes share one
        // blackboard, on which the default in-memory backend posts each
        // broadcast once, and each unicast list is sized from pass 1's
        // count, so a phase allocates for what it carries.
        let mut inboxes = phase_inboxes(&arrivals);
        for (i, out) in outs.into_iter().enumerate() {
            self.transport
                .deliver_phase(&self.config, NodeId::new(i), out, &mut inboxes)
                .map_err(|fault| fault.at_round(self.metrics.rounds))?;
        }

        let rounds = max_load.div_ceil(b);
        self.metrics.record_phase(PhaseRecord {
            label: label.to_owned(),
            rounds,
            bits: total_bits,
            messages,
            max_link_bits_per_round: max_load.min(b),
        });
        Ok(inboxes)
    }

    /// Convenience wrapper for a pure broadcast phase: node `i` broadcasts
    /// `messages[i]` (an empty message is not sent). Returns the per-node
    /// inboxes.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`Self::exchange`].
    ///
    /// # Panics
    ///
    /// Panics if `messages.len() != config.n`.
    pub fn broadcast_all(
        &mut self,
        label: &str,
        messages: &[BitString],
    ) -> Result<Vec<PhaseInbox>, SimError> {
        let outs = messages
            .iter()
            .map(|m| {
                let mut out = PhaseOutbox::new();
                if !m.is_empty() {
                    out.broadcast(m.clone());
                }
                out
            })
            .collect();
        self.exchange(label, outs)
    }

    /// Charges additional rounds without moving data (e.g. an analytically
    /// accounted black-box subroutine).
    pub fn charge_rounds(&mut self, label: &str, rounds: u64) {
        self.metrics.record_phase(PhaseRecord {
            label: label.to_owned(),
            rounds,
            bits: 0,
            messages: 0,
            max_link_bits_per_round: 0,
        });
    }

    /// Closes the session, returning the accumulated metrics.
    pub(crate) fn into_metrics(self) -> Metrics {
        self.metrics
    }

    /// Runs a sub-protocol *on this session's ledger*: everything it
    /// charges lands directly in this session's metrics.
    ///
    /// # Errors
    ///
    /// Propagates the sub-protocol's error.
    pub fn run_protocol<P: Protocol + ?Sized>(
        &mut self,
        protocol: &mut P,
    ) -> Result<P::Output, SimError> {
        protocol.run(self)
    }

    /// Runs a sub-protocol on a fresh ledger over the same model, then
    /// absorbs its metrics into this session. Use this when the caller needs
    /// the sub-run's own round/bit counts (e.g. per-attempt reporting).
    ///
    /// # Errors
    ///
    /// Propagates the sub-protocol's error. Rounds and bits the sub-run
    /// charged before failing are still absorbed into this session (the
    /// traffic happened).
    pub fn run_nested<P: Protocol + ?Sized>(
        &mut self,
        protocol: &mut P,
    ) -> Result<RunOutcome<P::Output>, SimError> {
        let mut sub = Session::new(self.config.clone());
        sub.set_transport(self.transport.clone_box());
        let result = protocol.run(&mut sub);
        let metrics = sub.into_metrics();
        self.metrics.absorb(&metrics);
        Ok(RunOutcome::new(result?, metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_charges_phases_and_black_boxes() {
        let mut session = Session::new(CliqueConfig::broadcast(3, 2));
        let msgs = vec![
            BitString::from_bits(0b101, 3),
            BitString::new(),
            BitString::new(),
        ];
        let inboxes = session.broadcast_all("announce", &msgs).unwrap();
        assert_eq!(session.rounds(), 2);
        assert_eq!(session.total_bits(), 3);
        assert!(inboxes[1].broadcast_from(NodeId::new(0)).is_some());
        session.charge_rounds("black box", 5);
        assert_eq!(session.rounds(), 7);
        assert_eq!(session.into_metrics().rounds, 7);
    }

    #[test]
    fn nested_runs_absorb_into_the_parent() {
        let mut parent = Session::new(CliqueConfig::broadcast(2, 1));
        let sub = parent
            .run_nested(&mut |session: &mut Session| {
                session.charge_rounds("inner", 4);
                Ok(17u32)
            })
            .unwrap();
        assert_eq!(*sub, 17);
        assert_eq!(sub.rounds(), 4);
        assert_eq!(parent.rounds(), 4);

        // A failing nested run charges what it used before the error.
        let failure = SimError::SelfMessage {
            node: NodeId::new(1),
        };
        let err = parent
            .run_nested(&mut |session: &mut Session| -> Result<(), SimError> {
                session.charge_rounds("partial", 2);
                Err(failure.clone())
            })
            .unwrap_err();
        assert_eq!(err, failure);
        assert_eq!(parent.rounds(), 6);
    }

    #[test]
    fn require_clique_accepts_cliques() {
        let session = Session::new(CliqueConfig::unicast(4, 2));
        session.require_clique_of(4);
    }

    #[test]
    #[should_panic(expected = "protocol input has 5")]
    fn require_clique_of_rejects_size_mismatch() {
        let session = Session::new(CliqueConfig::broadcast(4, 2));
        session.require_clique_of(5);
    }
}
