//! The data of one bulk-synchronous phase: outboxes, inboxes and the
//! per-sender load accounting.
//!
//! Most of the paper's algorithms are naturally described in *phases*: "every
//! node broadcasts an `O(k log n)`-bit message", "route this balanced demand",
//! "each player sends its `b`-bit summary to the owner of the heavy gate".
//! Rather than have every algorithm chunk long messages into `b`-bit
//! pieces, [`Session::exchange`](crate::session::Session::exchange)
//! does this accounting centrally: a phase delivers arbitrarily long logical
//! [`PhaseOutbox`] messages into [`PhaseInbox`]es and is charged
//! `ceil(max link load / b)` rounds, which is exactly the number of rounds the
//! chunked execution would take in the respective model (a property test
//! checks this against an independent chunk-by-chunk replay).
//!
//! The accounting never interprets payloads; information-flow discipline (a
//! node may only use what it has received) is the responsibility of the
//! protocol implementation, and the protocol implementations in
//! `clique-core` are structured so that per-node state is only updated from
//! delivered inboxes.

use std::sync::Arc;

use crate::bits::BitString;
use crate::model::{CliqueConfig, CommMode, SimError};
use crate::node::NodeId;

/// Logical outgoing data of one node during one phase.
#[derive(Clone, Debug, Default)]
pub struct PhaseOutbox {
    broadcast: Option<BitString>,
    unicasts: Vec<(NodeId, BitString)>,
}

impl PhaseOutbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the broadcast payload for this phase (replacing any previous one).
    pub fn broadcast(&mut self, message: BitString) {
        self.broadcast = Some(message);
    }

    /// Appends a unicast payload for `dst`; multiple sends to the same
    /// destination within a phase are concatenated in order.
    pub fn send(&mut self, dst: NodeId, message: BitString) {
        self.unicasts.push((dst, message));
    }

    /// Decomposes the outbox for a [`Transport`](crate::transport::Transport)
    /// to deliver.
    pub(crate) fn into_parts(self) -> (Option<BitString>, Vec<(NodeId, BitString)>) {
        (self.broadcast, self.unicasts)
    }
}

/// Messages delivered to one node at the end of a phase.
///
/// Broadcast payloads are [`Arc`]-shared across the `n - 1` receiving
/// inboxes, so a phase delivers each broadcast by cloning a pointer per
/// receiver instead of the message bits.
#[derive(Clone, Debug, Default)]
pub struct PhaseInbox {
    broadcasts: Vec<Option<Arc<BitString>>>,
    unicasts: Vec<Option<BitString>>,
}

impl PhaseInbox {
    /// An inbox with no deliveries, for a model with `n` players.
    pub(crate) fn empty(n: usize) -> Self {
        Self {
            broadcasts: vec![None; n],
            unicasts: vec![None; n],
        }
    }

    /// Stores one receiver's share of `sender`'s broadcast (transports hand
    /// each receiver either a clone of one shared [`Arc`] or its own copy).
    pub(crate) fn deliver_broadcast(&mut self, sender: NodeId, payload: Arc<BitString>) {
        self.broadcasts[sender.index()] = Some(payload);
    }

    /// Appends a unicast payload from `sender`; multiple deliveries within
    /// a phase are concatenated in arrival order.
    pub(crate) fn deliver_unicast(&mut self, sender: NodeId, payload: BitString) {
        let slot = &mut self.unicasts[sender.index()];
        match slot {
            Some(existing) => existing.extend_from(&payload),
            None => *slot = Some(payload),
        }
    }

    /// The broadcast written by `sender` during the phase, if any.
    pub fn broadcast_from(&self, sender: NodeId) -> Option<&BitString> {
        self.broadcasts
            .get(sender.index())
            .and_then(|m| m.as_deref())
    }

    /// The (concatenated) unicast payload received from `sender`, if any.
    pub fn unicast_from(&self, sender: NodeId) -> Option<&BitString> {
        self.unicasts.get(sender.index()).and_then(|m| m.as_ref())
    }

    /// Moves the (concatenated) unicast payload received from `sender` out
    /// of the inbox, so a reader that keeps it whole copies no bits.
    pub fn take_unicast(&mut self, sender: NodeId) -> Option<BitString> {
        self.unicasts.get_mut(sender.index()).and_then(Option::take)
    }

    /// Iterates over `(sender, payload)` pairs of broadcasts received.
    pub fn broadcasts(&self) -> impl Iterator<Item = (NodeId, &BitString)> {
        self.broadcasts
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_deref().map(|m| (NodeId::new(i), m)))
    }

    /// Iterates over `(sender, payload)` pairs of unicasts received.
    pub fn unicasts(&self) -> impl Iterator<Item = (NodeId, &BitString)> {
        self.unicasts
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_ref().map(|m| (NodeId::new(i), m)))
    }
}

/// Load accounting of one sender's phase outbox.
#[derive(Debug, Default)]
pub(crate) struct SenderSummary {
    /// Unicast model: the heaviest per-destination aggregated load this
    /// sender puts on any link. Broadcast model: its blackboard length.
    pub(crate) max_load: u64,
    /// Payload bits this sender places on the network.
    pub(crate) bits: u64,
    /// Non-empty messages this sender places on the network.
    pub(crate) messages: u64,
}

/// Validates one sender's outbox and computes its [`SenderSummary`].
/// `dest_load` is caller-provided scratch (reset here) sized to `config.n`.
///
/// # Errors
///
/// The first model violation in the outbox, in submission order.
pub(crate) fn summarize_outbox(
    config: &CliqueConfig,
    sender: NodeId,
    out: &PhaseOutbox,
    dest_load: &mut Vec<u64>,
) -> Result<SenderSummary, SimError> {
    let n = config.n;
    dest_load.clear();
    dest_load.resize(n, 0);
    let mut summary = SenderSummary::default();

    if let Some(msg) = &out.broadcast {
        let len = msg.len() as u64;
        match config.mode {
            CommMode::Broadcast => {
                summary.bits += len;
                summary.max_load = summary.max_load.max(len);
            }
            CommMode::Unicast => {
                // A broadcast in the unicast model occupies every outgoing
                // link: one to each of the other n - 1 players.
                summary.bits += len * (n as u64 - 1);
                for (dst, load) in dest_load.iter_mut().enumerate() {
                    if dst != sender.index() {
                        *load += len;
                    }
                }
            }
        }
        if len > 0 {
            summary.messages += 1;
        }
    }

    for (dst, msg) in &out.unicasts {
        if config.mode == CommMode::Broadcast {
            return Err(SimError::UnicastInBroadcastModel { sender });
        } else if dst.index() >= n {
            return Err(SimError::InvalidNode { node: *dst, n });
        } else if *dst == sender {
            return Err(SimError::SelfMessage { node: sender });
        }
        let len = msg.len() as u64;
        dest_load[dst.index()] += len;
        summary.bits += len;
        if len > 0 {
            summary.messages += 1;
        }
    }

    if config.mode == CommMode::Unicast {
        if let Some(load) = dest_load.iter().copied().max() {
            summary.max_load = summary.max_load.max(load);
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;

    fn broadcast_out(value: u64, width: usize) -> PhaseOutbox {
        let mut out = PhaseOutbox::new();
        out.broadcast(BitString::from_bits(value, width));
        out
    }

    #[test]
    fn broadcast_phase_round_accounting() {
        let mut session = Session::new(CliqueConfig::broadcast(3, 4));
        let outs = vec![
            broadcast_out(1, 10),
            broadcast_out(2, 3),
            PhaseOutbox::new(),
        ];
        let inboxes = session.exchange("test", outs).unwrap();
        // Longest blackboard message is 10 bits, bandwidth 4 => 3 rounds.
        assert_eq!(session.rounds(), 3);
        // Blackboard bits: 10 + 3.
        assert_eq!(session.total_bits(), 13);
        assert_eq!(
            inboxes[2]
                .broadcast_from(NodeId::new(0))
                .unwrap()
                .reader()
                .read_bits(10),
            Some(1)
        );
        assert!(inboxes[0].broadcast_from(NodeId::new(2)).is_none());
        // A node does not receive its own broadcast.
        assert!(inboxes[0].broadcast_from(NodeId::new(0)).is_none());
    }

    #[test]
    fn silent_phase_costs_nothing() {
        let mut session = Session::new(CliqueConfig::broadcast(2, 1));
        let outs = vec![PhaseOutbox::new(), PhaseOutbox::new()];
        session.exchange("silent", outs).unwrap();
        assert_eq!(session.rounds(), 0);
        assert_eq!(session.total_bits(), 0);
    }

    #[test]
    fn unicast_phase_aggregates_per_destination() {
        let mut session = Session::new(CliqueConfig::unicast(4, 2));
        let mut out0 = PhaseOutbox::new();
        out0.send(NodeId::new(1), BitString::from_bits(0b11, 2));
        out0.send(NodeId::new(1), BitString::from_bits(0b01, 2));
        out0.send(NodeId::new(2), BitString::from_bits(0b1, 1));
        let outs = vec![
            out0,
            PhaseOutbox::new(),
            PhaseOutbox::new(),
            PhaseOutbox::new(),
        ];
        let inboxes = session.exchange("route", outs).unwrap();
        // Link 0->1 carries 4 bits, bandwidth 2 => 2 rounds.
        assert_eq!(session.rounds(), 2);
        assert_eq!(session.total_bits(), 5);
        let agg = inboxes[1].unicast_from(NodeId::new(0)).unwrap();
        assert_eq!(agg.len(), 4);
        let mut r = agg.reader();
        assert_eq!(r.read_bits(2), Some(0b11));
        assert_eq!(r.read_bits(2), Some(0b01));
    }

    #[test]
    fn unicast_broadcast_counts_every_link() {
        let mut session = Session::new(CliqueConfig::unicast(5, 3));
        let outs = vec![
            broadcast_out(0b101, 3),
            PhaseOutbox::new(),
            PhaseOutbox::new(),
            PhaseOutbox::new(),
            PhaseOutbox::new(),
        ];
        session.exchange("bcast-as-unicast", outs).unwrap();
        assert_eq!(session.rounds(), 1);
        assert_eq!(session.total_bits(), 3 * 4);
    }

    #[test]
    fn unicast_rejected_in_broadcast_model() {
        let mut session = Session::new(CliqueConfig::broadcast(3, 2));
        let mut out = PhaseOutbox::new();
        out.send(NodeId::new(1), BitString::from_bits(1, 1));
        let outs = vec![out, PhaseOutbox::new(), PhaseOutbox::new()];
        assert!(matches!(
            session.exchange("bad", outs),
            Err(SimError::UnicastInBroadcastModel { .. })
        ));
    }

    #[test]
    fn broadcast_all_and_charge_rounds() {
        let mut session = Session::new(CliqueConfig::broadcast(3, 1));
        let msgs = vec![
            BitString::from_bits(1, 1),
            BitString::new(),
            BitString::from_bits(0, 2),
        ];
        let inboxes = session.broadcast_all("announce", &msgs).unwrap();
        assert_eq!(session.rounds(), 2);
        assert!(inboxes[0].broadcast_from(NodeId::new(1)).is_none());
        session.charge_rounds("black box", 7);
        assert_eq!(session.rounds(), 9);
        assert_eq!(session.metrics().phases.len(), 2);
    }

    #[test]
    fn mixed_phase_delivers_unicasts_and_broadcasts() {
        let mut session = Session::new(CliqueConfig::unicast(3, 4));
        let mut out0 = PhaseOutbox::new();
        out0.broadcast(BitString::from_bits(1, 2));
        out0.send(NodeId::new(1), BitString::from_bits(3, 3));
        let outs = vec![out0, PhaseOutbox::new(), PhaseOutbox::new()];
        let inboxes = session.exchange("mixed", outs).unwrap();
        let sender = NodeId::new(0);
        assert_eq!(inboxes[1].unicast_from(sender).map(BitString::len), Some(3));
        assert_eq!(inboxes[2].unicast_from(sender), None);
        for inbox in &inboxes[1..] {
            assert_eq!(inbox.broadcast_from(sender).map(BitString::len), Some(2));
        }
        assert_eq!(inboxes[1].unicasts().count(), 1);
        assert_eq!(inboxes[1].broadcasts().count(), 1);
    }

    #[test]
    #[should_panic(expected = "expected 3 outboxes")]
    fn wrong_outbox_count_panics() {
        let mut session = Session::new(CliqueConfig::broadcast(3, 1));
        let _ = session.exchange("bad", vec![PhaseOutbox::new()]);
    }

    #[test]
    fn first_sender_in_order_reports_its_error() {
        // Sender 1 has a self-message *after* a valid unicast; sender 4 has
        // an invalid node. The first sender in order reports its error.
        let outs = |sender_1_valid: bool| {
            let mut outs: Vec<PhaseOutbox> = (0..6).map(|_| PhaseOutbox::new()).collect();
            outs[1].send(NodeId::new(0), BitString::from_bits(1, 1));
            if !sender_1_valid {
                outs[1].send(NodeId::new(1), BitString::from_bits(1, 1));
            }
            outs[4].send(NodeId::new(17), BitString::from_bits(1, 1));
            outs
        };
        let mut session = Session::new(CliqueConfig::unicast(6, 2));
        let err = session.exchange("bad", outs(false)).unwrap_err();
        assert_eq!(
            err,
            SimError::SelfMessage {
                node: NodeId::new(1)
            }
        );
        // With sender 1 valid, sender 4's out-of-range destination reports.
        let err = session.exchange("bad", outs(true)).unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidNode {
                node: NodeId::new(17),
                n: 6
            }
        );
        assert_eq!(session.rounds(), 0);
    }
}
