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

use std::sync::{Arc, OnceLock};

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
/// Every inbox of a phase reads one shared blackboard, which holds each
/// sender's broadcast once and which an inbox reads past its owner's slot.
/// Unicasts are kept as a list in ascending sender order, one entry per
/// sender that addressed this node, so an inbox holds what arrived rather
/// than a slot per player.
#[derive(Clone, Debug, Default)]
pub struct PhaseInbox {
    /// The receiving player, who does not receive its own broadcast.
    owner: NodeId,
    /// The phase's broadcasts, one slot per sender, shared by all of its
    /// inboxes.
    blackboard: Arc<[OnceLock<BitString>]>,
    /// `(sender, payload)` in ascending sender order.
    unicasts: Vec<(NodeId, BitString)>,
}

/// The `n` empty inboxes of one phase: one blackboard of `arrivals.len()`
/// slots that all of them share, and inbox `i`'s unicast list sized for
/// `arrivals[i]` deliveries.
pub(crate) fn phase_inboxes(arrivals: &[usize]) -> Vec<PhaseInbox> {
    let blackboard: Arc<[OnceLock<BitString>]> = arrivals.iter().map(|_| OnceLock::new()).collect();
    arrivals
        .iter()
        .enumerate()
        .map(|(i, &count)| PhaseInbox {
            owner: NodeId::new(i),
            blackboard: Arc::clone(&blackboard),
            unicasts: Vec::with_capacity(count),
        })
        .collect()
}

impl PhaseInbox {
    /// Posts `sender`'s broadcast on the blackboard this inbox shares with
    /// every other inbox of its phase, so all of them read it without a
    /// copy. A sender posts at most once per phase.
    pub(crate) fn post_broadcast(&self, sender: NodeId, payload: BitString) {
        let fresh = self.blackboard[sender.index()].set(payload).is_ok();
        debug_assert!(fresh, "{sender} posted two broadcasts in one phase");
    }

    /// Appends a unicast payload from `sender`; multiple deliveries within
    /// a phase are concatenated in arrival order.
    pub(crate) fn deliver_unicast(&mut self, sender: NodeId, payload: BitString) {
        let at = match self.unicasts.last() {
            // Senders deliver in ascending order, so a new one goes last.
            Some(&(last, _)) if last < sender => self.unicasts.len(),
            _ => self.unicasts.partition_point(|&(s, _)| s < sender),
        };
        match self.unicasts.get_mut(at) {
            Some((s, message)) if *s == sender => message.extend_from(&payload),
            _ => self.unicasts.insert(at, (sender, payload)),
        }
    }

    /// The broadcast written by `sender` during the phase, if any.
    pub fn broadcast_from(&self, sender: NodeId) -> Option<&BitString> {
        if sender == self.owner {
            return None;
        }
        self.blackboard.get(sender.index()).and_then(OnceLock::get)
    }

    /// The (concatenated) unicast payload received from `sender`, if any.
    pub fn unicast_from(&self, sender: NodeId) -> Option<&BitString> {
        let at = self
            .unicasts
            .binary_search_by_key(&sender, |&(s, _)| s)
            .ok()?;
        Some(&self.unicasts[at].1)
    }

    /// Iterates over `(sender, payload)` pairs of broadcasts received.
    pub fn broadcasts(&self) -> impl Iterator<Item = (NodeId, &BitString)> {
        let owner = self.owner.index();
        self.blackboard
            .iter()
            .enumerate()
            .filter(move |&(i, _)| i != owner)
            .filter_map(|(i, slot)| slot.get().map(|m| (NodeId::new(i), m)))
    }

    /// Iterates over `(sender, payload)` pairs of unicasts received, in
    /// ascending sender order.
    pub fn unicasts(&self) -> impl Iterator<Item = (NodeId, &BitString)> {
        self.unicasts.iter().map(|(s, m)| (*s, m))
    }

    /// Moves the `(sender, payload)` pairs of unicasts received out of the
    /// inbox, in ascending sender order, so a reader that keeps a payload
    /// whole copies no bits.
    pub fn into_unicasts(self) -> impl Iterator<Item = (NodeId, BitString)> {
        self.unicasts.into_iter()
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

/// Validates one sender's outbox and computes its [`SenderSummary`],
/// touching only the destinations the sender addresses.
///
/// `dest_load` is caller-provided scratch of `config.n` zeros, left zero
/// again on return. `arrivals[dst]` counts the unicasts addressed to `dst`
/// (the size of its inbox's list); an invalid outbox adds nothing to it.
///
/// # Errors
///
/// The first model violation in the outbox, in submission order.
pub(crate) fn summarize_outbox(
    config: &CliqueConfig,
    sender: NodeId,
    out: &PhaseOutbox,
    dest_load: &mut [u64],
    arrivals: &mut [usize],
) -> Result<SenderSummary, SimError> {
    let n = config.n;
    for (dst, _) in &out.unicasts {
        if config.mode == CommMode::Broadcast {
            return Err(SimError::UnicastInBroadcastModel { sender });
        } else if dst.index() >= n {
            return Err(SimError::InvalidNode { node: *dst, n });
        } else if *dst == sender {
            return Err(SimError::SelfMessage { node: sender });
        }
    }

    let mut summary = SenderSummary::default();
    // The load a broadcast puts on each link this sender uses.
    let mut broadcast_load = 0;
    if let Some(msg) = &out.broadcast {
        let len = msg.len() as u64;
        match config.mode {
            CommMode::Broadcast => {
                summary.bits += len;
                summary.max_load = len;
            }
            CommMode::Unicast => {
                // A broadcast in the unicast model occupies every outgoing
                // link: one to each of the other n - 1 players.
                summary.bits += len * (n as u64 - 1);
                if n > 1 {
                    broadcast_load = len;
                    summary.max_load = len;
                }
            }
        }
        if len > 0 {
            summary.messages += 1;
        }
    }

    for (dst, msg) in &out.unicasts {
        let len = msg.len() as u64;
        dest_load[dst.index()] += len;
        arrivals[dst.index()] += 1;
        summary.bits += len;
        if len > 0 {
            summary.messages += 1;
        }
    }
    // A link's first visit reads its whole load and clears it.
    for (dst, _) in &out.unicasts {
        let load = std::mem::take(&mut dest_load[dst.index()]);
        summary.max_load = summary.max_load.max(broadcast_load + load);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    use super::*;
    use crate::session::Session;

    /// The dense inbox the shared-blackboard one replaced: one slot per
    /// player for broadcasts and one for unicasts.
    #[derive(Clone, Default)]
    struct DenseInbox {
        broadcasts: Vec<Option<BitString>>,
        unicasts: Vec<Option<BitString>>,
    }

    /// Delivers a valid phase into dense inboxes, sender by sender: each
    /// broadcast into every other player's slot, each unicast appended to
    /// its receiver's slot for the sender.
    fn dense_delivery(outs: &[PhaseOutbox]) -> Vec<DenseInbox> {
        let n = outs.len();
        let empty = DenseInbox {
            broadcasts: vec![None; n],
            unicasts: vec![None; n],
        };
        let mut inboxes = vec![empty; n];
        for (sender, out) in outs.iter().enumerate() {
            if let Some(msg) = &out.broadcast {
                for (dst, inbox) in inboxes.iter_mut().enumerate() {
                    if dst != sender {
                        inbox.broadcasts[sender] = Some(msg.clone());
                    }
                }
            }
            for (dst, msg) in &out.unicasts {
                let slot = &mut inboxes[dst.index()].unicasts[sender];
                slot.get_or_insert_with(BitString::new).extend_from(msg);
            }
        }
        inboxes
    }

    /// One valid sender's `(max load, bits, messages)` by the per-link
    /// arithmetic the sparse accounting replaced: the load on each of the
    /// sender's `n` links, broadcast included.
    fn per_link_summary(config: &CliqueConfig, sender: usize, out: &PhaseOutbox) -> [u64; 3] {
        let n = config.n;
        let mut load = vec![0u64; n];
        let (mut max_load, mut bits, mut messages) = (0, 0, 0);
        if let Some(msg) = &out.broadcast {
            let len = msg.len() as u64;
            match config.mode {
                CommMode::Broadcast => {
                    bits += len;
                    max_load = len;
                }
                CommMode::Unicast => {
                    bits += len * (n as u64 - 1);
                    for (dst, l) in load.iter_mut().enumerate() {
                        if dst != sender {
                            *l += len;
                        }
                    }
                }
            }
            messages += u64::from(len > 0);
        }
        for (dst, msg) in &out.unicasts {
            load[dst.index()] += msg.len() as u64;
            bits += msg.len() as u64;
            messages += u64::from(!msg.is_empty());
        }
        if config.mode == CommMode::Unicast {
            max_load = max_load.max(load.into_iter().max().unwrap_or(0));
        }
        [max_load, bits, messages]
    }

    fn random_bits(rng: &mut ChaCha8Rng, max_len: usize) -> BitString {
        (0..rng.gen_range(0..max_len + 1))
            .map(|_| rng.gen_bool(0.5))
            .collect()
    }

    /// A valid phase: some senders stay silent, the others broadcast or
    /// not and, in the unicast model, send 0–6 unicasts, repeats on one
    /// link and zero-length payloads included.
    fn random_phase(config: &CliqueConfig, rng: &mut ChaCha8Rng) -> Vec<PhaseOutbox> {
        let n = config.n;
        (0..n)
            .map(|sender| {
                let mut out = PhaseOutbox::new();
                if rng.gen_bool(0.25) {
                    return out;
                }
                if rng.gen_bool(0.5) {
                    out.broadcast(random_bits(rng, 90));
                }
                if config.mode == CommMode::Unicast && n > 1 {
                    let mut last = None;
                    for _ in 0..rng.gen_range(0..7) {
                        let dst = match last {
                            Some(dst) if rng.gen_bool(0.3) => dst,
                            _ => (sender + rng.gen_range(1..n)) % n,
                        };
                        last = Some(dst);
                        out.send(NodeId::new(dst), random_bits(rng, 40));
                    }
                }
                out
            })
            .collect()
    }

    /// Runs a random phase of `config` drawn from `seed` and checks every
    /// inbox accessor against the dense reference and the phase's charge
    /// against the per-link arithmetic.
    fn check_random_phase(config: CliqueConfig, seed: u64) {
        let (n, bandwidth) = (config.n, config.bandwidth as u64);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let outs = random_phase(&config, &mut rng);
        let expected = dense_delivery(&outs);
        let [mut max_load, mut bits, mut messages] = [0u64; 3];
        for (sender, out) in outs.iter().enumerate() {
            let [load, b, m] = per_link_summary(&config, sender, out);
            max_load = max_load.max(load);
            bits += b;
            messages += m;
        }

        let mut session = Session::new(config);
        let inboxes = session.exchange("random", outs).unwrap();
        let record = &session.metrics().phases[0];
        assert_eq!(
            (
                record.rounds,
                record.bits,
                record.messages,
                record.max_link_bits_per_round
            ),
            (
                max_load.div_ceil(bandwidth),
                bits,
                messages,
                max_load.min(bandwidth)
            )
        );

        let in_order = |slots: &[Option<BitString>]| -> Vec<(NodeId, BitString)> {
            let slots = slots.iter().enumerate();
            slots
                .filter_map(|(s, m)| Some((NodeId::new(s), m.clone()?)))
                .collect()
        };
        let owned = |(s, m): (NodeId, &BitString)| (s, m.clone());
        for (inbox, dense) in inboxes.into_iter().zip(&expected) {
            for s in 0..n {
                let sender = NodeId::new(s);
                assert_eq!(inbox.broadcast_from(sender), dense.broadcasts[s].as_ref());
                assert_eq!(inbox.unicast_from(sender), dense.unicasts[s].as_ref());
            }
            let broadcasts: Vec<_> = inbox.broadcasts().map(owned).collect();
            assert_eq!(broadcasts, in_order(&dense.broadcasts));
            let unicasts: Vec<_> = inbox.unicasts().map(owned).collect();
            assert_eq!(unicasts, in_order(&dense.unicasts));
            let moved: Vec<_> = inbox.into_unicasts().collect();
            assert_eq!(moved, in_order(&dense.unicasts));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random phases in both models read the same through every inbox
        /// accessor as through the dense reference, and are charged what
        /// the per-link arithmetic charges. Every case also runs a lone
        /// player, whose broadcast reaches no link.
        #[test]
        fn phases_match_the_dense_reference(
            n in 2usize..41,
            unicast in any::<bool>(),
            bandwidth in 1usize..20,
            seed in any::<u64>(),
        ) {
            for n in [1, n] {
                let config = if unicast {
                    CliqueConfig::unicast(n, bandwidth)
                } else {
                    CliqueConfig::broadcast(n, bandwidth)
                };
                check_random_phase(config, seed);
            }
        }
    }

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
