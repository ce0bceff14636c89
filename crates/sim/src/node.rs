//! Player identities and the per-round interface implemented by node
//! algorithms for the low-level round engine.

use std::fmt;
use std::sync::Arc;

use crate::bits::BitString;
use crate::model::{CliqueConfig, CommMode};

/// Identifier of a player (node) in the model, in `0..n`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// Wraps an index as a node id.
    pub fn new(index: usize) -> Self {
        Self(index)
    }

    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        Self(index)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

/// Read-only per-node view of the model handed to [`NodeAlgorithm`] callbacks.
#[derive(Clone, Debug)]
pub struct NodeCtx<'a> {
    /// This node's identity.
    pub id: NodeId,
    /// Current round number, starting at 0.
    pub round: u64,
    /// The model configuration shared by all nodes.
    pub config: &'a CliqueConfig,
}

impl NodeCtx<'_> {
    /// Number of players.
    pub fn n(&self) -> usize {
        self.config.n
    }

    /// Link bandwidth in bits.
    pub fn bandwidth(&self) -> usize {
        self.config.bandwidth
    }
}

/// A delivered payload: unicasts are moved in and owned by the receiving
/// inbox (no extra allocation), broadcasts are [`Arc`]-shared across all
/// receivers (a pointer clone per receiver instead of the message bits).
#[derive(Clone, Debug)]
enum Payload {
    Owned(BitString),
    Shared(Arc<BitString>),
}

impl Payload {
    fn bits(&self) -> &BitString {
        match self {
            Payload::Owned(bits) => bits,
            Payload::Shared(bits) => bits,
        }
    }
}

/// Messages received by one node in one round, indexed by sender.
#[derive(Clone, Debug, Default)]
pub struct Inbox {
    messages: Vec<Option<Payload>>,
    occupied: usize,
}

impl Inbox {
    /// Creates an empty inbox for a model with `n` players.
    pub fn empty(n: usize) -> Self {
        Self {
            messages: vec![None; n],
            occupied: 0,
        }
    }

    /// Delivers a unicast payload, moving it into the slot.
    pub(crate) fn insert_owned(&mut self, sender: NodeId, message: BitString) {
        self.insert(sender, Payload::Owned(message));
    }

    /// Delivers one receiver's share of a broadcast payload.
    pub(crate) fn insert_shared(&mut self, sender: NodeId, message: Arc<BitString>) {
        self.insert(sender, Payload::Shared(message));
    }

    fn insert(&mut self, sender: NodeId, message: Payload) {
        let slot = &mut self.messages[sender.index()];
        if slot.is_none() {
            self.occupied += 1;
        }
        *slot = Some(message);
    }

    /// Empties the inbox while keeping its slot allocation for reuse.
    pub(crate) fn clear(&mut self) {
        if self.occupied == 0 {
            return;
        }
        self.messages.fill(None);
        self.occupied = 0;
    }

    /// The message received from `sender` this round, if any.
    pub fn from(&self, sender: NodeId) -> Option<&BitString> {
        self.messages
            .get(sender.index())
            .and_then(|m| m.as_ref().map(Payload::bits))
    }

    /// Iterates over `(sender, message)` pairs in increasing sender order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &BitString)> {
        self.messages
            .iter()
            .enumerate()
            .filter_map(|(i, m)| m.as_ref().map(|m| (NodeId::new(i), m.bits())))
    }

    /// Number of messages received (tracked, so this is `O(1)`).
    pub fn len(&self) -> usize {
        self.occupied
    }

    /// Returns `true` if nothing was received.
    pub fn is_empty(&self) -> bool {
        self.occupied == 0
    }
}

/// Messages submitted by one node in one round.
///
/// In a unicast model each destination may receive at most one message per
/// round; in a broadcast model only [`Outbox::broadcast`] may be used. The
/// engine validates these rules and the bandwidth bound when the round is
/// executed.
#[derive(Clone, Debug, Default)]
pub struct Outbox {
    pub(crate) unicasts: Vec<(NodeId, BitString)>,
    pub(crate) broadcast: Option<BitString>,
}

impl Outbox {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a unicast message to `dst`.
    pub fn send(&mut self, dst: NodeId, message: BitString) {
        self.unicasts.push((dst, message));
    }

    /// Queues a broadcast message to every other player.
    ///
    /// Calling this more than once in a round replaces the previous payload.
    pub fn broadcast(&mut self, message: BitString) {
        self.broadcast = Some(message);
    }

    /// Returns `true` if nothing has been queued.
    pub fn is_empty(&self) -> bool {
        self.unicasts.is_empty() && self.broadcast.is_none()
    }

    /// Empties the outbox while keeping its allocation for reuse.
    pub(crate) fn clear(&mut self) {
        self.unicasts.clear();
        self.broadcast = None;
    }

    /// Total number of payload bits queued (counting a broadcast once).
    pub fn queued_bits(&self) -> usize {
        self.unicasts.iter().map(|(_, m)| m.len()).sum::<usize>()
            + self.broadcast.as_ref().map_or(0, BitString::len)
    }
}

/// The behaviour of a single player, invoked once per round by the
/// [`RoundEngine`](crate::engine::RoundEngine).
///
/// Implementations hold the node's local state (including its share of the
/// input). All players typically run the same algorithm type with different
/// state, so the engine is generic over `A: NodeAlgorithm` and owns a
/// `Vec<A>` with one element per player.
pub trait NodeAlgorithm {
    /// Called once before round 0, e.g. to queue initial computations.
    fn begin(&mut self, _ctx: &NodeCtx<'_>) {}

    /// Executes one round: read this round's `inbox`, update local state and
    /// queue next-round messages into `outbox`.
    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &Inbox, outbox: &mut Outbox);

    /// Returns `true` once this node has terminated. The engine stops when
    /// every node has halted and no messages are in flight.
    fn halted(&self) -> bool {
        false
    }
}

/// Validates an outbox against the model rules, returning the number of
/// payload bits it will place on the network.
///
/// `seen` is caller-provided scratch (reset here), so per-round validation
/// does not allocate.
pub(crate) fn validate_outbox(
    sender: NodeId,
    outbox: &Outbox,
    config: &CliqueConfig,
    strict_bandwidth: bool,
    seen: &mut Vec<bool>,
) -> Result<u64, crate::model::SimError> {
    use crate::model::SimError;

    let n = config.n;
    if config.mode == CommMode::Broadcast && !outbox.unicasts.is_empty() {
        return Err(SimError::UnicastInBroadcastModel { sender });
    }
    seen.clear();
    seen.resize(n, false);
    let mut bits_on_network = 0u64;
    for (dst, msg) in &outbox.unicasts {
        if dst.index() >= n {
            return Err(SimError::InvalidNode { node: *dst, n });
        }
        if *dst == sender {
            return Err(SimError::SelfMessage { node: sender });
        }
        if seen[dst.index()] {
            return Err(SimError::DuplicateMessage {
                sender,
                receiver: *dst,
            });
        }
        seen[dst.index()] = true;
        if strict_bandwidth && msg.len() > config.bandwidth {
            return Err(SimError::BandwidthExceeded {
                sender,
                receiver: Some(*dst),
                bits: msg.len(),
                bandwidth: config.bandwidth,
            });
        }
        bits_on_network += msg.len() as u64;
    }
    if let Some(msg) = &outbox.broadcast {
        if strict_bandwidth && msg.len() > config.bandwidth {
            return Err(SimError::BandwidthExceeded {
                sender,
                receiver: None,
                bits: msg.len(),
                bandwidth: config.bandwidth,
            });
        }
        // In the blackboard (broadcast) model a message is written once; in a
        // unicast model a broadcast occupies every outgoing link.
        bits_on_network += match config.mode {
            CommMode::Broadcast => msg.len() as u64,
            CommMode::Unicast => msg.len() as u64 * (n as u64 - 1),
        };
    }
    Ok(bits_on_network)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SimError;

    fn validate(
        sender: NodeId,
        outbox: &Outbox,
        config: &CliqueConfig,
        strict: bool,
    ) -> Result<u64, SimError> {
        validate_outbox(sender, outbox, config, strict, &mut Vec::new())
    }

    #[test]
    fn node_id_conversions() {
        let id = NodeId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(usize::from(id), 7);
        assert_eq!(NodeId::from(7usize), id);
        assert_eq!(id.to_string(), "v7");
    }

    #[test]
    fn inbox_insert_and_query() {
        let mut inbox = Inbox::empty(4);
        assert!(inbox.is_empty());
        inbox.insert_owned(NodeId::new(2), BitString::from_bits(3, 2));
        assert_eq!(inbox.len(), 1);
        assert!(inbox.from(NodeId::new(2)).is_some());
        assert!(inbox.from(NodeId::new(1)).is_none());
        let collected: Vec<_> = inbox.iter().map(|(s, _)| s.index()).collect();
        assert_eq!(collected, vec![2]);
        // Overwriting the same slot does not double-count, and shared
        // (broadcast) payloads read back like owned ones.
        inbox.insert_shared(NodeId::new(2), Arc::new(BitString::from_bits(1, 1)));
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox.from(NodeId::new(2)).unwrap().len(), 1);
        inbox.clear();
        assert!(inbox.is_empty());
        assert_eq!(inbox.len(), 0);
    }

    #[test]
    fn outbox_queueing() {
        let mut out = Outbox::new();
        assert!(out.is_empty());
        out.send(NodeId::new(1), BitString::from_bits(1, 1));
        out.broadcast(BitString::from_bits(3, 2));
        assert!(!out.is_empty());
        assert_eq!(out.queued_bits(), 3);
    }

    #[test]
    fn validate_rejects_unicast_in_broadcast_model() {
        let cfg = CliqueConfig::broadcast(4, 8);
        let mut out = Outbox::new();
        out.send(NodeId::new(1), BitString::from_bits(1, 1));
        let err = validate(NodeId::new(0), &out, &cfg, true).unwrap_err();
        assert!(matches!(err, SimError::UnicastInBroadcastModel { .. }));
    }

    #[test]
    fn validate_rejects_self_and_duplicate_and_invalid() {
        let cfg = CliqueConfig::unicast(4, 8);
        let mut out = Outbox::new();
        out.send(NodeId::new(0), BitString::new());
        assert!(matches!(
            validate(NodeId::new(0), &out, &cfg, true),
            Err(SimError::SelfMessage { .. })
        ));

        let mut out = Outbox::new();
        out.send(NodeId::new(1), BitString::new());
        out.send(NodeId::new(1), BitString::new());
        assert!(matches!(
            validate(NodeId::new(0), &out, &cfg, true),
            Err(SimError::DuplicateMessage { .. })
        ));

        let mut out = Outbox::new();
        out.send(NodeId::new(9), BitString::new());
        assert!(matches!(
            validate(NodeId::new(0), &out, &cfg, true),
            Err(SimError::InvalidNode { .. })
        ));
    }

    #[test]
    fn validate_bandwidth_strict_and_lenient() {
        let cfg = CliqueConfig::unicast(4, 2);
        let mut out = Outbox::new();
        out.send(NodeId::new(1), BitString::from_bits(7, 3));
        assert!(matches!(
            validate(NodeId::new(0), &out, &cfg, true),
            Err(SimError::BandwidthExceeded { .. })
        ));
        assert_eq!(validate(NodeId::new(0), &out, &cfg, false), Ok(3));
    }

    #[test]
    fn validate_counts_broadcast_bits_per_receiver() {
        let cfg = CliqueConfig::unicast(5, 8);
        let mut out = Outbox::new();
        out.broadcast(BitString::from_bits(0b101, 3));
        // 3 bits to each of the 4 other players.
        assert_eq!(validate(NodeId::new(0), &out, &cfg, true), Ok(12));
        // In the blackboard model the same message is only written once.
        let cfg_b = CliqueConfig::broadcast(5, 8);
        assert_eq!(validate(NodeId::new(0), &out, &cfg_b, true), Ok(3));
    }
}
