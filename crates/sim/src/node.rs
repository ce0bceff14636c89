//! Player identities, plus the per-round [`Inbox`] and [`Outbox`] that
//! [`Transport::deliver_round`](crate::transport::Transport::deliver_round)
//! moves messages between.
//!
//! No simulator path executes single rounds: every protocol runs in
//! [`Session`](crate::session::Session) phases. `Inbox`, `Outbox` and
//! `deliver_round` are kept only because the benchmark package
//! (`perfbench`) implements `deliver_round` in its `TimingTransport`; they
//! are deleted together with that implementation (ROADMAP.md, item 2).

use std::fmt;
use std::sync::Arc;

use crate::bits::BitString;

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

/// Messages submitted by one node in one round, for
/// [`Transport::deliver_round`](crate::transport::Transport::deliver_round).
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }

    #[test]
    fn outbox_queueing() {
        let mut out = Outbox::new();
        assert!(out.is_empty());
        out.send(NodeId::new(1), BitString::from_bits(1, 1));
        out.broadcast(BitString::from_bits(3, 2));
        assert!(!out.is_empty());
        assert_eq!(out.unicasts.len(), 1);
        assert_eq!(out.broadcast.as_ref().map(BitString::len), Some(2));
    }
}
