//! The low-level, bit-strict round engine.
//!
//! [`RoundEngine`] runs one [`NodeAlgorithm`]
//! instance per player in synchronous rounds, enforcing the model rules
//! exactly: in each round a player may put at most `b` bits on each of its
//! links (unicast) or write a single message of at most `b` bits on the
//! blackboard (broadcast). It is the engine of record for round complexity
//! claims; the more convenient phases of a
//! [`Session`](crate::session::Session) charge rounds with the same
//! accounting but let algorithms hand over arbitrarily long logical
//! messages.

use crate::metrics::{Metrics, RunReport};
use crate::model::{CliqueConfig, SimError};
use crate::node::{validate_outbox, Inbox, NodeAlgorithm, NodeCtx, NodeId, Outbox};
use crate::transport::Transport;

/// Synchronous round-by-round executor for a homogeneous set of players.
///
/// # Examples
///
/// ```
/// use clique_sim::prelude::*;
///
/// /// Every node broadcasts its input bit; afterwards every node knows the OR.
/// struct OrNode {
///     input: bool,
///     result: Option<bool>,
/// }
///
/// impl NodeAlgorithm for OrNode {
///     fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &Inbox, outbox: &mut Outbox) {
///         if ctx.round == 0 {
///             outbox.broadcast(BitString::from_bits(self.input as u64, 1));
///         } else {
///             let mut any = self.input;
///             for (_, msg) in inbox.iter() {
///                 any |= msg.bit(0);
///             }
///             self.result = Some(any);
///         }
///     }
///     fn halted(&self) -> bool {
///         self.result.is_some()
///     }
/// }
///
/// # fn main() -> Result<(), clique_sim::model::SimError> {
/// let cfg = CliqueConfig::broadcast(4, 1);
/// let nodes = vec![false, true, false, false]
///     .into_iter()
///     .map(|input| OrNode { input, result: None })
///     .collect();
/// let mut engine = RoundEngine::new(cfg, nodes);
/// let report = engine.run(10)?;
/// assert!(report.completed);
/// assert!(engine.nodes().iter().all(|n| n.result == Some(true)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RoundEngine<A> {
    config: CliqueConfig,
    nodes: Vec<A>,
    metrics: Metrics,
    round: u64,
    started: bool,
    /// Messages delivered at the start of the next round, indexed by receiver.
    next_inboxes: Vec<Inbox>,
    /// Double buffer for `next_inboxes`: last round's (consumed) inboxes,
    /// cleared and reused instead of reallocating `n` inboxes per round.
    prev_inboxes: Vec<Inbox>,
    /// Per-node outbox scratch, cleared and reused every round.
    outboxes: Vec<Outbox>,
    /// Scratch for [`validate_outbox`]'s duplicate-destination check.
    seen: Vec<bool>,
    /// The message-delivery backend; accounting happens before delivery,
    /// so the ledger is identical under every backend.
    transport: Box<dyn Transport>,
}

impl<A: NodeAlgorithm> RoundEngine<A> {
    /// Creates an engine over `nodes`, one per player.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != config.n`.
    pub fn new(config: CliqueConfig, nodes: Vec<A>) -> Self {
        assert_eq!(
            nodes.len(),
            config.n,
            "expected {} node algorithms, got {}",
            config.n,
            nodes.len()
        );
        let n = config.n;
        Self {
            config,
            nodes,
            metrics: Metrics::new(),
            round: 0,
            started: false,
            next_inboxes: vec![Inbox::empty(n); n],
            prev_inboxes: vec![Inbox::empty(n); n],
            outboxes: vec![Outbox::new(); n],
            seen: Vec::with_capacity(n),
            transport: crate::transport::default_transport(),
        }
    }

    /// Replaces the message-delivery backend (e.g. with a
    /// [`FaultyTransport`](crate::transport::FaultyTransport)). Transports
    /// never change transcripts (see [`transport`](crate::transport)).
    pub fn set_transport(&mut self, transport: Box<dyn Transport>) {
        self.transport = transport;
    }

    /// The message-delivery backend in use.
    pub fn transport(&self) -> &dyn Transport {
        self.transport.as_ref()
    }

    /// The model configuration.
    pub fn config(&self) -> &CliqueConfig {
        &self.config
    }

    /// Read access to the node algorithms (e.g. to extract outputs).
    pub fn nodes(&self) -> &[A] {
        &self.nodes
    }

    /// Mutable access to the node algorithms.
    pub fn nodes_mut(&mut self) -> &mut [A] {
        &mut self.nodes
    }

    /// Metrics accumulated so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Consumes the engine, returning the node algorithms.
    pub fn into_nodes(self) -> Vec<A> {
        self.nodes
    }

    /// Executes a single round.
    ///
    /// Returns `true` if every node reports [`NodeAlgorithm::halted`] after
    /// the round and no messages remain in flight.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if any node violates the model rules
    /// (bandwidth, duplicate messages, invalid destinations, …). The engine
    /// state is not rolled back on error.
    pub fn step(&mut self) -> Result<bool, SimError> {
        let n = self.config.n;
        if !self.started {
            self.started = true;
            for (i, node) in self.nodes.iter_mut().enumerate() {
                let ctx = NodeCtx {
                    id: NodeId::new(i),
                    round: 0,
                    config: &self.config,
                };
                node.begin(&ctx);
            }
        }

        // Double-buffer swap: `prev_inboxes` now holds this round's
        // deliveries; the buffer consumed last round is cleared in place and
        // becomes the delivery target, so no inbox vector is reallocated —
        // and a silent round touches nothing at all.
        std::mem::swap(&mut self.next_inboxes, &mut self.prev_inboxes);
        for inbox in &mut self.next_inboxes {
            inbox.clear();
        }

        // Collect outboxes into the per-node scratch. Each player's round
        // reads only its own inbox.
        for (i, (node, outbox)) in self.nodes.iter_mut().zip(&mut self.outboxes).enumerate() {
            let ctx = NodeCtx {
                id: NodeId::new(i),
                round: self.round,
                config: &self.config,
            };
            outbox.clear();
            node.round(&ctx, &self.prev_inboxes[i], outbox);
        }

        // Validate, account and deliver, strictly in ascending sender
        // order. The ledger is computed from the outbox *before* the
        // transport sees it, so no delivery backend can change what the
        // round charges.
        let mut bits = 0u64;
        let mut messages = 0u64;
        let mut max_link = 0u64;
        for i in 0..n {
            let sender = NodeId::new(i);
            let outbox = &mut self.outboxes[i];
            let sent = validate_outbox(sender, outbox, &self.config, true, &mut self.seen)?;
            bits += sent;
            for (_, msg) in &outbox.unicasts {
                max_link = max_link.max(msg.len() as u64);
                messages += 1;
            }
            if let Some(msg) = &outbox.broadcast {
                max_link = max_link.max(msg.len() as u64);
                messages += n as u64 - 1;
            }
            self.transport
                .deliver_round(&self.config, sender, outbox, &mut self.next_inboxes)
                .map_err(|fault| fault.at_round(self.round))?;
        }

        self.metrics.record_round(bits, messages, max_link);
        self.round += 1;

        Ok(self.nodes.iter().all(NodeAlgorithm::halted) && self.in_flight_empty())
    }

    /// Runs rounds until every node halts or `max_rounds` is reached.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::RoundLimitExceeded`] if the protocol does not
    /// terminate in time, or any model violation produced by [`Self::step`].
    pub fn run(&mut self, max_rounds: u64) -> Result<RunReport, SimError> {
        if self.nodes.iter().all(NodeAlgorithm::halted) && self.in_flight_empty() {
            return Ok(RunReport {
                metrics: self.metrics.clone(),
                completed: true,
            });
        }
        for _ in 0..max_rounds {
            if self.step()? {
                return Ok(RunReport {
                    metrics: self.metrics.clone(),
                    completed: true,
                });
            }
        }
        Err(SimError::RoundLimitExceeded { limit: max_rounds })
    }

    fn in_flight_empty(&self) -> bool {
        self.next_inboxes.iter().all(Inbox::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitString;

    /// Node that broadcasts its 1-bit input in round 0 and computes the parity
    /// of all inputs in round 1.
    struct ParityNode {
        input: bool,
        result: Option<bool>,
    }

    impl NodeAlgorithm for ParityNode {
        fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &Inbox, outbox: &mut Outbox) {
            match ctx.round {
                0 => outbox.broadcast(BitString::from_bits(u64::from(self.input), 1)),
                _ => {
                    let mut parity = self.input;
                    for (_, msg) in inbox.iter() {
                        parity ^= msg.bit(0);
                    }
                    self.result = Some(parity);
                }
            }
        }

        fn halted(&self) -> bool {
            self.result.is_some()
        }
    }

    #[test]
    fn broadcast_parity_two_rounds() {
        let inputs = [true, false, true, true, false];
        let cfg = CliqueConfig::broadcast(inputs.len(), 1);
        let nodes = inputs
            .iter()
            .map(|&input| ParityNode {
                input,
                result: None,
            })
            .collect();
        let mut engine = RoundEngine::new(cfg, nodes);
        let report = engine.run(5).unwrap();
        assert!(report.completed);
        assert_eq!(report.rounds(), 2);
        let expected = inputs.iter().filter(|&&b| b).count() % 2 == 1;
        for node in engine.nodes() {
            assert_eq!(node.result, Some(expected));
        }
        assert!(report.total_bits() >= inputs.len() as u64 - 1);
    }

    /// Node that tries to send more than the bandwidth.
    struct Greedy;

    impl NodeAlgorithm for Greedy {
        fn round(&mut self, ctx: &NodeCtx<'_>, _inbox: &Inbox, outbox: &mut Outbox) {
            if ctx.id.index() == 0 {
                outbox.send(NodeId::new(1), BitString::from_bits(0xFF, 8));
            }
        }
    }

    #[test]
    fn bandwidth_violation_detected() {
        let cfg = CliqueConfig::unicast(3, 4);
        let mut engine = RoundEngine::new(cfg, vec![Greedy, Greedy, Greedy]);
        let err = engine.step().unwrap_err();
        assert!(matches!(err, SimError::BandwidthExceeded { .. }));
    }

    /// Node that never halts.
    struct Chatterbox;

    impl NodeAlgorithm for Chatterbox {
        fn round(&mut self, _ctx: &NodeCtx<'_>, _inbox: &Inbox, outbox: &mut Outbox) {
            outbox.broadcast(BitString::from_bits(1, 1));
        }
    }

    #[test]
    fn round_limit_enforced() {
        let cfg = CliqueConfig::broadcast(2, 1);
        let mut engine = RoundEngine::new(cfg, vec![Chatterbox, Chatterbox]);
        let err = engine.run(3).unwrap_err();
        assert_eq!(err, SimError::RoundLimitExceeded { limit: 3 });
        assert_eq!(engine.metrics().rounds, 3);
    }

    /// Relay along a path: node 0 forwards a token to node 1, which forwards
    /// it to node 2.
    struct Relay {
        token: Option<u64>,
        done: bool,
    }

    impl NodeAlgorithm for Relay {
        fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &Inbox, outbox: &mut Outbox) {
            let me = ctx.id.index();
            if me == 0 && ctx.round == 0 {
                outbox.send(NodeId::new(1), BitString::from_bits(self.token.unwrap(), 4));
                self.done = true;
                return;
            }
            if let Some(msg) = inbox.iter().next().map(|(_, m)| m.clone()) {
                let value = msg.reader().read_bits(4).unwrap();
                self.token = Some(value);
                if me + 1 < ctx.n() {
                    outbox.send(NodeId::new(me + 1), msg);
                }
                self.done = true;
            }
            if ctx.round >= 3 {
                self.done = true;
            }
        }

        fn halted(&self) -> bool {
            self.done
        }
    }

    #[test]
    fn token_relays_over_two_rounds() {
        let cfg = CliqueConfig::unicast(3, 4);
        let nodes = vec![
            Relay {
                token: Some(9),
                done: false,
            },
            Relay {
                token: None,
                done: false,
            },
            Relay {
                token: None,
                done: false,
            },
        ];
        let mut engine = RoundEngine::new(cfg, nodes);
        let report = engine.run(10).unwrap();
        assert!(report.completed);
        assert_eq!(engine.nodes()[2].token, Some(9));
    }

    /// Nodes that are halted from the very beginning.
    struct Idle;

    impl NodeAlgorithm for Idle {
        fn round(&mut self, _ctx: &NodeCtx<'_>, _inbox: &Inbox, _outbox: &mut Outbox) {}
        fn halted(&self) -> bool {
            true
        }
    }

    #[test]
    fn already_halted_protocol_uses_zero_rounds() {
        let cfg = CliqueConfig::unicast(2, 1);
        let mut engine = RoundEngine::new(cfg, vec![Idle, Idle]);
        let report = engine.run(5).unwrap();
        assert!(report.completed);
        assert_eq!(report.rounds(), 0);
    }

    #[test]
    #[should_panic(expected = "expected 3 node algorithms")]
    fn node_count_mismatch_panics() {
        let cfg = CliqueConfig::broadcast(3, 1);
        let _ = RoundEngine::new(cfg, vec![Chatterbox, Chatterbox]);
    }
}
