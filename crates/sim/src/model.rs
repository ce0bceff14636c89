//! Model definitions: how many players there are, how they may use their
//! links, and how many bits fit on a link per round.
//!
//! The simulator runs the paper's two models, both on the complete network
//! (every ordered pair of players is connected):
//!
//! * `CLIQUE-UCAST(n, b)` — [`CommMode::Unicast`]: each player may send a
//!   *different* `b`-bit message on each of its links per round.
//! * `CLIQUE-BCAST(n, b)` — [`CommMode::Broadcast`]: each player writes a
//!   single `b`-bit message per round, seen by everyone (the
//!   shared-blackboard / number-in-hand multiparty model).
//!
//! The paper's third model, `CONGEST-UCAST(n, b)`, only receives
//! Theorem 19's transferred lower bound, which is computed from a formula
//! and never simulated.

use std::fmt;

use crate::node::NodeId;

/// How a player's outgoing bandwidth may be used within one round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CommMode {
    /// A different `b`-bit message may be sent on every outgoing link.
    Unicast,
    /// A single `b`-bit message is written per round and delivered to every
    /// other player (the shared blackboard).
    Broadcast,
}

impl fmt::Display for CommMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommMode::Unicast => write!(f, "unicast"),
            CommMode::Broadcast => write!(f, "broadcast"),
        }
    }
}

/// Full configuration of a simulated model instance.
///
/// # Examples
///
/// ```
/// use clique_sim::model::{CliqueConfig, CommMode};
///
/// // CLIQUE-BCAST(64, log n) as used throughout Section 3 of the paper.
/// let cfg = CliqueConfig::broadcast(64, 6);
/// assert_eq!(cfg.n, 64);
/// assert_eq!(cfg.bandwidth, 6);
/// assert_eq!(cfg.mode, CommMode::Broadcast);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliqueConfig {
    /// Number of players.
    pub n: usize,
    /// Link bandwidth `b` in bits per round.
    pub bandwidth: usize,
    /// Unicast or broadcast use of the bandwidth.
    pub mode: CommMode,
}

impl CliqueConfig {
    /// Starts a [`CliqueConfigBuilder`] — the composable way to describe a
    /// model instance, used by the experiment harness, the examples and the
    /// tests. The algorithm crates construct theirs with [`Self::unicast`]
    /// and [`Self::broadcast`].
    ///
    /// Defaults: unicast mode, `⌈log₂ n⌉` bandwidth.
    ///
    /// # Examples
    ///
    /// ```
    /// use clique_sim::model::{CliqueConfig, CommMode};
    ///
    /// let cfg = CliqueConfig::builder().nodes(64).bandwidth(6).broadcast().build();
    /// assert_eq!(cfg, CliqueConfig::broadcast(64, 6));
    ///
    /// // Omitting the bandwidth picks the O(log n) regime of [8, 28].
    /// let cfg = CliqueConfig::builder().nodes(1024).unicast().build();
    /// assert_eq!(cfg.bandwidth, 10);
    /// ```
    pub fn builder() -> CliqueConfigBuilder {
        CliqueConfigBuilder::default()
    }

    /// `CLIQUE-UCAST(n, b)`: unicast congested clique.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `bandwidth == 0`.
    pub fn unicast(n: usize, bandwidth: usize) -> Self {
        Self::validated(n, bandwidth, CommMode::Unicast)
    }

    /// `CLIQUE-BCAST(n, b)`: broadcast congested clique (shared blackboard).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `bandwidth == 0`.
    pub fn broadcast(n: usize, bandwidth: usize) -> Self {
        Self::validated(n, bandwidth, CommMode::Broadcast)
    }

    /// `CLIQUE-UCAST(n, O(log n))`: the bandwidth regime of [8, 28].
    pub fn unicast_logn(n: usize) -> Self {
        Self::unicast(n, log2_ceil(n).max(1))
    }

    /// `CLIQUE-BCAST(n, O(log n))`.
    pub fn broadcast_logn(n: usize) -> Self {
        Self::broadcast(n, log2_ceil(n).max(1))
    }

    fn validated(n: usize, bandwidth: usize, mode: CommMode) -> Self {
        assert!(n > 0, "a model needs at least one player");
        assert!(bandwidth > 0, "bandwidth must be at least one bit");
        Self { n, bandwidth, mode }
    }

    /// Total number of bits that may cross the network in one round
    /// (`Θ(b·n²)` for unicast, `Θ(b·n)` for broadcast).
    pub fn bits_per_round(&self) -> u64 {
        match self.mode {
            CommMode::Unicast => (self.n as u64) * (self.n as u64 - 1) * self.bandwidth as u64,
            CommMode::Broadcast => (self.n as u64) * self.bandwidth as u64,
        }
    }
}

/// Builder for [`CliqueConfig`], obtained from [`CliqueConfig::builder`].
///
/// The builder doubles as a *prototype* for parameter sweeps: fix the mode
/// once, then [`CliqueConfigBuilder::grid`] stamps out one config per
/// `(n, b)` point.
#[derive(Clone, Debug)]
pub struct CliqueConfigBuilder {
    n: Option<usize>,
    bandwidth: Option<usize>,
    mode: CommMode,
}

impl Default for CliqueConfigBuilder {
    fn default() -> Self {
        Self {
            n: None,
            bandwidth: None,
            mode: CommMode::Unicast,
        }
    }
}

impl CliqueConfigBuilder {
    /// Sets the number of players.
    #[must_use]
    pub fn nodes(mut self, n: usize) -> Self {
        self.n = Some(n);
        self
    }

    /// Sets the link bandwidth in bits per round.
    #[must_use]
    pub fn bandwidth(mut self, bandwidth: usize) -> Self {
        self.bandwidth = Some(bandwidth);
        self
    }

    /// Uses the `O(log n)` bandwidth regime (`⌈log₂ n⌉`, at least 1 bit).
    /// This is also the default when no bandwidth is set.
    #[must_use]
    pub fn log_bandwidth(mut self) -> Self {
        self.bandwidth = None;
        self
    }

    /// Sets the communication mode.
    #[must_use]
    pub fn mode(mut self, mode: CommMode) -> Self {
        self.mode = mode;
        self
    }

    /// Shorthand for `mode(CommMode::Unicast)`.
    #[must_use]
    pub fn unicast(self) -> Self {
        self.mode(CommMode::Unicast)
    }

    /// Shorthand for `mode(CommMode::Broadcast)`.
    #[must_use]
    pub fn broadcast(self) -> Self {
        self.mode(CommMode::Broadcast)
    }

    /// Finalises the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` was never set, or if `n == 0` or `bandwidth == 0`.
    pub fn build(self) -> CliqueConfig {
        let n = self.n.expect("CliqueConfigBuilder: nodes(n) must be set");
        let bandwidth = self.bandwidth.unwrap_or_else(|| log2_ceil(n).max(1));
        CliqueConfig::validated(n, bandwidth, self.mode)
    }

    /// Stamps out one config per `(n, b)` grid point, using this builder as
    /// the prototype for everything else. An empty `bandwidths` slice uses
    /// the builder's own bandwidth choice (explicit or `⌈log₂ n⌉`) for
    /// every `n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use clique_sim::model::CliqueConfig;
    ///
    /// let grid = CliqueConfig::builder().broadcast().grid(&[16, 32], &[1, 4]);
    /// assert_eq!(grid.len(), 4);
    /// assert_eq!(grid[3], CliqueConfig::broadcast(32, 4));
    ///
    /// let logs = CliqueConfig::builder().unicast().grid(&[256], &[]);
    /// assert_eq!(logs[0].bandwidth, 8);
    /// ```
    pub fn grid(&self, nodes: &[usize], bandwidths: &[usize]) -> Vec<CliqueConfig> {
        let mut configs = Vec::new();
        for &n in nodes {
            if bandwidths.is_empty() {
                configs.push(self.clone().nodes(n).build());
            } else {
                for &b in bandwidths {
                    configs.push(self.clone().nodes(n).bandwidth(b).build());
                }
            }
        }
        configs
    }
}

impl fmt::Display for CliqueConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mode = match self.mode {
            CommMode::Unicast => "UCAST",
            CommMode::Broadcast => "BCAST",
        };
        write!(f, "CLIQUE-{mode}(n={}, b={})", self.n, self.bandwidth)
    }
}

/// Errors produced by sessions and the round engine.
///
/// Variant fields name the offending node(s) and, where relevant, the
/// message size and the configured bandwidth.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum SimError {
    /// A unicast message was submitted in a broadcast-only model.
    UnicastInBroadcastModel { sender: NodeId },
    /// A message referenced a node id that does not exist.
    InvalidNode { node: NodeId, n: usize },
    /// A node attempted to send to itself.
    SelfMessage { node: NodeId },
    /// Two messages were sent on the same link in the same round.
    DuplicateMessage { sender: NodeId, receiver: NodeId },
    /// A message exceeded the per-round link bandwidth (round engine only;
    /// session phases charge long messages by their chunk count).
    BandwidthExceeded {
        sender: NodeId,
        receiver: Option<NodeId>,
        bits: usize,
        bandwidth: usize,
    },
    /// The protocol did not terminate within the allowed number of rounds.
    RoundLimitExceeded { limit: u64 },
    /// A transport backend lost or damaged a delivery — an injected fault
    /// detected through the integrity framing (see
    /// [`transport::FaultyTransport`](crate::transport::FaultyTransport)).
    /// The run aborts instead of computing from a damaged transcript.
    /// `round` counts ledger rounds charged before the fault (in a
    /// [`Session`](crate::session::Session): before the faulted phase);
    /// `receiver` is `None` for a broadcast.
    TransportFault {
        round: u64,
        sender: NodeId,
        receiver: Option<NodeId>,
        kind: crate::transport::FaultKind,
    },
    /// A delivered payload could not be parsed by the protocol reading it
    /// (truncated, missing, or carrying an out-of-range field). `sender`
    /// is the node that sent it and `phase` the label of the phase that
    /// delivered it. Protocols return this instead of trusting wire data.
    MalformedPayload { sender: NodeId, phase: String },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnicastInBroadcastModel { sender } => {
                write!(f, "node {sender} attempted unicast in a broadcast model")
            }
            SimError::InvalidNode { node, n } => {
                write!(f, "node id {node} out of range for n = {n}")
            }
            SimError::SelfMessage { node } => write!(f, "node {node} attempted to message itself"),
            SimError::DuplicateMessage { sender, receiver } => {
                write!(f, "duplicate message from {sender} to {receiver} in one round")
            }
            SimError::BandwidthExceeded {
                sender,
                receiver,
                bits,
                bandwidth,
            } => match receiver {
                Some(receiver) => write!(
                    f,
                    "message of {bits} bits from {sender} to {receiver} exceeds bandwidth {bandwidth}"
                ),
                None => write!(
                    f,
                    "broadcast of {bits} bits from {sender} exceeds bandwidth {bandwidth}"
                ),
            },
            SimError::RoundLimitExceeded { limit } => {
                write!(f, "protocol did not terminate within {limit} rounds")
            }
            SimError::TransportFault {
                round,
                sender,
                receiver,
                kind,
            } => match receiver {
                Some(receiver) => write!(
                    f,
                    "transport fault ({kind}) on message from {sender} to {receiver} after {round} rounds"
                ),
                None => write!(
                    f,
                    "transport fault ({kind}) on broadcast from {sender} after {round} rounds"
                ),
            },
            SimError::MalformedPayload { sender, phase } => {
                write!(f, "malformed payload from {sender} in phase {phase:?}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// `ceil(log2(x))` for `x >= 1`, and 0 for `x == 0` or `x == 1`.
pub fn log2_ceil(x: usize) -> usize {
    if x <= 1 {
        0
    } else {
        (usize::BITS - (x - 1).leading_zeros()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructors() {
        let u = CliqueConfig::unicast(8, 3);
        assert_eq!(u.mode, CommMode::Unicast);
        assert_eq!(u.bits_per_round(), 8 * 7 * 3);
        let b = CliqueConfig::broadcast(8, 3);
        assert_eq!(b.mode, CommMode::Broadcast);
        assert_eq!(b.bits_per_round(), 8 * 3);
        assert_eq!(CliqueConfig::unicast_logn(1024).bandwidth, 10);
        assert_eq!(CliqueConfig::broadcast_logn(2).bandwidth, 1);
    }

    #[test]
    fn builder_matches_constructors() {
        assert_eq!(
            CliqueConfig::builder()
                .nodes(8)
                .bandwidth(3)
                .unicast()
                .build(),
            CliqueConfig::unicast(8, 3)
        );
        assert_eq!(
            CliqueConfig::builder()
                .nodes(8)
                .bandwidth(3)
                .broadcast()
                .build(),
            CliqueConfig::broadcast(8, 3)
        );
        assert_eq!(
            CliqueConfig::builder().nodes(1024).log_bandwidth().build(),
            CliqueConfig::unicast_logn(1024)
        );
    }

    #[test]
    fn builder_grid_stamps_configs() {
        let grid = CliqueConfig::builder()
            .broadcast()
            .grid(&[4, 8], &[1, 2, 3]);
        assert_eq!(grid.len(), 6);
        assert!(grid.iter().all(|c| c.mode == CommMode::Broadcast));
        assert_eq!(grid[5], CliqueConfig::broadcast(8, 3));
        // Empty bandwidth grid: one config per n at log bandwidth.
        let logs = CliqueConfig::builder().grid(&[2, 16], &[]);
        assert_eq!(logs[0].bandwidth, 1);
        assert_eq!(logs[1].bandwidth, 4);
    }

    #[test]
    #[should_panic(expected = "nodes(n) must be set")]
    fn builder_without_nodes_panics() {
        let _ = CliqueConfig::builder().bandwidth(2).build();
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        CliqueConfig::unicast(4, 0);
    }

    #[test]
    #[should_panic(expected = "at least one player")]
    fn zero_players_rejected() {
        CliqueConfig::broadcast(0, 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            CliqueConfig::unicast(16, 4).to_string(),
            "CLIQUE-UCAST(n=16, b=4)"
        );
        assert_eq!(
            CliqueConfig::broadcast(16, 4).to_string(),
            "CLIQUE-BCAST(n=16, b=4)"
        );
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(0), 0);
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(8), 3);
        assert_eq!(log2_ceil(9), 4);
    }

    #[test]
    fn sim_error_display() {
        let e = SimError::BandwidthExceeded {
            sender: NodeId::new(1),
            receiver: Some(NodeId::new(2)),
            bits: 10,
            bandwidth: 4,
        };
        assert!(e.to_string().contains("exceeds bandwidth"));
        let e2 = SimError::RoundLimitExceeded { limit: 7 };
        assert!(e2.to_string().contains("7 rounds"));
        let e3 = SimError::MalformedPayload {
            sender: NodeId::new(3),
            phase: "route/direct".into(),
        };
        assert!(e3.to_string().contains("malformed payload"));
        assert!(e3.to_string().contains("route/direct"));
    }
}
