//! Model definitions: how many players there are, how they may use their
//! links, and how many bits fit on a link per round.
//!
//! The simulator runs the paper's two models, both on the complete network
//! (every ordered pair of players is connected), and names each by one
//! constructor:
//!
//! * `CLIQUE-UCAST(n, b)` — [`CliqueConfig::unicast`]
//!   ([`CommMode::Unicast`]): each player may send a *different* `b`-bit
//!   message on each of its links per round.
//! * `CLIQUE-BCAST(n, b)` — [`CliqueConfig::broadcast`]
//!   ([`CommMode::Broadcast`]): each player writes a single `b`-bit message
//!   per round, seen by everyone (the shared-blackboard / number-in-hand
//!   multiparty model).
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

/// Full configuration of a simulated model instance, built by
/// [`CliqueConfig::unicast`] or [`CliqueConfig::broadcast`].
///
/// # Examples
///
/// ```
/// use clique_sim::model::{CliqueConfig, CommMode};
///
/// // CLIQUE-BCAST(64, log n) as used throughout Section 3 of the paper.
/// let cfg = CliqueConfig::broadcast(64, 6);
/// assert_eq!(cfg.bandwidth, 6);
/// assert_eq!(cfg.mode, CommMode::Broadcast);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliqueConfig {
    /// Number of players.
    pub(crate) n: usize,
    /// Link bandwidth `b` in bits per round.
    pub bandwidth: usize,
    /// Unicast or broadcast use of the bandwidth.
    pub mode: CommMode,
}

impl CliqueConfig {
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

    fn validated(n: usize, bandwidth: usize, mode: CommMode) -> Self {
        assert!(n > 0, "a model needs at least one player");
        assert!(bandwidth > 0, "bandwidth must be at least one bit");
        Self { n, bandwidth, mode }
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

/// Errors a [`Session`](crate::session::Session) or a protocol returns.
///
/// Variant fields name the offending node and, where relevant, the model
/// size, the faulted round or the phase that delivered a bad payload.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum SimError {
    /// A unicast message was submitted in a broadcast-only model.
    UnicastInBroadcastModel { sender: NodeId },
    /// A message referenced a node id that does not exist.
    InvalidNode { node: NodeId, n: usize },
    /// A node attempted to send to itself.
    SelfMessage { node: NodeId },
    /// A transport backend lost or damaged a delivery — an injected fault
    /// detected through the integrity framing (see
    /// [`transport::FaultyTransport`](crate::transport::FaultyTransport)).
    /// The run aborts instead of computing from a damaged transcript.
    /// `round` counts the ledger rounds charged before the faulted phase,
    /// which never reaches the ledger; `receiver` is `None` for a broadcast.
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
    /// A protocol phase ended without the progress its analysis promises,
    /// and the protocol has no escalation left to try. `phase` names the
    /// phase. A run returns this instead of repeating the phase forever.
    Stalled { phase: String },
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
            SimError::Stalled { phase } => {
                write!(f, "phase {phase:?} stalled with no escalation left")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructors() {
        let u = CliqueConfig::unicast(8, 3);
        assert_eq!((u.n, u.bandwidth, u.mode), (8, 3, CommMode::Unicast));
        let b = CliqueConfig::broadcast(8, 3);
        assert_eq!((b.n, b.bandwidth, b.mode), (8, 3, CommMode::Broadcast));
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
    fn sim_error_display() {
        let e = SimError::InvalidNode {
            node: NodeId::new(9),
            n: 4,
        };
        assert!(e.to_string().contains("out of range for n = 4"));
        let e2 = SimError::SelfMessage {
            node: NodeId::new(2),
        };
        assert!(e2.to_string().contains("v2 attempted to message itself"));
        let e3 = SimError::MalformedPayload {
            sender: NodeId::new(3),
            phase: "route/direct".into(),
        };
        assert!(e3.to_string().contains("malformed payload"));
        assert!(e3.to_string().contains("route/direct"));
    }
}
