//! # clique-sim — a bit-exact simulator for the congested clique
//!
//! This crate implements the two congested-clique models defined in
//! Drucker, Kuhn & Oshman, *On the Power of the Congested Clique Model*
//! (PODC 2014), both on the complete network of `n` players:
//!
//! * **`CLIQUE-UCAST(n, b)`** — each player may send a *different* `b`-bit
//!   message on each link per round.
//! * **`CLIQUE-BCAST(n, b)`** — each player writes a single `b`-bit message
//!   per round that every other player sees (the multi-party shared
//!   blackboard with number-in-hand inputs).
//!
//! The paper's `CONGEST-UCAST(n, b)` only receives a transferred lower
//! bound (Theorem 19), computed from a formula; nothing runs on it.
//!
//! Protocols are written against the [`protocol::Protocol`] /
//! [`session::Session`] API: a protocol is model-independent, a
//! [`model::CliqueConfig`] picks the model
//! ([`CliqueConfig::unicast`]`(n, b)` or [`CliqueConfig::broadcast`]`(n, b)`),
//! and [`protocol::Runner::execute`] pairs the two and returns an
//! [`outcome::RunOutcome`] with the full round/bit ledger.
//!
//! A [`Session`] owns the round/bit ledger and is the one path that moves
//! and charges communication. Messages move in bulk-synchronous phases
//! carrying arbitrarily long logical messages
//! ([`session::Session::exchange`] over [`phase::PhaseOutbox`]es), each
//! charged `ceil(max link load / b)` rounds: the accounting is identical to
//! chunking every long message into `b`-bit pieces and sending one piece
//! per link per round. Analytically accounted black boxes are charged with
//! [`session::Session::charge_rounds`].
//!
//! A protocol run is serial: a session validates senders and delivers in
//! ascending [`node::NodeId`] order on the calling thread.
//! The [`linalg`] kernels are serial too. [`par::map`] runs independent
//! jobs side by side (the `clique-serve` worker fleet's waves); a job's
//! transcript never depends on which worker ran it.
//!
//! Message delivery goes through a [`transport::Transport`]: a phase's
//! charge is computed from its validated outboxes before any delivery, so
//! *the transport never changes transcripts*. The zero-copy
//! [`transport::InMemoryTransport`] is the default; a session can carry
//! another backend ([`session::Session::set_transport`]). Delivery can also
//! *fail*, typed: [`transport::FaultyTransport`] injects a seeded
//! [`transport::FaultPlan`] of drops, bit flips, duplications and
//! truncations, detected through per-message integrity framing and
//! surfaced as [`model::SimError::TransportFault`] — a faulted run aborts
//! cleanly, it is never silently wrong.
//!
//! # Examples
//!
//! ```
//! use clique_sim::prelude::*;
//!
//! # fn main() -> Result<(), clique_sim::model::SimError> {
//! // The trivial algorithm of Section 3.1: in CLIQUE-BCAST(n, b) every node
//! // broadcasts its whole neighbourhood (n bits), taking ceil(n / b) rounds.
//! let n = 16;
//! let config = CliqueConfig::broadcast(n, 4);
//! let outcome = Runner::new(config).execute(&mut |session: &mut Session| {
//!     let rows: Vec<BitString> = (0..n)
//!         .map(|i| BitString::from_bools(&vec![i % 2 == 0; n]))
//!         .collect();
//!     session.broadcast_all("send adjacency rows", &rows)?;
//!     Ok(())
//! })?;
//! assert_eq!(outcome.rounds(), (n as u64).div_ceil(4));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod lane;
pub mod linalg;
pub mod metrics;
pub mod model;
pub mod node;
pub mod outcome;
pub mod par;
pub mod phase;
pub mod protocol;
pub mod session;
pub mod transport;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use crate::bits::{bits_for_universe, BitReader, BitString};
    pub use crate::lane::LANE_BITS;
    pub use crate::linalg::{BitMatrix, IntMatrix};
    pub use crate::metrics::Metrics;
    pub use crate::model::{CliqueConfig, CommMode, SimError};
    pub use crate::node::NodeId;
    pub use crate::outcome::RunOutcome;
    pub use crate::phase::{PhaseInbox, PhaseOutbox};
    pub use crate::protocol::{Protocol, Runner};
    pub use crate::session::Session;
    pub use crate::transport::{
        FaultKind, FaultPlan, FaultyTransport, InMemoryTransport, Transport,
    };
}

pub use bits::BitString;
pub use lane::DefaultLane;
pub use metrics::Metrics;
pub use model::{CliqueConfig, SimError};
pub use node::NodeId;
pub use outcome::RunOutcome;
pub use protocol::{Protocol, Runner};
pub use session::Session;
