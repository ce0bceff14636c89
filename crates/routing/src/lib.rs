//! # clique-routing — routing substrates for the unicast congested clique
//!
//! Theorem 2 of Drucker, Kuhn & Oshman (PODC 2014) routes *balanced* demands
//! (every player sends and receives at most `O(n·s)` bits) in `O(1)` rounds
//! by invoking Lenzen's deterministic routing theorem \[28\] as a black box.
//! This crate provides that black box for the simulation:
//!
//! * [`demand::RoutingDemand`] — a demand as a list of packets;
//! * [`router::DirectRouter`] — the naive baseline (one hop, possibly
//!   `Θ(n)` rounds for concentrated demands);
//! * [`router::ValiantRouter`] — two-phase routing via random intermediaries;
//! * [`router::BalancedRouter`] — the workspace's stand-in for Lenzen's
//!   algorithm (see DESIGN.md, substitution table): the cheaper of direct
//!   delivery and a deterministic two-phase schedule with a greedily
//!   balanced intermediary assignment, priced exactly from each packet's
//!   endpoints and length, so it never takes more rounds than direct
//!   delivery;
//! * [`router::greedy_intermediaries`] — the balanced router's greedy
//!   intermediary scan over `(src, dst, bits)` hops, which Theorem 2's
//!   circuit simulation also runs on its one-bit wires.
//!
//! All routers charge their communication to the caller's
//! [`clique_sim::Session`], so experiment E2 can compare their measured
//! round counts directly; [`router::RouteProtocol`] adapts any router into a
//! [`clique_sim::Protocol`] runnable through a [`clique_sim::Runner`]. A
//! route consumes its demand and moves each payload from sender to
//! receiver; `RouteProtocol` borrows its demand and routes a clone per
//! run. The routers send bare payloads, with no length fields or relay
//! tags: receivers split each link by the demand's shape, which is honest
//! where the shape is public or a demand has at most one packet per
//! ordered pair (see the [`router`] module).
//!
//! # Examples
//!
//! ```
//! use clique_routing::demand::RoutingDemand;
//! use clique_routing::router::{BalancedRouter, DirectRouter, RouteProtocol};
//! use clique_sim::prelude::*;
//!
//! # fn main() -> Result<(), SimError> {
//! // Node 0 wants to send 8 packets of 8 bits to node 1 (a concentrated,
//! // but balanced, demand).
//! let mut demand = RoutingDemand::new(8);
//! for i in 0..8u64 {
//!     demand.send(0, 1, BitString::from_bits(i, 8));
//! }
//!
//! let runner = Runner::new(CliqueConfig::unicast(8, 8));
//! let direct = runner.execute(&mut RouteProtocol::new(DirectRouter, &demand))?;
//! let balanced = runner.execute(&mut RouteProtocol::new(BalancedRouter, &demand))?;
//!
//! // The balanced two-phase schedule spreads the load over all links.
//! assert!(balanced.rounds() < direct.rounds());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod demand;
pub mod router;

pub use demand::{Packet, RoutingDemand};
pub use router::{
    greedy_intermediaries, BalancedRouter, Delivered, DirectRouter, RouteProtocol, Router,
    ValiantRouter,
};
