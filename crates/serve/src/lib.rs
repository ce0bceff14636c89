//! # clique-serve — a sharded, caching simulation job server
//!
//! The serving layer over the [`clique_core`] protocol registry. A
//! [`JobSpec`] names one simulation job — registry protocol id, generated
//! input label, bandwidth, seed — and encodes to canonical JSON
//! ([`JobSpec::canonical_json`]: fixed key order, no whitespace). That
//! encoding is the key of a bounded LRU [`TranscriptCache`], and the whole
//! design leans on one invariant inherited from the simulator stack:
//!
//! > **A job spec fully determines its transcript.** Same spec ⇒
//! > byte-identical output digest and communication ledger, whichever
//! > worker of the fleet runs it.
//!
//! So a cache hit *is* the answer — [`ServerConfig::verify_hits`] lets the
//! server prove it per hit by recomputing and byte-comparing.
//!
//! [`Server::submit_jobs`] is the one submission path: it returns one
//! [`JobOutcome`] per spec and shards uncached jobs across a worker fleet
//! by an FNV-1a hash of the key, running them in waves on
//! [`clique_core::sim::par`], each worker draining up to
//! [`ServerConfig::batch_size`] jobs of its shard per spawn. Panics are
//! isolated per job, transient failures (transport faults injected by a
//! [`ServerConfig::chaos`] plan, panics) retry in the next wave up to
//! [`ServerConfig::max_retries`] times, and retry-exhausted keys are
//! quarantined — every failure is a typed [`ServeError`], never a silently
//! wrong record.
//!
//! # Examples
//!
//! ```
//! use clique_serve::{JobSpec, Server, ServerConfig};
//!
//! # fn main() -> Result<(), clique_serve::ServeError> {
//! let mut server = Server::new(ServerConfig::default());
//! let specs = [JobSpec::weighted("mst", "weighted_random_tree", 12, 8, 7, 0x5EED)];
//!
//! let cold = server.submit_jobs(&specs).remove(0).result?;
//! let warm = server.submit_jobs(&specs).remove(0).result?;
//! assert!(!cold.cached && warm.cached);
//! assert_eq!(cold.record, warm.record);
//! assert_eq!(cold.record, Server::run_direct(&specs[0])?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The serving layer must degrade through typed errors, never assert its way
// down: no unwrap/expect outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod server;
pub mod spec;

pub use cache::TranscriptCache;
pub use server::{
    encode_record, fnv64, JobOutcome, JobResult, ServeError, Server, ServerConfig, ServerStats,
};
pub use spec::JobSpec;
