//! The `Protocol` abstraction and the `Runner` that executes protocols on
//! any model instance.
//!
//! The paper's results all share one shape — *run protocol `P` on model
//! `CLIQUE-{BCAST,UCAST}(n, b)` and count rounds* — so the execution API
//! mirrors it: a [`Protocol`] is the algorithm (model-independent), a
//! [`CliqueConfig`] is the model, and [`Runner::execute`] pairs the two,
//! returning the protocol's output together with the full communication
//! ledger as a [`RunOutcome`]. A model is named by
//! [`CliqueConfig::unicast`] or [`CliqueConfig::broadcast`]; measuring a
//! protocol across several models is a loop over `execute`.
//!
//! Closures `FnMut(&mut Session) -> Result<T, SimError>` implement
//! [`Protocol`] directly, so one-off measurements need no struct.

use crate::model::{CliqueConfig, SimError};
use crate::outcome::RunOutcome;
use crate::session::Session;
use crate::transport::Transport;

/// A distributed algorithm that can run on any model instance.
///
/// Implementations read their input from `self`, drive all communication
/// through the [`Session`] (phases, charged black boxes, sub-protocols),
/// and return their protocol-specific output; the caller gets the round and
/// bit accounting from the session's ledger.
///
/// # Examples
///
/// ```
/// use clique_sim::prelude::*;
///
/// /// Every node broadcasts one bit; the output is the OR of all inputs.
/// struct BroadcastOr {
///     inputs: Vec<bool>,
/// }
///
/// impl Protocol for BroadcastOr {
///     type Output = bool;
///
///     fn run(&mut self, session: &mut Session) -> Result<bool, SimError> {
///         let msgs: Vec<BitString> = self
///             .inputs
///             .iter()
///             .map(|&b| BitString::from_bits(u64::from(b), 1))
///             .collect();
///         let inboxes = session.broadcast_all("inputs", &msgs)?;
///         Ok(self.inputs[0] || inboxes[0].broadcasts().any(|(_, m)| m.bit(0)))
///     }
/// }
///
/// # fn main() -> Result<(), SimError> {
/// let config = CliqueConfig::broadcast(4, 1);
/// let outcome = Runner::new(config).execute(&mut BroadcastOr {
///     inputs: vec![false, false, true, false],
/// })?;
/// assert!(*outcome);
/// assert_eq!(outcome.rounds(), 1);
/// # Ok(())
/// # }
/// ```
pub trait Protocol {
    /// The protocol-specific result (decision, reconstruction, …).
    type Output;

    /// Executes the protocol, charging all communication to `session`.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the protocol violates the model rules, a
    /// delivery faults, or a payload it reads is malformed.
    fn run(&mut self, session: &mut Session) -> Result<Self::Output, SimError>;
}

/// Closures are protocols: `|session| { … }` runs directly.
impl<T, F> Protocol for F
where
    F: FnMut(&mut Session) -> Result<T, SimError>,
{
    type Output = T;

    fn run(&mut self, session: &mut Session) -> Result<T, SimError> {
        self(session)
    }
}

/// Executes [`Protocol`]s on a fixed model instance.
///
/// One `Runner` can execute any number of protocols; each execution gets a
/// fresh [`Session`] (fresh ledger) over the runner's configuration.
#[derive(Clone, Debug)]
pub struct Runner {
    config: CliqueConfig,
    /// Transport prototype cloned into every session this runner opens;
    /// `None` uses the default
    /// [`InMemoryTransport`](crate::transport::InMemoryTransport).
    transport: Option<Box<dyn Transport>>,
}

impl Runner {
    /// Creates a runner for the given model instance.
    pub fn new(config: CliqueConfig) -> Self {
        Self {
            config,
            transport: None,
        }
    }

    /// Returns this runner with a transport prototype that every session it
    /// opens receives a clone of (`None` restores the default
    /// [`InMemoryTransport`](crate::transport::InMemoryTransport)).
    /// Transports never change protocol outputs or ledgers — see
    /// [`transport`](crate::transport).
    #[must_use]
    pub fn with_transport(mut self, transport: Option<Box<dyn Transport>>) -> Self {
        self.transport = transport;
        self
    }

    /// Executes `protocol` on a fresh session, returning its output paired
    /// with the run's metrics.
    ///
    /// # Errors
    ///
    /// Propagates the protocol's error; the failed run's ledger is dropped
    /// with the session. To measure the cost of a run *up to* a failure,
    /// execute the protocol via [`Session::run_nested`] on a session you
    /// keep — it absorbs the partial metrics even on error.
    pub fn execute<P: Protocol + ?Sized>(
        &self,
        protocol: &mut P,
    ) -> Result<RunOutcome<P::Output>, SimError> {
        let mut session = Session::new(self.config.clone());
        if let Some(transport) = &self.transport {
            session.set_transport(transport.clone_box());
        }
        let output = protocol.run(&mut session)?;
        Ok(RunOutcome::new(output, session.into_metrics()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_runs_closures_with_fresh_sessions() {
        let runner = Runner::new(CliqueConfig::broadcast(2, 1));
        for _ in 0..2 {
            let outcome = runner
                .execute(&mut |session: &mut Session| {
                    session.charge_rounds("work", 3);
                    Ok(7u8)
                })
                .unwrap();
            assert_eq!(*outcome, 7);
            // Each execution starts from a zeroed ledger.
            assert_eq!(outcome.rounds(), 3);
        }
    }

    #[test]
    fn errors_propagate_from_execute() {
        let runner = Runner::new(CliqueConfig::broadcast(2, 1));
        let failure = SimError::InvalidNode {
            node: crate::NodeId::new(5),
            n: 2,
        };
        let err = runner
            .execute(&mut |_session: &mut Session| -> Result<(), SimError> { Err(failure.clone()) })
            .unwrap_err();
        assert_eq!(err, failure);
    }
}
