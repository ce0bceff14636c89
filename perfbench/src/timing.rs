//! The timing transport: wall-clock spent in message delivery, measured
//! around the default backend without touching what it delivers.

use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use clique_core::algebraic::MatMulSchedule;
use clique_core::graphs::Pattern;
use clique_core::registry::{JobInput, MST_BASE_CAPACITY};
use clique_core::sim::node::{Inbox, NodeId, Outbox};
use clique_core::sim::phase::{PhaseInbox, PhaseOutbox};
use clique_core::sim::transport::{default_transport, Transport, TransportFault};
use clique_core::sim::{CliqueConfig, Metrics, Protocol, Runner, SimError};
use clique_core::{
    ApspProtocol, FullBroadcastDetection, MstProtocol, TriangleCount, TuranSketchDetection,
};

/// Delivery counters shared by a [`TimingTransport`] and every clone of it,
/// so nested sessions and strict-engine runs land in the same totals.
#[derive(Clone, Debug, Default)]
pub struct DeliveryClock {
    nanos: Arc<AtomicU64>,
    calls: Arc<AtomicU64>,
}

impl DeliveryClock {
    /// Nanoseconds spent inside the wrapped backend so far.
    pub fn nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// Delivery calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn record(&self, start: Instant) {
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(elapsed, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

/// Times every delivery of an inner backend (the process default, see
/// [`default_transport`]). Delivery itself is the inner backend's, so the
/// ledger and the transcript are unchanged.
#[derive(Debug)]
pub struct TimingTransport {
    inner: Box<dyn Transport>,
    clock: DeliveryClock,
}

impl TimingTransport {
    /// Wraps the process-default backend, counting into `clock`.
    pub fn new(clock: DeliveryClock) -> Self {
        Self {
            inner: default_transport(),
            clock,
        }
    }
}

impl Transport for TimingTransport {
    fn name(&self) -> &'static str {
        "timing"
    }

    fn deliver_round(
        &mut self,
        config: &CliqueConfig,
        sender: NodeId,
        outbox: &mut Outbox,
        inboxes: &mut [Inbox],
    ) -> Result<(), TransportFault> {
        let start = Instant::now();
        let result = self.inner.deliver_round(config, sender, outbox, inboxes);
        self.clock.record(start);
        result
    }

    fn deliver_phase(
        &mut self,
        config: &CliqueConfig,
        sender: NodeId,
        outbox: PhaseOutbox,
        inboxes: &mut [PhaseInbox],
    ) -> Result<(), TransportFault> {
        let start = Instant::now();
        let result = self.inner.deliver_phase(config, sender, outbox, inboxes);
        self.clock.record(start);
        result
    }

    fn clone_box(&self) -> Box<dyn Transport> {
        Box::new(Self {
            inner: self.inner.clone_box(),
            clock: self.clock.clone(),
        })
    }
}

/// Runs registry protocol `id` on `input` the way its registry entry does
/// (same protocol value, same model), but on a runner carrying `transport`.
/// The registry entry cannot take a transport, so this is the seam the
/// traced pass goes through. Returns the output's `Debug` rendering and the
/// ledger, or `None` for an id without a traced counterpart.
pub fn run_on_transport(
    id: &str,
    input: &JobInput,
    bandwidth: usize,
    transport: Option<Box<dyn Transport>>,
) -> Option<Result<(String, Metrics), SimError>> {
    let n = input.vertex_count();
    let unicast = || Runner::new(CliqueConfig::unicast(n, bandwidth));
    let broadcast = || Runner::new(CliqueConfig::broadcast(n, bandwidth));
    let c4 = Pattern::Cycle(4);
    let run = match (id, input) {
        ("mst", JobInput::Weighted(g)) => execute(
            broadcast(),
            transport,
            &mut MstProtocol::new(g, MST_BASE_CAPACITY),
        ),
        ("triangle-count", JobInput::Unweighted(g)) => {
            execute(unicast(), transport, &mut TriangleCount::new(g))
        }
        ("triangle-count-fast", JobInput::Unweighted(g)) => execute(
            unicast(),
            transport,
            &mut TriangleCount::with_schedule(g, MatMulSchedule::Auto),
        ),
        ("apsp", JobInput::Unweighted(g)) => {
            execute(unicast(), transport, &mut ApspProtocol::new(g))
        }
        ("apsp-fast", JobInput::Unweighted(g)) => execute(
            unicast(),
            transport,
            &mut ApspProtocol::with_schedule(g, MatMulSchedule::Auto),
        ),
        ("c4-turan-sketch", JobInput::Unweighted(g)) => execute(
            broadcast(),
            transport,
            &mut TuranSketchDetection::new(g, &c4),
        ),
        ("c4-full-broadcast", JobInput::Unweighted(g)) => execute(
            broadcast(),
            transport,
            &mut FullBroadcastDetection::new(g, &c4),
        ),
        _ => return None,
    };
    Some(run)
}

fn execute<P>(
    runner: Runner,
    transport: Option<Box<dyn Transport>>,
    protocol: &mut P,
) -> Result<(String, Metrics), SimError>
where
    P: Protocol,
    P::Output: Debug,
{
    let outcome = runner.with_transport(transport).execute(protocol)?;
    Ok((format!("{:?}", outcome.output), outcome.metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clique_core::registry::{self, InputKind, RunOptions};
    use clique_core::sim::{BitString, Session};

    use crate::direct::{DirectWorkload, MST_DENSE, TC_DENSE};
    use crate::serve::CASES;

    fn direct_input(w: &DirectWorkload) -> (&'static str, JobInput, usize) {
        let input = registry::generate_input(w.kind, w.family, w.n, 1, w.max_weight)
            .expect("workload family is known");
        (w.protocol, input, w.bandwidth)
    }

    /// One input of every workload: the two direct workloads, and every
    /// `serve-zipf` protocol at the stream's largest size.
    fn workload_inputs() -> Vec<(&'static str, JobInput, usize)> {
        let mut inputs = vec![direct_input(&TC_DENSE), direct_input(&MST_DENSE)];
        for (protocol, family) in CASES {
            let kind = registry::find(protocol).expect("registered").kind;
            let max_weight = if kind == InputKind::Weighted { 128 } else { 0 };
            let input = registry::generate_input(kind, family, 32, 7, max_weight)
                .expect("serve family is known");
            inputs.push((protocol, input, 5));
        }
        inputs
    }

    #[test]
    fn timing_transport_keeps_ledgers_and_outputs_byte_identical() {
        for (id, input, bandwidth) in workload_inputs() {
            let registry_run = registry::find(id)
                .expect("registered")
                .run(
                    &input,
                    &RunOptions {
                        bandwidth,
                        ..RunOptions::default()
                    },
                )
                .expect("registry run");
            let (plain_output, plain) = run_on_transport(id, &input, bandwidth, None)
                .expect("traced counterpart")
                .expect("default-transport run");
            let clock = DeliveryClock::default();
            let timed = Some(Box::new(TimingTransport::new(clock.clone())) as Box<dyn Transport>);
            let (timed_output, timed) = run_on_transport(id, &input, bandwidth, timed)
                .expect("traced counterpart")
                .expect("timed run");
            assert_eq!(timed_output, plain_output, "{id}: output changed");
            assert_eq!(timed, plain, "{id}: ledger changed");
            assert_eq!(
                registry_run.metrics, plain,
                "{id}: differs from its registry entry"
            );
            assert!(clock.calls() > 0, "{id}: no delivery was timed");
        }
    }

    #[test]
    fn clones_share_one_clock() {
        let clock = DeliveryClock::default();
        let mut session = Session::new(CliqueConfig::broadcast(4, 2));
        session.set_transport(TimingTransport::new(clock.clone()).clone_box());
        let rows: Vec<BitString> = (0..4).map(|i| BitString::from_bits(i, 3)).collect();
        session.broadcast_all("outer", &rows).expect("broadcast");
        assert_eq!(clock.calls(), 4);
        session
            .run_nested(&mut |nested: &mut Session| {
                nested.broadcast_all("nested", &rows)?;
                Ok(())
            })
            .expect("nested broadcast");
        assert_eq!(
            clock.calls(),
            8,
            "the nested session's clone was not counted"
        );
        assert!(clock.nanos() > 0);
    }
}
