//! The message-delivery seam of [`Session`](crate::session::Session)
//! phases.
//!
//! A [`Transport`] moves validated payloads from a sender's outbox into the
//! receivers' inboxes — nothing else. A phase's round/bit charge is
//! computed *before* delivery, from the outbox contents alone, so a
//! transport physically cannot change the ledger; and because a session
//! calls [`Transport::deliver_phase`] once per sender in ascending
//! [`NodeId`] order, delivery order (and therefore the transcript every
//! node observes) is fixed by the caller, not the backend. This is the
//! serving-layer invariant: **the transport never changes transcripts** —
//! a backend decides how bytes travel, never what a run computes or
//! charges.
//!
//! One backend ships with the simulator, [`InMemoryTransport`]: unicasts
//! are moved into the receiving inbox, and each broadcast is posted once on
//! the phase's blackboard, which every inbox of the phase shares. Receivers
//! only see broadcasts through `&BitString` accessors, so no protocol can
//! observe the sharing. [`FaultyTransport`] wraps it for fault injection,
//! and a session can carry any other [`Transport`] through
//! [`Session::set_transport`](crate::session::Session::set_transport) or
//! [`Runner::with_transport`](crate::protocol::Runner::with_transport)
//! (e.g. a wrapper that times deliveries).
//!
//! # Fault injection
//!
//! Delivery can fail: [`deliver_phase`] returns a [`TransportFault`] that
//! the session wraps (with the rounds charged so far) into
//! [`SimError::TransportFault`], aborting the run before the phase reaches
//! the ledger — a faulty delivery is *never* silently absorbed into a
//! transcript.
//! [`FaultyTransport`] wraps any inner backend and injects a seeded
//! [`FaultPlan`] schedule of per-`(round, sender, receiver)` message drops,
//! bit flips, duplications and truncations. Each scheduled fault is applied
//! to the message's integrity framing (`frame`: a 32-bit length plus a
//! 64-bit FNV-1a checksum) and re-detected from the damage (`unframe`),
//! so every injected fault surfaces as a typed error naming the damage
//! class. Messages the plan leaves alone pass through to the inner backend
//! untouched: an empty plan is byte-for-byte the bare inner transport.
//!
//! Detection is deterministic, not probabilistic: dropping, duplicating or
//! truncating framed bits breaks the length check, and each FNV-1a step
//! `h' = (h ^ byte) * prime` is a bijection in `h` for a fixed byte (XOR is
//! bijective; multiplying by an odd constant is bijective mod 2^64), so any
//! single-bit payload change with unchanged length always changes the final
//! checksum.
//!
//! [`deliver_phase`]: Transport::deliver_phase
//! [`SimError::TransportFault`]: crate::model::SimError::TransportFault

use std::fmt;
use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::bits::BitString;
use crate::model::{CliqueConfig, SimError};
use crate::node::{Inbox, NodeId, Outbox};
use crate::phase::{PhaseInbox, PhaseOutbox};

/// A message-delivery backend.
///
/// Implementations deliver one sender's validated outbox into the inbox
/// array; the caller invokes this once per sender in ascending [`NodeId`]
/// order and has already charged the ledger, so a conforming transport
/// must deliver exactly the submitted payloads to exactly the addressed
/// receivers (broadcasts to every player but `sender`) and may differ only
/// in *how* the bytes travel.
pub trait Transport: fmt::Debug + Send {
    /// A short stable identifier (e.g. for reports): `"memory"`, `"faulty"`.
    fn name(&self) -> &'static str;

    /// Delivers one per-round outbox: each unicast into its destination's
    /// slot for `sender`, the broadcast (if any) to every other player. The
    /// outbox is drained.
    ///
    /// No session calls this: it is kept, with [`Inbox`] and [`Outbox`],
    /// only because the benchmark package (`perfbench`) implements it in
    /// its `TimingTransport` (see the [`node`](crate::node) module).
    ///
    /// # Errors
    ///
    /// Returns a [`TransportFault`] when delivery is lost or damaged (e.g.
    /// an injected fault detected through the integrity framing).
    fn deliver_round(
        &mut self,
        config: &CliqueConfig,
        sender: NodeId,
        outbox: &mut Outbox,
        inboxes: &mut [Inbox],
    ) -> Result<(), TransportFault>;

    /// Delivers one phase outbox: the broadcast (if any) to every other
    /// player, unicasts appended to the destination's per-sender aggregate
    /// in submission order.
    ///
    /// # Errors
    ///
    /// Returns a [`TransportFault`] when delivery is lost or damaged (e.g.
    /// an injected fault detected through the integrity framing); the
    /// session aborts the run with
    /// [`SimError::TransportFault`](crate::model::SimError).
    fn deliver_phase(
        &mut self,
        config: &CliqueConfig,
        sender: NodeId,
        outbox: PhaseOutbox,
        inboxes: &mut [PhaseInbox],
    ) -> Result<(), TransportFault>;

    /// Clones the backend for a nested session (fresh delivery state, same
    /// mechanics); this is what makes the `Box<dyn Transport>` field of the
    /// `Clone` [`Session`] work.
    ///
    /// [`Session`]: crate::session::Session
    fn clone_box(&self) -> Box<dyn Transport>;
}

impl Clone for Box<dyn Transport> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The failure classes a transport can detect (and [`FaultyTransport`] can
/// inject).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The message never arrived.
    Drop,
    /// At least one bit of the message flipped in flight.
    Corrupt,
    /// The message arrived more than once (payload longer than declared).
    Duplicate,
    /// A trailing portion of the message was lost.
    Truncate,
}

/// The fault kinds a [`FaultPlan`] can schedule.
pub const INJECTABLE_FAULTS: [FaultKind; 4] = [
    FaultKind::Drop,
    FaultKind::Corrupt,
    FaultKind::Duplicate,
    FaultKind::Truncate,
];

impl FaultKind {
    /// A short stable identifier: `"drop"`, `"corrupt"`, `"duplicate"`,
    /// `"truncate"`.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Truncate => "truncate",
        }
    }

    fn mask(self) -> u8 {
        match self {
            FaultKind::Drop => 1,
            FaultKind::Corrupt => 2,
            FaultKind::Duplicate => 4,
            FaultKind::Truncate => 8,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A delivery failure detected by a [`Transport`]. The caller wraps it with
/// the round it hit into
/// [`SimError::TransportFault`](crate::model::SimError).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransportFault {
    /// The sender whose delivery failed.
    pub(crate) sender: NodeId,
    /// The addressed receiver (`None` for a broadcast).
    pub(crate) receiver: Option<NodeId>,
    /// The damage class, as detected from the framing (not as scheduled).
    pub(crate) kind: FaultKind,
}

impl TransportFault {
    /// The session-level error for a fault hit after `round` charged rounds.
    pub(crate) fn at_round(self, round: u64) -> SimError {
        SimError::TransportFault {
            round,
            sender: self.sender,
            receiver: self.receiver,
            kind: self.kind,
        }
    }
}

impl fmt::Display for TransportFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.receiver {
            Some(receiver) => write!(
                f,
                "transport fault ({}) on message from {} to {receiver}",
                self.kind, self.sender
            ),
            None => write!(
                f,
                "transport fault ({}) on broadcast from {}",
                self.kind, self.sender
            ),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Bits of the integrity header a [`frame`]d message carries: a 32-bit
/// payload bit-length plus a 64-bit FNV-1a checksum.
pub(crate) const FRAME_HEADER_BITS: usize = 96;

/// FNV-1a over the payload's canonical little-endian byte serialisation
/// ([`BitString::to_le_bytes`] — `ceil(len / 8)` bytes, zero-padded past
/// `len`) plus its bit length. Hashing the canonical bytes, not the packed
/// backing words, keeps the digest independent of the storage layout.
fn payload_checksum(payload: &BitString) -> u64 {
    let mut hash = FNV_OFFSET;
    for byte in payload.to_le_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    for byte in (payload.len() as u64).to_le_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Wraps a payload in integrity framing: 32 length bits, 64 checksum bits,
/// then the payload verbatim.
pub(crate) fn frame(payload: &BitString) -> BitString {
    let mut framed = BitString::with_capacity(FRAME_HEADER_BITS + payload.len());
    framed.push_bits(payload.len() as u64, 32);
    framed.push_bits(payload_checksum(payload), 64);
    framed.extend_from(payload);
    framed
}

/// Validates framing and recovers the payload, classifying any damage:
/// empty → [`FaultKind::Drop`], shorter than declared →
/// [`FaultKind::Truncate`], longer → [`FaultKind::Duplicate`], checksum
/// mismatch → [`FaultKind::Corrupt`].
///
/// # Errors
///
/// The detected [`FaultKind`] when the framing does not verify.
pub(crate) fn unframe(framed: &BitString) -> Result<BitString, FaultKind> {
    if framed.is_empty() {
        return Err(FaultKind::Drop);
    }
    if framed.len() < FRAME_HEADER_BITS {
        return Err(FaultKind::Truncate);
    }
    let mut reader = framed.reader();
    let declared = reader.read_bits(32).ok_or(FaultKind::Truncate)? as usize;
    let checksum = reader.read_bits(64).ok_or(FaultKind::Truncate)?;
    let body = framed.len() - FRAME_HEADER_BITS;
    if body < declared {
        return Err(FaultKind::Truncate);
    }
    if body > declared {
        return Err(FaultKind::Duplicate);
    }
    let words = reader.read_words(declared).ok_or(FaultKind::Truncate)?;
    let payload = BitString::from_words(&words, declared);
    if payload_checksum(&payload) != checksum {
        return Err(FaultKind::Corrupt);
    }
    Ok(payload)
}

/// A seeded, fully deterministic fault schedule for [`FaultyTransport`].
///
/// Whether a given message is faulted — and how — is a pure function of
/// `(seed, round, sender, receiver, occurrence)`: the coordinates are mixed
/// into a per-message ChaCha8 stream, so the schedule does not depend on
/// delivery order, worker count or wall clock, and replaying a run replays
/// its faults bit for bit. `rate_ppm` is the per-message fault probability
/// in parts per million; faulted messages draw uniformly among the enabled
/// [`INJECTABLE_FAULTS`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    rate_ppm: u32,
    kinds: u8,
}

impl FaultPlan {
    /// A schedule injecting `kinds` at `rate_ppm` parts per million,
    /// driven by `seed`.
    pub fn new(seed: u64, rate_ppm: u32, kinds: &[FaultKind]) -> Self {
        let mask = kinds.iter().fold(0u8, |acc, kind| acc | kind.mask());
        Self {
            seed,
            rate_ppm: rate_ppm.min(1_000_000),
            kinds: mask,
        }
    }

    /// True when this plan can never fault a message (zero rate or no
    /// enabled kinds) — [`FaultyTransport`] then passes every delivery
    /// through untouched.
    pub(crate) fn is_empty(&self) -> bool {
        self.rate_ppm == 0 || self.kinds == 0
    }

    /// The enabled fault kinds, in [`INJECTABLE_FAULTS`] order.
    pub(crate) fn kinds(&self) -> Vec<FaultKind> {
        INJECTABLE_FAULTS
            .iter()
            .copied()
            .filter(|kind| self.kinds & kind.mask() != 0)
            .collect()
    }

    /// The same schedule under a deterministically mixed seed — the hook
    /// retry layers use to give each `(job, attempt)` its own schedule
    /// while staying reproducible.
    #[must_use]
    pub fn salted(&self, salt: u64) -> Self {
        let mut mixed = self.seed ^ FNV_OFFSET;
        for byte in salt.to_le_bytes() {
            mixed = (mixed ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
        Self {
            seed: mixed,
            rate_ppm: self.rate_ppm,
            kinds: self.kinds,
        }
    }

    /// The scheduled fault (and an auxiliary draw selecting e.g. the bit to
    /// flip) for one message coordinate, or `None` to deliver cleanly.
    /// `receiver` is `None` for a broadcast; `occurrence` distinguishes
    /// multiple unicasts on one `(sender, receiver)` link within one
    /// round/phase.
    pub(crate) fn draw(
        &self,
        round: u64,
        sender: NodeId,
        receiver: Option<NodeId>,
        occurrence: u64,
    ) -> Option<(FaultKind, u64)> {
        if self.is_empty() {
            return None;
        }
        let receiver_code = receiver.map_or(u64::MAX, |dst| dst.index() as u64);
        let mut mixed = self.seed ^ FNV_OFFSET;
        for coordinate in [round, sender.index() as u64, receiver_code, occurrence] {
            for byte in coordinate.to_le_bytes() {
                mixed = (mixed ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            }
        }
        let mut rng = ChaCha8Rng::seed_from_u64(mixed);
        if rng.gen::<u64>() % 1_000_000 >= u64::from(self.rate_ppm) {
            return None;
        }
        let enabled = self.kinds();
        let kind = enabled[(rng.gen::<u64>() % enabled.len() as u64) as usize];
        Some((kind, rng.gen::<u64>()))
    }
}

/// Applies a scheduled fault to a framed message. The damage is shaped so
/// [`unframe`] re-detects exactly the injected kind: corruption never
/// touches the 32-bit length field, truncation always leaves at least one
/// bit, duplication appends a full second copy.
fn apply_fault(framed: &BitString, kind: FaultKind, aux: u64) -> BitString {
    match kind {
        FaultKind::Drop => BitString::new(),
        FaultKind::Corrupt => {
            let span = (framed.len() - 32) as u64;
            flip_bit(framed, 32 + (aux % span) as usize)
        }
        FaultKind::Duplicate => framed.concat(framed),
        FaultKind::Truncate => {
            let body = (framed.len() - FRAME_HEADER_BITS) as u64;
            let new_len = if body > 0 {
                FRAME_HEADER_BITS + (aux % body) as usize
            } else {
                1 + (aux % (FRAME_HEADER_BITS as u64 - 1)) as usize
            };
            BitString::from_words(framed.words(), new_len)
        }
    }
}

fn flip_bit(bits: &BitString, position: usize) -> BitString {
    let mut flipped = bits.clone();
    flipped.toggle_bit(position);
    flipped
}

/// A chaos-testing wrapper: screens every message of the inner transport
/// against a [`FaultPlan`] and, when a fault is scheduled, damages the
/// message's integrity framing and reports the detected [`TransportFault`]
/// instead of delivering — the run aborts typed, never silently wrong.
/// Messages the plan leaves alone reach the inner backend untouched, so a
/// wrapper with an empty plan is byte-identical to the bare inner
/// transport.
///
/// The schedule's round coordinate is derived from the delivery discipline
/// (a session calls the transport exactly once per sender per phase, in
/// ascending order), so it counts *phases*. [`Transport::clone_box`]
/// restarts the schedule: a nested session replays the plan from round 0.
#[derive(Debug)]
pub struct FaultyTransport {
    plan: FaultPlan,
    inner: Box<dyn Transport>,
    deliveries: u64,
}

impl FaultyTransport {
    /// Wraps `inner` under `plan`.
    pub fn new(plan: FaultPlan, inner: Box<dyn Transport>) -> Self {
        Self {
            plan,
            inner,
            deliveries: 0,
        }
    }

    /// Wraps the default backend (see [`default_transport`]).
    pub fn with_default_inner(plan: FaultPlan) -> Self {
        Self::new(plan, default_transport())
    }

    /// Screens one message: on a scheduled fault, frames the payload,
    /// applies the damage, and reports what the framing detects.
    fn screen(
        &self,
        round: u64,
        sender: NodeId,
        receiver: Option<NodeId>,
        occurrence: u64,
        payload: &BitString,
    ) -> Result<(), TransportFault> {
        match self.plan.draw(round, sender, receiver, occurrence) {
            None => Ok(()),
            Some((kind, aux)) => {
                let damaged = apply_fault(&frame(payload), kind, aux);
                match unframe(&damaged) {
                    // The damage was a no-op (unreachable for the shipped
                    // injectable kinds by construction): deliver cleanly.
                    Ok(_) => Ok(()),
                    Err(detected) => Err(TransportFault {
                        sender,
                        receiver,
                        kind: detected,
                    }),
                }
            }
        }
    }
}

impl Transport for FaultyTransport {
    fn name(&self) -> &'static str {
        "faulty"
    }

    fn deliver_round(
        &mut self,
        config: &CliqueConfig,
        sender: NodeId,
        outbox: &mut Outbox,
        inboxes: &mut [Inbox],
    ) -> Result<(), TransportFault> {
        let round = self.deliveries / config.n as u64;
        self.deliveries += 1;
        if !self.plan.is_empty() {
            for (occurrence, (dst, msg)) in outbox.unicasts.iter().enumerate() {
                self.screen(round, sender, Some(*dst), occurrence as u64, msg)?;
            }
            if let Some(msg) = &outbox.broadcast {
                self.screen(round, sender, None, 0, msg)?;
            }
        }
        self.inner.deliver_round(config, sender, outbox, inboxes)
    }

    fn deliver_phase(
        &mut self,
        config: &CliqueConfig,
        sender: NodeId,
        outbox: PhaseOutbox,
        inboxes: &mut [PhaseInbox],
    ) -> Result<(), TransportFault> {
        let round = self.deliveries / config.n as u64;
        self.deliveries += 1;
        if self.plan.is_empty() {
            return self.inner.deliver_phase(config, sender, outbox, inboxes);
        }
        let (broadcast, unicasts) = outbox.into_parts();
        if let Some(msg) = &broadcast {
            self.screen(round, sender, None, 0, msg)?;
        }
        for (occurrence, (dst, msg)) in unicasts.iter().enumerate() {
            self.screen(round, sender, Some(*dst), occurrence as u64, msg)?;
        }
        let mut rebuilt = PhaseOutbox::new();
        if let Some(msg) = broadcast {
            rebuilt.broadcast(msg);
        }
        for (dst, msg) in unicasts {
            rebuilt.send(dst, msg);
        }
        self.inner.deliver_phase(config, sender, rebuilt, inboxes)
    }

    /// The same plan over a clone of the inner backend, with the schedule
    /// restarted at round 0 (nested sessions replay the plan from the top).
    fn clone_box(&self) -> Box<dyn Transport> {
        Box::new(Self {
            plan: self.plan,
            inner: self.inner.clone_box(),
            deliveries: 0,
        })
    }
}

/// The zero-copy backend: unicasts move into their receiver's inbox, and
/// each broadcast is posted once on the blackboard all inboxes of the phase
/// share.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InMemoryTransport;

impl Transport for InMemoryTransport {
    fn name(&self) -> &'static str {
        "memory"
    }

    fn deliver_round(
        &mut self,
        _config: &CliqueConfig,
        sender: NodeId,
        outbox: &mut Outbox,
        inboxes: &mut [Inbox],
    ) -> Result<(), TransportFault> {
        for (dst, msg) in outbox.unicasts.drain(..) {
            inboxes[dst.index()].insert_owned(sender, msg);
        }
        if let Some(msg) = outbox.broadcast.take() {
            // One shared allocation per broadcast, a pointer clone per
            // receiver.
            let shared = Arc::new(msg);
            for (dst, inbox) in inboxes.iter_mut().enumerate() {
                if dst != sender.index() {
                    inbox.insert_shared(sender, Arc::clone(&shared));
                }
            }
        }
        Ok(())
    }

    fn deliver_phase(
        &mut self,
        _config: &CliqueConfig,
        sender: NodeId,
        outbox: PhaseOutbox,
        inboxes: &mut [PhaseInbox],
    ) -> Result<(), TransportFault> {
        let (broadcast, unicasts) = outbox.into_parts();
        if let Some(msg) = broadcast {
            inboxes[sender.index()].post_broadcast(sender, msg);
        }
        for (dst, msg) in unicasts {
            inboxes[dst.index()].deliver_unicast(sender, msg);
        }
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn Transport> {
        Box::new(*self)
    }
}

/// The shipped backends, for reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// [`InMemoryTransport`] — the zero-copy backend.
    InMemory,
}

impl TransportKind {
    /// The stable identifier ([`Transport::name`]) of this backend.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::InMemory => "memory",
        }
    }
}

/// The backend newly created sessions use.
pub fn default_kind() -> TransportKind {
    TransportKind::InMemory
}

/// Instantiates the backend newly created sessions use: an [`InMemoryTransport`].
pub fn default_transport() -> Box<dyn Transport> {
    Box::new(InMemoryTransport)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;

    fn phase_run(transport: Box<dyn Transport>) -> (crate::metrics::Metrics, Vec<Vec<u8>>) {
        let n = 5;
        let mut session = Session::new(CliqueConfig::unicast(n, 2));
        session.set_transport(transport);
        let outs: Vec<PhaseOutbox> = (0..n)
            .map(|i| {
                let mut out = PhaseOutbox::new();
                out.broadcast(BitString::from_bits(i as u64, 4));
                out.send(NodeId::new((i + 1) % n), BitString::from_bits(1, 3));
                out.send(NodeId::new((i + 1) % n), BitString::from_bits(2, 2));
                out
            })
            .collect();
        let inboxes = session.exchange("mixed", outs).unwrap();
        let digests = inboxes
            .iter()
            .map(|inbox| {
                let mut bytes = Vec::new();
                for (sender, msg) in inbox.broadcasts() {
                    bytes.push(sender.index() as u8);
                    bytes.push(msg.len() as u8);
                }
                for (sender, msg) in inbox.unicasts() {
                    bytes.push(0x80 | sender.index() as u8);
                    bytes.push(msg.len() as u8);
                }
                bytes
            })
            .collect();
        (session.metrics().clone(), digests)
    }

    #[test]
    fn framing_round_trips_and_detects_every_injected_kind() {
        let payloads = [
            BitString::new(),
            BitString::from_bits(0b1011, 4),
            BitString::from_bits(u64::MAX, 64),
            {
                let mut long = BitString::new();
                for i in 0..13u64 {
                    long.push_bits(i.wrapping_mul(0x9E37), 17);
                }
                long
            },
        ];
        for payload in &payloads {
            let framed = frame(payload);
            assert_eq!(framed.len(), FRAME_HEADER_BITS + payload.len());
            assert_eq!(unframe(&framed).as_ref(), Ok(payload));
            for kind in INJECTABLE_FAULTS {
                for aux in [0u64, 1, 7, u64::MAX - 3] {
                    let damaged = apply_fault(&framed, kind, aux);
                    assert_eq!(
                        unframe(&damaged),
                        Err(kind),
                        "kind {kind} aux {aux} payload {} bits",
                        payload.len()
                    );
                }
            }
        }
    }

    #[test]
    fn fault_plan_draws_are_deterministic_and_respect_rate() {
        let plan = FaultPlan::new(0xC4A05, 250_000, &INJECTABLE_FAULTS);
        let mut faulted = 0u32;
        for round in 0..4u64 {
            for sender in 0..8 {
                for receiver in 0..8 {
                    let draw =
                        plan.draw(round, NodeId::new(sender), Some(NodeId::new(receiver)), 0);
                    assert_eq!(
                        draw,
                        plan.draw(round, NodeId::new(sender), Some(NodeId::new(receiver)), 0),
                        "draw is not a pure function of its coordinates"
                    );
                    faulted += u32::from(draw.is_some());
                }
            }
        }
        // 256 messages at 25%: the seeded schedule must fault some but not
        // all of them (exact count pinned by determinism, not asserted).
        assert!(faulted > 0 && faulted < 256, "faulted {faulted}/256");
        assert!(FaultPlan::new(0, 0, &[])
            .draw(0, NodeId::new(0), None, 0)
            .is_none());
        assert!(FaultPlan::new(1, 0, &INJECTABLE_FAULTS).is_empty());
        assert!(FaultPlan::new(1, 500, &[]).is_empty());
        let salted = plan.salted(3);
        assert_eq!(salted.rate_ppm, plan.rate_ppm);
        assert_ne!(salted.seed, plan.seed);
        assert_eq!(plan.salted(3), plan.salted(3));
        assert_ne!(plan.salted(3), plan.salted(4));
    }

    #[test]
    fn empty_plan_wrapper_is_byte_identical_to_bare_inner() {
        let bare = phase_run(Box::new(InMemoryTransport));
        let wrapped = phase_run(Box::new(FaultyTransport::new(
            FaultPlan::new(0, 0, &[]),
            Box::new(InMemoryTransport),
        )));
        assert_eq!(bare, wrapped);
    }

    #[test]
    fn deliver_round_delivers_cleanly_and_faults_typed() {
        let n = 4;
        let cfg = CliqueConfig::unicast(n, 8);
        // Sender 1 broadcasts, then sender 2 unicasts to player 0.
        let deliver = |transport: &mut dyn Transport| -> Result<Vec<Inbox>, TransportFault> {
            let mut inboxes = vec![Inbox::empty(n); n];
            let mut broadcast = Outbox::new();
            broadcast.broadcast(BitString::from_bits(0b10, 2));
            transport.deliver_round(&cfg, NodeId::new(1), &mut broadcast, &mut inboxes)?;
            let mut unicast = Outbox::new();
            unicast.send(NodeId::new(0), BitString::from_bits(0b101, 3));
            transport.deliver_round(&cfg, NodeId::new(2), &mut unicast, &mut inboxes)?;
            assert!(broadcast.is_empty() && unicast.is_empty(), "outboxes drain");
            Ok(inboxes)
        };
        let received = |inboxes: &[Inbox]| -> Vec<Vec<(usize, BitString)>> {
            inboxes
                .iter()
                .map(|inbox| inbox.iter().map(|(s, m)| (s.index(), m.clone())).collect())
                .collect()
        };
        let two = BitString::from_bits(0b10, 2);
        let expected = vec![
            vec![(1, two.clone()), (2, BitString::from_bits(0b101, 3))],
            vec![],
            vec![(1, two.clone())],
            vec![(1, two)],
        ];

        // A clean delivery, and the same through an empty-plan wrapper.
        assert_eq!(
            received(&deliver(&mut InMemoryTransport).unwrap()),
            expected
        );
        let mut empty = FaultyTransport::with_default_inner(FaultPlan::new(0, 0, &[]));
        assert_eq!(received(&deliver(&mut empty).unwrap()), expected);

        // A saturated plan faults the first delivery, typed.
        let plan = FaultPlan::new(7, 1_000_000, &[FaultKind::Corrupt]);
        let mut saturated = FaultyTransport::with_default_inner(plan);
        assert_eq!(
            deliver(&mut saturated).unwrap_err(),
            TransportFault {
                sender: NodeId::new(1),
                receiver: None,
                kind: FaultKind::Corrupt,
            }
        );
    }

    #[test]
    fn session_exchange_surfaces_injected_faults() {
        let plan = FaultPlan::new(11, 1_000_000, &[FaultKind::Drop]);
        let n = 5;
        let mut session = Session::new(CliqueConfig::unicast(n, 2));
        session.set_transport(Box::new(FaultyTransport::with_default_inner(plan)));
        session.charge_rounds("pre", 3);
        let outs: Vec<PhaseOutbox> = (0..n)
            .map(|i| {
                let mut out = PhaseOutbox::new();
                out.broadcast(BitString::from_bits(i as u64, 4));
                out
            })
            .collect();
        let err = session.exchange("chaos", outs).unwrap_err();
        assert!(matches!(
            err,
            SimError::TransportFault {
                round: 3,
                kind: FaultKind::Drop,
                receiver: None,
                ..
            }
        ));
        // The faulted phase never reaches the ledger.
        assert_eq!(session.rounds(), 3);
        assert_eq!(session.metrics().phases.len(), 1);
    }
}
