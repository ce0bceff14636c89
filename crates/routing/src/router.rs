//! Routing algorithms for the unicast congested clique.
//!
//! The paper invokes Lenzen's routing theorem \[28\] as a black box: any
//! *balanced* demand — every player sends at most `n` messages and receives
//! at most `n` messages — can be delivered deterministically in `O(1)`
//! rounds. This crate provides three routers implementing the same interface
//! with the same asymptotic guarantee for balanced demands (see DESIGN.md for
//! the substitution note):
//!
//! * [`DirectRouter`] — every packet travels on its own link; takes
//!   `⌈max pair load / b⌉` rounds, which is optimal for spread-out demands
//!   but `Θ(n)` times worse than Lenzen's bound when a demand concentrates
//!   many packets on one pair.
//! * [`ValiantRouter`] — each packet travels via a uniformly random
//!   intermediary and is forwarded in a second phase; with balanced demands
//!   the per-link load is `O(b + log n)` with high probability.
//! * [`BalancedRouter`] — the cheaper of direct delivery and a greedy
//!   two-phase schedule, in which each packet is assigned the intermediary
//!   that currently minimises the maximum load of its two links. Both costs
//!   come from the demand's shape alone. For balanced demands this yields
//!   `O(1)` rounds deterministically, matching the guarantee the paper
//!   needs, and it never takes more rounds than [`DirectRouter`].
//!
//! All routers charge their communication to the caller's [`Session`] so
//! that round and bit accounting (including forwarding headers) is exact;
//! [`RouteProtocol`] adapts any router + demand pair into a
//! [`Protocol`] runnable through
//! [`Runner`].

use clique_sim::bits::bits_for_universe;
use clique_sim::prelude::*;
use rand::Rng;

use crate::demand::{Packet, RoutingDemand};

/// Packets delivered to each destination (indexed by destination player).
pub type Delivered = Vec<Vec<Packet>>;

/// A routing algorithm on the unicast congested clique.
pub trait Router {
    /// Delivers every packet of `demand`, charging all communication to
    /// `session`. Returns the packets grouped by destination.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the session rejects a message (e.g. the
    /// session was configured with a broadcast-only model).
    fn route(
        &mut self,
        demand: &RoutingDemand,
        session: &mut Session,
    ) -> Result<Delivered, SimError>;

    /// A short name for reports.
    fn name(&self) -> &'static str;
}

/// Boxed routers route by delegation, so heterogeneous router sets can be
/// swept through one [`RouteProtocol`] type.
impl<R: Router + ?Sized> Router for Box<R> {
    fn route(
        &mut self,
        demand: &RoutingDemand,
        session: &mut Session,
    ) -> Result<Delivered, SimError> {
        (**self).route(demand, session)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// Adapts a [`Router`] plus a demand into a
/// [`Protocol`] whose output is the
/// delivered packets, so routing runs under
/// [`Runner`] like any other protocol.
#[derive(Clone, Debug)]
pub struct RouteProtocol<'a, R> {
    router: R,
    demand: &'a RoutingDemand,
}

impl<'a, R: Router> RouteProtocol<'a, R> {
    /// Pairs a router with the demand it should deliver.
    pub fn new(router: R, demand: &'a RoutingDemand) -> Self {
        Self { router, demand }
    }
}

impl<R: Router> Protocol for RouteProtocol<'_, R> {
    type Output = Delivered;

    fn run(&mut self, session: &mut Session) -> Result<Delivered, SimError> {
        self.router.route(self.demand, session)
    }
}

/// Field widths used to serialise packets on the wire.
#[derive(Clone, Copy, Debug)]
struct PacketCodec {
    n: usize,
    node_bits: usize,
    len_bits: usize,
}

impl PacketCodec {
    fn for_demand(demand: &RoutingDemand) -> Self {
        let max_len = demand
            .packets()
            .iter()
            .map(|p| p.payload.len())
            .max()
            .unwrap_or(0);
        Self {
            n: demand.n(),
            node_bits: bits_for_universe(demand.n() as u64),
            len_bits: bits_for_universe(max_len as u64 + 1).max(1),
        }
    }

    /// The wire bits of one record carrying `len` payload bits: the length
    /// field, the payload and, when `tagged`, the node tag.
    fn record_bits(&self, tagged: bool, len: usize) -> u64 {
        let tag = if tagged { self.node_bits } else { 0 };
        (tag + self.len_bits + len) as u64
    }

    /// Appends `[node, len, payload]` (node omitted when `None`).
    fn encode(&self, node: Option<NodeId>, payload: &BitString, out: &mut BitString) {
        if let Some(node) = node {
            out.push_bits(node.index() as u64, self.node_bits);
        }
        out.push_bits(payload.len() as u64, self.len_bits);
        out.extend_from(payload);
    }

    /// Reads back one `[len, payload]` record sent by `sender` in `phase`;
    /// the payload is copied a word at a time.
    fn decode(
        &self,
        reader: &mut BitReader<'_>,
        sender: NodeId,
        phase: &str,
    ) -> Result<BitString, SimError> {
        let malformed = || malformed(sender, phase);
        let len = reader.read_bits(self.len_bits).ok_or_else(malformed)? as usize;
        let words = reader.read_words(len).ok_or_else(malformed)?;
        Ok(BitString::from_words(&words, len))
    }

    /// Reads back one `[node, len, payload]` record sent by `sender` in
    /// `phase`, rejecting a node id outside the clique.
    fn decode_tagged(
        &self,
        reader: &mut BitReader<'_>,
        sender: NodeId,
        phase: &str,
    ) -> Result<(NodeId, BitString), SimError> {
        let node = reader
            .read_bits(self.node_bits)
            .map(|id| id as usize)
            .filter(|&id| id < self.n)
            .ok_or_else(|| malformed(sender, phase))?;
        Ok((NodeId::new(node), self.decode(reader, sender, phase)?))
    }
}

fn malformed(sender: NodeId, phase: &str) -> SimError {
    SimError::MalformedPayload {
        sender,
        phase: phase.to_owned(),
    }
}

/// Delivers every packet directly on the `(src, dst)` link.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirectRouter;

impl Router for DirectRouter {
    fn route(
        &mut self,
        demand: &RoutingDemand,
        session: &mut Session,
    ) -> Result<Delivered, SimError> {
        direct_route(demand, session, "route/direct")
    }

    fn name(&self) -> &'static str {
        "direct"
    }
}

/// One hop: every packet travels on its own `(src, dst)` link as a
/// `[len, payload]` record, charged as the phase `phase`.
fn direct_route(
    demand: &RoutingDemand,
    session: &mut Session,
    phase: &str,
) -> Result<Delivered, SimError> {
    let n = demand.n();
    let codec = PacketCodec::for_demand(demand);
    let mut outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
    for p in demand.packets() {
        let mut wire = BitString::new();
        codec.encode(None, &p.payload, &mut wire);
        outs[p.src.index()].send(p.dst, wire);
    }
    let inboxes = session.exchange(phase, outs)?;
    let mut delivered: Delivered = vec![Vec::new(); n];
    for (dst, inbox) in inboxes.iter().enumerate() {
        for (src, wire) in inbox.unicasts() {
            let mut reader = wire.reader();
            while !reader.is_exhausted() {
                let payload = codec.decode(&mut reader, src, phase)?;
                delivered[dst].push(Packet::new(src, NodeId::new(dst), payload));
            }
        }
    }
    Ok(delivered)
}

/// Two-phase routing via uniformly random intermediaries (Valiant-style).
#[derive(Clone, Debug)]
pub struct ValiantRouter<R> {
    rng: R,
}

impl<R: Rng> ValiantRouter<R> {
    /// Creates a router drawing intermediaries from `rng`.
    pub fn new(rng: R) -> Self {
        Self { rng }
    }
}

impl<R: Rng> Router for ValiantRouter<R> {
    fn route(
        &mut self,
        demand: &RoutingDemand,
        session: &mut Session,
    ) -> Result<Delivered, SimError> {
        let n = demand.n();
        let assignment: Vec<usize> = demand
            .packets()
            .iter()
            .map(|_| self.rng.gen_range(0..n))
            .collect();
        two_phase_route(demand, &assignment, session, "route/valiant")
    }

    fn name(&self) -> &'static str {
        "valiant"
    }
}

/// Deterministic routing by the cheaper of direct delivery and a greedily
/// balanced two-phase schedule (the workspace's stand-in for Lenzen's
/// routing algorithm), so it never takes more rounds than the
/// [`DirectRouter`].
///
/// Both costs are exact and read only the demand's shape — each packet's
/// endpoints and length. They follow the session's rule: record bits summed
/// per link, `⌈max / b⌉` rounds per phase. Ties go to direct delivery,
/// which sends the [`DirectRouter`]'s records in one hop. Every call
/// records two ledger phases, `route/balanced/phase1` and
/// `route/balanced/phase2`; after direct delivery the second is silent.
///
/// The two-phase schedule is computed only when direct delivery costs more
/// than the floor every two-phase schedule pays: the longest packet's
/// tagged record crosses at least one link. A demand with at most one
/// packet per ordered pair always meets that floor, so the dense algebraic
/// exchanges, the DLP check and the sparse product never run the scan.
///
/// The scan assigns packets in demand order: each gets the intermediary
/// `w` that minimises the larger of its two link loads `(src, w)` and
/// `(w, dst)` after adding the packet, then their sum, then `w` itself.
/// The loads live in two flat `n × n` tables of 32-bit words, indexed
/// `(src, w)` and `(dst, w)`, so one packet's `n` candidates are two
/// contiguous rows. The scan costs `O(packets · n)` time and `8n²` bytes
/// of tables; deciding whether to run it costs `O(packets + n)`.
///
/// # Panics
///
/// [`Router::route`] panics when it runs the scan on a demand of `2³¹`
/// payload bits or more, the bound that keeps the 32-bit loads exact.
#[derive(Clone, Copy, Debug, Default)]
pub struct BalancedRouter;

/// The [`BalancedRouter`]'s scan takes demands of fewer payload bits than
/// this. No link load can exceed the demand's total, so below `2³¹` every
/// load and every sum of two loads fits a 32-bit word.
const MAX_GREEDY_BITS: u64 = 1 << 31;

impl Router for BalancedRouter {
    fn route(
        &mut self,
        demand: &RoutingDemand,
        session: &mut Session,
    ) -> Result<Delivered, SimError> {
        let label = "route/balanced";
        match plan(demand, session.config().bandwidth).0 {
            Schedule::Direct => {
                let delivered = direct_route(demand, session, &format!("{label}/phase1"))?;
                session.charge_rounds(&format!("{label}/phase2"), 0);
                Ok(delivered)
            }
            Schedule::TwoPhase(assignment) => two_phase_route(demand, &assignment, session, label),
        }
    }

    fn name(&self) -> &'static str {
        "balanced"
    }
}

/// How the [`BalancedRouter`] delivers one demand.
#[derive(Debug, PartialEq)]
enum Schedule {
    /// Every packet on its own link, as the [`DirectRouter`] sends it.
    Direct,
    /// Two hops through each packet's greedily assigned intermediary.
    TwoPhase(Vec<usize>),
}

/// The [`BalancedRouter`]'s schedule for `demand` at `bandwidth` bits per
/// link and round, with the rounds it charges.
fn plan(demand: &RoutingDemand, bandwidth: usize) -> (Schedule, u64) {
    let direct = direct_round_bound(demand, bandwidth);
    if direct <= two_phase_floor(demand, bandwidth) {
        return (Schedule::Direct, direct);
    }
    let assignment = greedy_assignment(demand);
    let two_phase = two_phase_rounds(demand, &assignment, bandwidth);
    if direct <= two_phase {
        (Schedule::Direct, direct)
    } else {
        (Schedule::TwoPhase(assignment), two_phase)
    }
}

/// A lower bound on the rounds of every two-phase schedule of `demand`:
/// the longest packet's tagged record crosses at least one link, in a
/// phase of at least `⌈record / b⌉` rounds. Zero for an empty demand.
fn two_phase_floor(demand: &RoutingDemand, bandwidth: usize) -> u64 {
    let codec = PacketCodec::for_demand(demand);
    demand
        .packets()
        .iter()
        .map(|p| p.payload.len())
        .max()
        .map_or(0, |len| {
            codec.record_bits(true, len).div_ceil(bandwidth as u64)
        })
}

/// The rounds [`two_phase_route`] charges for `assignment`: each phase's
/// heaviest link of tagged records, skipping the hops [`two_phase_route`]
/// skips.
fn two_phase_rounds(demand: &RoutingDemand, assignment: &[usize], bandwidth: usize) -> u64 {
    let codec = PacketCodec::for_demand(demand);
    let routed = || demand.packets().iter().zip(assignment);
    let record = |p: &Packet| codec.record_bits(true, p.payload.len());
    let first: Vec<_> = routed()
        .filter(|&(p, &w)| w != p.src.index())
        .map(|(p, &w)| (p.src.index(), w, record(p)))
        .collect();
    let second: Vec<_> = routed()
        .filter(|&(p, &w)| w != p.dst.index())
        .map(|(p, &w)| (w, p.dst.index(), record(p)))
        .collect();
    let b = bandwidth as u64;
    max_link_load(demand.n(), &first).div_ceil(b) + max_link_load(demand.n(), &second).div_ceil(b)
}

/// The heaviest link of one phase whose records are `hops`, each a
/// `(sender, receiver, wire bits)` triple, by the session's rule: record
/// bits summed per `(sender, receiver)`. The hops are bucketed by sender,
/// so one `n`-word row holds a sender's loads and the cost is
/// `O(hops + n)`.
fn max_link_load(n: usize, hops: &[(usize, usize, u64)]) -> u64 {
    let mut start = vec![0usize; n + 1];
    for &(s, _, _) in hops {
        start[s + 1] += 1;
    }
    for s in 0..n {
        start[s + 1] += start[s];
    }
    let mut next = start.clone();
    let mut by_sender = vec![(0usize, 0u64); hops.len()];
    for &(s, r, bits) in hops {
        by_sender[next[s]] = (r, bits);
        next[s] += 1;
    }
    let mut row = vec![0u64; n];
    let mut max = 0;
    for bounds in start.windows(2) {
        let bucket = &by_sender[bounds[0]..bounds[1]];
        for &(r, bits) in bucket {
            row[r] += bits;
            max = max.max(row[r]);
        }
        for &(r, _) in bucket {
            row[r] = 0;
        }
    }
    max
}

/// Independent running minima the greedy scan keeps (lane `l` covers the
/// candidates `w ≡ l` modulo the lane count), so consecutive compares do
/// not wait on each other.
const SCAN_LANES: usize = 4;

/// The [`BalancedRouter`]'s intermediary for every packet of `demand`, in
/// demand order: the greedy scan over each packet's `(src, dst, length)`.
fn greedy_assignment(demand: &RoutingDemand) -> Vec<usize> {
    let hops: Vec<_> = demand
        .packets()
        .iter()
        .map(|p| (p.src.index(), p.dst.index(), p.payload.len() as u64))
        .collect();
    greedy_intermediaries(demand.n(), &hops)
}

/// The greedy intermediary scan of the [`BalancedRouter`], over `hops` on
/// `n` players, each a `(src, dst, bits)` triple. Hops are assigned in
/// order: each gets the intermediary `w` that minimises the larger of its
/// two link loads `(src, w)` and `(w, dst)` after adding its bits, then
/// their sum, then `w` itself. Theorem 2's circuit simulation runs it on
/// one-bit wires.
///
/// Adding a hop's bits to both candidate loads shifts every key by the
/// same amount, so the scan compares the loads as they stand: `(max, sum)`
/// packed into one word — the max in the high half, the sum in the low
/// half. Each lane keeps its first minimum, so the least `(key, w)` pair
/// over the lanes is the first minimum overall.
///
/// # Panics
///
/// Panics if the hops carry `2³¹` bits or more in total, the bound that
/// keeps the 32-bit loads exact, or if an endpoint is not below `n`.
pub fn greedy_intermediaries(n: usize, hops: &[(usize, usize, u64)]) -> Vec<usize> {
    let total: u64 = hops.iter().map(|&(_, _, bits)| bits).sum();
    assert!(
        total < MAX_GREEDY_BITS,
        "a demand of {total} payload bits exceeds the balanced router's 2^31-bit load bound"
    );
    let mut up = vec![0u32; n * n]; // row src: loads of links (src, w)
    let mut down = vec![0u32; n * n]; // row dst: loads of links (w, dst)
    let mut assignment = Vec::with_capacity(hops.len());
    let whole = n - n % SCAN_LANES;
    let key = |a: u32, b: u32| u64::from(a.max(b)) << 32 | u64::from(a + b);
    for &(s, d, bits) in hops {
        let up_row = &up[s * n..(s + 1) * n];
        let down_row = &down[d * n..(d + 1) * n];
        let mut lanes = [(u64::MAX, 0); SCAN_LANES];
        let ups = up_row[..whole].chunks_exact(SCAN_LANES);
        let downs = down_row[..whole].chunks_exact(SCAN_LANES);
        for (c, (ua, da)) in ups.zip(downs).enumerate() {
            for (l, lane) in lanes.iter_mut().enumerate() {
                let k = key(ua[l], da[l]);
                if k < lane.0 {
                    *lane = (k, c * SCAN_LANES + l);
                }
            }
        }
        let mut best = *lanes.iter().min().expect("at least one lane");
        for w in whole..n {
            best = best.min((key(up_row[w], down_row[w]), w));
        }
        let best_w = best.1;
        let bits = bits as u32; // at most `total`
        up[s * n + best_w] += bits;
        down[d * n + best_w] += bits;
        assignment.push(best_w);
    }
    assignment
}

/// Shared two-phase delivery: phase 1 sends each packet to its assigned
/// intermediary (tagged with the final destination), phase 2 forwards it
/// (tagged with the original source). Packets whose intermediary equals the
/// source or the destination skip the redundant hop.
fn two_phase_route(
    demand: &RoutingDemand,
    assignment: &[usize],
    session: &mut Session,
    label: &str,
) -> Result<Delivered, SimError> {
    let n = demand.n();
    let codec = PacketCodec::for_demand(demand);
    let mut delivered: Delivered = vec![Vec::new(); n];

    // Phase 1: src -> intermediary, carrying the destination. Packets whose
    // intermediary equals the source skip the first hop.
    let mut outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
    // Packets held by each intermediary before phase 2.
    let mut relay: Vec<Vec<Packet>> = vec![Vec::new(); n];
    for (p, &w) in demand.packets().iter().zip(assignment) {
        if w == p.src.index() {
            relay[w].push(p.clone());
            continue;
        }
        let mut wire = BitString::new();
        codec.encode(Some(p.dst), &p.payload, &mut wire);
        outs[p.src.index()].send(NodeId::new(w), wire);
    }
    let phase1 = format!("{label}/phase1");
    let inboxes = session.exchange(&phase1, outs)?;
    for (w, inbox) in inboxes.iter().enumerate() {
        for (src, wire) in inbox.unicasts() {
            let mut reader = wire.reader();
            while !reader.is_exhausted() {
                let (dst, payload) = codec.decode_tagged(&mut reader, src, &phase1)?;
                relay[w].push(Packet::new(src, dst, payload));
            }
        }
    }

    // Phase 2: intermediary -> dst, carrying the source. Packets already at
    // their destination (the destination acted as the intermediary) are
    // delivered without a second hop.
    let mut outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
    for (w, packets) in relay.iter().enumerate() {
        for p in packets {
            if p.dst.index() == w {
                delivered[w].push(p.clone());
                continue;
            }
            let mut wire = BitString::new();
            codec.encode(Some(p.src), &p.payload, &mut wire);
            outs[w].send(p.dst, wire);
        }
    }
    let phase2 = format!("{label}/phase2");
    let inboxes2 = session.exchange(&phase2, outs)?;
    for (dst, inbox) in inboxes2.iter().enumerate() {
        for (relay_node, wire) in inbox.unicasts() {
            let mut reader = wire.reader();
            while !reader.is_exhausted() {
                let (src, payload) = codec.decode_tagged(&mut reader, relay_node, &phase2)?;
                delivered[dst].push(Packet::new(src, NodeId::new(dst), payload));
            }
        }
    }
    Ok(delivered)
}

/// The rounds the [`DirectRouter`] charges for `demand` at `bandwidth` bits
/// per link and round: `⌈max pair load / b⌉`, where a pair's load sums its
/// packets' `[len, payload]` records, framing included. Reads only the
/// demand's shape, in `O(packets + n)` time.
pub(crate) fn direct_round_bound(demand: &RoutingDemand, bandwidth: usize) -> u64 {
    let codec = PacketCodec::for_demand(demand);
    let hops: Vec<_> = demand
        .packets()
        .iter()
        .map(|p| {
            let bits = codec.record_bits(false, p.payload.len());
            (p.src.index(), p.dst.index(), bits)
        })
        .collect();
    max_link_load(demand.n(), &hops).div_ceil(bandwidth as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn payload(tag: u64, bits: usize) -> BitString {
        BitString::from_bits(tag, bits)
    }

    /// The greedy assignment as first written: nested per-node load
    /// tables, the `(down[w][dst])` column walk, and the packet's length
    /// added to both candidate loads before comparing.
    fn reference_assignment(demand: &RoutingDemand) -> Vec<usize> {
        let n = demand.n();
        let mut up_load = vec![vec![0u64; n]; n]; // (src, w)
        let mut down_load = vec![vec![0u64; n]; n]; // (w, dst)
        let mut assignment = Vec::with_capacity(demand.len());
        for p in demand.packets() {
            let s = p.src.index();
            let d = p.dst.index();
            let bits = p.payload.len() as u64;
            let mut best_w = 0usize;
            let mut best_key = (u64::MAX, u64::MAX);
            for w in 0..n {
                let a = up_load[s][w] + bits;
                let b = down_load[w][d] + bits;
                let key = (a.max(b), a + b);
                if key < best_key {
                    best_key = key;
                    best_w = w;
                }
            }
            up_load[s][best_w] += bits;
            down_load[best_w][d] += bits;
            assignment.push(best_w);
        }
        assignment
    }

    /// A seeded random demand on `n` nodes: uniform pairs (`shape` 0),
    /// one concentrated pair (1), a hot destination fed by every node (2),
    /// or uniform pairs carrying at most one packet each, the shape of the
    /// dense exchanges (3). Payload lengths are uniform in `0..=max_len`,
    /// so zero-length packets occur.
    fn random_demand(
        n: usize,
        packets: usize,
        max_len: usize,
        shape: u8,
        seed: u64,
    ) -> RoutingDemand {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut demand = RoutingDemand::new(n);
        let mut taken = vec![false; n * n];
        for _ in 0..packets {
            // Self-messages need no routing, so every pair is distinct.
            let other = |rng: &mut ChaCha8Rng, v: usize| (v + 1 + rng.gen_range(0..n - 1)) % n;
            let (src, dst) = match shape {
                0 | 3 => {
                    let src = rng.gen_range(0..n);
                    (src, other(&mut rng, src))
                }
                1 => (0, n - 1),
                _ => (other(&mut rng, n / 2), n / 2),
            };
            if shape == 3 && std::mem::replace(&mut taken[src * n + dst], true) {
                continue;
            }
            let len = rng.gen_range(0..max_len + 1);
            let mut bits = BitString::with_capacity(len);
            for _ in 0..len {
                bits.push_bit(rng.gen_bool(0.5));
            }
            demand.send(src, dst, bits);
        }
        demand
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn greedy_assignment_matches_the_nested_table_reference(
            n in 2usize..48,
            packets in 0usize..400,
            max_len in 0usize..130,
            shape in 0u8..4,
            seed in any::<u64>(),
        ) {
            let demand = random_demand(n, packets, max_len, shape, seed);
            prop_assert_eq!(greedy_assignment(&demand), reference_assignment(&demand));
        }

        #[test]
        fn balanced_router_never_loses_to_direct_and_charges_its_plan(
            n in 2usize..40,
            packets in 0usize..300,
            max_len in 0usize..130,
            shape in 0u8..4,
            bandwidth in 1usize..40,
            seed in any::<u64>(),
        ) {
            let demand = random_demand(n, packets, max_len, shape, seed);
            let balanced = route_metrics(&mut BalancedRouter, &demand, bandwidth);
            let direct = route_metrics(&mut DirectRouter, &demand, bandwidth);
            prop_assert!(balanced.rounds <= direct.rounds);
            prop_assert_eq!(direct_round_bound(&demand, bandwidth), direct.rounds);
            let (schedule, planned) = plan(&demand, bandwidth);
            prop_assert_eq!(planned, balanced.rounds);
            // The floor bounds the greedy schedule, and the shortcut decides
            // as the full comparison does.
            let two_phase = two_phase_rounds(&demand, &greedy_assignment(&demand), bandwidth);
            prop_assert!(two_phase_floor(&demand, bandwidth) <= two_phase);
            let full = direct.rounds <= two_phase;
            prop_assert_eq!(schedule == Schedule::Direct, full);
            prop_assert!(
                shape != 3 || direct.rounds <= two_phase_floor(&demand, bandwidth),
                "one packet per pair routes directly without the scan"
            );
            prop_assert_eq!(balanced.phases.len(), 2);
            if full {
                prop_assert_eq!(
                    (balanced.rounds, balanced.total_bits, balanced.messages),
                    (direct.rounds, direct.total_bits, direct.messages)
                );
                prop_assert_eq!(balanced.phases[1].rounds + balanced.phases[1].bits, 0);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Records off the wire: every proper prefix of a
        /// `[node, len, payload]` or `[len, payload]` record is
        /// `MalformedPayload`. With 1–3 bits flipped anywhere in a stream
        /// of records, reading the records back never panics: each read
        /// yields a record, a tagged one naming a node of the clique, or
        /// `MalformedPayload`.
        #[test]
        fn tampered_records_never_panic(
            n in 2usize..40,
            packets in 1usize..24,
            max_len in 0usize..130,
            seed in any::<u64>(),
        ) {
            let demand = random_demand(n, packets, max_len, 0, seed);
            let codec = PacketCodec::for_demand(&demand);
            let (sender, phase) = (NodeId::new(1), "route/fuzz");
            let rejected = Err(malformed(sender, phase));
            let (mut tagged, mut bare) = (BitString::new(), BitString::new());
            for packet in demand.packets() {
                let (mut with_tag, mut without) = (BitString::new(), BitString::new());
                codec.encode(Some(packet.dst), &packet.payload, &mut with_tag);
                codec.encode(None, &packet.payload, &mut without);
                for cut in 0..with_tag.len() {
                    let prefix = BitString::from_words(with_tag.words(), cut);
                    let read = codec.decode_tagged(&mut prefix.reader(), sender, phase);
                    prop_assert_eq!(read.map(|_| ()), rejected.clone());
                }
                for cut in 0..without.len() {
                    let prefix = BitString::from_words(without.words(), cut);
                    let read = codec.decode(&mut prefix.reader(), sender, phase);
                    prop_assert_eq!(read.map(|_| ()), rejected.clone());
                }
                tagged.extend_from(&with_tag);
                bare.extend_from(&without);
            }

            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF11B);
            for stream in [&mut tagged, &mut bare] {
                for _ in 0..rng.gen_range(1..4) {
                    stream.toggle_bit(rng.gen_range(0..stream.len()));
                }
            }
            let (mut tagged, mut bare) = (tagged.reader(), bare.reader());
            for _ in demand.packets() {
                match codec.decode_tagged(&mut tagged, sender, phase) {
                    Ok((node, _)) => prop_assert!(node.index() < n),
                    Err(error) => prop_assert_eq!(Err(error), rejected.clone()),
                }
                if let Err(error) = codec.decode(&mut bare, sender, phase) {
                    prop_assert_eq!(Err(error), rejected.clone());
                }
            }
        }
    }

    /// A balanced all-to-all demand: every ordered pair exchanges `bits` bits.
    fn all_to_all(n: usize, bits: usize) -> RoutingDemand {
        let mut d = RoutingDemand::new(n);
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    d.send(
                        s,
                        t,
                        payload((s * n + t) as u64 % (1 << bits.min(16)), bits),
                    );
                }
            }
        }
        d
    }

    /// A concentrated demand: node 0 sends many packets to node 1.
    fn concentrated(n: usize, packets: usize, bits: usize) -> RoutingDemand {
        let mut d = RoutingDemand::new(n);
        for i in 0..packets {
            d.send(0, 1, payload(i as u64 % (1 << bits.min(16)), bits));
        }
        d
    }

    fn check_delivery(demand: &RoutingDemand, delivered: &Delivered) {
        let n = demand.n();
        // Multisets of (src, dst, payload) must match.
        let mut expected: Vec<(usize, usize, String)> = demand
            .packets()
            .iter()
            .map(|p| (p.src.index(), p.dst.index(), p.payload.to_string()))
            .collect();
        let mut actual: Vec<(usize, usize, String)> = (0..n)
            .flat_map(|dst| {
                delivered[dst]
                    .iter()
                    .map(move |p| (p.src.index(), dst, p.payload.to_string()))
            })
            .collect();
        expected.sort();
        actual.sort();
        assert_eq!(expected, actual, "delivered packets differ from the demand");
    }

    /// Routes `demand` at bandwidth `b`, checks the delivery and returns
    /// the ledger.
    fn route_metrics<R: Router>(router: &mut R, demand: &RoutingDemand, b: usize) -> Metrics {
        let mut session = Session::new(CliqueConfig::unicast(demand.n(), b));
        let delivered = router.route(demand, &mut session).expect("routing failed");
        check_delivery(demand, &delivered);
        session.metrics().clone()
    }

    fn run_router<R: Router>(router: &mut R, demand: &RoutingDemand, b: usize) -> u64 {
        route_metrics(router, demand, b).rounds
    }

    #[test]
    fn all_routers_deliver_balanced_demands() {
        let demand = all_to_all(8, 4);
        assert!(run_router(&mut DirectRouter, &demand, 8) >= 1);
        assert!(run_router(&mut BalancedRouter, &demand, 8) >= 1);
        let mut valiant = ValiantRouter::new(ChaCha8Rng::seed_from_u64(7));
        assert!(run_router(&mut valiant, &demand, 8) >= 1);
    }

    #[test]
    fn all_routers_deliver_concentrated_demands() {
        let demand = concentrated(8, 24, 4);
        assert!(run_router(&mut DirectRouter, &demand, 8) >= 1);
        assert!(run_router(&mut BalancedRouter, &demand, 8) >= 1);
        let mut valiant = ValiantRouter::new(ChaCha8Rng::seed_from_u64(8));
        assert!(run_router(&mut valiant, &demand, 8) >= 1);
    }

    #[test]
    fn balanced_router_beats_direct_on_concentrated_demands() {
        // Node 0 sends n·b bits to node 1: direct needs ≈ n rounds; a
        // two-phase balanced schedule spreads the packets over the n links of
        // node 0 and the n links of node 1 and needs O(1) rounds (with the
        // header overhead, a small constant).
        let n = 16;
        let b = 8;
        let demand = concentrated(n, n, b);
        let direct_rounds = run_router(&mut DirectRouter, &demand, b);
        let balanced_rounds = run_router(&mut BalancedRouter, &demand, b);
        // Direct delivery pays at least the raw payload load on the (0,1)
        // link (n packets of b bits over a b-bit link = n rounds), plus
        // framing.
        assert!(direct_rounds >= n as u64);
        assert!(
            balanced_rounds <= 6,
            "balanced router took {balanced_rounds} rounds"
        );
        assert!(balanced_rounds * 2 < direct_rounds);
    }

    #[test]
    fn direct_round_bound_is_what_the_direct_router_charges() {
        // A concentrated pair, then E2's two shapes at its sizes and
        // bandwidths ⌈log₂ n⌉.
        let mut cases = vec![(concentrated(6, 10, 3), 5)];
        for (n, b) in [(16, 4), (32, 5), (64, 6)] {
            cases.push((concentrated(n, n, b), b));
            cases.push((all_to_all(n, b), b));
        }
        for (demand, b) in cases {
            let rounds = run_router(&mut DirectRouter, &demand, b);
            assert_eq!(direct_round_bound(&demand, b), rounds, "n = {}", demand.n());
        }
    }

    #[test]
    fn empty_demand_costs_nothing() {
        let demand = RoutingDemand::new(5);
        assert_eq!(run_router(&mut DirectRouter, &demand, 4), 0);
        assert_eq!(run_router(&mut BalancedRouter, &demand, 4), 0);
    }

    #[test]
    fn valiant_congestion_is_reasonable() {
        let n = 32;
        let b = 8;
        let demand = concentrated(n, n, b);
        let mut valiant = ValiantRouter::new(ChaCha8Rng::seed_from_u64(9));
        let rounds = run_router(&mut valiant, &demand, b);
        // With n packets spread over n random intermediaries the max link
        // load is O(log n / log log n) packets w.h.p. For n = 32 the load of
        // the fullest bin exceeds 8 with probability < 10⁻³, and each packet
        // costs at most two rounds per phase with framing, so 32 rounds is a
        // safe cap — while still far below the ≥ 2·n rounds direct delivery
        // pays on this demand.
        assert!(rounds <= 32, "valiant took {rounds} rounds");
        let direct_rounds = run_router(&mut DirectRouter, &demand, b);
        assert!(
            rounds < direct_rounds,
            "valiant ({rounds}) should beat direct ({direct_rounds})"
        );
    }

    #[test]
    fn truncated_records_are_typed_errors() {
        // n = 5 needs 3-bit node tags, so tags 5..=7 are out of range.
        let mut demand = RoutingDemand::new(5);
        demand.send(0, 1, payload(0b1011, 9));
        let codec = PacketCodec::for_demand(&demand);
        let sender = NodeId::new(2);
        let expected = Err(SimError::MalformedPayload {
            sender,
            phase: "route/test".into(),
        });
        let mut wire = BitString::new();
        codec.encode(Some(NodeId::new(3)), &payload(0b1011, 9), &mut wire);
        let (node, body) = codec
            .decode_tagged(&mut wire.reader(), sender, "route/test")
            .unwrap();
        assert_eq!((node, body), (NodeId::new(3), payload(0b1011, 9)));
        // Every proper prefix is rejected: inside the node tag, the length
        // field, or the payload.
        for cut in 0..wire.len() {
            let prefix = BitString::from_words(wire.words(), cut);
            assert_eq!(
                codec
                    .decode_tagged(&mut prefix.reader(), sender, "route/test")
                    .map(|_| ()),
                expected,
                "prefix of {cut} bits"
            );
        }
        let mut bare = BitString::new();
        codec.encode(None, &payload(0b1011, 9), &mut bare);
        let prefix = BitString::from_words(bare.words(), bare.len() - 1);
        assert_eq!(
            codec
                .decode(&mut prefix.reader(), sender, "route/test")
                .map(|_| ()),
            expected
        );
        // A tag naming a node outside the clique is malformed too.
        let mut stray = BitString::new();
        stray.push_bits(6, codec.node_bits);
        codec.encode(None, &payload(1, 1), &mut stray);
        assert_eq!(
            codec
                .decode_tagged(&mut stray.reader(), sender, "route/test")
                .map(|_| ()),
            expected
        );
    }

    #[test]
    fn zero_length_payloads_are_delivered() {
        let mut demand = RoutingDemand::new(4);
        demand.send(0, 1, BitString::new());
        demand.send(2, 3, BitString::from_bits(1, 1));
        let delivered = Runner::new(CliqueConfig::unicast(4, 4))
            .execute(&mut RouteProtocol::new(BalancedRouter, &demand))
            .unwrap()
            .into_output();
        assert_eq!(delivered[1].len(), 1);
        assert_eq!(delivered[1][0].payload.len(), 0);
        assert_eq!(delivered[3].len(), 1);
    }
}
