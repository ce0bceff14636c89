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
//! that round and bit accounting is exact; [`RouteProtocol`] adapts any
//! router + demand pair into a [`Protocol`] runnable through [`Runner`].
//!
//! # Headerless delivery
//!
//! The routers send bare payloads: no length field and no relay tag. A
//! demand's *shape* is each packet's `(src, dst, length)`, in demand order.
//! Every receiver and relay splits each incoming link's payload by the
//! shape, and by the intermediary assignment in a two-phase schedule. A
//! link that carries more or fewer bits than its packets, or that the shape
//! does not list, is a [`SimError::MalformedPayload`] naming its sender.
//! Zero-length packets are delivered without being sent, and
//! [`Delivered`] lists every destination's packets in demand order.
//!
//! Headerless delivery is honest where the receivers know the shape without
//! being told:
//! * the shape is public, as in Lenzen's theorem as Theorem 2,
//!   Censor-Hillel et al. and the DLP check use it: both ends derive it
//!   from public data;
//! * or the demand has at most one packet per ordered pair, so a link's
//!   payload is its packet, whatever its length. The sparse product's
//!   data-dependent records are such a demand.
//!
//! The greedy assignment is a function of the shape, and Valiant's
//! intermediaries are public coins, so relays need no tags either.
//!
//! # Moving payloads
//!
//! A route consumes its demand. The demand splits into its shape and its
//! payloads, and each payload moves from its sender's outbox to its
//! receiver's inbox, through the relay in a two-phase schedule, and into
//! [`Delivered`]; a link of one packet is never copied. [`RouteProtocol`]
//! borrows its demand, so it routes a clone on every run. Each hop orders
//! the links it uses once, receivers ascending and then senders ascending,
//! and every receiver walks its inbox in that order once.

use clique_sim::prelude::*;
use rand::Rng;

use crate::demand::{Packet, RoutingDemand, Shape};

/// Packets delivered to each destination (indexed by destination player).
pub type Delivered = Vec<Vec<Packet>>;

/// A routing algorithm on the unicast congested clique.
pub trait Router {
    /// Delivers every packet of `demand`, charging all communication to
    /// `session`. Returns the packets grouped by destination. The route
    /// consumes the demand and moves each payload to its destination.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the session rejects a message (e.g. the
    /// session was configured with a broadcast-only model).
    fn route(
        &mut self,
        demand: RoutingDemand,
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
        demand: RoutingDemand,
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
/// [`Runner`] like any other protocol. A route consumes its demand, so
/// every run routes a clone of the borrowed one.
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
        self.router.route(self.demand.clone(), session)
    }
}

/// Delivers every packet directly on the `(src, dst)` link.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirectRouter;

impl Router for DirectRouter {
    fn route(
        &mut self,
        demand: RoutingDemand,
        session: &mut Session,
    ) -> Result<Delivered, SimError> {
        let (shape, payloads) = demand.split();
        let order = crossings(&shape, &shape.ends);
        direct_route(&shape, &order, payloads, session, "route/direct")
    }

    fn name(&self) -> &'static str {
        "direct"
    }
}

/// One hop: every packet travels on its own `(src, dst)` link, charged as
/// the phase `phase`. `order` is the link order of that hop
/// ([`crossings`]).
fn direct_route(
    shape: &Shape,
    order: &[usize],
    payloads: Vec<BitString>,
    session: &mut Session,
    phase: &str,
) -> Result<Delivered, SimError> {
    let payloads = hop(session, phase, shape, &shape.ends, order, payloads)?;
    Ok(deliver(shape, payloads))
}

/// One phase's `(sender, receiver)` pair for one packet. A packet whose
/// two ends coincide stays where it is.
type Link = (usize, usize);

/// The packets of `shape` carrying `payloads`, grouped by destination, in
/// demand order.
fn deliver(shape: &Shape, payloads: Vec<BitString>) -> Delivered {
    let mut delivered: Delivered = vec![Vec::new(); shape.n];
    for (&(s, d), payload) in shape.ends.iter().zip(payloads) {
        delivered[d].push(Packet::new(NodeId::new(s), NodeId::new(d), payload));
    }
    delivered
}

/// One phase of a route: packet `i`'s payload crosses `links[i]`, and every
/// receiver splits each incoming link by the shape, walking the links in
/// `order` ([`crossings`]). Returns the payloads at their receivers, in
/// demand order.
///
/// # Errors
///
/// Propagates the session's errors, and returns
/// [`SimError::MalformedPayload`] naming the sender of a link that carries
/// more or fewer bits than its packets, or that the shape does not list.
fn hop(
    session: &mut Session,
    phase: &str,
    shape: &Shape,
    links: &[Link],
    order: &[usize],
    mut payloads: Vec<BitString>,
) -> Result<Vec<BitString>, SimError> {
    let outs = send(shape.n, links, &mut payloads);
    let inboxes = session.exchange(phase, outs)?;
    receive(shape, links, order, &mut payloads, inboxes, phase)?;
    Ok(payloads)
}

/// The senders' half of a [`hop`]: each payload that crosses its link
/// moves to its sender's outbox, in demand order, and leaves an empty
/// string behind. The rest stay in place: those whose ends coincide, and
/// empty ones, which cost nothing unsent.
fn send(n: usize, links: &[Link], payloads: &mut [BitString]) -> Vec<PhaseOutbox> {
    let mut outs: Vec<PhaseOutbox> = (0..n).map(|_| PhaseOutbox::new()).collect();
    for (&(s, r), payload) in links.iter().zip(payloads) {
        if s != r && !payload.is_empty() {
            outs[s].send(NodeId::new(r), std::mem::take(payload));
        }
    }
    outs
}

/// The receivers' half of a [`hop`]: every receiver walks its inbox, in
/// ascending sender order, in lockstep with its links in `order`, and each
/// link moves out of the inbox into `payloads`. A link of one packet is
/// that packet; a longer one is cut by its packets' lengths, in demand
/// order. The other entries of `payloads` stay as [`send`] left them.
fn receive(
    shape: &Shape,
    links: &[Link],
    order: &[usize],
    payloads: &mut [BitString],
    inboxes: Vec<PhaseInbox>,
    phase: &str,
) -> Result<(), SimError> {
    let malformed = |sender: usize| SimError::MalformedPayload {
        sender: NodeId::new(sender),
        phase: phase.to_owned(),
    };
    let mut listed = order.chunk_by(|&a, &b| links[a] == links[b]).peekable();
    for (r, inbox) in inboxes.into_iter().enumerate() {
        let mut arrived = inbox.into_unicasts();
        while let Some(packets) = listed.next_if(|packets| links[packets[0]].1 == r) {
            let s = links[packets[0]].0;
            let wire = match arrived.next() {
                Some((sender, wire)) if sender.index() == s => wire,
                // A sender before `s` arrived on a link the shape does not
                // list.
                Some((sender, _)) if sender.index() < s => return Err(malformed(sender.index())),
                // Nothing arrived on the listed link.
                _ => return Err(malformed(s)),
            };
            let bits: usize = packets.iter().map(|&i| shape.lens[i]).sum();
            if wire.len() != bits {
                return Err(malformed(s));
            }
            if let &[i] = packets {
                payloads[i] = wire;
                continue;
            }
            let mut reader = wire.reader();
            for &i in packets {
                let len = shape.lens[i];
                let words = reader.read_words(len).ok_or_else(|| malformed(s))?;
                payloads[i] = BitString::from_words(&words, len);
            }
        }
        // Every listed link of `r` has been read, so the rest is unlisted.
        if let Some((sender, _)) = arrived.next() {
            return Err(malformed(sender.index()));
        }
    }
    Ok(())
}

/// The packets of `shape` that cross their link (ends apart, at least one
/// bit), grouped by link: receivers ascending, then senders ascending, each
/// link's packets in demand order. Two stable bucket passes, `O(packets +
/// n)`.
fn crossings(shape: &Shape, links: &[Link]) -> Vec<usize> {
    let crossing: Vec<usize> = (0..links.len())
        .filter(|&i| links[i].0 != links[i].1 && shape.lens[i] > 0)
        .collect();
    let by_sender = bucket_by(shape.n, &crossing, |i| links[i].0);
    bucket_by(shape.n, &by_sender, |i| links[i].1)
}

/// `items` stably ordered by `key`, each key below `n`, in `O(items + n)`.
fn bucket_by(n: usize, items: &[usize], key: impl Fn(usize) -> usize) -> Vec<usize> {
    let mut next = vec![0usize; n + 1];
    for &i in items {
        next[key(i) + 1] += 1;
    }
    for k in 0..n {
        next[k + 1] += next[k];
    }
    let mut sorted = vec![0; items.len()];
    for &i in items {
        sorted[next[key(i)]] = i;
        next[key(i)] += 1;
    }
    sorted
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
        demand: RoutingDemand,
        session: &mut Session,
    ) -> Result<Delivered, SimError> {
        let (shape, payloads) = demand.split();
        let assignment: Vec<usize> = (0..shape.ends.len())
            .map(|_| self.rng.gen_range(0..shape.n))
            .collect();
        let hops = TwoHops::new(&shape, &assignment);
        two_phase_route(&shape, &hops, payloads, session, "route/valiant")
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
/// endpoints and length. They follow the session's rule: payload bits
/// summed per link, `⌈max / b⌉` rounds per phase. Ties go to direct
/// delivery, which sends the [`DirectRouter`]'s payloads in one hop. Every
/// call records two ledger phases, `route/balanced/phase1` and
/// `route/balanced/phase2`; after direct delivery the second is silent.
///
/// The two-phase schedule is computed only when direct delivery costs more
/// than the floor every two-phase schedule pays: the longest packet
/// crosses at least one link. A demand with at most one packet per ordered
/// pair always meets that floor, so the dense algebraic exchanges, the DLP
/// check and the sparse product never run the scan.
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
        demand: RoutingDemand,
        session: &mut Session,
    ) -> Result<Delivered, SimError> {
        let label = "route/balanced";
        let (shape, payloads) = demand.split();
        // Direct delivery's link order prices it and, if it wins, routes it.
        let direct = crossings(&shape, &shape.ends);
        match plan(&shape, &direct, session.config().bandwidth).0 {
            Schedule::Direct => {
                let phase1 = format!("{label}/phase1");
                let delivered = direct_route(&shape, &direct, payloads, session, &phase1)?;
                session.charge_rounds(&format!("{label}/phase2"), 0);
                Ok(delivered)
            }
            Schedule::TwoPhase(hops) => two_phase_route(&shape, &hops, payloads, session, label),
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
    TwoPhase(TwoHops),
}

/// The [`BalancedRouter`]'s schedule for `shape` at `bandwidth` bits per
/// link and round, with the rounds it charges. `direct` is the direct
/// hop's link order ([`crossings`]).
fn plan(shape: &Shape, direct: &[usize], bandwidth: usize) -> (Schedule, u64) {
    let direct = max_link_load(shape, &shape.ends, direct).div_ceil(bandwidth as u64);
    if direct <= two_phase_floor(shape, bandwidth) {
        return (Schedule::Direct, direct);
    }
    let hops = TwoHops::new(shape, &greedy_assignment(shape));
    let two_phase = hops.rounds(shape, bandwidth);
    if direct <= two_phase {
        (Schedule::Direct, direct)
    } else {
        (Schedule::TwoPhase(hops), two_phase)
    }
}

/// A lower bound on the rounds of every two-phase schedule of `shape`: the
/// longest packet crosses at least one link, since its intermediary is not
/// both its ends, in a phase of at least `⌈length / b⌉` rounds. Zero for an
/// empty demand.
fn two_phase_floor(shape: &Shape, bandwidth: usize) -> u64 {
    let longest = shape.lens.iter().max();
    (longest.copied().unwrap_or(0) as u64).div_ceil(bandwidth as u64)
}

/// The two hops of a two-phase schedule: packet `i` crosses `links[0][i]`
/// = `(src, w)`, then `links[1][i]` = `(w, dst)`, where `w` is its
/// intermediary; `orders[h]` is hop `h`'s link order ([`crossings`]).
#[derive(Debug, PartialEq)]
struct TwoHops {
    links: [Vec<Link>; 2],
    orders: [Vec<usize>; 2],
}

impl TwoHops {
    /// The hops of `shape` through the intermediaries in `assignment`.
    fn new(shape: &Shape, assignment: &[usize]) -> Self {
        let routed = || shape.ends.iter().zip(assignment);
        let links: [Vec<Link>; 2] = [
            routed().map(|(&(s, _), &w)| (s, w)).collect(),
            routed().map(|(&(_, d), &w)| (w, d)).collect(),
        ];
        let orders = links.each_ref().map(|links| crossings(shape, links));
        Self { links, orders }
    }

    /// The rounds [`two_phase_route`] charges: each hop's heaviest link.
    fn rounds(&self, shape: &Shape, bandwidth: usize) -> u64 {
        let load = |h: usize| max_link_load(shape, &self.links[h], &self.orders[h]);
        (0..2).map(|h| load(h).div_ceil(bandwidth as u64)).sum()
    }
}

/// The heaviest link of one phase in which packet `i` crosses `links[i]`,
/// by the session's rule: payload bits summed per link, read off the
/// phase's link order `order` ([`crossings`]) in `O(packets)`.
fn max_link_load(shape: &Shape, links: &[Link], order: &[usize]) -> u64 {
    order
        .chunk_by(|&a, &b| links[a] == links[b])
        .map(|packets| packets.iter().map(|&i| shape.lens[i] as u64).sum())
        .max()
        .unwrap_or(0)
}

/// Independent running minima the greedy scan keeps (lane `l` covers the
/// candidates `w ≡ l` modulo the lane count), so consecutive compares do
/// not wait on each other.
const SCAN_LANES: usize = 4;

/// The [`BalancedRouter`]'s intermediary for every packet of `shape`, in
/// demand order: the greedy scan over each packet's `(src, dst, length)`.
fn greedy_assignment(shape: &Shape) -> Vec<usize> {
    let hops: Vec<_> = shape
        .ends
        .iter()
        .zip(&shape.lens)
        .map(|(&(s, d), &len)| (s, d, len as u64))
        .collect();
    greedy_intermediaries(shape.n, &hops)
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

/// Shared two-phase delivery: phase 1 carries each packet to its assigned
/// intermediary, phase 2 forwards it to its destination. A packet whose
/// intermediary is its source or its destination skips that hop.
fn two_phase_route(
    shape: &Shape,
    hops: &TwoHops,
    payloads: Vec<BitString>,
    session: &mut Session,
    label: &str,
) -> Result<Delivered, SimError> {
    let [first, second] = &hops.links;
    let [first_order, second_order] = &hops.orders;
    let (phase1, phase2) = (format!("{label}/phase1"), format!("{label}/phase2"));
    let relayed = hop(session, &phase1, shape, first, first_order, payloads)?;
    let payloads = hop(session, &phase2, shape, second, second_order, relayed)?;
    Ok(deliver(shape, payloads))
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

    /// The shape of `demand`, which stays whole.
    fn shape_of(demand: &RoutingDemand) -> Shape {
        demand.clone().split().0
    }

    /// The rounds the [`DirectRouter`] charges for `shape` at `bandwidth`
    /// bits per link and round: `⌈max pair load / b⌉`, where a pair's load
    /// sums its packets' payload bits.
    fn direct_round_bound(shape: &Shape, bandwidth: usize) -> u64 {
        let order = crossings(shape, &shape.ends);
        max_link_load(shape, &shape.ends, &order).div_ceil(bandwidth as u64)
    }

    /// The greedy assignment as first written: nested per-node load
    /// tables, the `(down[w][dst])` column walk, and the packet's length
    /// added to both candidate loads before comparing.
    fn reference_assignment(shape: &Shape) -> Vec<usize> {
        let n = shape.n;
        let mut up_load = vec![vec![0u64; n]; n]; // (src, w)
        let mut down_load = vec![vec![0u64; n]; n]; // (w, dst)
        let mut assignment = Vec::with_capacity(shape.ends.len());
        for (&(s, d), &len) in shape.ends.iter().zip(&shape.lens) {
            let bits = len as u64;
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
            let shape = shape_of(&random_demand(n, packets, max_len, shape, seed));
            prop_assert_eq!(greedy_assignment(&shape), reference_assignment(&shape));
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
            let demand_shape = shape_of(&demand);
            prop_assert_eq!(direct_round_bound(&demand_shape, bandwidth), direct.rounds);
            // Zero-length packets are delivered without being sent.
            let sent = demand_shape.lens.iter().filter(|&&len| len > 0).count();
            prop_assert_eq!(direct.messages, sent as u64);
            let order = crossings(&demand_shape, &demand_shape.ends);
            let (schedule, planned) = plan(&demand_shape, &order, bandwidth);
            prop_assert_eq!(planned, balanced.rounds);
            // The floor bounds the greedy schedule, and the shortcut decides
            // as the full comparison does.
            let greedy = TwoHops::new(&demand_shape, &greedy_assignment(&demand_shape));
            let two_phase = greedy.rounds(&demand_shape, bandwidth);
            let floor = two_phase_floor(&demand_shape, bandwidth);
            prop_assert!(floor <= two_phase);
            let full = direct.rounds <= two_phase;
            prop_assert_eq!(schedule == Schedule::Direct, full);
            prop_assert!(
                shape != 3 || direct.rounds <= floor,
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
            // Two-phase pricing holds for any assignment: replay Valiant's
            // draws.
            let valiant = route_metrics(
                &mut ValiantRouter::new(ChaCha8Rng::seed_from_u64(seed)),
                &demand,
                bandwidth,
            );
            let mut draws = ChaCha8Rng::seed_from_u64(seed);
            let assignment: Vec<usize> = (0..demand.len()).map(|_| draws.gen_range(0..n)).collect();
            let hops = TwoHops::new(&demand_shape, &assignment);
            prop_assert_eq!(hops.rounds(&demand_shape, bandwidth), valiant.rounds);
        }
    }

    /// What the receivers read in one phase of `demand` over `links` whose
    /// senders send `payloads`, plus `junk` on one link when given.
    fn tampered_hop(
        shape: &Shape,
        links: &[Link],
        mut payloads: Vec<BitString>,
        junk: Option<(Link, BitString)>,
    ) -> Result<Vec<BitString>, SimError> {
        let mut outs = send(shape.n, links, &mut payloads);
        if let Some(((s, r), junk)) = junk {
            outs[s].send(NodeId::new(r), junk);
        }
        let mut session = Session::new(CliqueConfig::unicast(shape.n, 8));
        let inboxes = session.exchange(PHASE, outs)?;
        let order = crossings(shape, links);
        receive(shape, links, &order, &mut payloads, inboxes, PHASE)?;
        Ok(payloads)
    }

    /// The phase label of [`tampered_hop`].
    const PHASE: &str = "route/test";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Receivers read links by the shape alone, under the direct
        /// schedule and in both phases of the greedy two-phase schedule and
        /// of a Valiant assignment. A link cut short, a link extended by
        /// 1–64 junk bits and a payload on a link the shape does not list
        /// are each `MalformedPayload` naming the link's sender, never a
        /// panic.
        #[test]
        fn tampered_links_are_typed_errors(
            n in 2usize..24,
            packets in 1usize..80,
            max_len in 0usize..130,
            shape in 0u8..4,
            seed in any::<u64>(),
        ) {
            let (shape, honest) = random_demand(n, packets, max_len, shape, seed).split();
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x7A3E);
            let valiant: Vec<usize> = honest.iter().map(|_| rng.gen_range(0..n)).collect();
            let [greedy1, greedy2] = TwoHops::new(&shape, &greedy_assignment(&shape)).links;
            let [valiant1, valiant2] = TwoHops::new(&shape, &valiant).links;
            let rejected = |sender: usize| {
                let phase = PHASE.to_owned();
                Err(SimError::MalformedPayload { sender: NodeId::new(sender), phase })
            };
            for links in [shape.ends.clone(), greedy1, greedy2, valiant1, valiant2] {
                let read = |payloads, junk| tampered_hop(&shape, &links, payloads, junk);
                prop_assert_eq!(read(honest.clone(), None), Ok(honest.clone()));
                let junk = BitString::from_bits(rng.gen(), rng.gen_range(1..65));
                let crossing = crossings(&shape, &links);
                if let Some(&i) = crossing.get(rng.gen_range(0..crossing.len().max(1))) {
                    let mut short = honest.clone();
                    let cut = rng.gen_range(0..short[i].len());
                    short[i] = BitString::from_words(short[i].words(), cut);
                    prop_assert_eq!(read(short, None), rejected(links[i].0));
                    let extended = read(honest.clone(), Some((links[i], junk.clone())));
                    prop_assert_eq!(extended, rejected(links[i].0));
                }
                let start = rng.gen_range(0..n * n);
                let unlisted = (start..start + n * n)
                    .map(|l| (l / n % n, l % n))
                    .find(|&(s, r)| s != r && crossing.iter().all(|&i| links[i] != (s, r)));
                if let Some(link) = unlisted {
                    prop_assert_eq!(read(honest.clone(), Some((link, junk))), rejected(link.0));
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

    /// Every packet of `demand` arrives at its destination, and each
    /// destination lists its packets in demand order.
    fn check_delivery(demand: &RoutingDemand, delivered: &Delivered) {
        let (shape, payloads) = demand.clone().split();
        let mut expected: Delivered = vec![Vec::new(); shape.n];
        for (&(s, d), payload) in shape.ends.iter().zip(payloads) {
            expected[d].push(Packet::new(NodeId::new(s), NodeId::new(d), payload));
        }
        assert_eq!(
            delivered, &expected,
            "delivered packets differ from the demand"
        );
    }

    /// Routes `demand` at bandwidth `b`, checks the delivery and returns
    /// the ledger.
    fn route_metrics<R: Router>(router: &mut R, demand: &RoutingDemand, b: usize) -> Metrics {
        let mut session = Session::new(CliqueConfig::unicast(demand.n(), b));
        let delivered = router
            .route(demand.clone(), &mut session)
            .expect("routing failed");
        check_delivery(demand, &delivered);
        session.metrics().clone()
    }

    fn run_router<R: Router>(router: &mut R, demand: &RoutingDemand, b: usize) -> u64 {
        route_metrics(router, demand, b).rounds
    }

    #[test]
    fn balanced_router_beats_direct_on_concentrated_demands() {
        // Node 0 sends n·b bits to node 1: direct needs n rounds; a
        // two-phase balanced schedule spreads the packets over the n links of
        // node 0 and the n links of node 1, one packet per link and phase.
        let n = 16;
        let b = 8;
        let demand = concentrated(n, n, b);
        let direct_rounds = run_router(&mut DirectRouter, &demand, b);
        let balanced_rounds = run_router(&mut BalancedRouter, &demand, b);
        // Direct delivery pays the whole load on the (0,1) link: n packets
        // of b bits over a b-bit link.
        assert_eq!(direct_rounds, n as u64);
        assert!(
            balanced_rounds <= 2,
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
            let bound = direct_round_bound(&shape_of(&demand), b);
            assert_eq!(bound, rounds, "n = {}", demand.n());
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
        // costs one round on each of its links, so 16 rounds is a safe cap —
        // while still half the n rounds direct delivery pays on this demand.
        assert!(rounds <= 16, "valiant took {rounds} rounds");
        let direct_rounds = run_router(&mut DirectRouter, &demand, b);
        assert!(
            rounds < direct_rounds,
            "valiant ({rounds}) should beat direct ({direct_rounds})"
        );
    }

    #[test]
    fn zero_length_payloads_are_delivered() {
        let mut demand = RoutingDemand::new(4);
        demand.send(0, 1, BitString::new());
        demand.send(2, 3, BitString::from_bits(1, 1));
        let run = Runner::new(CliqueConfig::unicast(4, 4))
            .execute(&mut RouteProtocol::new(BalancedRouter, &demand))
            .unwrap();
        // Only the one-bit packet travels.
        assert_eq!(
            (run.rounds(), run.total_bits(), run.metrics.messages),
            (1, 1, 1)
        );
        let delivered = run.into_output();
        assert_eq!(delivered[1].len(), 1);
        assert_eq!(delivered[1][0].payload.len(), 0);
        assert_eq!(delivered[3].len(), 1);
    }
}
