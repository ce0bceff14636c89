//! Routing demands: who needs to send how many bits to whom.
//!
//! Theorem 2 of the paper (and Remark 3) repeatedly needs to deliver a
//! *balanced* demand — every player sends at most `O(n·s)` bits in total and
//! receives at most `O(n·s)` bits in total, though possibly very unevenly
//! across pairs — in `O(1)` rounds, citing Lenzen's routing theorem \[28\].
//! [`RoutingDemand`] describes such a demand as a list of packets.

use clique_sim::prelude::*;

/// A single packet: payload bits travelling from `src` to `dst`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Originating player.
    pub src: NodeId,
    /// Destination player.
    pub dst: NodeId,
    /// Payload bits.
    pub payload: BitString,
}

impl Packet {
    /// Creates a packet.
    pub fn new(src: NodeId, dst: NodeId, payload: BitString) -> Self {
        Self { src, dst, payload }
    }
}

/// A collection of packets to be delivered on an `n`-player clique.
#[derive(Clone, Debug, Default)]
pub struct RoutingDemand {
    n: usize,
    packets: Vec<Packet>,
}

impl RoutingDemand {
    /// Creates an empty demand for `n` players.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            packets: Vec::new(),
        }
    }

    /// Number of players.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds a packet.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the packet is a self-message.
    pub fn push(&mut self, packet: Packet) {
        assert!(
            packet.src.index() < self.n && packet.dst.index() < self.n,
            "packet endpoints out of range"
        );
        assert_ne!(packet.src, packet.dst, "self-messages need no routing");
        self.packets.push(packet);
    }

    /// Convenience: adds a packet from raw parts.
    pub fn send(&mut self, src: usize, dst: usize, payload: BitString) {
        self.push(Packet::new(NodeId::new(src), NodeId::new(dst), payload));
    }

    /// The packets.
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Returns `true` if there is nothing to route.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Total payload bits.
    pub fn total_bits(&self) -> u64 {
        self.packets.iter().map(|p| p.payload.len() as u64).sum()
    }

    /// Per-player totals `(bits sent, bits received)`.
    pub fn per_node_load(&self) -> Vec<(u64, u64)> {
        let mut load = vec![(0u64, 0u64); self.n];
        for p in &self.packets {
            load[p.src.index()].0 += p.payload.len() as u64;
            load[p.dst.index()].1 += p.payload.len() as u64;
        }
        load
    }

    /// Maximum over players of bits sent or received.
    pub fn max_node_load(&self) -> u64 {
        self.per_node_load()
            .iter()
            .map(|&(s, r)| s.max(r))
            .max()
            .unwrap_or(0)
    }

    /// Returns `true` if every player sends at most `limit` bits and receives
    /// at most `limit` bits in total — the "balanced" precondition of
    /// Lenzen's routing theorem with limit `Θ(n·b)`.
    pub fn is_balanced(&self, limit: u64) -> bool {
        self.per_node_load()
            .iter()
            .all(|&(s, r)| s <= limit && r <= limit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(bits: usize) -> BitString {
        BitString::from_bools(&vec![true; bits])
    }

    #[test]
    fn empty_demand() {
        let d = RoutingDemand::new(4);
        assert!(d.is_empty());
        assert_eq!(d.total_bits(), 0);
        assert_eq!(d.max_node_load(), 0);
        assert!(d.is_balanced(0));
    }

    #[test]
    fn load_accounting() {
        let mut d = RoutingDemand::new(4);
        d.send(0, 1, payload(5));
        d.send(0, 1, payload(3));
        d.send(2, 1, payload(2));
        d.send(3, 0, payload(7));
        assert_eq!(d.len(), 4);
        assert_eq!(d.total_bits(), 17);
        let loads = d.per_node_load();
        assert_eq!(loads[0], (8, 7));
        assert_eq!(loads[1], (0, 10));
        assert_eq!(d.max_node_load(), 10);
        assert!(d.is_balanced(10));
        assert!(!d.is_balanced(9));
    }

    #[test]
    #[should_panic(expected = "self-messages")]
    fn self_message_rejected() {
        let mut d = RoutingDemand::new(3);
        d.send(1, 1, payload(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut d = RoutingDemand::new(3);
        d.send(0, 5, payload(1));
    }
}
