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
    pub(crate) dst: NodeId,
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
    pub(crate) fn push(&mut self, packet: Packet) {
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
    pub(crate) fn packets(&self) -> &[Packet] {
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
        assert_eq!(d.len(), 0);
    }

    #[test]
    fn load_accounting() {
        let mut d = RoutingDemand::new(4);
        d.send(0, 1, payload(5));
        d.send(0, 1, payload(3));
        d.send(2, 1, payload(2));
        d.send(3, 0, payload(7));
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        let bits: usize = d.packets().iter().map(|p| p.payload.len()).sum();
        assert_eq!(bits, 17);
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
