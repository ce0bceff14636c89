//! Routing demands: who needs to send how many bits to whom.
//!
//! Theorem 2 of the paper (and Remark 3) repeatedly needs to deliver a
//! *balanced* demand — every player sends at most `O(n·s)` bits in total and
//! receives at most `O(n·s)` bits in total, though possibly very unevenly
//! across pairs — in `O(1)` rounds, citing Lenzen's routing theorem \[28\].
//! [`RoutingDemand`] describes such a demand as a list of packets, kept as
//! their shape (each packet's ends and length) and, in the same order,
//! their payloads, so a router splits it without touching a payload.

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

/// A demand's public shape: each packet's `(src, dst)` ends and payload
/// length, in demand order.
#[derive(Clone, Debug, Default)]
pub(crate) struct Shape {
    /// Number of players.
    pub(crate) n: usize,
    /// Every packet's `(src, dst)`.
    pub(crate) ends: Vec<(usize, usize)>,
    /// Every packet's payload length in bits.
    pub(crate) lens: Vec<usize>,
}

/// A collection of packets to be delivered on an `n`-player clique.
#[derive(Clone, Debug, Default)]
pub struct RoutingDemand {
    shape: Shape,
    /// Every packet's payload, in demand order.
    payloads: Vec<BitString>,
}

impl RoutingDemand {
    /// Creates an empty demand for `n` players.
    pub fn new(n: usize) -> Self {
        Self {
            shape: Shape {
                n,
                ..Shape::default()
            },
            payloads: Vec::new(),
        }
    }

    /// Number of players.
    pub fn n(&self) -> usize {
        self.shape.n
    }

    /// Adds a packet of `payload` from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the packet is a self-message.
    pub fn send(&mut self, src: usize, dst: usize, payload: BitString) {
        let n = self.shape.n;
        assert!(src < n && dst < n, "packet endpoints out of range");
        assert_ne!(src, dst, "self-messages need no routing");
        self.shape.ends.push((src, dst));
        self.shape.lens.push(payload.len());
        self.payloads.push(payload);
    }

    /// Splits the demand into its shape and its payloads, which a route
    /// then moves from sender to receiver.
    pub(crate) fn split(self) -> (Shape, Vec<BitString>) {
        (self.shape, self.payloads)
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// Returns `true` if there is nothing to route.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
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
        let (shape, payloads) = d.split();
        assert_eq!(shape.ends, [(0, 1), (0, 1), (2, 1), (3, 0)]);
        assert_eq!(shape.lens, [5, 3, 2, 7]);
        assert_eq!(payloads.iter().map(BitString::len).sum::<usize>(), 17);
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
