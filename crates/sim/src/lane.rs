//! The machine word of the packed kernels.
//!
//! Every packed data path in the workspace — [`BitString`](crate::bits),
//! [`BitMatrix`](crate::linalg), the packed adjacency rows of
//! `clique-graphs` — stores bits least-significant-first in
//! [`DefaultLane`] words, and all of their geometry derives from
//! [`LANE_BITS`]. Lanes are `u64`: a `u128` lane measured slower end to
//! end, so there is one width.
//!
//! The lane is a detail of the *local computation*. Message lengths are
//! counted in bits, and integrity checksums are computed over the
//! canonical little-endian byte serialisation of the bits, never over the
//! backing words.

/// The word the packed kernels run on.
pub type DefaultLane = u64;

/// Bits per [`DefaultLane`] word.
pub const LANE_BITS: usize = DefaultLane::BITS as usize;

/// The lane whose `bits` low-order bits are set (all of them when
/// `bits >= LANE_BITS`).
#[inline]
pub fn mask_low(bits: usize) -> DefaultLane {
    if bits >= LANE_BITS {
        DefaultLane::MAX
    } else {
        (1 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_low_covers_the_lane() {
        assert_eq!(mask_low(0), 0);
        assert_eq!(mask_low(5), 0b11111);
        assert_eq!(mask_low(LANE_BITS - 1).count_ones() as usize, LANE_BITS - 1);
        assert_eq!(mask_low(LANE_BITS), DefaultLane::MAX);
        assert_eq!(mask_low(LANE_BITS + 3), DefaultLane::MAX);
    }
}
