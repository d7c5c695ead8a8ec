//! Morton (Z-order) key encoding for 21-bit lattice coordinates.
//!
//! Bit layout: key bit `3k+2..3k` holds bit `k` of (z, y, x) — i.e. x is the
//! least significant axis, matching the octant convention of
//! `bonsai_util::aabb::Aabb::octant` (bit 0 → x-high).

use crate::DIM_CELLS;

/// Spread the low 21 bits of `v` so bit `k` moves to bit `3k`.
#[inline]
pub fn spread(v: u32) -> u64 {
    debug_assert!(v < DIM_CELLS);
    let mut x = v as u64 & 0x1F_FFFF; // 21 bits
    x = (x | (x << 32)) & 0x001F_0000_0000_FFFF;
    x = (x | (x << 16)) & 0x001F_0000_FF00_00FF;
    x = (x | (x << 8)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x << 4)) & 0x10C3_0C30_C30C_30C3;
    x = (x | (x << 2)) & 0x1249_2492_4924_9249;
    x
}

/// Inverse of [`spread`]: gather bits `3k` back to bit `k`.
#[inline]
pub fn compact(v: u64) -> u32 {
    let mut x = v & 0x1249_2492_4924_9249;
    x = (x | (x >> 2)) & 0x10C3_0C30_C30C_30C3;
    x = (x | (x >> 4)) & 0x100F_00F0_0F00_F00F;
    x = (x | (x >> 8)) & 0x001F_0000_FF00_00FF;
    x = (x | (x >> 16)) & 0x001F_0000_0000_FFFF;
    x = (x | (x >> 32)) & 0x1F_FFFF;
    x as u32
}

/// Encode lattice coordinates to a 63-bit Morton key.
#[inline]
pub fn encode(c: [u32; 3]) -> u64 {
    spread(c[0]) | (spread(c[1]) << 1) | (spread(c[2]) << 2)
}

/// Decode a Morton key back to lattice coordinates.
#[inline]
pub fn decode(key: u64) -> [u32; 3] {
    [compact(key), compact(key >> 1), compact(key >> 2)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KEY_END;

    #[test]
    fn spread_compact_round_trip() {
        for v in [0u32, 1, 2, 0x15_5555, 0x1F_FFFF, 0x10_0001, 12345] {
            assert_eq!(compact(spread(v)), v);
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let cases = [
            [0, 0, 0],
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
            [0x1F_FFFF, 0x1F_FFFF, 0x1F_FFFF],
            [123_456, 654_321, 111_111],
        ];
        for c in cases {
            assert_eq!(decode(encode(c)), c);
        }
    }

    #[test]
    fn axis_significance() {
        // x is the least significant axis.
        assert_eq!(encode([1, 0, 0]), 0b001);
        assert_eq!(encode([0, 1, 0]), 0b010);
        assert_eq!(encode([0, 0, 1]), 0b100);
        assert_eq!(encode([1, 1, 1]), 0b111);
    }

    #[test]
    fn max_key_in_range() {
        let k = encode([0x1F_FFFF; 3]);
        assert_eq!(k, KEY_END - 1);
    }

    #[test]
    fn monotone_in_each_axis_at_origin() {
        // Along a single axis from 0, Morton keys are strictly increasing.
        let mut prev = 0u64;
        for x in 1..100u32 {
            let k = encode([x, 0, 0]);
            assert!(k > prev);
            prev = k;
        }
    }
}
