//! 3D Hilbert curve encoding by a finite-state table.
//!
//! The Peano–Hilbert curve visits every cell of the 2²¹³ lattice exactly once
//! and — unlike Morton order — moves by exactly one lattice step between
//! consecutive keys. That unit-step property is why the paper (§III-B) uses it
//! for domain decomposition: contiguous key ranges have compact (if fractal)
//! boundaries, minimizing the boundary-tree and LET data that must travel over
//! the interconnect.
//!
//! The curve is John Skilling's (*Programming the Hilbert curve*, AIP Conf.
//! Proc. 707, 2004). His transform works one level at a time, most
//! significant first, and all it carries from a level to the next is a
//! signed permutation of the three axes plus one Gray-code parity bit. So the
//! encoder is a state machine, as in the table-driven curve of Cornerstone
//! (arXiv:2307.06345): a step maps (state, the level's three coordinate bits)
//! to (the key's 3-bit digit, the next state), and 48 states are reachable
//! from the start. The tables hold two levels per step, one 64-entry row per
//! state, and are built at compile time by running Skilling's per-level rule
//! (`skilling_level`). [`encode`] spreads the coordinates into a Morton
//! word and reads it six bits at a time; [`decode`] walks the inverse table
//! and compacts the Morton word it writes. A walk over fewer levels from the
//! start state is the curve at that resolution ([`encode_bits`]), and the
//! leading digits of a key name its octree cell ([`cell_corner`]).

use crate::{morton, DIM_BITS};

/// States of the machine reachable from [`START`]; the table build asserts it.
const STATES: usize = 48;

/// A state packed as `perm[0] | perm[1] << 2 | perm[2] << 4 | flip << 6 |
/// parity << 9`: the lower levels' bits have become `raw[perm[i]] ^ flip_i`
/// on axis `i`, and `parity` inverts every digit bit. The start is the
/// identity.
const START: u32 = 2 << 4 | 1 << 2;

/// Skilling's rule for one level: the key digit of the raw coordinate bits
/// `raw` (`x | y << 1 | z << 2`, a Morton triple) in state `state`, and the
/// state the lower levels see.
const fn skilling_level(state: u32, raw: u32) -> (u32, u32) {
    let mut perm = [state & 3, (state >> 2) & 3, (state >> 4) & 3];
    let mut flip = [(state >> 6) & 1, (state >> 7) & 1, (state >> 8) & 1];
    let parity = (state >> 9) & 1;
    // The level's bits as the higher levels' transform left them.
    let y = [
        ((raw >> perm[0]) & 1) ^ flip[0],
        ((raw >> perm[1]) & 1) ^ flip[1],
        ((raw >> perm[2]) & 1) ^ flip[2],
    ];
    // Gray encode; the higher levels' last Gray bits flip all three.
    let gray = [y[0], y[0] ^ y[1], y[0] ^ y[1] ^ y[2]];
    let digit = (gray[0] ^ parity) << 2 | (gray[1] ^ parity) << 1 | (gray[2] ^ parity);
    // "Inverse undo": a set bit inverts axis 0 below this level, a clear
    // one exchanges axis 0 with axis i there.
    let mut i = 0;
    while i < 3 {
        if y[i] == 1 {
            flip[0] ^= 1;
        } else {
            let p = perm[0];
            perm[0] = perm[i];
            perm[i] = p;
            let f = flip[0];
            flip[0] = flip[i];
            flip[i] = f;
        }
        i += 1;
    }
    let next = perm[0]
        | perm[1] << 2
        | perm[2] << 4
        | flip[0] << 6
        | flip[1] << 7
        | flip[2] << 8
        | (parity ^ gray[2]) << 9;
    (digit, next)
}

/// Two levels per step: entry `row + six input bits` is `next_row | six
/// output bits`, where a row is a state's index times 64.
struct Tables {
    /// Input: two Morton triples, the higher level in the high bits.
    encode: [u16; STATES * 64],
    /// Input: two key digits; output: the two Morton triples.
    decode: [u16; STATES * 64],
}

const fn build_tables() -> Tables {
    // Number the states breadth first from the start.
    let mut states = [0u32; STATES];
    let mut index = [u8::MAX; 1 << 10];
    states[0] = START;
    index[START as usize] = 0;
    let (mut found, mut s) = (1, 0);
    while s < found {
        let mut raw = 0;
        while raw < 8 {
            let next = skilling_level(states[s], raw).1 as usize;
            if index[next] == u8::MAX {
                assert!(found < STATES, "more Hilbert states reachable than STATES");
                states[found] = next as u32;
                index[next] = found as u8;
                found += 1;
            }
            raw += 1;
        }
        s += 1;
    }
    assert!(
        found == STATES,
        "fewer Hilbert states reachable than STATES"
    );
    let mut t = Tables {
        encode: [0; STATES * 64],
        decode: [0; STATES * 64],
    };
    s = 0;
    while s < STATES {
        let mut raw = 0;
        while raw < 64 {
            let (high, mid) = skilling_level(states[s], raw >> 3);
            let (low, next) = skilling_level(mid, raw & 7);
            let row = (index[next as usize] as u16) << 6;
            let digits = (high << 3 | low) as usize;
            t.encode[s * 64 + raw as usize] = row | digits as u16;
            t.decode[s * 64 + digits] = row | raw as u16;
            raw += 1;
        }
        s += 1;
    }
    t
}

static TABLES: Tables = build_tables();

/// Walk `levels` 3-bit groups of `word` (its low `3 · levels` bits, the
/// most significant first) through `table` from the start state.
#[inline(always)]
fn walk(table: &[u16; STATES * 64], word: u64, levels: u32) -> u64 {
    let mut out = 0u64;
    let mut row = 0usize;
    let mut left = levels;
    while left >= 2 {
        left -= 2;
        let e = table[row | ((word >> (3 * left)) & 63) as usize];
        out = out << 6 | (e & 63) as u64;
        row = (e & !63) as usize;
    }
    if left == 1 {
        // The first level of a two-level entry does not depend on the second.
        let e = table[row | ((word & 7) << 3) as usize];
        out = out << 3 | ((e & 63) >> 3) as u64;
    }
    out
}

fn assert_bits(bits: u32) {
    assert!(
        (1..=DIM_BITS).contains(&bits),
        "Hilbert resolution {bits} bits per axis outside 1..={DIM_BITS}"
    );
}

/// Encode lattice coordinates to a 63-bit Hilbert key.
#[inline]
pub fn encode(c: [u32; 3]) -> u64 {
    walk(&TABLES.encode, morton::encode(c), DIM_BITS)
}

/// Decode a 63-bit Hilbert key back to lattice coordinates.
#[inline]
pub fn decode(key: u64) -> [u32; 3] {
    morton::decode(walk(&TABLES.decode, key, DIM_BITS))
}

/// Encode at reduced resolution (`bits` per axis, `1..=DIM_BITS`); used by
/// the decomposition figure and by tests that enumerate an entire small
/// lattice.
#[inline]
pub fn encode_bits(c: [u32; 3], bits: u32) -> u64 {
    assert_bits(bits);
    walk(&TABLES.encode, morton::encode(c), bits)
}

/// Decode at reduced resolution (`bits` per axis, `1..=DIM_BITS`).
#[inline]
pub fn decode_bits(key: u64, bits: u32) -> [u32; 3] {
    assert_bits(bits);
    morton::decode(walk(&TABLES.decode, key, bits))
}

/// Lattice coordinates of the low corner of the level-`level` octree cell
/// holding the 63-bit `key`: only the key's `level` leading digits are
/// decoded.
#[inline]
pub fn cell_corner(key: u64, level: u32) -> [u32; 3] {
    assert!(
        level <= DIM_BITS,
        "octree level {level} deeper than {DIM_BITS}"
    );
    let shift = 3 * (DIM_BITS - level);
    morton::decode(walk(&TABLES.decode, key >> shift, level) << shift)
}

/// Skilling's transpose algorithm as he published it: the oracle the
/// tables are tested against.
#[cfg(test)]
pub(crate) mod skilling {
    /// Convert lattice coordinates (in place) to Hilbert transpose form.
    ///
    /// After the call, interleaving the bits of `x` MSB-first (axis 0 most
    /// significant) yields the scalar Hilbert index.
    pub fn axes_to_transpose(x: &mut [u32; 3], bits: u32) {
        let n = 3usize;
        let m = 1u32 << (bits - 1);
        // Inverse undo
        let mut q = m;
        while q > 1 {
            let p = q - 1;
            for i in 0..n {
                if x[i] & q != 0 {
                    x[0] ^= p; // invert low bits of axis 0
                } else {
                    let t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q >>= 1;
        }
        // Gray encode
        for i in 1..n {
            x[i] ^= x[i - 1];
        }
        let mut t = 0u32;
        q = m;
        while q > 1 {
            if x[n - 1] & q != 0 {
                t ^= q - 1;
            }
            q >>= 1;
        }
        for xi in x.iter_mut() {
            *xi ^= t;
        }
    }

    /// Inverse of [`axes_to_transpose`].
    pub fn transpose_to_axes(x: &mut [u32; 3], bits: u32) {
        let n = 3usize;
        let m = 1u32 << (bits - 1);
        // Gray decode by H ^ (H/2)
        let mut t = x[n - 1] >> 1;
        for i in (1..n).rev() {
            x[i] ^= x[i - 1];
        }
        x[0] ^= t;
        // Undo excess work
        let mut q = 2u32;
        while q != m << 1 {
            let p = q - 1;
            for i in (0..n).rev() {
                if x[i] & q != 0 {
                    x[0] ^= p;
                } else {
                    t = (x[0] ^ x[i]) & p;
                    x[0] ^= t;
                    x[i] ^= t;
                }
            }
            q <<= 1;
        }
    }

    /// Interleave transpose-format coordinates into a scalar key (axis 0
    /// most significant within each 3-bit group).
    pub fn transpose_to_key(x: [u32; 3], bits: u32) -> u64 {
        let mut key = 0u64;
        for b in (0..bits).rev() {
            for xi in x.iter() {
                key = (key << 1) | ((xi >> b) & 1) as u64;
            }
        }
        key
    }

    /// Inverse of [`transpose_to_key`].
    pub fn key_to_transpose(key: u64, bits: u32) -> [u32; 3] {
        let mut x = [0u32; 3];
        for b in (0..bits).rev() {
            for (i, xi) in x.iter_mut().enumerate() {
                let shift = 3 * b + (2 - i as u32);
                *xi = (*xi << 1) | ((key >> shift) & 1) as u32;
            }
        }
        x
    }

    /// The key of `c` at `bits` per axis.
    pub fn encode(c: [u32; 3], bits: u32) -> u64 {
        let mut x = c;
        axes_to_transpose(&mut x, bits);
        transpose_to_key(x, bits)
    }

    /// The cell of `key` at `bits` per axis.
    pub fn decode(key: u64, bits: u32) -> [u32; 3] {
        let mut x = key_to_transpose(key, bits);
        transpose_to_axes(&mut x, bits);
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_util::rng::Xoshiro256;

    /// `count` seeded random 21-bit triples, each checked in both
    /// directions against Skilling's loops.
    fn random_triples_equal_skilling(count: usize, seed: u64) {
        let mut rng = Xoshiro256::seed_from(seed);
        let mask = (1u64 << DIM_BITS) - 1;
        for _ in 0..count {
            let c = [0; 3].map(|_: u32| (rng.next_u64() & mask) as u32);
            let key = rng.next_u64() >> 1;
            assert_eq!(encode(c), skilling::encode(c, DIM_BITS), "encode {c:?}");
            assert_eq!(
                decode(key),
                skilling::decode(key, DIM_BITS),
                "decode {key:#x}"
            );
        }
    }

    #[test]
    fn the_table_equals_skilling_on_every_cell_of_small_lattices() {
        for bits in 1..=6u32 {
            let side = 1u32 << bits;
            for x in 0..side {
                for y in 0..side {
                    for z in 0..side {
                        let c = [x, y, z];
                        let want = skilling::encode(c, bits);
                        assert_eq!(encode_bits(c, bits), want, "encode {c:?} at {bits} bits");
                        assert_eq!(decode_bits(want, bits), skilling::decode(want, bits));
                    }
                }
            }
        }
    }

    #[test]
    fn the_table_equals_skilling_on_random_full_resolution_triples() {
        random_triples_equal_skilling(100_000, 45);
    }

    #[test]
    #[ignore = "10⁷ triples: about 3 s in release; scripts/ci.sh runs it"]
    fn the_table_equals_skilling_on_ten_million_random_triples() {
        random_triples_equal_skilling(10_000_000, 2014);
    }

    #[test]
    fn a_cell_corner_is_the_masked_full_decode() {
        let mut rng = Xoshiro256::seed_from(7);
        for _ in 0..2_000 {
            let key = rng.next_u64() >> 1;
            let full = skilling::decode(key, DIM_BITS);
            for level in 0..=DIM_BITS {
                let mask = !((1u64 << (DIM_BITS - level)) - 1) as u32;
                assert_eq!(
                    cell_corner(key, level),
                    full.map(|v| v & mask),
                    "{key:#x} at {level}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside 1..=21")]
    fn encode_bits_refuses_zero_bits() {
        encode_bits([0, 0, 0], 0);
    }

    #[test]
    #[should_panic(expected = "outside 1..=21")]
    fn encode_bits_refuses_more_bits_than_a_key_holds() {
        encode_bits([0, 0, 0], DIM_BITS + 1);
    }

    #[test]
    #[should_panic(expected = "outside 1..=21")]
    fn decode_bits_refuses_zero_bits() {
        decode_bits(0, 0);
    }

    #[test]
    #[should_panic(expected = "outside 1..=21")]
    fn decode_bits_refuses_more_bits_than_a_key_holds() {
        decode_bits(0, DIM_BITS + 1);
    }

    #[test]
    fn round_trip_full_resolution() {
        let cases = [
            [0u32, 0, 0],
            [1, 0, 0],
            [0x1F_FFFF, 0x1F_FFFF, 0x1F_FFFF],
            [123_456, 654_321, 111_111],
            [0x10_0000, 0, 0x0F_FFFF],
        ];
        for c in cases {
            assert_eq!(decode(encode(c)), c, "round trip failed for {c:?}");
        }
    }

    #[test]
    fn bijective_on_small_lattice() {
        // 3 bits per axis: all 512 cells must map to distinct keys in [0, 512).
        let bits = 3;
        let mut seen = vec![false; 512];
        for x in 0..8u32 {
            for y in 0..8u32 {
                for z in 0..8u32 {
                    let k = encode_bits([x, y, z], bits) as usize;
                    assert!(k < 512);
                    assert!(!seen[k], "key {k} hit twice");
                    seen[k] = true;
                    assert_eq!(decode_bits(k as u64, bits), [x, y, z]);
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn consecutive_keys_are_lattice_neighbours() {
        // The defining property of the Hilbert curve: successive keys differ
        // by exactly one step along exactly one axis.
        let bits = 4; // 4096 cells
        let total = 1u64 << (3 * bits);
        let mut prev = decode_bits(0, bits);
        for k in 1..total {
            let cur = decode_bits(k, bits);
            let d: u32 = (0..3)
                .map(|i| (cur[i] as i64 - prev[i] as i64).unsigned_abs() as u32)
                .sum();
            assert_eq!(d, 1, "keys {} -> {} jump {:?} -> {:?}", k - 1, k, prev, cur);
            prev = cur;
        }
    }

    #[test]
    fn starts_at_origin() {
        assert_eq!(decode_bits(0, 5), [0, 0, 0]);
        assert_eq!(decode(0), [0, 0, 0]);
    }

    #[test]
    fn full_res_consecutive_keys_adjacent_spot_check() {
        // Spot-check the unit-step property at full 21-bit resolution around
        // a few arbitrary keys.
        for &start in &[1u64 << 40, 0xABCDEF_u64, (1u64 << 62) + 12345] {
            let a = decode(start);
            let b = decode(start + 1);
            let d: u32 = (0..3)
                .map(|i| (a[i] as i64 - b[i] as i64).unsigned_abs() as u32)
                .sum();
            assert_eq!(d, 1);
        }
    }

    #[test]
    fn transpose_round_trip() {
        let x = [0b1011u32, 0b0110, 0b1100];
        let k = skilling::transpose_to_key(x, 4);
        assert_eq!(skilling::key_to_transpose(k, 4), x);
    }
}
