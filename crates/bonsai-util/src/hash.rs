//! Checksums and mixing functions for wire-format and snapshot integrity.
//!
//! The distributed protocol frames every payload in an envelope carrying a
//! CRC-64 checksum ([`crc64`]), so corrupted or truncated messages are
//! *detected* instead of deserialized into garbage, and the snapshot /
//! checkpoint formats append the same checksum so torn or bit-flipped files
//! are rejected on restart. [`mix64`] is the SplitMix64 finalizer used to
//! derive deterministic per-(rank, kind, step) fault decisions.

/// CRC-64/XZ polynomial (ECMA-182), reflected.
const CRC64_POLY_REFLECTED: u64 = 0xC96C_5795_D787_0F42;

/// Input bytes folded per iteration of [`Crc64::update`]'s main loop.
const SLICES: usize = 16;

/// Slicing tables: `T[0]` is the classic bytewise table (the CRC of one
/// byte), and `T[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
/// One 16-byte block then costs 16 independent lookups XORed together
/// instead of 16 dependent ones. 16 × 256 × 8 B = 32 KiB, the L1 data cache
/// of the hosts this runs on.
const fn build_crc64_tables() -> [[u64; 256]; SLICES] {
    let mut tables = [[0u64; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC64_POLY_REFLECTED
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC64_TABLES: [[u64; 256]; SLICES] = build_crc64_tables();

/// Streaming CRC-64/XZ state, for checksumming non-contiguous data
/// (e.g. an envelope header followed by its payload) without copying.
pub struct Crc64 {
    state: u64,
}

impl Crc64 {
    /// Fresh checksum state.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self { state: !0u64 }
    }

    /// Fold `data` into the checksum: slicing-by-16 over whole 16-byte
    /// blocks, bytewise over the remainder. The value is that of the plain
    /// bytewise loop for every length and every split of the input.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC64_TABLES;
        let mut crc = self.state;
        let mut blocks = data.chunks_exact(SLICES);
        for block in &mut blocks {
            let block: &[u8; SLICES] = block.try_into().expect("chunks_exact yields SLICES bytes");
            // The running CRC only reaches the first eight bytes; the
            // last byte of the block has no zero bytes after it.
            let lo = crc ^ u64::from_le_bytes(block[..8].try_into().expect("eight bytes"));
            let lo = lo.to_le_bytes();
            let mut next = 0u64;
            let mut i = 0;
            while i < 8 {
                next ^= t[15 - i][lo[i] as usize] ^ t[7 - i][block[8 + i] as usize];
                i += 1;
            }
            crc = next;
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u64) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Final checksum value.
    pub fn finish(&self) -> u64 {
        !self.state
    }
}

/// CRC-64/XZ of `data` (init/final XOR `!0`, reflected).
pub fn crc64(data: &[u8]) -> u64 {
    let mut c = Crc64::new();
    c.update(data);
    c.finish()
}

/// SplitMix64 finalizer: a high-quality 64→64-bit mix, used to turn
/// `(seed, rank, kind, step, …)` tuples into deterministic fault decisions.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mix a sequence of values into one deterministic 64-bit hash.
pub fn mix_many(values: &[u64]) -> u64 {
    let mut h = 0x2545_F491_4F6C_DD1Du64;
    for &v in values {
        h = mix64(h ^ v);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table loop `Crc64::update` used to be: the
    /// reference the sliced kernel must equal bit for bit.
    fn crc64_bytewise(data: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &b in data {
            crc = (crc >> 8) ^ CRC64_TABLES[0][((crc ^ b as u64) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic non-repeating test bytes.
    fn noise(len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| (mix64(i) >> 24) as u8).collect()
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_alignment() {
        // 0..=272 covers the empty input, a pure tail, exactly one block,
        // and 17 blocks plus every tail length; the offsets move the slice
        // start across a 16-byte line.
        let buf = noise(272 + 16);
        for offset in [0, 1, 3, 7, 8, 9, 15] {
            for len in 0..=272 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc64(data),
                    crc64_bytewise(data),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn streaming_equals_bytewise_at_every_split() {
        let data = noise(272);
        let want = crc64_bytewise(&data);
        for split in 0..=data.len() {
            let mut c = Crc64::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), want, "split at {split}");
        }
        // Many small updates: the sliced loop never sees a whole block.
        let mut c = Crc64::new();
        for piece in data.chunks(5) {
            c.update(piece);
        }
        assert_eq!(c.finish(), want);
    }

    #[test]
    fn crc64_known_vector() {
        // CRC-64/XZ("123456789") = 0x995DC9BBDF1939FA (standard check value).
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64_bytewise(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn crc64_detects_single_bit_flips() {
        let data: Vec<u8> = (0..255u8).collect();
        let base = crc64(&data);
        for i in (0..data.len()).step_by(17) {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc64(&flipped), base, "flip at byte {i} bit {bit} undetected");
            }
        }
    }

    #[test]
    fn crc64_detects_truncation() {
        let data = vec![0xABu8; 64];
        let base = crc64(&data);
        for cut in [0, 1, 32, 63] {
            assert_ne!(crc64(&data[..cut]), base, "truncation to {cut} undetected");
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"hello world, split across parts";
        let mut c = Crc64::new();
        c.update(&data[..7]);
        c.update(&data[7..]);
        assert_eq!(c.finish(), crc64(data));
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(1), mix64(2));
        assert_eq!(mix_many(&[1, 2, 3]), mix_many(&[1, 2, 3]));
        assert_ne!(mix_many(&[1, 2, 3]), mix_many(&[3, 2, 1]));
    }
}
