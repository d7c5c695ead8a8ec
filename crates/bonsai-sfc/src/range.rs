//! Half-open key ranges as domain descriptors.
//!
//! After the parallel sample sort (§III-B1) the global Peano–Hilbert curve is
//! cut into `p` pieces; the beginning and ending PH keys of each piece *are*
//! the domain geometry of the corresponding process. A [`KeyRange`] is such a
//! piece; [`KeyRange::covering_cells`] recovers the minimal set of octree
//! cells whose union is exactly the range — these are the paper's boundary
//! cells ("gray squares" of Fig. 2) used for boundary trees and LETs.

use crate::{KEY_BITS, KEY_END, MAX_LEVEL};

/// A half-open range `[start, end)` of SFC keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyRange {
    /// First key in the range.
    pub start: u64,
    /// One past the last key.
    pub end: u64,
}

impl KeyRange {
    /// Construct; panics if inverted or out of key space.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "inverted range {start}..{end}");
        assert!(end <= KEY_END, "range end {end} beyond key space");
        Self { start, end }
    }

    /// The full key space.
    pub fn everything() -> Self {
        Self { start: 0, end: KEY_END }
    }

    /// Number of keys in the range.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// `true` if the range is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// `true` if `key` lies inside.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        key >= self.start && key < self.end
    }

    /// Cut the range into `n` near-equal contiguous pieces (sizes differ by
    /// at most 1 key).
    pub fn split_even(&self, n: usize) -> Vec<KeyRange> {
        assert!(n > 0);
        let len = self.len() as u128;
        (0..n as u128)
            .map(|i| {
                let s = self.start + (len * i / n as u128) as u64;
                let e = self.start + (len * (i + 1) / n as u128) as u64;
                KeyRange::new(s, e)
            })
            .collect()
    }

    /// The minimal set of aligned octree cells `(prefix_key, level)` that
    /// exactly tiles the range.
    ///
    /// A cell at `level` covers `8^(MAX_LEVEL - level)` consecutive keys
    /// starting at a multiple of that span. The greedy walk from `start`
    /// always takes the largest aligned cell that fits; the result is the
    /// canonical cell decomposition of an SFC interval (O(log N) cells per
    /// endpoint).
    pub fn covering_cells(&self) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        let mut cursor = self.start;
        while cursor < self.end {
            // Largest power-of-8 block aligned at `cursor`…
            let align_bits = if cursor == 0 {
                KEY_BITS
            } else {
                (cursor.trailing_zeros() / 3 * 3).min(KEY_BITS)
            };
            // …that still fits in the remainder.
            let remaining = self.end - cursor;
            let mut bits = align_bits;
            while bits > 0 && (1u64 << bits) > remaining {
                bits -= 3;
            }
            let level = MAX_LEVEL - bits / 3;
            out.push((cursor, level));
            cursor += 1u64 << bits;
        }
        out
    }
}

/// Partition the whole key space among `p` ranks by *cutting a weighted key
/// sequence*: `cuts` are the `p - 1` interior boundary keys, ascending.
pub fn ranges_from_cuts(cuts: &[u64]) -> Vec<KeyRange> {
    let mut out = Vec::with_capacity(cuts.len() + 1);
    let mut prev = 0u64;
    for &c in cuts {
        assert!(c >= prev, "cuts must be ascending");
        out.push(KeyRange::new(prev, c));
        prev = c;
    }
    out.push(KeyRange::new(prev, KEY_END));
    out
}

/// Find which range of a sorted disjoint partition contains `key`.
pub fn find_owner(ranges: &[KeyRange], key: u64) -> usize {
    debug_assert!(!ranges.is_empty());
    match ranges.binary_search_by(|r| {
        if key < r.start {
            std::cmp::Ordering::Greater
        } else if key >= r.end {
            std::cmp::Ordering::Less
        } else {
            std::cmp::Ordering::Equal
        }
    }) {
        Ok(i) => i,
        Err(_) => panic!("key {key} not covered by partition"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_even_is_exact_partition() {
        let r = KeyRange::everything();
        let parts = r.split_even(7);
        assert_eq!(parts.len(), 7);
        assert_eq!(parts[0].start, 0);
        assert_eq!(parts.last().unwrap().end, KEY_END);
        for w in parts.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        let total: u128 = parts.iter().map(|p| p.len() as u128).sum();
        assert_eq!(total, KEY_END as u128);
        let max = parts.iter().map(|p| p.len()).max().unwrap();
        let min = parts.iter().map(|p| p.len()).min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn covering_cells_tiles_exactly() {
        let cases = [
            KeyRange::new(0, KEY_END),
            KeyRange::new(0, 8),
            KeyRange::new(3, 20),
            KeyRange::new(7, 8),
            KeyRange::new(123_456_789, 987_654_321),
            KeyRange::new(KEY_END - 5, KEY_END),
        ];
        for r in cases {
            let cells = r.covering_cells();
            // Cells are contiguous, aligned, and tile the range exactly.
            let mut cursor = r.start;
            for &(key, level) in &cells {
                assert_eq!(key, cursor, "gap in covering of {r:?}");
                let span = 1u64 << (3 * (MAX_LEVEL - level));
                assert_eq!(key % span, 0, "cell not aligned");
                cursor += span;
            }
            assert_eq!(cursor, r.end, "covering of {r:?} wrong length");
        }
    }

    #[test]
    fn covering_of_full_space_is_one_cell() {
        let cells = KeyRange::everything().covering_cells();
        assert_eq!(cells, vec![(0, 0)]);
    }

    #[test]
    fn covering_is_logarithmically_small() {
        // An arbitrary range decomposes into O(levels) cells, not O(len).
        let r = KeyRange::new(1, KEY_END - 1);
        let cells = r.covering_cells();
        assert!(cells.len() <= (2 * MAX_LEVEL as usize) * 7, "covering too large: {}", cells.len());
    }

    #[test]
    fn ranges_from_cuts_and_owner() {
        let ranges = ranges_from_cuts(&[100, 1000, 50_000]);
        assert_eq!(ranges.len(), 4);
        assert_eq!(find_owner(&ranges, 0), 0);
        assert_eq!(find_owner(&ranges, 99), 0);
        assert_eq!(find_owner(&ranges, 100), 1);
        assert_eq!(find_owner(&ranges, 49_999), 2);
        assert_eq!(find_owner(&ranges, KEY_END - 1), 3);
    }

    #[test]
    fn contains_and_overlaps() {
        let a = KeyRange::new(10, 20);
        let b = KeyRange::new(20, 30);
        assert!(a.contains(10) && !a.contains(20));
        // Adjacent half-open ranges do not overlap: the cut key is the
        // second one's alone.
        assert!(b.contains(20) && !b.contains(19));
        assert!(KeyRange::new(5, 5).is_empty());
    }

    #[test]
    #[should_panic]
    fn inverted_range_panics() {
        let _ = KeyRange::new(5, 4);
    }
}
