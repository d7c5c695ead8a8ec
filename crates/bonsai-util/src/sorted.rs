//! Lookups in append-only lists whose entries carry a key that never
//! decreases (a step or epoch number): the entries of one key are one
//! contiguous run, found without reading the entries before it.

use std::ops::Range;

/// Index range of the entries of `items` whose key equals `key`, by two
/// binary searches. `items` must be ordered by non-decreasing `key_of`;
/// otherwise the range is unspecified (but in bounds).
pub fn equal_run<T>(items: &[T], key: u64, key_of: impl Fn(&T) -> u64) -> Range<usize> {
    let start = items.partition_point(|x| key_of(x) < key);
    let len = items[start..].partition_point(|x| key_of(x) == key);
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_each_run_and_nothing_else() {
        let keys = [2u64, 2, 3, 3, 3, 7];
        let run = |k| equal_run(&keys, k, |&x| x);
        assert_eq!(run(1), 0..0);
        assert_eq!(run(2), 0..2);
        assert_eq!(run(3), 2..5);
        assert_eq!(run(5), 5..5);
        assert_eq!(run(7), 5..6);
        assert_eq!(run(8), 6..6);
        assert_eq!(equal_run(&[] as &[u64], 4, |&x| x), 0..0);
    }
}
