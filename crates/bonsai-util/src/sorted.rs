//! Sorted lists: lookups in append-only lists whose entries carry a key
//! that never decreases (a step or epoch number), where the entries of one
//! key are one contiguous run found without reading the entries before it;
//! and the merge of already-sorted runs into one sorted list.

use std::ops::Range;

/// Index range of the entries of `items` whose key equals `key`, by two
/// binary searches. `items` must be ordered by non-decreasing `key_of`;
/// otherwise the range is unspecified (but in bounds).
pub fn equal_run<T>(items: &[T], key: u64, key_of: impl Fn(&T) -> u64) -> Range<usize> {
    let start = items.partition_point(|x| key_of(x) < key);
    let len = items[start..].partition_point(|x| key_of(x) == key);
    start..start + len
}

/// The ascending concatenation of `runs`, each already ascending: what
/// flattening them and sorting returns, by merging neighbouring runs pairwise
/// until one is left (⌈log₂ k⌉ passes over the items for k runs).
pub fn merge_sorted_runs<T: Copy + Ord>(runs: &[Vec<T>]) -> Vec<T> {
    let mut cur: Vec<T> = runs.concat();
    // Run `i` is `cur[bounds[i]..bounds[i + 1]]`.
    let mut bounds: Vec<usize> = std::iter::once(0)
        .chain(runs.iter().scan(0, |end, run| {
            *end += run.len();
            Some(*end)
        }))
        .collect();
    let mut next = Vec::with_capacity(cur.len());
    while bounds.len() > 2 {
        next.clear();
        let mut merged = vec![0];
        for w in bounds.windows(3).step_by(2) {
            merge_into(&cur[w[0]..w[1]], &cur[w[1]..w[2]], &mut next);
            merged.push(w[2]);
        }
        // An odd run count leaves the last run unpaired for this pass.
        if (bounds.len() - 1) % 2 == 1 {
            next.extend_from_slice(&cur[bounds[bounds.len() - 2]..]);
            merged.push(cur.len());
        }
        std::mem::swap(&mut cur, &mut next);
        bounds = merged;
    }
    cur
}

/// Append the ascending merge of ascending `a` and `b` to `out`.
fn merge_into<T: Copy + Ord>(a: &[T], b: &[T], out: &mut Vec<T>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if b[j] < a[i] {
            out.push(b[j]);
            j += 1;
        } else {
            out.push(a[i]);
            i += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn flatten_and_sort(runs: &[Vec<u64>]) -> Vec<u64> {
        let mut all = runs.concat();
        all.sort_unstable();
        all
    }

    #[test]
    fn merge_equals_flatten_and_sort() {
        let cases: Vec<Vec<Vec<u64>>> = vec![
            vec![],
            vec![vec![]],
            vec![vec![], vec![], vec![]],
            vec![vec![3, 5, 9]],
            // Uneven lengths, empty runs between, duplicate keys inside a
            // run and across runs.
            vec![vec![1, 4, 4, 8], vec![], vec![2], vec![4, 4, 5, 6, 7, 30], vec![0, 4]],
            vec![vec![7, 7, 7], vec![7], vec![], vec![7, 7]],
            vec![vec![], vec![1, 2, 3], vec![]],
        ];
        for runs in &cases {
            assert_eq!(merge_sorted_runs(runs), flatten_and_sort(runs), "{runs:?}");
        }
        // Random uneven runs over a small key range (many duplicates), for
        // every run count up to 13 (odd and even pass shapes).
        let mut rng = SplitMix64::new(2014);
        for k in 0..=13 {
            let runs: Vec<Vec<u64>> = (0..k)
                .map(|_| {
                    let len = (rng.next_u64() % 40) as usize;
                    let mut run: Vec<u64> = (0..len).map(|_| rng.next_u64() % 25).collect();
                    run.sort_unstable();
                    run
                })
                .collect();
            assert_eq!(merge_sorted_runs(&runs), flatten_and_sort(&runs), "k = {k}");
        }
    }

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
