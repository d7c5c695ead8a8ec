//! Sorted lists: lookups in append-only lists whose entries carry a key
//! that never decreases (a step or epoch number), where the entries of one
//! key are one contiguous run found without reading the entries before it;
//! [`EpochRuns`], such a list held one buffer per epoch so that its oldest
//! epochs are dropped without moving the rest; and the merge of
//! already-sorted runs into one sorted list.

use std::collections::VecDeque;
use std::fmt;
use std::ops::Range;

/// Index range of the entries of `items` whose key equals `key`, by two
/// binary searches. `items` must be ordered by non-decreasing `key_of`;
/// otherwise the range is unspecified (but in bounds).
pub fn equal_run<T>(items: &[T], key: u64, key_of: impl Fn(&T) -> u64) -> Range<usize> {
    let start = items.partition_point(|x| key_of(x) < key);
    let len = items[start..].partition_point(|x| key_of(x) == key);
    start..start + len
}

/// One epoch's entries in an [`EpochRuns`].
#[derive(Clone)]
struct Run<T> {
    epoch: u64,
    /// Ordinal of `items[0]`.
    first: u64,
    items: Vec<T>,
}

/// An append-only list of entries keyed by a non-decreasing epoch, held as
/// one buffer per epoch. [`evict_before`](Self::evict_before) drops whole
/// epochs from the front without moving the epochs it keeps, and the
/// buffer of an evicted epoch is reused by the next epoch that opens, so a
/// list evicted once per epoch reaches a steady state with no allocation.
///
/// Every entry has an *ordinal*: its position among all the entries ever
/// pushed, evicted ones included.
#[derive(Clone)]
pub struct EpochRuns<T> {
    /// The held epochs, ascending, none of them empty.
    runs: VecDeque<Run<T>>,
    /// A cleared buffer of an evicted epoch, for the next epoch to open.
    spare: Option<Vec<T>>,
    /// Entries pushed so far: the ordinal of the next.
    pushed: u64,
    /// Entries held.
    len: usize,
}

impl<T> Default for EpochRuns<T> {
    fn default() -> Self {
        Self {
            runs: VecDeque::new(),
            spare: None,
            pushed: 0,
            len: 0,
        }
    }
}

impl<T> EpochRuns<T> {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append `item` to `epoch`.
    ///
    /// # Panics
    /// If `epoch` is older than the latest epoch held.
    pub fn push(&mut self, epoch: u64, item: T) {
        match self.runs.back_mut() {
            Some(run) if run.epoch == epoch => run.items.push(item),
            last => {
                let latest = last.map(|run| run.epoch);
                assert!(
                    latest.is_none_or(|latest| latest < epoch),
                    "entry of epoch {epoch} after epoch {latest:?}: runs are epoch-ordered"
                );
                let mut items = self.spare.take().unwrap_or_default();
                items.push(item);
                self.runs.push_back(Run {
                    epoch,
                    first: self.pushed,
                    items,
                });
            }
        }
        self.pushed += 1;
        self.len += 1;
    }

    /// Drop every epoch older than `min_epoch`.
    pub fn evict_before(&mut self, min_epoch: u64) {
        let gone = self.runs.partition_point(|run| run.epoch < min_epoch);
        for Run { mut items, .. } in self.runs.drain(..gone) {
            self.len -= items.len();
            items.clear();
            if self.spare.as_ref().is_none_or(|s| s.capacity() < items.capacity()) {
                self.spare = Some(items);
            }
        }
    }

    fn run_index(&self, epoch: u64) -> Option<usize> {
        self.runs.binary_search_by_key(&epoch, |run| run.epoch).ok()
    }

    /// The entries of `epoch`, in push order (empty when none is held).
    pub fn epoch(&self, epoch: u64) -> &[T] {
        self.run(epoch).map_or(&[], |(_, items)| items)
    }

    /// The ordinal of `epoch`'s first entry, and its entries in push order;
    /// `None` when no entry of `epoch` is held.
    pub fn run(&self, epoch: u64) -> Option<(u64, &[T])> {
        self.run_index(epoch).map(|i| (self.runs[i].first, &self.runs[i].items[..]))
    }

    /// Every held epoch, oldest first, with the ordinal of its first entry
    /// and its entries: `(epoch, first, entries)`.
    pub fn runs(&self) -> impl DoubleEndedIterator<Item = (u64, u64, &[T])> + Clone {
        self.runs.iter().map(|run| (run.epoch, run.first, &run.items[..]))
    }

    /// The entries of `epoch`, mutably.
    pub fn epoch_mut(&mut self, epoch: u64) -> &mut [T] {
        match self.run_index(epoch) {
            Some(i) => &mut self.runs[i].items,
            None => &mut [],
        }
    }

    /// Index of the run holding `ordinal`, and its place in that run.
    fn locate(&self, ordinal: u64) -> Option<(usize, usize)> {
        let i = self.runs.partition_point(|run| run.first <= ordinal).checked_sub(1)?;
        let at = (ordinal - self.runs[i].first) as usize;
        (at < self.runs[i].items.len()).then_some((i, at))
    }

    /// The held entry with `ordinal`, and its epoch; `None` once it is
    /// evicted, and for an ordinal not pushed yet.
    pub fn get(&self, ordinal: u64) -> Option<(u64, &T)> {
        self.locate(ordinal).map(|(i, at)| (self.runs[i].epoch, &self.runs[i].items[at]))
    }

    /// The held entry with `ordinal`, mutably.
    pub fn get_mut(&mut self, ordinal: u64) -> Option<&mut T> {
        self.locate(ordinal).map(|(i, at)| &mut self.runs[i].items[at])
    }

    /// The ordinal the next [`push`](Self::push) takes: every entry ever
    /// pushed, evicted ones included.
    pub fn next_ordinal(&self) -> u64 {
        self.pushed
    }

    /// Entries held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every held entry, oldest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> + Clone {
        self.runs.iter().flat_map(|run| run.items.iter())
    }
}

/// Two lists are equal when they hold the same entries under the same
/// epochs and ordinals; the spare buffer is not compared.
impl<T: PartialEq> PartialEq for EpochRuns<T> {
    fn eq(&self, other: &Self) -> bool {
        self.pushed == other.pushed
            && self.runs.len() == other.runs.len()
            && (self.runs.iter().zip(&other.runs))
                .all(|(a, b)| (a.epoch, a.first) == (b.epoch, b.first) && a.items == b.items)
    }
}

/// The held entries, as a list.
impl<T: fmt::Debug> fmt::Debug for EpochRuns<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
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

    /// Epochs 2, 2, 3, 5, 5, 5 carrying their ordinals.
    fn six_entries() -> EpochRuns<u64> {
        let mut l = EpochRuns::new();
        for (ordinal, epoch) in [2u64, 2, 3, 5, 5, 5].into_iter().enumerate() {
            l.push(epoch, ordinal as u64);
        }
        l
    }

    #[test]
    fn epoch_runs_find_epochs_and_ordinals() {
        let mut l = six_entries();
        assert_eq!((l.len(), l.next_ordinal()), (6, 6));
        assert_eq!(l.epoch(2), [0, 1]);
        assert_eq!(l.epoch(3), [2]);
        assert!(l.epoch(1).is_empty() && l.epoch(4).is_empty() && l.epoch(6).is_empty());
        assert_eq!(l.epoch(5), [3, 4, 5]);
        for (ordinal, epoch) in [2, 2, 3, 5, 5, 5].into_iter().enumerate() {
            let ordinal = ordinal as u64;
            assert_eq!(l.get(ordinal), Some((epoch, &ordinal)));
        }
        assert_eq!(l.get(6), None);
        assert_eq!(l.run(5), Some((3, &[3, 4, 5][..])));
        assert_eq!(l.run(4), None);
        let runs: Vec<_> = l.runs().map(|(epoch, first, items)| (epoch, first, items.len())).collect();
        assert_eq!(runs, [(2, 0, 2), (3, 2, 1), (5, 3, 3)]);
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), [0, 1, 2, 3, 4, 5]);
        assert_eq!(l.iter().rev().take_while(|&&x| x >= 3).count(), 3);
        assert_eq!((l.iter().next(), l.iter().next_back()), (Some(&0), Some(&5)));
        l.epoch_mut(3)[0] = 20;
        *l.get_mut(4).unwrap() = 40;
        assert_eq!(l.iter().copied().collect::<Vec<_>>(), [0, 1, 20, 3, 40, 5]);
        assert_eq!(format!("{l:?}"), "[0, 1, 20, 3, 40, 5]");
    }

    #[test]
    fn eviction_keeps_ordinals_and_leaves_kept_epochs_in_place() {
        let mut l = six_entries();
        let kept = l.epoch(5).as_ptr();
        l.evict_before(4);
        assert_eq!(l.epoch(5).as_ptr(), kept, "a kept epoch moved");
        assert_eq!((l.len(), l.next_ordinal()), (3, 6));
        assert!(l.get(2).is_none() && l.epoch(2).is_empty());
        assert_eq!(l.get(3), Some((5, &3)));
        // Evicting below what is held changes nothing.
        let before = l.clone();
        l.evict_before(5);
        assert_eq!(l, before);
        // The next epoch opens in an evicted buffer, and ordinals go on.
        l.push(8, 6);
        assert_eq!(l.epoch(8), [6]);
        assert_eq!(l.get(6), Some((8, &6)));
        l.evict_before(9);
        assert!(l.is_empty() && l.iter().next().is_none() && l.get(6).is_none());
        l.push(9, 7);
        assert_eq!((l.get(7), l.next_ordinal()), (Some((9, &7)), 8));
    }

    #[test]
    #[should_panic(expected = "runs are epoch-ordered")]
    fn pushing_an_older_epoch_panics() {
        let mut l = six_entries();
        l.push(4, 6);
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
