//! The sorted-run frequency store for unbounded key domains.

use crate::{FreqStore, RemoveError};
use std::borrow::Cow;

/// A frequency multiset over arbitrary `u64` keys, kept as strictly
/// ascending `(key, cumulative count)` runs plus an unsorted log of
/// pending inserts.
///
/// QLOVE's Level-1 state is a tumbling multiset (§3.1): it is filled
/// for one sub-window, queried once at the boundary, then discarded. A
/// structure that keeps itself ordered on every insert pays a descent
/// (and rebalancing) per key for an order nobody reads until the
/// boundary. This store defers all ordering to
/// [`SortedRunStore::seal`]: inserts append to the log, and `seal`
/// sorts the log once and folds it into the runs.
///
/// # Costs
///
/// * `insert` / `insert_batch`: an append. A batch that lands in an
///   empty store is sorted and collapsed straight into runs.
/// * `seal`: `O(p log p + u)` for `p` pending inserts and `u` runs. The
///   log and the merge buffers keep their allocations across
///   sub-windows.
/// * [`SortedRunStore::merge_sorted_counts`]: one copy into an empty
///   store, a linear two-way merge into a non-empty one.
/// * Queries on a sealed store: binary searches over the cumulative
///   counts (`select`, `quantile(s)_into`, `rank_of`, `count_of`) and a
///   reverse walk (`top_k_into`). None of them allocates.
/// * `remove`: seals, then `O(u)`. Sliding windows, which remove on
///   every element, use [`qlove_rbtree::FreqTree`] instead.
///
/// # Unsealed queries
///
/// [`FreqStore`] queries take `&self`, so they cannot seal. On a store
/// with pending inserts they stay exact through slower paths:
/// `count_of`, `rank_of`, `min_key` and `max_key` add a scan of the
/// log; `select` and the quantiles bisect the key range with `rank_of`;
/// `top_k_into` gathers the elements above the k-th largest into the
/// output buffer and sorts it there. `unique_len`, `for_each` and
/// `counts_into` seal a temporary copy. The operator seals before
/// every boundary query, so only mid-sub-window snapshots take these
/// paths.
#[derive(Debug, Clone, Default)]
pub struct SortedRunStore {
    /// Distinct stored keys, strictly ascending.
    keys: Vec<u64>,
    /// `cum[i]` is the total frequency of `keys[..=i]`.
    cum: Vec<u64>,
    /// `(key, frequency)` inserts not yet folded into the runs, in
    /// arrival order. Frequencies are never zero.
    pending: Vec<(u64, u64)>,
    /// Total frequency of runs and log together.
    total: u64,
    /// Output buffers of the last two-way merge, swapped with
    /// `keys`/`cum` so merges reuse their allocations.
    spare_keys: Vec<u64>,
    spare_cum: Vec<u64>,
}

/// Append `freq` occurrences of `key` to runs being built in ascending
/// key order, extending the last run when the key repeats.
fn push_run(keys: &mut Vec<u64>, cum: &mut Vec<u64>, key: u64, freq: u64) {
    if freq == 0 {
        return;
    }
    let base = cum.last().copied().unwrap_or(0);
    if keys.last() == Some(&key) {
        *cum.last_mut().expect("keys and cum have equal length") = base + freq;
    } else {
        keys.push(key);
        cum.push(base + freq);
    }
}

impl SortedRunStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty store with room for `unique_capacity` runs.
    pub fn with_capacity(unique_capacity: usize) -> Self {
        Self {
            keys: Vec::with_capacity(unique_capacity),
            cum: Vec::with_capacity(unique_capacity),
            ..Self::default()
        }
    }

    /// `true` when no insert is waiting in the log, so every query
    /// takes its fast path.
    pub fn is_sealed(&self) -> bool {
        self.pending.is_empty()
    }

    /// Sort the pending log and fold it into the runs. A no-op on a
    /// sealed store.
    pub fn seal(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        pending.sort_unstable_by_key(|&(key, _)| key);
        self.fold_ascending(pending.iter().copied());
        pending.clear();
        self.pending = pending;
    }

    /// Fold strictly ascending `(key, frequency)` pairs — the shape a
    /// shipped sub-window summary arrives in — into the runs: one copy
    /// when the store has no runs, a linear two-way merge otherwise.
    /// Pending inserts stay pending.
    pub fn merge_sorted_counts(&mut self, pairs: &[(u64, u64)]) {
        self.total += pairs.iter().map(|&(_, freq)| freq).sum::<u64>();
        self.fold_ascending(pairs.iter().copied());
    }

    /// Multiset union: fold every element of `other` into this store.
    pub fn merge_from(&mut self, other: &SortedRunStore) {
        let other = other.sealed_view();
        self.total += other.total;
        self.fold_ascending(other.runs());
    }

    /// `(key, frequency)` pairs of the runs in ascending key order
    /// (pending inserts are not included).
    fn runs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..self.keys.len()).map(|i| (self.keys[i], self.count_at(i)))
    }

    /// Frequency of the run at index `i`.
    fn count_at(&self, i: usize) -> u64 {
        self.cum[i] - if i == 0 { 0 } else { self.cum[i - 1] }
    }

    /// Total pending frequency of keys matching `pred`.
    fn pending_sum(&self, pred: impl Fn(u64) -> bool) -> u64 {
        self.pending
            .iter()
            .filter(|&&(key, _)| pred(key))
            .map(|&(_, freq)| freq)
            .sum()
    }

    /// This store if sealed, else a sealed copy of it.
    fn sealed_view(&self) -> Cow<'_, Self> {
        if self.is_sealed() {
            return Cow::Borrowed(self);
        }
        let mut copy = Self {
            keys: self.keys.clone(),
            cum: self.cum.clone(),
            pending: self.pending.clone(),
            total: self.total,
            ..Self::default()
        };
        copy.seal();
        Cow::Owned(copy)
    }

    /// Fold ascending `(key, frequency)` pairs (repeated keys allowed,
    /// zero frequencies skipped) into the runs. `total` is the caller's
    /// to maintain.
    fn fold_ascending(&mut self, pairs: impl Iterator<Item = (u64, u64)>) {
        if self.keys.is_empty() {
            for (key, freq) in pairs {
                push_run(&mut self.keys, &mut self.cum, key, freq);
            }
            return;
        }
        let mut keys = std::mem::take(&mut self.spare_keys);
        let mut cum = std::mem::take(&mut self.spare_cum);
        keys.clear();
        cum.clear();
        let mut old = self.runs().peekable();
        for (key, freq) in pairs {
            while let Some((k, c)) = old.next_if(|&(k, _)| k <= key) {
                push_run(&mut keys, &mut cum, k, c);
            }
            push_run(&mut keys, &mut cum, key, freq);
        }
        for (k, c) in old {
            push_run(&mut keys, &mut cum, k, c);
        }
        self.spare_keys = std::mem::replace(&mut self.keys, keys);
        self.spare_cum = std::mem::replace(&mut self.cum, cum);
    }
}

impl FreqStore for SortedRunStore {
    /// Appends to the pending log.
    fn insert(&mut self, key: u64, freq: u64) {
        if freq != 0 {
            self.pending.push((key, freq));
            self.total += freq;
        }
    }

    /// Into an empty store the batch is sorted in place and collapsed
    /// straight into runs, so the store comes out sealed; otherwise it
    /// is appended to the pending log.
    fn insert_batch(&mut self, batch: &mut [u64]) {
        self.total += batch.len() as u64;
        if self.keys.is_empty() && self.pending.is_empty() {
            batch.sort_unstable();
            self.fold_ascending(batch.iter().map(|&key| (key, 1)));
        } else {
            self.pending.extend(batch.iter().map(|&key| (key, 1)));
        }
    }

    /// Seals first, then `O(u)` for the cumulative-count update.
    fn remove(&mut self, key: u64, freq: u64) -> Result<(), RemoveError> {
        if freq == 0 {
            return Ok(());
        }
        self.seal();
        let i = self
            .keys
            .binary_search(&key)
            .map_err(|_| RemoveError::KeyNotFound)?;
        let available = self.count_at(i);
        if freq > available {
            return Err(RemoveError::InsufficientCount { available });
        }
        for c in &mut self.cum[i..] {
            *c -= freq;
        }
        if freq == available {
            self.keys.remove(i);
            self.cum.remove(i);
        }
        self.total -= freq;
        Ok(())
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn unique_len(&self) -> usize {
        self.sealed_view().keys.len()
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.cum.clear();
        self.pending.clear();
        self.total = 0;
    }

    fn count_of(&self, key: u64) -> u64 {
        let runs = self
            .keys
            .binary_search(&key)
            .map_or(0, |i| self.count_at(i));
        runs + self.pending_sum(|k| k == key)
    }

    fn select(&self, r: u64) -> Option<u64> {
        if r == 0 || r > self.total {
            return None;
        }
        if self.is_sealed() {
            return Some(self.keys[self.cum.partition_point(|&c| c < r)]);
        }
        // Smallest key whose rank reaches `r`: ranks only step up at
        // stored keys, so the bisection lands on one.
        let (mut lo, mut hi) = (self.min_key()?, self.max_key()?);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.rank_of(mid) >= r {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }

    fn rank_of(&self, key: u64) -> u64 {
        let i = self.keys.partition_point(|&k| k <= key);
        let runs = if i == 0 { 0 } else { self.cum[i - 1] };
        runs + self.pending_sum(|k| k <= key)
    }

    fn quantile(&self, phi: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let r = (phi * self.total as f64).ceil() as u64;
        self.select(r.clamp(1, self.total))
    }

    /// One binary search per φ.
    fn quantiles_into(&self, phis: &[f64], out: &mut Vec<u64>) -> bool {
        out.clear();
        if self.total == 0 {
            return phis.is_empty();
        }
        out.extend(phis.iter().filter_map(|&phi| self.quantile(phi)));
        true
    }

    fn top_k_into(&self, k: usize, out: &mut Vec<u64>) {
        out.clear();
        let k = (k as u64).min(self.total) as usize;
        if k == 0 {
            return;
        }
        if self.is_sealed() {
            for i in (0..self.keys.len()).rev() {
                let take = self.count_at(i).min((k - out.len()) as u64) as usize;
                out.extend(std::iter::repeat_n(self.keys[i], take));
                if out.len() == k {
                    break;
                }
            }
            return;
        }
        // Fewer than `k` elements lie strictly above the k-th largest
        // value: gather them, sort them, and pad with that value.
        let kth = self
            .select(self.total - k as u64 + 1)
            .expect("1 ≤ rank ≤ total");
        let above = self.keys.partition_point(|&key| key <= kth);
        for i in above..self.keys.len() {
            out.extend(std::iter::repeat_n(self.keys[i], self.count_at(i) as usize));
        }
        for &(key, freq) in &self.pending {
            if key > kth {
                out.extend(std::iter::repeat_n(key, freq as usize));
            }
        }
        out.sort_unstable_by(|a, b| b.cmp(a));
        out.resize(k, kth);
    }

    fn min_key(&self) -> Option<u64> {
        let logged = self.pending.iter().map(|&(key, _)| key);
        self.keys.first().copied().into_iter().chain(logged).min()
    }

    fn max_key(&self) -> Option<u64> {
        let logged = self.pending.iter().map(|&(key, _)| key);
        self.keys.last().copied().into_iter().chain(logged).max()
    }

    fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        for (key, freq) in self.sealed_view().runs() {
            f(key, freq);
        }
    }

    fn counts_into(&self, out: &mut Vec<(u64, u64)>) {
        let view = self.sealed_view();
        out.clear();
        out.extend(view.runs());
    }

    /// Allocated capacity of the runs, merge buffers and log.
    fn memory_bytes(&self) -> usize {
        let words = self.keys.capacity()
            + self.cum.capacity()
            + self.spare_keys.capacity()
            + self.spare_cum.capacity();
        words * std::mem::size_of::<u64>()
            + self.pending.capacity() * std::mem::size_of::<(u64, u64)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(s: &SortedRunStore) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        s.counts_into(&mut out);
        out
    }

    #[test]
    fn batch_into_empty_store_comes_out_sealed() {
        let mut s = SortedRunStore::new();
        s.insert_batch(&mut [5, 1, 5, 9, 1, 5]);
        assert!(s.is_sealed());
        assert_eq!(pairs(&s), vec![(1, 2), (5, 3), (9, 1)]);
        s.insert_batch(&mut [9, 0]);
        assert!(!s.is_sealed());
        assert_eq!(pairs(&s), vec![(0, 1), (1, 2), (5, 3), (9, 2)]);
        s.seal();
        assert!(s.is_sealed());
        assert_eq!(pairs(&s), vec![(0, 1), (1, 2), (5, 3), (9, 2)]);
        assert_eq!(s.total(), 8);
    }

    #[test]
    fn queries_agree_before_and_after_seal() {
        let mut s = SortedRunStore::new();
        s.merge_sorted_counts(&[(10, 2), (20, 1), (40, 3)]);
        s.insert(30, 2);
        s.insert(10, 1);
        s.insert(50, 1);
        let mut sealed = s.clone();
        sealed.seal();
        for store in [&s, &sealed] {
            assert_eq!(store.total(), 10);
            assert_eq!(store.unique_len(), 5);
            assert_eq!(store.count_of(10), 3);
            assert_eq!(store.rank_of(30), 6);
            assert_eq!(store.select(4), Some(20));
            assert_eq!(store.select(5), Some(30));
            assert_eq!(store.select(11), None);
            assert_eq!(store.quantile(0.5), Some(30));
            assert_eq!(store.min_key(), Some(10));
            assert_eq!(store.max_key(), Some(50));
            let mut top = Vec::new();
            store.top_k_into(5, &mut top);
            assert_eq!(top, vec![50, 40, 40, 40, 30]);
            store.top_k_into(99, &mut top);
            assert_eq!(top.len(), 10);
        }
    }

    #[test]
    fn merges_into_empty_and_non_empty_stores() {
        let mut s = SortedRunStore::new();
        s.merge_sorted_counts(&[(3, 1), (7, 2)]);
        s.merge_sorted_counts(&[(1, 1), (7, 1), (9, 4)]);
        assert_eq!(pairs(&s), vec![(1, 1), (3, 1), (7, 3), (9, 4)]);
        let mut other = SortedRunStore::new();
        other.insert(3, 5);
        s.merge_from(&other);
        assert_eq!(s.count_of(3), 6);
        assert_eq!(s.total(), 14);
    }

    #[test]
    fn remove_matches_the_tree_errors() {
        let mut s = SortedRunStore::new();
        s.insert(500, 3);
        s.insert(1230, 1);
        assert_eq!(s.remove(999, 1), Err(RemoveError::KeyNotFound));
        assert_eq!(
            s.remove(500, 9),
            Err(RemoveError::InsufficientCount { available: 3 })
        );
        s.remove(500, 2).unwrap();
        s.remove(1230, 1).unwrap();
        assert_eq!(pairs(&s), vec![(500, 1)]);
        assert_eq!(s.rank_of(u64::MAX), 1);
    }

    #[test]
    fn seal_reuses_its_buffers() {
        let mut s = SortedRunStore::with_capacity(64);
        for round in 0..3u64 {
            s.insert_batch(&mut (0..40).collect::<Vec<_>>());
            for k in 0..40 {
                s.insert(k * 3 + round, 1);
            }
            s.seal();
            s.clear();
        }
        let bytes = s.memory_bytes();
        s.insert_batch(&mut (0..40).collect::<Vec<_>>());
        for k in 0..40 {
            s.insert(k * 3, 1);
        }
        s.seal();
        assert_eq!(s.memory_bytes(), bytes, "steady-state seal must not grow");
    }
}
