//! # qlove-freqstore — pluggable Level-1 frequency stores
//!
//! QLOVE's Level-1 state is a frequency multiset of `u64` telemetry
//! values: accumulate `{value → count}`, answer order statistics at the
//! sub-window boundary, union with other multisets under distributed
//! merge. The multiset is *tumbling* (§3.1): filled for one sub-window,
//! queried once at the boundary, then discarded. Nothing reads its order
//! before the boundary, so keeping it ordered on every insert is wasted
//! work.
//!
//! This crate abstracts the multiset contract as the [`FreqStore`]
//! trait and implements it twice for the operator:
//!
//! * [`SortedRunStore`] — strictly ascending `(key, cumulative count)`
//!   runs plus an unsorted log of pending inserts, for *unbounded* key
//!   domains (quantization off). Inserts append; the log is sorted once
//!   per sub-window ([`SortedRunStore::seal`]); boundary queries are
//!   binary searches over the cumulative counts; merging a shipped
//!   summary is one copy or one linear two-way merge.
//! * [`DenseFreqStore`] — a flat `Vec<u64>` of frequencies directly
//!   indexed by a reversible `(significand, exponent)` encoding of
//!   quantized keys, with incrementally maintained per-block sums. The
//!   paper's 3-significant-digit quantization collapses the domain to a
//!   small bounded set, so insert is O(1) array arithmetic, quantile
//!   evaluation is a prefix scan that skips empty blocks, and multiset
//!   union is a vectorized slice-add.
//! * [`FreqStoreImpl`] — runtime dispatch between the two, so the
//!   operator can pick a backend from its configuration without
//!   becoming generic (it is boxed as a `dyn QuantilePolicy` by the
//!   harness).
//!
//! Both backends implement the identical multiset semantics — same rank
//! convention, same iteration order, same `remove` errors — so swapping
//! backends changes throughput and memory, never answers. That bit-for-
//! bit equivalence is what `tests/proptest_backend.rs` locks down; the
//! sorted-run store is checked against [`FreqTree`] as an independent
//! oracle in this crate's own property tests.
//!
//! The red-black [`FreqTree`] (re-exported from `qlove-rbtree`) also
//! implements the trait. It now serves only the sliding-window users
//! (the `Exact` baseline and the sliding executors), which need a cheap
//! `remove` on every element.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod sorted;

pub use dense::DenseFreqStore;
pub use qlove_rbtree::{FreqTree, RemoveError};
pub use sorted::SortedRunStore;

#[cfg(test)]
mod proptests;

/// The Level-1 frequency-multiset contract: everything QLOVE (and the
/// Exact baseline) needs from sub-window state, as implemented by both
/// the [`SortedRunStore`], the flat [`DenseFreqStore`] and the
/// red-black [`FreqTree`].
///
/// Semantics are multiset semantics throughout: `insert` adds `freq`
/// occurrences, iteration yields `(key, frequency)` pairs in strictly
/// ascending key order, and all rank queries follow the paper's
/// 1-indexed `⌈φ·total⌉` convention.
pub trait FreqStore {
    /// Add `freq` occurrences of `key`. `freq == 0` is a no-op.
    fn insert(&mut self, key: u64, freq: u64);

    /// Add many `(key, frequency)` pairs; zero frequencies are skipped,
    /// duplicate keys accumulate.
    fn extend_counts<I: IntoIterator<Item = (u64, u64)>>(&mut self, runs: I) {
        for (key, freq) in runs {
            self.insert(key, freq);
        }
    }

    /// Bulk-insert one occurrence of every element of `batch`. The
    /// slice is mutable because implementations may sort it in place
    /// (the sorted-run store and the tree collapse it to runs; the
    /// dense store does not need to). Equivalent to
    /// `for &k in batch { insert(k, 1) }`.
    fn insert_batch(&mut self, batch: &mut [u64]);

    /// Remove `freq` occurrences of `key` (exact-match on the stored
    /// key). `freq == 0` is a no-op.
    fn remove(&mut self, key: u64, freq: u64) -> Result<(), RemoveError>;

    /// Total frequency over all keys.
    fn total(&self) -> u64;

    /// Number of distinct keys currently stored.
    fn unique_len(&self) -> usize;

    /// `true` when no elements are stored.
    fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Remove all elements but keep allocations for reuse (the
    /// tumbling-window reset at every sub-window boundary).
    fn clear(&mut self);

    /// Frequency of `key`, 0 if absent.
    fn count_of(&self, key: u64) -> u64;

    /// Value at 1-indexed rank `r` in the multiset (`1 ≤ r ≤ total`);
    /// `None` out of range.
    fn select(&self, r: u64) -> Option<u64>;

    /// Number of stored elements `≤ key`.
    fn rank_of(&self, key: u64) -> u64;

    /// Exact φ-quantile under the paper's `⌈φ·total⌉` convention;
    /// `None` on an empty store.
    fn quantile(&self, phi: f64) -> Option<u64>;

    /// Exact φ-quantiles for several fractions in one pass, into a
    /// caller-owned buffer (cleared first). `phis` need not be sorted;
    /// results land in the caller's order. Returns `false` — leaving
    /// `out` empty — exactly when the store is empty and `phis` is not.
    fn quantiles_into(&self, phis: &[f64], out: &mut Vec<u64>) -> bool;

    /// The `k` largest stored *elements* (with multiplicity),
    /// descending, into a caller-owned buffer (cleared first).
    fn top_k_into(&self, k: usize, out: &mut Vec<u64>);

    /// Smallest stored key, `None` when empty.
    fn min_key(&self) -> Option<u64>;

    /// Largest stored key, `None` when empty.
    fn max_key(&self) -> Option<u64>;

    /// Visit every `(key, frequency)` pair in ascending key order.
    fn for_each(&self, f: impl FnMut(u64, u64));

    /// Materialize the sorted `(key, frequency)` pairs into a
    /// caller-owned buffer (cleared first) — the summary-extraction
    /// primitive, shaped for buffer pooling.
    fn counts_into(&self, out: &mut Vec<(u64, u64)>) {
        out.clear();
        self.for_each(|k, c| out.push((k, c)));
    }

    /// Approximate heap footprint in bytes.
    fn memory_bytes(&self) -> usize;
}

impl FreqStore for FreqTree<u64> {
    fn insert(&mut self, key: u64, freq: u64) {
        FreqTree::insert(self, key, freq);
    }

    fn extend_counts<I: IntoIterator<Item = (u64, u64)>>(&mut self, runs: I) {
        FreqTree::extend_counts(self, runs);
    }

    fn insert_batch(&mut self, batch: &mut [u64]) {
        FreqTree::insert_batch(self, batch);
    }

    fn remove(&mut self, key: u64, freq: u64) -> Result<(), RemoveError> {
        FreqTree::remove(self, key, freq)
    }

    fn total(&self) -> u64 {
        FreqTree::total(self)
    }

    fn unique_len(&self) -> usize {
        FreqTree::unique_len(self)
    }

    fn is_empty(&self) -> bool {
        FreqTree::is_empty(self)
    }

    fn clear(&mut self) {
        FreqTree::clear(self);
    }

    fn count_of(&self, key: u64) -> u64 {
        FreqTree::count_of(self, key)
    }

    fn select(&self, r: u64) -> Option<u64> {
        FreqTree::select(self, r)
    }

    fn rank_of(&self, key: u64) -> u64 {
        FreqTree::rank_of(self, key)
    }

    fn quantile(&self, phi: f64) -> Option<u64> {
        FreqTree::quantile(self, phi)
    }

    fn quantiles_into(&self, phis: &[f64], out: &mut Vec<u64>) -> bool {
        FreqTree::quantiles_into(self, phis, out)
    }

    fn top_k_into(&self, k: usize, out: &mut Vec<u64>) {
        FreqTree::top_k_into(self, k, out);
    }

    fn min_key(&self) -> Option<u64> {
        FreqTree::min_key(self)
    }

    fn max_key(&self) -> Option<u64> {
        FreqTree::max_key(self)
    }

    fn for_each(&self, mut f: impl FnMut(u64, u64)) {
        for (k, c) in self.iter() {
            f(k, c);
        }
    }

    fn memory_bytes(&self) -> usize {
        FreqTree::memory_bytes(self)
    }
}

/// Runtime backend dispatch: one Level-1 store that is either a
/// [`SortedRunStore`] (unbounded domains) or a [`DenseFreqStore`]
/// (quantized domains), selected when the operator is constructed.
///
/// Every [`FreqStore`] method matches once and delegates; the match is
/// hoisted out of inner loops by the per-backend bulk operations
/// ([`FreqStoreImpl::merge_from`], [`DenseFreqStore::insert_slice`]).
#[derive(Debug, Clone)]
pub enum FreqStoreImpl {
    /// Sorted runs plus a pending log — append inserts, one sort per
    /// sub-window, unbounded domain. The variant keeps the name of the
    /// configuration that selects it (`qlove_core::Backend::Tree`).
    Tree(SortedRunStore),
    /// Flat direct-indexed array — `O(1)` insert, bounded quantized
    /// domain.
    Dense(DenseFreqStore),
}

impl FreqStoreImpl {
    /// Sorted-run backend with room for `unique_capacity` runs.
    pub fn tree(unique_capacity: usize) -> Self {
        FreqStoreImpl::Tree(SortedRunStore::with_capacity(unique_capacity))
    }

    /// Dense backend for keys quantized to `sig_digits` significant
    /// decimal digits.
    pub fn dense(sig_digits: u32) -> Self {
        FreqStoreImpl::Dense(DenseFreqStore::new(sig_digits))
    }

    /// Bring the store into its query-ready form: the sorted-run store
    /// sorts its pending log into the runs ([`SortedRunStore::seal`]);
    /// the dense store is always ready. Queries are exact either way —
    /// sealing only moves them onto their fast paths — so the operator
    /// calls this once per sub-window, before the boundary queries.
    pub fn seal(&mut self) {
        if let FreqStoreImpl::Tree(s) = self {
            s.seal();
        }
    }

    /// Multiset union: fold every `(key, frequency)` pair of `other`
    /// into this store — the distributed sub-window merge primitive.
    ///
    /// Same-backend unions take the native path (a linear run merge for
    /// sorted-run stores, a vectorized slice-add for dense stores);
    /// mixed backends fall back to per-pair inserts, which is still
    /// exact.
    pub fn merge_from(&mut self, other: &FreqStoreImpl) {
        match (self, other) {
            (FreqStoreImpl::Tree(a), FreqStoreImpl::Tree(b)) => a.merge_from(b),
            (FreqStoreImpl::Dense(a), FreqStoreImpl::Dense(b)) => a.merge_from(b),
            (a, b) => b.for_each(|k, c| a.insert(k, c)),
        }
    }

    /// Fold strictly-ascending `(key, frequency)` pairs — the shape a
    /// shipped sub-window summary arrives in — through the backend's
    /// bulk path: [`SortedRunStore::merge_sorted_counts`] (one copy
    /// into an empty store, a linear two-way merge into a non-empty
    /// one) or [`DenseFreqStore::extend_sorted_counts`] (no per-pair
    /// growth check, no hardware divide).
    pub fn merge_sorted_counts(&mut self, pairs: &[(u64, u64)]) {
        match self {
            FreqStoreImpl::Tree(s) => s.merge_sorted_counts(pairs),
            FreqStoreImpl::Dense(d) => d.extend_sorted_counts(pairs),
        }
    }
}

macro_rules! delegate {
    ($self:expr, $s:ident => $e:expr) => {
        match $self {
            FreqStoreImpl::Tree($s) => $e,
            FreqStoreImpl::Dense($s) => $e,
        }
    };
}

impl FreqStore for FreqStoreImpl {
    fn insert(&mut self, key: u64, freq: u64) {
        delegate!(self, s => s.insert(key, freq))
    }

    fn extend_counts<I: IntoIterator<Item = (u64, u64)>>(&mut self, runs: I) {
        delegate!(self, s => s.extend_counts(runs))
    }

    fn insert_batch(&mut self, batch: &mut [u64]) {
        delegate!(self, s => s.insert_batch(batch))
    }

    fn remove(&mut self, key: u64, freq: u64) -> Result<(), RemoveError> {
        delegate!(self, s => s.remove(key, freq))
    }

    fn total(&self) -> u64 {
        delegate!(self, s => s.total())
    }

    fn unique_len(&self) -> usize {
        delegate!(self, s => s.unique_len())
    }

    fn is_empty(&self) -> bool {
        delegate!(self, s => s.is_empty())
    }

    fn clear(&mut self) {
        delegate!(self, s => s.clear())
    }

    fn count_of(&self, key: u64) -> u64 {
        delegate!(self, s => s.count_of(key))
    }

    fn select(&self, r: u64) -> Option<u64> {
        delegate!(self, s => s.select(r))
    }

    fn rank_of(&self, key: u64) -> u64 {
        delegate!(self, s => s.rank_of(key))
    }

    fn quantile(&self, phi: f64) -> Option<u64> {
        delegate!(self, s => s.quantile(phi))
    }

    fn quantiles_into(&self, phis: &[f64], out: &mut Vec<u64>) -> bool {
        delegate!(self, s => s.quantiles_into(phis, out))
    }

    fn top_k_into(&self, k: usize, out: &mut Vec<u64>) {
        delegate!(self, s => s.top_k_into(k, out))
    }

    fn min_key(&self) -> Option<u64> {
        delegate!(self, s => s.min_key())
    }

    fn max_key(&self) -> Option<u64> {
        delegate!(self, s => s.max_key())
    }

    fn for_each(&self, f: impl FnMut(u64, u64)) {
        delegate!(self, s => s.for_each(f))
    }

    fn counts_into(&self, out: &mut Vec<(u64, u64)>) {
        delegate!(self, s => s.counts_into(out))
    }

    fn memory_bytes(&self) -> usize {
        delegate!(self, s => s.memory_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quantize3(v: u64) -> u64 {
        DenseFreqStore::new(3).quantize(v)
    }

    /// Drive the same quantized operation sequence through both
    /// backends and compare every observable.
    #[test]
    fn backends_agree_on_a_mixed_workload() {
        let mut tree = FreqStoreImpl::tree(64);
        let mut dense = FreqStoreImpl::dense(3);
        let keys: Vec<u64> = (0..4_000u64)
            .map(|i| quantize3((i * 2654435761) % 1_000_000))
            .collect();
        for (i, &k) in keys.iter().enumerate() {
            tree.insert(k, 1 + (i as u64 % 3));
            dense.insert(k, 1 + (i as u64 % 3));
        }
        assert_eq!(tree.total(), dense.total());
        assert_eq!(tree.unique_len(), dense.unique_len());
        assert_eq!(tree.min_key(), dense.min_key());
        assert_eq!(tree.max_key(), dense.max_key());
        for phi in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(tree.quantile(phi), dense.quantile(phi), "phi {phi}");
        }
        for r in [1u64, 2, 100, tree.total() / 2, tree.total()] {
            assert_eq!(tree.select(r), dense.select(r), "rank {r}");
        }
        for &k in keys.iter().step_by(97) {
            assert_eq!(tree.count_of(k), dense.count_of(k), "key {k}");
            assert_eq!(tree.rank_of(k), dense.rank_of(k), "key {k}");
            assert_eq!(tree.rank_of(k + 1), dense.rank_of(k + 1));
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        tree.counts_into(&mut a);
        dense.counts_into(&mut b);
        assert_eq!(a, b);
        let (mut ta, mut tb) = (Vec::new(), Vec::new());
        tree.top_k_into(57, &mut ta);
        dense.top_k_into(57, &mut tb);
        assert_eq!(ta, tb);
        let phis = [0.999, 0.5, 0.9, 0.1];
        let (mut qa, mut qb) = (Vec::new(), Vec::new());
        assert!(tree.quantiles_into(&phis, &mut qa));
        assert!(dense.quantiles_into(&phis, &mut qb));
        assert_eq!(qa, qb);
    }

    #[test]
    fn backends_agree_on_remove() {
        let mut tree = FreqStoreImpl::tree(8);
        let mut dense = FreqStoreImpl::dense(3);
        for s in [&mut tree, &mut dense] {
            s.insert(500, 3);
            s.insert(1230, 1);
        }
        for s in [&mut tree, &mut dense] {
            assert_eq!(s.remove(999, 1), Err(RemoveError::KeyNotFound));
            assert_eq!(
                s.remove(500, 9),
                Err(RemoveError::InsufficientCount { available: 3 })
            );
            s.remove(500, 2).unwrap();
            s.remove(1230, 1).unwrap();
            assert_eq!(s.total(), 1);
            assert_eq!(s.unique_len(), 1);
        }
    }

    #[test]
    fn cross_backend_merge_falls_back_to_inserts() {
        let mut tree = FreqStoreImpl::tree(8);
        tree.insert(100, 2);
        tree.insert(5550, 1);
        let mut dense = FreqStoreImpl::dense(3);
        dense.insert(100, 1);
        dense.insert(99_900, 4);
        tree.merge_from(&dense);
        let mut pairs = Vec::new();
        tree.counts_into(&mut pairs);
        assert_eq!(pairs, vec![(100, 3), (5550, 1), (99_900, 4)]);
        // And the other direction.
        let mut dense2 = FreqStoreImpl::dense(3);
        dense2.merge_from(&tree);
        let mut pairs2 = Vec::new();
        dense2.counts_into(&mut pairs2);
        assert_eq!(pairs2, pairs);
    }

    #[test]
    fn same_backend_merge_takes_native_path() {
        let mut a = FreqStoreImpl::dense(3);
        let mut b = FreqStoreImpl::dense(3);
        a.insert(10, 1);
        a.insert(1_000_000, 2);
        b.insert(10, 3);
        b.insert(55_500, 1);
        a.merge_from(&b);
        let mut pairs = Vec::new();
        a.counts_into(&mut pairs);
        assert_eq!(pairs, vec![(10, 4), (55_500, 1), (1_000_000, 2)]);
        assert_eq!(a.total(), 7);
        assert_eq!(a.unique_len(), 3);
    }

    #[test]
    fn clear_resets_both_backends() {
        for mut s in [FreqStoreImpl::tree(4), FreqStoreImpl::dense(3)] {
            s.insert(123, 5);
            let bytes = s.memory_bytes();
            s.clear();
            assert!(s.is_empty());
            assert_eq!(s.unique_len(), 0);
            assert_eq!(s.quantile(0.5), None);
            assert_eq!(s.memory_bytes(), bytes, "clear must keep allocations");
            s.insert(7, 1);
            assert_eq!(s.quantile(0.5), Some(7));
        }
    }
}
