//! The QLOVE operator: two-level hierarchical quantile processing
//! (Figure 2) with few-k tail repair (§4) and Theorem-1 error bounds.

use crate::bounds::bound_from_store;
use crate::burst::{is_bursty_stats, TailStats};
use crate::config::{Backend, QloveConfig};
use crate::fewk::{interval_sample_into, merge_sample_k, merge_top_k, tail_need, TailBudget};
use qlove_freqstore::{FreqStore, FreqStoreImpl};
use qlove_stats::error_bound::CltBound;
use qlove_stream::{QuantilePolicy, ShardAccumulator, SummaryMerge};
use qlove_wire::{decode_summary_with_total, summary_to_bytes};
use qlove_workloads::transform::quantize_sig_digits;
use std::collections::VecDeque;

/// Build the Level-1 store [`QloveConfig::resolved_backend`] asks for.
///
/// Sorted-run stores are pre-sized for the sub-window (a sub-window
/// holds at most `period` unique values), capped so huge-period configs
/// do not front-load memory. The dense store sizes itself from the
/// quantized domain and grows lazily toward its fixed bound.
fn make_store(config: &QloveConfig) -> FreqStoreImpl {
    match config.resolved_backend() {
        Backend::Dense => FreqStoreImpl::dense(
            config
                .sig_digits
                .expect("validated: dense backend requires quantization"),
        ),
        _ => FreqStoreImpl::tree(config.period.min(1 << 16)),
    }
}

/// Quantize and bulk-insert one sub-window chunk into a store — the
/// shared batched-ingestion path of [`Qlove`] and [`QloveShard`].
///
/// The sorted-run path quantizes into `scratch` and rides
/// `SortedRunStore::insert_batch` (a chunk opening a sub-window is
/// sorted straight into runs; later chunks append to the pending log).
/// The dense path feeds the raw chunk straight in: direct indexing
/// quantizes as a side effect of encoding, so the quantize copy *and*
/// the sort disappear.
fn ingest_chunk_into(
    store: &mut FreqStoreImpl,
    chunk: &[u64],
    sig_digits: Option<u32>,
    scratch: &mut Vec<u64>,
) {
    match store {
        FreqStoreImpl::Dense(dense) => dense.insert_slice(chunk),
        FreqStoreImpl::Tree(runs) => {
            scratch.clear();
            match sig_digits {
                Some(d) => scratch.extend(chunk.iter().map(|&v| quantize_sig_digits(v, d))),
                None => scratch.extend_from_slice(chunk),
            }
            runs.insert_batch(scratch);
        }
    }
}

/// Which pipeline produced a quantile answer (§4.3's runtime selection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerSource {
    /// Level-2 mean of sub-window quantiles (§3).
    Level2,
    /// Top-k merging — statistical inefficiency repair (§4.2).
    TopK,
    /// Sample-k merging — bursty traffic repair (§4.2).
    SampleK,
}

/// One evaluation's full output.
#[derive(Debug, Clone, PartialEq)]
pub struct QloveAnswer {
    /// Estimated quantile values, one per configured φ, in input order.
    pub values: Vec<u64>,
    /// Which pipeline produced each value.
    pub sources: Vec<AnswerSource>,
    /// Theorem-1 95% bounds (half-widths) where computable — `None` in
    /// degenerate-density regions, where the paper calls the bound "not
    /// informative".
    pub bounds: Vec<Option<CltBound>>,
    /// Whether the burst detector fired for this evaluation.
    pub bursty: bool,
}

/// Everything retained about a completed sub-window: its exact
/// quantiles (the Level-1 summary `s_i`), the few-k tail caches, and
/// the density-based error-bound inputs.
///
/// Summaries are pooled: when the Level-2 ring rolls, the expired
/// summary's allocations are recycled into the next boundary's summary
/// (see [`Qlove::complete_subwindow`]), so steady-state boundary work
/// performs no heap allocation for these vectors.
#[derive(Debug, Clone)]
struct SubWindowSummary {
    /// Exact φ-quantiles of the sub-window, one per configured φ.
    quantiles: Vec<u64>,
    /// Per-φ top-k caches (empty for φs without a tail budget).
    topk: Vec<Vec<u64>>,
    /// Per-φ interval samples of the sub-window's own tail.
    samples: Vec<Vec<u64>>,
    /// Per-φ burst flags, decided at completion time against the
    /// preceding sub-window (§4.3's Mann-Whitney comparison). A burst
    /// keeps influencing evaluations for as long as its sub-window stays
    /// inside the window.
    bursty: Vec<bool>,
    /// Per-φ cached detector inputs derived from `samples`: values
    /// pre-sorted for the merge-based Mann-Whitney, log transforms and
    /// their moments pre-reduced for Welch's t. Computed once here and
    /// reused by every boundary comparison this sub-window participates
    /// in, so the detector's sort and `ln` passes leave the boundary hot
    /// path (not counted by `space_variables`: a derived cache of the
    /// already-counted samples, like the tail scratch).
    tails: Vec<TailStats>,
    /// Per-φ Theorem-1 bounds estimated from this sub-window's density.
    bounds: Vec<Option<CltBound>>,
}

impl SubWindowSummary {
    /// Empty summary shaped for `l` quantiles (inner vectors are filled
    /// at the boundary; outer per-φ vectors are allocated once and kept
    /// for the summary's pooled lifetime).
    fn with_phis(l: usize) -> Self {
        Self {
            quantiles: Vec::with_capacity(l),
            topk: vec![Vec::new(); l],
            samples: vec![Vec::new(); l],
            bursty: Vec::with_capacity(l),
            tails: vec![TailStats::new(); l],
            bounds: Vec::with_capacity(l),
        }
    }
}

/// A mergeable, shippable snapshot of (part of) one Level-1 sub-window:
/// the `(quantized value, frequency)` multiset accumulated since the
/// last sub-window boundary.
///
/// This is the unit of state exchange in distributed execution (§7's
/// extension): N ingestion shards each accumulate a slice of a logical
/// sub-window, extract their partial state as a `QloveSummary`
/// ([`QloveShard::take_summary`] / [`Qlove::take_summary`]), ship it
/// (optionally via the compact [`QloveSummary::to_bytes`] wire form),
/// and a coordinator folds the summaries back together with
/// [`Qlove::merge`]. Because the summary is a frequency multiset —
/// exactly what Level 1 stores — merging K shard summaries reconstructs
/// the sub-window a single instance would have built from the undealt
/// stream, element for element; everything derived at the boundary
/// (exact quantiles, few-k tail caches, burst flags, Theorem-1 bounds)
/// then comes out bit-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QloveSummary {
    /// `(value, frequency)` pairs, strictly ascending by value.
    counts: Vec<(u64, u64)>,
    /// Total element count (Σ frequencies).
    total: u64,
}

impl QloveSummary {
    /// Build from strictly-ascending `(value, frequency)` pairs.
    /// Returns `None` when keys are not strictly ascending, a frequency
    /// is zero, or the total overflows `u64`.
    pub fn from_counts(counts: Vec<(u64, u64)>) -> Option<Self> {
        let mut total = 0u64;
        let mut prev: Option<u64> = None;
        for &(key, freq) in &counts {
            if freq == 0 || prev.is_some_and(|p| key <= p) {
                return None;
            }
            total = total.checked_add(freq)?;
            prev = Some(key);
        }
        Some(Self { counts, total })
    }

    /// The `(value, frequency)` pairs, ascending by value.
    pub fn counts(&self) -> &[(u64, u64)] {
        &self.counts
    }

    /// Total number of elements the summary stands for.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `true` when the summary covers no elements.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Encode into the compact QLVS wire form
    /// (`qlove_wire::encode_summary`): bit-packed blocks of key deltas
    /// and frequencies, one or two bytes per unique value.
    pub fn to_bytes(&self) -> Vec<u8> {
        summary_to_bytes(&self.counts)
    }

    /// Decode a QLVS frame produced by [`QloveSummary::to_bytes`].
    /// Malformed input surfaces as `InvalidData` — never a panic. The
    /// decoder checks every [`QloveSummary::from_counts`] rule and sums
    /// the total in its one pass, so nothing is walked twice.
    pub fn from_bytes(bytes: &[u8]) -> std::io::Result<Self> {
        let (counts, total) = decode_summary_with_total(bytes)?;
        Ok(Self { counts, total })
    }

    /// Partition the checkpoint by value at `pivot`: everything
    /// `< pivot` in the first half, everything `>= pivot` in the
    /// second. Counts are strictly ascending, so this is a single
    /// partition-point split; both halves stay valid summaries and
    /// merging them back reconstructs `self` exactly.
    ///
    /// This is the checkpoint half of a shard *split*: when a live
    /// reshard divides one shard's key range in two, the parent's
    /// boundary checkpoint is split at the new range pivot and each
    /// successor is restored from its half.
    pub fn split_at(&self, pivot: u64) -> (QloveSummary, QloveSummary) {
        let cut = self.counts.partition_point(|&(value, _)| value < pivot);
        let lo_counts = self.counts[..cut].to_vec();
        let hi_counts = self.counts[cut..].to_vec();
        let lo_total: u64 = lo_counts.iter().map(|&(_, f)| f).sum();
        (
            QloveSummary {
                counts: lo_counts,
                total: lo_total,
            },
            QloveSummary {
                counts: hi_counts,
                total: self.total - lo_total,
            },
        )
    }

    /// The multiset union of two checkpoints: a sorted merge with
    /// frequencies added on value collisions. Commutative and
    /// associative — the same fold order-insensitivity that makes
    /// distributed summaries mergeable at all.
    ///
    /// This is the checkpoint half of a shard *merge*: when a live
    /// reshard fuses two adjacent shards, the successor is restored
    /// from the union of both parents' boundary checkpoints. Returns
    /// `None` only if the combined total would overflow `u64`.
    pub fn merged(&self, other: &QloveSummary) -> Option<QloveSummary> {
        let total = self.total.checked_add(other.total)?;
        let mut counts = Vec::with_capacity(self.counts.len() + other.counts.len());
        let (mut a, mut b) = (
            self.counts.iter().peekable(),
            other.counts.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(va, fa)), Some(&&(vb, fb))) => {
                    if va < vb {
                        counts.push((va, fa));
                        a.next();
                    } else if vb < va {
                        counts.push((vb, fb));
                        b.next();
                    } else {
                        counts.push((va, fa + fb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&pair), None) => {
                    counts.push(pair);
                    a.next();
                }
                (None, Some(&&pair)) => {
                    counts.push(pair);
                    b.next();
                }
                (None, None) => break,
            }
        }
        Some(QloveSummary { counts, total })
    }
}

/// The shard half of distributed QLOVE: Level-1 accumulation only
/// (quantization + the frequency store), with no Level-2 ring, no tail
/// caches, and no boundary logic — those all live in the coordinating
/// [`Qlove`] instance that merges this shard's summaries.
///
/// The executor (`qlove_stream::parallel::run_distributed`) owns the
/// boundary schedule: it calls [`QloveShard::take_summary`] at every
/// logical sub-window boundary, so the shard itself never completes a
/// sub-window.
#[derive(Debug)]
pub struct QloveShard {
    store: FreqStoreImpl,
    sig_digits: Option<u32>,
    /// Quantized copy of the current batch (recycled across batches;
    /// unused by the dense backend, which quantizes while encoding).
    scratch: Vec<u64>,
}

impl QloveShard {
    /// Build a shard for `config` — only the quantization setting, the
    /// backend, and the period (arena pre-size) are used, but taking
    /// the whole config guarantees shard and coordinator agree on them.
    pub fn new(config: &QloveConfig) -> Self {
        config.validate();
        Self {
            store: make_store(config),
            sig_digits: config.sig_digits,
            scratch: Vec::new(),
        }
    }

    /// Accumulate one element.
    pub fn push(&mut self, value: u64) {
        let v = match self.sig_digits {
            Some(d) => quantize_sig_digits(value, d),
            None => value,
        };
        self.store.insert(v, 1);
    }

    /// Accumulate a batch through the backend's bulk-insert path (see
    /// [`Qlove::push_batch`] for the per-backend mechanics).
    pub fn push_batch(&mut self, values: &[u64]) {
        let mut buf = std::mem::take(&mut self.scratch);
        ingest_chunk_into(&mut self.store, values, self.sig_digits, &mut buf);
        self.scratch = buf;
    }

    /// Elements accumulated since the last [`QloveShard::take_summary`].
    pub fn pending(&self) -> usize {
        self.store.total() as usize
    }

    /// Restore a checkpoint into a mid-stream shard: merge the
    /// summary's (already quantized) counts into the frequency store,
    /// on top of whatever is currently accumulated.
    ///
    /// This is the worker half of crash recovery: a replacement shard
    /// is seeded with the checkpoint its predecessor had at its last
    /// acknowledged boundary, then the coordinator replays the
    /// unacknowledged tail of the dealt stream. Because shard state is
    /// a frequency multiset, `restore` + replay rebuilds exactly the
    /// state the lost shard held — the next
    /// [`QloveShard::take_summary`] is bit-identical to what an
    /// undisturbed shard would have produced.
    ///
    /// The checkpoint's values must already be quantized under the same
    /// config (true for any summary produced by
    /// [`QloveShard::take_summary`]), mirroring the contract of
    /// [`Qlove::merge`].
    pub fn restore(&mut self, checkpoint: &QloveSummary) {
        self.store.seal();
        self.store.merge_sorted_counts(checkpoint.counts());
    }

    /// Snapshot the accumulated state as a mergeable summary and reset
    /// (allocations are kept, so steady-state boundaries reuse them).
    pub fn take_summary(&mut self) -> QloveSummary {
        self.store.seal();
        let mut counts = Vec::with_capacity(self.store.unique_len());
        self.store.counts_into(&mut counts);
        let summary = QloveSummary {
            counts,
            total: self.store.total(),
        };
        self.store.clear();
        summary
    }
}

/// The QLOVE operator. See the crate docs for the architecture and
/// [`QloveConfig`] for the knobs.
#[derive(Debug)]
pub struct Qlove {
    config: QloveConfig,
    n_sub: usize,
    /// Per-φ tail budgets; `None` when few-k is off or the φ's tail does
    /// not fit in one sub-window snapshot.
    budgets: Vec<Option<TailBudget>>,
    /// Largest per-sub-window tail snapshot needed across φs.
    max_tail: usize,
    // ---- Level 1 state ----
    /// The in-flight sub-window multiset, in the backend the
    /// configuration selected (sorted runs for unbounded domains, dense
    /// direct-indexed array for quantized ones).
    store: FreqStoreImpl,
    filled: usize,
    // ---- Level 2 state ----
    summaries: VecDeque<SubWindowSummary>,
    /// Running Σ of sub-window quantiles per φ (u128: immune to overflow
    /// even for Pareto-scale values).
    sums: Vec<u128>,
    // ---- reusable scratch (keeps boundaries allocation-free) ----
    /// Recycled summary from the last ring expiry; the next boundary
    /// reuses its vectors instead of allocating.
    spare_summary: Option<SubWindowSummary>,
    /// Quantized copy of the current [`Qlove::push_batch`] chunk.
    batch_scratch: Vec<u64>,
    /// Descending tail snapshot taken at each sub-window boundary.
    tail_scratch: Vec<u64>,
    /// Pooled burst-detector reference, assembled from the live
    /// sub-windows' cached [`TailStats`] on the under-powered fallback
    /// path (buffers recycled across boundaries).
    pooled_stats: TailStats,
}

/// Per-φ sample count at or above which the single-sub-window burst
/// comparison is considered adequately powered and the pooled fallback
/// is skipped (see [`Qlove::complete_subwindow`]).
const POOLED_FALLBACK_MAX_SAMPLES: usize = 32;

/// Cap on pooled burst-reference size: absorption of live sub-windows
/// (newest first) stops once the pool reaches this many samples —
/// ranking thousands of pooled values at every boundary would erase the
/// throughput advantage QLOVE exists for.
const POOLED_REFERENCE_CAP: usize = 1024;

impl Qlove {
    /// Build the operator; panics on invalid configuration (see
    /// [`QloveConfig::validate`]).
    pub fn new(config: QloveConfig) -> Self {
        config.validate();
        let n_sub = config.subwindows();
        let budgets: Vec<Option<TailBudget>> = config
            .phis
            .iter()
            .map(|&phi| {
                let fk = config.fewk.as_ref()?;
                // Tail-eligible: a high quantile (≥ min_phi, §4's "high
                // quantiles") whose whole-window tail requirement fits
                // inside one sub-window snapshot.
                let need = tail_need(config.window, phi);
                if phi < fk.min_phi || need == 0 || need > config.period {
                    return None;
                }
                Some(TailBudget::derive(
                    config.window,
                    config.period,
                    phi,
                    fk.topk_fraction,
                    fk.samplek_fraction,
                ))
            })
            .collect();
        let max_tail = budgets
            .iter()
            .flatten()
            .map(|b| b.exact_need.min(config.period))
            .max()
            .unwrap_or(0);
        let l = config.phis.len();
        Self {
            n_sub,
            budgets,
            max_tail,
            store: make_store(&config),
            filled: 0,
            summaries: VecDeque::with_capacity(n_sub + 1),
            sums: vec![0; l],
            spare_summary: None,
            batch_scratch: Vec::new(),
            tail_scratch: Vec::with_capacity(max_tail),
            pooled_stats: TailStats::new(),
            config,
        }
    }

    /// The live configuration.
    pub fn config(&self) -> &QloveConfig {
        &self.config
    }

    /// Feed one element; on evaluation boundaries returns the full
    /// answer (values + provenance + bounds). [`QuantilePolicy::push`]
    /// is the values-only convenience wrapper.
    pub fn push_detailed(&mut self, value: u64) -> Option<QloveAnswer> {
        let v = match self.config.sig_digits {
            Some(d) => quantize_sig_digits(value, d),
            None => value,
        };
        self.store.insert(v, 1);
        self.filled += 1;
        if self.filled < self.config.period {
            return None;
        }
        self.filled = 0;
        self.complete_subwindow();
        if self.summaries.len() < self.n_sub {
            return None;
        }
        Some(self.evaluate())
    }

    /// Feed a whole batch of elements in stream order; returns one
    /// [`QloveAnswer`] per evaluation boundary the batch crosses (in
    /// order — possibly none, possibly several for batches spanning
    /// multiple periods).
    ///
    /// # Contract: bit-identical to per-element ingestion
    ///
    /// `push_batch(values)` emits exactly the answers that
    /// `values.iter().filter_map(|&v| op.push_detailed(v))` would —
    /// bit for bit. Two properties make that hold:
    ///
    /// * **Boundary splitting.** The batch is split at every sub-window
    ///   boundary (`period − pending()` elements into the batch, then
    ///   every `period`), so summaries cover exactly the same element
    ///   ranges as per-element feeding, and evaluations fire at the
    ///   same stream positions.
    /// * **Order-independence inside a sub-window.** Level-1 state is a
    ///   frequency multiset; within one sub-window, insertion order
    ///   cannot affect quantiles, tail snapshots, or anything else read
    ///   at the boundary.
    ///
    /// The speedup comes from quantizing the chunk in one pass and
    /// handing it to the store whole: the dense store indexes it
    /// directly, and the sorted-run store sorts a sub-window's opening
    /// chunk straight into runs and logs the rest for one sort at the
    /// boundary.
    pub fn push_batch(&mut self, values: &[u64]) -> Vec<QloveAnswer> {
        let mut out = Vec::new();
        self.push_batch_into(values, &mut out);
        out
    }

    /// [`Qlove::push_batch`] appending into a caller-owned buffer, for
    /// callers that drain answers incrementally and want to keep the
    /// ingest loop allocation-free.
    pub fn push_batch_into(&mut self, values: &[u64], out: &mut Vec<QloveAnswer>) {
        let mut rest = values;
        while !rest.is_empty() {
            let room = self.config.period - self.filled;
            let (chunk, tail) = rest.split_at(room.min(rest.len()));
            rest = tail;
            self.ingest_chunk(chunk);
            if self.filled == self.config.period {
                self.filled = 0;
                self.complete_subwindow();
                if self.summaries.len() >= self.n_sub {
                    out.push(self.evaluate());
                }
            }
        }
    }

    /// Quantize and bulk-insert `chunk` through the backend's batched
    /// path. `chunk` must not cross a sub-window boundary.
    fn ingest_chunk(&mut self, chunk: &[u64]) {
        debug_assert!(self.filled + chunk.len() <= self.config.period);
        let mut buf = std::mem::take(&mut self.batch_scratch);
        ingest_chunk_into(&mut self.store, chunk, self.config.sig_digits, &mut buf);
        self.batch_scratch = buf;
        self.filled += chunk.len();
    }

    /// Level-1 boundary work: summarize the in-flight store, snapshot
    /// the tail caches, roll the Level-2 ring, discard the raw data.
    ///
    /// Allocation-free in steady state: the summary expired from the
    /// ring is recycled for the next boundary, the tail snapshot and
    /// burst pool live in scratch buffers, and the store keeps its
    /// allocations across [`FreqStoreImpl::seal`] and
    /// [`FreqStore::clear`].
    fn complete_subwindow(&mut self) {
        // One sort of the sub-window's pending inserts puts every query
        // below on its fast path.
        self.store.seal();
        let phis = &self.config.phis;
        let l = phis.len();
        let mut summary = self
            .spare_summary
            .take()
            .unwrap_or_else(|| SubWindowSummary::with_phis(l));

        let filled = self.store.quantiles_into(phis, &mut summary.quantiles);
        assert!(filled, "sub-window contains `period` > 0 elements");

        // One descending tail snapshot serves every φ's caches. The
        // snapshot (and therefore each φ's interval samples) is
        // descending-sorted, which is what lets the detector cache
        // below reverse-copy instead of sort.
        self.store.top_k_into(self.max_tail, &mut self.tail_scratch);
        let tail = &self.tail_scratch;
        for (i, budget) in self.budgets.iter().enumerate() {
            let topk = &mut summary.topk[i];
            let samples = &mut summary.samples[i];
            topk.clear();
            samples.clear();
            if let Some(b) = budget {
                let need = b.exact_need.min(tail.len());
                topk.extend_from_slice(&tail[..b.kt.min(need)]);
                interval_sample_into(&tail[..need], b.ks, samples);
            }
        }
        // Cache the comparison-ready detector form of each φ's samples
        // (values pre-sorted, log moments pre-reduced) once per
        // sub-window: every later boundary this sub-window is compared
        // at — as the adjacent-former reference or inside a pooled
        // reference — reuses it instead of re-sorting and re-`ln`ing.
        if self.config.fewk.is_some() {
            for i in 0..l {
                summary.tails[i].rebuild(&summary.samples[i]);
            }
        }

        // Burst flags (§4.3): is this sub-window's tail stochastically
        // larger than recent history? Tested against the adjacent former
        // sub-window (the paper's description) and, for statistical
        // power when per-φ samples are few, against the pooled samples
        // of all live sub-windows — either firing marks the burst.
        // Decisions ride the cached `TailStats` (allocation-free,
        // sort-free) and are bit-identical to the reference
        // `burst::is_bursty` on the same samples.
        //
        // Significance is Bonferroni-corrected: each boundary runs 2
        // reference comparisons (× 2 tests inside the detector) and a
        // flag influences up to n_sub evaluations, so the per-test level
        // is α / (4·n_sub) to keep the configured α as the per-
        // evaluation false-positive budget.
        summary.bursty.clear();
        match (self.config.fewk.as_ref(), self.summaries.back()) {
            (Some(fk), Some(prev)) => {
                let alpha = fk.burst_alpha / (4.0 * self.n_sub as f64);
                for i in 0..l {
                    if self.budgets[i].is_none() {
                        summary.bursty.push(false);
                        continue;
                    }
                    if is_bursty_stats(&summary.tails[i], &prev.tails[i], alpha) {
                        summary.bursty.push(true);
                        continue;
                    }
                    // Pooled fallback only where the single-window
                    // comparison is underpowered (small per-φ samples),
                    // and capped at POOLED_REFERENCE_CAP samples.
                    if summary.samples[i].len() >= POOLED_FALLBACK_MAX_SAMPLES {
                        summary.bursty.push(false);
                        continue;
                    }
                    self.pooled_stats.clear();
                    for s in self.summaries.iter().rev() {
                        self.pooled_stats.absorb(&s.tails[i]);
                        if self.pooled_stats.len() >= POOLED_REFERENCE_CAP {
                            break;
                        }
                    }
                    self.pooled_stats.finish_pooled();
                    summary.bursty.push(is_bursty_stats(
                        &summary.tails[i],
                        &self.pooled_stats,
                        alpha,
                    ));
                }
            }
            _ => summary.bursty.extend(std::iter::repeat_n(false, l)),
        }

        // Theorem-1 bounds from this sub-window's empirical density.
        let alpha = 0.05;
        summary.bounds.clear();
        summary.bounds.extend(
            phis.iter().map(|&phi| {
                bound_from_store(&self.store, phi, self.n_sub, self.config.period, alpha)
            }),
        );

        for (s, &q) in self.sums.iter_mut().zip(&summary.quantiles) {
            *s += q as u128;
        }
        self.summaries.push_back(summary);
        if self.summaries.len() > self.n_sub {
            let old = self.summaries.pop_front().expect("len > n_sub ≥ 1");
            for (s, &q) in self.sums.iter_mut().zip(&old.quantiles) {
                *s -= q as u128;
            }
            // Recycle the expired summary's allocations for the next
            // boundary.
            self.spare_summary = Some(old);
        }
        // Tumbling reset: all raw values discarded, allocations kept.
        self.store.clear();
    }

    /// Level-2 aggregation plus §4.3's per-quantile outcome selection.
    fn evaluate(&self) -> QloveAnswer {
        let l = self.config.phis.len();
        let latest = self.summaries.back().expect("ring full");

        let mut values = Vec::with_capacity(l);
        let mut sources = Vec::with_capacity(l);
        let mut any_burst = false;

        // Bursty traffic is a property of the *stream*, not of one
        // quantile: a burst detected at any tail quantile sweeps the
        // reference ranks of every high quantile (§5.3's Q0.99 example),
        // so the flag is shared across few-k-eligible φs and persists
        // until the bursty sub-window expires. Computed once per
        // evaluation — it does not depend on φ.
        let bursty = self.summaries.iter().any(|s| s.bursty.iter().any(|&b| b));

        for (i, &phi) in self.config.phis.iter().enumerate() {
            let level2 = (self.sums[i] as f64 / self.n_sub as f64).round() as u64;
            let Some(budget) = &self.budgets[i] else {
                values.push(level2);
                sources.push(AnswerSource::Level2);
                continue;
            };
            let fk = self.config.fewk.as_ref().expect("budget implies fewk");
            any_burst |= bursty;

            // `exact_need` is the φ-quantile's rank from the top under
            // the paper's ⌈φN⌉ convention (see `fewk::tail_need`) — the
            // rank both merges answer at. The per-sub-window cache views
            // stream straight into the merges' k-way heaps; no boundary
            // group is materialized per evaluation.
            if bursty {
                if let Some(v) = merge_sample_k(
                    self.summaries.iter().map(|s| s.samples[i].as_slice()),
                    budget.exact_need,
                    budget.exact_need,
                ) {
                    values.push(v);
                    sources.push(AnswerSource::SampleK);
                    continue;
                }
            }
            if TailBudget::statistically_inefficient(self.config.period, phi, fk.ts) {
                if let Some(v) = merge_top_k(
                    self.summaries.iter().map(|s| s.topk[i].as_slice()),
                    budget.exact_need,
                ) {
                    values.push(v);
                    sources.push(AnswerSource::TopK);
                    continue;
                }
            }
            values.push(level2);
            sources.push(AnswerSource::Level2);
        }

        QloveAnswer {
            values,
            sources,
            bounds: latest.bounds.clone(),
            bursty: any_burst,
        }
    }

    /// Non-destructive snapshot of the in-flight (partial) sub-window as
    /// a mergeable [`QloveSummary`].
    pub fn summary(&self) -> QloveSummary {
        debug_assert_eq!(self.store.total() as usize, self.filled);
        let mut counts = Vec::with_capacity(self.store.unique_len());
        self.store.counts_into(&mut counts);
        QloveSummary {
            counts,
            total: self.store.total(),
        }
    }

    /// Snapshot the in-flight sub-window as a mergeable summary **and
    /// reset it** — the shard side of a sub-window exchange, or a
    /// checkpoint extraction. Store allocations are kept for reuse.
    pub fn take_summary(&mut self) -> QloveSummary {
        self.store.seal();
        let summary = self.summary();
        self.store.clear();
        self.filled = 0;
        summary
    }

    /// Merge a summary into the in-flight sub-window — the coordinator
    /// side of distributed execution, and the restore side of a
    /// checkpoint (merging into a fresh instance reinstates the
    /// extracted state exactly).
    ///
    /// Returns the evaluation answer when the merge completes a
    /// sub-window on a full window, exactly like
    /// [`Qlove::push_detailed`] at a boundary. Because Level-1 state is
    /// a multiset, merging K shard summaries covering one sub-window
    /// produces answers **bit-identical** to a single instance
    /// ingesting the interleaved stream: the merged multiset is the same
    /// multiset, so the Level-2 quantile sums, the few-k tail caches and
    /// merge views, the burst flags, and the Theorem-1 bound accounting
    /// (a merged sub-window holds exactly `period` elements, the `m` the
    /// bound formula assumes) all coincide.
    ///
    /// Summary values must already be quantized the way this instance
    /// quantizes — true for summaries extracted from a [`QloveShard`] or
    /// [`Qlove`] sharing this configuration; they are folded in as-is.
    ///
    /// # Panics
    /// Panics when the summary does not fit in the current sub-window:
    /// summaries are exchanged at sub-window granularity and must never
    /// straddle a boundary.
    pub fn merge(&mut self, other: &QloveSummary) -> Option<QloveAnswer> {
        let room = self.config.period - self.filled;
        assert!(
            other.total as usize <= room,
            "summary of {} elements crosses a sub-window boundary ({room} elements of room)",
            other.total
        );
        self.store.merge_sorted_counts(&other.counts);
        self.filled += other.total as usize;
        if self.filled < self.config.period {
            return None;
        }
        self.filled = 0;
        self.complete_subwindow();
        (self.summaries.len() >= self.n_sub).then(|| self.evaluate())
    }

    /// Elements accumulated into the in-flight sub-window.
    pub fn pending(&self) -> usize {
        self.filled
    }

    /// Completed sub-window summaries currently live.
    pub fn live_subwindows(&self) -> usize {
        self.summaries.len()
    }
}

impl ShardAccumulator for QloveShard {
    type Input = u64;
    type Summary = QloveSummary;

    fn ingest_batch(&mut self, values: &[u64]) {
        self.push_batch(values);
    }

    fn take_summary(&mut self) -> QloveSummary {
        QloveShard::take_summary(self)
    }
}

impl SummaryMerge for Qlove {
    type Summary = QloveSummary;
    type Output = QloveAnswer;

    fn merge_summary(&mut self, summary: &QloveSummary) -> Option<QloveAnswer> {
        self.merge(summary)
    }
}

impl QuantilePolicy for Qlove {
    fn push(&mut self, value: u64) -> Option<Vec<u64>> {
        self.push_detailed(value).map(|a| a.values)
    }

    fn push_batch(&mut self, values: &[u64]) -> Vec<Vec<u64>> {
        // The batched fast path (values-only projection of the detailed
        // answers); overrides the trait's per-element fallback.
        Qlove::push_batch(self, values)
            .into_iter()
            .map(|a| a.values)
            .collect()
    }

    fn phis(&self) -> &[f64] {
        &self.config.phis
    }

    fn space_variables(&self) -> usize {
        let l = self.config.phis.len();
        let summaries: usize = self
            .summaries
            .iter()
            .map(|s| {
                s.quantiles.len()
                    + s.topk.iter().map(Vec::len).sum::<usize>()
                    + s.samples.iter().map(Vec::len).sum::<usize>()
            })
            .sum();
        // In-flight store holds {value, count} pairs (the dense backend
        // stores them positionally, but the live information content is
        // the same); plus l running sums.
        summaries + self.store.unique_len() * 2 + l
    }

    fn name(&self) -> &'static str {
        "QLOVE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FewKConfig;
    use qlove_stats::{quantile_sorted, relative_error_pct};

    fn normal_stream(seed: u64, n: usize) -> Vec<u64> {
        qlove_workloads::NormalGen::generate(seed, n)
    }

    #[test]
    fn tumbling_single_subwindow_is_exact_modulo_quantization() {
        // n_sub = 1: Level 2 averages one exact quantile → exact result
        // (quantization off to compare bit-for-bit).
        let cfg = QloveConfig::without_fewk(&[0.5, 0.9], 1000, 1000).quantize(None);
        let mut q = Qlove::new(cfg);
        let data: Vec<u64> = (0..5000u64).map(|i| (i * 7919) % 4096).collect();
        for (i, &v) in data.iter().enumerate() {
            if let Some(ans) = q.push(v) {
                let mut win: Vec<u64> = data[i + 1 - 1000..=i].to_vec();
                win.sort_unstable();
                assert_eq!(ans[0], quantile_sorted(&win, 0.5));
                assert_eq!(ans[1], quantile_sorted(&win, 0.9));
            }
        }
    }

    #[test]
    fn evaluation_schedule_matches_window_spec() {
        let mut q = Qlove::new(QloveConfig::new(&[0.5], 4000, 500));
        let mut eval_at = Vec::new();
        for (i, v) in normal_stream(1, 12_000).into_iter().enumerate() {
            if q.push(v).is_some() {
                eval_at.push(i + 1);
            }
        }
        assert_eq!(eval_at.first(), Some(&4000));
        assert!(eval_at.windows(2).all(|w| w[1] - w[0] == 500));
    }

    #[test]
    fn level2_median_tracks_exact_on_iid_data() {
        let (window, period) = (8000, 1000);
        let cfg = QloveConfig::without_fewk(&[0.5, 0.9], window, period);
        let mut q = Qlove::new(cfg);
        let data = normal_stream(7, 40_000);
        let mut worst = 0.0f64;
        for (i, &v) in data.iter().enumerate() {
            if let Some(ans) = q.push(v) {
                let mut win: Vec<u64> = data[i + 1 - window..=i].to_vec();
                win.sort_unstable();
                for (j, &phi) in [0.5, 0.9].iter().enumerate() {
                    let exact = quantile_sorted(&win, phi);
                    worst = worst.max(relative_error_pct(ans[j] as f64, exact as f64));
                }
            }
        }
        // Paper reports ≪1% for non-high quantiles; allow generous slack.
        assert!(worst < 1.0, "worst relative error {worst}%");
    }

    #[test]
    fn quantization_bounds_value_error_to_one_percent() {
        let (window, period) = (4000, 1000);
        let with_q = QloveConfig::without_fewk(&[0.5], window, period);
        let without_q = with_q.clone().quantize(None);
        let data = normal_stream(3, 20_000);
        let mut a = Qlove::new(with_q);
        let mut b = Qlove::new(without_q);
        for &v in &data {
            let (ra, rb) = (a.push(v), b.push(v));
            if let (Some(x), Some(y)) = (ra, rb) {
                let rel = relative_error_pct(x[0] as f64, y[0] as f64);
                assert!(rel < 1.0, "quantization moved the answer by {rel}%");
            }
        }
    }

    #[test]
    fn quantization_shrinks_the_tree() {
        let (window, period) = (10_000, 10_000);
        let data = normal_stream(5, 9_999); // keep the sub-window in flight
        let mut with_q = Qlove::new(QloveConfig::without_fewk(&[0.5], window, period));
        let mut without_q =
            Qlove::new(QloveConfig::without_fewk(&[0.5], window, period).quantize(None));
        for &v in &data {
            with_q.push(v);
            without_q.push(v);
        }
        assert!(
            with_q.space_variables() * 5 < without_q.space_variables(),
            "quantized {} vs raw {}",
            with_q.space_variables(),
            without_q.space_variables()
        );
    }

    #[test]
    fn space_is_far_below_exact_window_storage() {
        let (window, period) = (100_000, 10_000);
        let mut q = Qlove::new(QloveConfig::new(&[0.5, 0.9, 0.99, 0.999], window, period));
        for v in qlove_workloads::NetMonGen::new(2).take(150_000) {
            q.push(v);
        }
        assert!(
            q.space_variables() < window / 4,
            "space {} not sublinear",
            q.space_variables()
        );
    }

    #[test]
    fn phi_half_and_low_quantiles_never_get_tail_budgets() {
        let q = Qlove::new(QloveConfig::new(&[0.1, 0.5, 0.99], 10_000, 1000));
        assert!(q.budgets[0].is_none());
        assert!(q.budgets[1].is_none());
        // 0.99: need = 100 ≤ period → eligible.
        assert!(q.budgets[2].is_some());
    }

    #[test]
    fn wide_tails_that_exceed_a_subwindow_are_ineligible() {
        // φ = 0.6 → need 4000 > period 1000: tail can't be snapshot.
        let q = Qlove::new(QloveConfig::new(&[0.6], 10_000, 1000));
        assert!(q.budgets[0].is_none());
    }

    #[test]
    fn topk_fires_under_statistical_inefficiency() {
        // P(1−φ) = 1000·0.001 = 1 < Ts = 10 → top-k path for φ = 0.999.
        let (window, period) = (8000, 1000);
        let cfg = QloveConfig::new(&[0.999], window, period)
            .fewk(Some(FewKConfig::with_fractions(0.5, 0.0)));
        let mut q = Qlove::new(cfg);
        let data = normal_stream(11, 40_000);
        let mut saw_topk = false;
        let mut worst = 0.0f64;
        for (i, &v) in data.iter().enumerate() {
            if let Some(ans) = q.push_detailed(v) {
                if ans.sources[0] == AnswerSource::TopK {
                    saw_topk = true;
                }
                let mut win: Vec<u64> = data[i + 1 - window..=i].to_vec();
                win.sort_unstable();
                let exact = quantile_sorted(&win, 0.999);
                worst = worst.max(relative_error_pct(ans.values[0] as f64, exact as f64));
            }
        }
        assert!(saw_topk, "top-k pipeline never selected");
        // fraction 0.5 → near-exact per Table 3's finding.
        assert!(worst < 2.0, "Q0.999 error {worst}% with half-budget top-k");
    }

    #[test]
    fn burst_triggers_sample_k_and_repairs_the_answer() {
        let (window, period, phi) = (8000, 1000, 0.999);
        let mut data = normal_stream(13, 48_000);
        qlove_workloads::burst::inject_burst(&mut data, window, period, phi, 10);

        let with_sk = QloveConfig::new(&[phi], window, period)
            .fewk(Some(FewKConfig::with_fractions(0.125, 0.5)));
        let without_fk = QloveConfig::without_fewk(&[phi], window, period);
        let mut q_sk = Qlove::new(with_sk);
        let mut q_l2 = Qlove::new(without_fk);

        let mut sk_errs = Vec::new();
        let mut l2_errs = Vec::new();
        let mut saw_samplek = false;
        for (i, &v) in data.iter().enumerate() {
            let a = q_sk.push_detailed(v);
            let b = q_l2.push(v);
            if let (Some(a), Some(b)) = (a, b) {
                let mut win: Vec<u64> = data[i + 1 - window..=i].to_vec();
                win.sort_unstable();
                let exact = quantile_sorted(&win, phi) as f64;
                sk_errs.push(relative_error_pct(a.values[0] as f64, exact));
                l2_errs.push(relative_error_pct(b[0] as f64, exact));
                if a.sources[0] == AnswerSource::SampleK {
                    saw_samplek = true;
                }
            }
        }
        assert!(saw_samplek, "burst never routed to sample-k");
        let sk_mean = qlove_stats::mean(&sk_errs).unwrap();
        let l2_mean = qlove_stats::mean(&l2_errs).unwrap();
        assert!(
            sk_mean < l2_mean / 2.0,
            "sample-k {sk_mean}% should beat plain Level-2 {l2_mean}% under bursts"
        );
    }

    #[test]
    fn error_bounds_cover_observed_errors_on_iid_data() {
        // Theorem-1 empirical check (the paper's §5.4 coverage claim):
        // on i.i.d. normal data the observed |y_a − y_e| should fall
        // within the 95% bound essentially always.
        let (window, period) = (16_000, 2_000);
        let cfg = QloveConfig::without_fewk(&[0.5, 0.9], window, period).quantize(None);
        let mut q = Qlove::new(cfg);
        let data = normal_stream(17, 64_000);
        let (mut covered, mut total) = (0usize, 0usize);
        for (i, &v) in data.iter().enumerate() {
            if let Some(ans) = q.push_detailed(v) {
                let mut win: Vec<u64> = data[i + 1 - window..=i].to_vec();
                win.sort_unstable();
                for (j, &phi) in [0.5, 0.9].iter().enumerate() {
                    if let Some(b) = &ans.bounds[j] {
                        let exact = quantile_sorted(&win, phi) as f64;
                        total += 1;
                        if b.covers((ans.values[j] as f64 - exact).abs()) {
                            covered += 1;
                        }
                    }
                }
            }
        }
        assert!(total >= 40, "bounds were rarely computable: {total}");
        let rate = covered as f64 / total as f64;
        assert!(rate >= 0.90, "coverage {rate} below the 95% target band");
    }

    #[test]
    fn answers_are_monotone_in_phi_for_level2() {
        let mut q = Qlove::new(QloveConfig::without_fewk(&[0.1, 0.5, 0.9, 0.99], 4000, 500));
        for v in normal_stream(23, 20_000) {
            if let Some(ans) = q.push(v) {
                for w in ans.windows(2) {
                    assert!(w[0] <= w[1], "non-monotone answers {ans:?}");
                }
            }
        }
    }

    #[test]
    fn push_batch_matches_push_detailed_across_batch_sizes() {
        let data = normal_stream(29, 30_000);
        for cfg in [
            QloveConfig::new(&[0.5, 0.9, 0.99, 0.999], 8_000, 1_000),
            QloveConfig::without_fewk(&[0.5, 0.999], 8_000, 1_000),
            QloveConfig::new(&[0.5], 4_000, 1_000).quantize(None),
        ] {
            let mut reference = Qlove::new(cfg.clone());
            let want: Vec<QloveAnswer> = data
                .iter()
                .filter_map(|&v| reference.push_detailed(v))
                .collect();
            // 1 = degenerate batches; 999/1000/1001 straddle the period;
            // 4096 spans several sub-windows.
            for batch in [1usize, 64, 999, 1_000, 1_001, 4_096] {
                let mut op = Qlove::new(cfg.clone());
                let mut got = Vec::new();
                for chunk in data.chunks(batch) {
                    op.push_batch_into(chunk, &mut got);
                }
                assert_eq!(got, want, "batch size {batch}");
                assert_eq!(op.pending(), reference.pending(), "batch size {batch}");
                assert_eq!(op.live_subwindows(), reference.live_subwindows());
            }
        }
    }

    #[test]
    fn push_batch_mid_subwindow_state_is_consistent() {
        let mut q = Qlove::new(QloveConfig::new(&[0.5], 2_000, 500));
        assert!(q.push_batch(&[]).is_empty());
        assert_eq!(q.pending(), 0);
        q.push_batch(&normal_stream(31, 750));
        assert_eq!(q.pending(), 250);
        assert_eq!(q.live_subwindows(), 1);
        // Finish the window: 1250 more → 4 sub-windows → first answer.
        let answers = q.push_batch(&normal_stream(37, 1_250));
        assert_eq!(answers.len(), 1);
        assert_eq!(q.pending(), 0);
    }

    /// Deal `data` round-robin across `shards` [`QloveShard`]s with
    /// summary exchange at every logical sub-window boundary, merging
    /// into a coordinator — the distributed execution in miniature
    /// (single-threaded, deterministic).
    fn run_dealt(cfg: &QloveConfig, data: &[u64], shards: usize) -> (Vec<QloveAnswer>, Qlove) {
        let mut workers: Vec<QloveShard> = (0..shards).map(|_| QloveShard::new(cfg)).collect();
        let mut coordinator = Qlove::new(cfg.clone());
        let mut answers = Vec::new();
        for (i, &v) in data.iter().enumerate() {
            workers[i % shards].push(v);
            if (i + 1) % cfg.period == 0 {
                for w in workers.iter_mut() {
                    if let Some(ans) = coordinator.merge(&w.take_summary()) {
                        answers.push(ans);
                    }
                }
            }
        }
        // Trailing partial sub-window: merge what the shards hold.
        for w in workers.iter_mut() {
            let s = w.take_summary();
            if !s.is_empty() {
                assert!(coordinator.merge(&s).is_none(), "partial cannot evaluate");
            }
        }
        (answers, coordinator)
    }

    #[test]
    fn merged_shards_are_bit_identical_to_single_instance() {
        let data = normal_stream(41, 12_500); // trailing partial sub-window
        for cfg in [
            QloveConfig::new(&[0.5, 0.9, 0.99, 0.999], 4_000, 500),
            QloveConfig::without_fewk(&[0.5, 0.999], 4_000, 1_000),
            QloveConfig::new(&[0.5], 2_000, 500).quantize(None),
        ] {
            let mut single = Qlove::new(cfg.clone());
            let want: Vec<QloveAnswer> = data
                .iter()
                .filter_map(|&v| single.push_detailed(v))
                .collect();
            for shards in [1usize, 2, 4, 7] {
                let (got, coordinator) = run_dealt(&cfg, &data, shards);
                assert_eq!(got, want, "shards {shards}");
                assert_eq!(coordinator.pending(), single.pending(), "shards {shards}");
                assert_eq!(coordinator.live_subwindows(), single.live_subwindows());
            }
        }
    }

    #[test]
    fn take_summary_and_merge_restore_a_checkpoint() {
        let cfg = QloveConfig::new(&[0.5, 0.99], 2_000, 500);
        let data = normal_stream(43, 1_750); // 3 full sub-windows + 250 in flight
        let mut original = Qlove::new(cfg.clone());
        for &v in &data {
            original.push_detailed(v);
        }
        assert_eq!(original.pending(), 250);
        // Checkpoint the in-flight state, ship it through bytes, restore
        // into a fresh sub-window of the same instance.
        let checkpoint = original.take_summary();
        assert_eq!(original.pending(), 0);
        let wire = checkpoint.to_bytes();
        let restored = QloveSummary::from_bytes(&wire).unwrap();
        assert_eq!(restored, checkpoint);
        assert!(original.merge(&restored).is_none());
        assert_eq!(original.pending(), 250);
        // The restored instance continues exactly like an untouched one.
        let mut untouched = Qlove::new(cfg);
        for &v in &data {
            untouched.push_detailed(v);
        }
        let tail = normal_stream(47, 4_000);
        let a: Vec<QloveAnswer> = tail
            .iter()
            .filter_map(|&v| original.push_detailed(v))
            .collect();
        let b: Vec<QloveAnswer> = tail
            .iter()
            .filter_map(|&v| untouched.push_detailed(v))
            .collect();
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }

    #[test]
    fn summary_is_nondestructive_and_quantized() {
        let cfg = QloveConfig::new(&[0.5], 1_000, 1_000); // 3 sig digits
        let mut op = Qlove::new(cfg);
        op.push_detailed(123_456);
        op.push_detailed(123_456);
        op.push_detailed(7);
        let s = op.summary();
        assert_eq!(op.pending(), 3); // untouched
        assert_eq!(s.total(), 3);
        // 123456 quantized to 3 significant digits.
        assert_eq!(s.counts(), &[(7, 1), (123_000, 2)]);
    }

    #[test]
    #[should_panic(expected = "crosses a sub-window boundary")]
    fn merge_rejects_boundary_straddling_summaries() {
        let cfg = QloveConfig::new(&[0.5], 1_000, 500);
        let mut shard = QloveShard::new(&cfg);
        for v in 0..501u64 {
            shard.push(v);
        }
        let mut coordinator = Qlove::new(cfg);
        coordinator.merge(&shard.take_summary());
    }

    #[test]
    fn summary_from_counts_validates() {
        assert!(QloveSummary::from_counts(vec![(1, 1), (2, 3)]).is_some());
        assert!(QloveSummary::from_counts(vec![]).is_some());
        // Out of order, duplicate, zero frequency, total overflow.
        assert!(QloveSummary::from_counts(vec![(2, 1), (1, 1)]).is_none());
        assert!(QloveSummary::from_counts(vec![(1, 1), (1, 1)]).is_none());
        assert!(QloveSummary::from_counts(vec![(1, 0)]).is_none());
        assert!(QloveSummary::from_counts(vec![(1, u64::MAX), (2, 1)]).is_none());
    }

    #[test]
    fn summary_split_partitions_and_reassembles_exactly() {
        let cfg = QloveConfig::new(&[0.5, 0.999], 8_000, 1_000);
        let data = normal_stream(59, 800);
        let mut shard = QloveShard::new(&cfg);
        shard.push_batch(&data);
        let whole = shard.take_summary();
        // Every pivot, including ones outside the value range: the
        // halves are disjoint at the pivot, valid summaries in their
        // own right, and their union is the original, bit for bit.
        let mut pivots: Vec<u64> = whole.counts().iter().map(|&(v, _)| v).collect();
        pivots.extend([0, 1, u64::MAX]);
        for pivot in pivots {
            let (lo, hi) = whole.split_at(pivot);
            assert!(lo.counts().iter().all(|&(v, _)| v < pivot));
            assert!(hi.counts().iter().all(|&(v, _)| v >= pivot));
            assert_eq!(lo.total() + hi.total(), whole.total());
            assert!(QloveSummary::from_counts(lo.counts().to_vec()).is_some());
            assert!(QloveSummary::from_counts(hi.counts().to_vec()).is_some());
            assert_eq!(lo.merged(&hi).unwrap(), whole, "pivot {pivot}");
            // Commutative: merge order never matters.
            assert_eq!(hi.merged(&lo).unwrap(), whole, "pivot {pivot}");
        }
        let (none, all) = whole.split_at(0);
        assert!(none.is_empty());
        assert_eq!(all, whole);
    }

    #[test]
    fn summary_merged_is_the_multiset_union() {
        // Overlapping value sets: collisions add frequencies.
        let a = QloveSummary::from_counts(vec![(1, 2), (5, 3), (9, 1)]).unwrap();
        let b = QloveSummary::from_counts(vec![(5, 4), (7, 2)]).unwrap();
        let u = a.merged(&b).unwrap();
        assert_eq!(u.counts(), &[(1, 2), (5, 7), (7, 2), (9, 1)]);
        assert_eq!(u.total(), 12);
        // Identity element and overflow rejection.
        assert_eq!(a.merged(&QloveSummary::default()).unwrap(), a);
        let big = QloveSummary::from_counts(vec![(1, u64::MAX)]).unwrap();
        assert!(big.merged(&b).is_none());
        // Restoring a shard from the union equals restoring from both
        // parents in turn — the reshard-merge checkpoint identity.
        let cfg = QloveConfig::new(&[0.5], 1_000, 500);
        let mut via_union = QloveShard::new(&cfg);
        via_union.restore(&u);
        let mut via_parts = QloveShard::new(&cfg);
        via_parts.restore(&a);
        via_parts.restore(&b);
        assert_eq!(via_union.take_summary(), via_parts.take_summary());
    }

    #[test]
    fn shard_batch_and_per_element_agree() {
        let cfg = QloveConfig::new(&[0.5, 0.999], 8_000, 1_000);
        let data = normal_stream(53, 900);
        let mut a = QloveShard::new(&cfg);
        let mut b = QloveShard::new(&cfg);
        for &v in &data {
            a.push(v);
        }
        for chunk in data.chunks(128) {
            b.push_batch(chunk);
        }
        assert_eq!(a.pending(), b.pending());
        assert_eq!(a.take_summary(), b.take_summary());
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn shard_restore_rebuilds_lost_state_exactly() {
        // The recovery identity: checkpoint at a cut point + replay of
        // the tail must equal the undisturbed shard, mid-sub-window,
        // for both backends.
        for backend in [Backend::Tree, Backend::Dense] {
            let cfg = QloveConfig::new(&[0.5, 0.999], 8_000, 1_000).backend(backend);
            let data = normal_stream(71, 700);
            let cut = 311;
            let mut undisturbed = QloveShard::new(&cfg);
            undisturbed.push_batch(&data);

            // Original shard dies at `cut`; its checkpoint is whatever
            // it had accumulated (here extracted via take_summary, the
            // same multiset a coordinator-side checkpoint would hold).
            let mut original = QloveShard::new(&cfg);
            original.push_batch(&data[..cut]);
            let checkpoint = original.take_summary();

            let mut replacement = QloveShard::new(&cfg);
            replacement.restore(&checkpoint);
            assert_eq!(replacement.pending(), cut);
            replacement.push_batch(&data[cut..]);
            assert_eq!(replacement.pending(), undisturbed.pending());
            assert_eq!(
                replacement.take_summary(),
                undisturbed.take_summary(),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn shard_restore_of_empty_checkpoint_is_identity() {
        let cfg = QloveConfig::new(&[0.5], 1_000, 500);
        let mut shard = QloveShard::new(&cfg);
        shard.push(42);
        shard.restore(&QloveSummary::default());
        assert_eq!(shard.pending(), 1);
        assert_eq!(shard.take_summary().counts(), &[(42, 1)]);
    }

    #[test]
    fn default_config_selects_dense_and_unquantized_selects_tree() {
        let dense = Qlove::new(QloveConfig::new(&[0.5], 1_000, 100));
        assert!(matches!(dense.store, FreqStoreImpl::Dense(_)));
        let tree = Qlove::new(QloveConfig::new(&[0.5], 1_000, 100).quantize(None));
        assert!(matches!(tree.store, FreqStoreImpl::Tree(_)));
        let pinned = Qlove::new(QloveConfig::new(&[0.5], 1_000, 100).backend(Backend::Tree));
        assert!(matches!(pinned.store, FreqStoreImpl::Tree(_)));
    }

    #[test]
    fn backends_produce_bit_identical_answers() {
        // The backend-equivalence contract at the operator level, for
        // per-element, batched, and shard-merged ingestion alike. The
        // full random-spec sweep lives in tests/proptest_backend.rs.
        let data = normal_stream(61, 30_000);
        let base = QloveConfig::new(&[0.5, 0.9, 0.99, 0.999], 8_000, 1_000);
        let cfg_tree = base.clone().backend(Backend::Tree);
        let cfg_dense = base.backend(Backend::Dense);

        let mut tree = Qlove::new(cfg_tree.clone());
        let want: Vec<QloveAnswer> = data.iter().filter_map(|&v| tree.push_detailed(v)).collect();
        assert!(!want.is_empty());

        let mut dense = Qlove::new(cfg_dense.clone());
        let got: Vec<QloveAnswer> = data
            .iter()
            .filter_map(|&v| dense.push_detailed(v))
            .collect();
        assert_eq!(got, want, "per-element");
        assert_eq!(dense.pending(), tree.pending());
        assert_eq!(dense.summary(), tree.summary());
        assert_eq!(dense.space_variables(), tree.space_variables());

        let mut batched = Qlove::new(cfg_dense.clone());
        let mut got_batched = Vec::new();
        for chunk in data.chunks(4_096) {
            batched.push_batch_into(chunk, &mut got_batched);
        }
        assert_eq!(got_batched, want, "batched");

        let (got_dealt, _) = run_dealt(&cfg_dense, &data, 4);
        assert_eq!(got_dealt, want, "dealt dense shards");
        // Tree shards merged by a dense coordinator (and vice versa)
        // still agree: the summary wire format is backend-neutral.
        let mut workers: Vec<QloveShard> = (0..3).map(|_| QloveShard::new(&cfg_tree)).collect();
        let mut coordinator = Qlove::new(cfg_dense);
        let mut mixed = Vec::new();
        for (i, &v) in data.iter().enumerate() {
            workers[i % 3].push(v);
            if (i + 1) % 1_000 == 0 {
                for w in workers.iter_mut() {
                    mixed.extend(coordinator.merge(&w.take_summary()));
                }
            }
        }
        assert_eq!(mixed, want, "mixed-backend shards");
    }

    #[test]
    fn policy_metadata() {
        let q = Qlove::new(QloveConfig::new(&[0.5, 0.99], 1000, 100));
        assert_eq!(q.name(), "QLOVE");
        assert_eq!(q.phis(), &[0.5, 0.99]);
        assert_eq!(q.pending(), 0);
        assert_eq!(q.live_subwindows(), 0);
    }
}
