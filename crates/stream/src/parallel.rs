//! Pipelined, sharded, and distributed execution.
//!
//! The paper measures single-thread operator throughput; to do the same
//! without the workload generator polluting the measurement, the harness
//! runs generation on one thread and the operator on another, connected
//! by a bounded crossbeam channel ([`run_pipelined`]). Two multi-worker
//! executors build on that substrate, covering the two deployment shapes
//! §7's "extends to distributed computing" remark implies:
//!
//! * [`run_sharded`] — **independent windows**: one operator instance
//!   per worker, each answering its own slice of traffic (per-pipeline
//!   monitoring). Answers are per-shard; nothing is merged.
//! * [`run_distributed`] — **one logical window**: values are dealt
//!   round-robin across shard accumulators, shards surrender mergeable
//!   summaries at every sub-window boundary, and a coordinator folds
//!   them into a single logical window whose answers equal a
//!   single-instance run over the undealt stream. Its merge loop is the
//!   shared double-buffered core [`coordinate_pipelined`], which also
//!   drives the multi-process socket transport (`qlove_transport`):
//!   boundary *b* merges on a dedicated thread while shards ingest
//!   toward boundary *b+1*.
//!
//! Both executors are agnostic to how an operator stores its state:
//! QLOVE's Level-1 backend (sorted runs, or the dense direct-indexed
//! store `qlove_freqstore` enables for quantized domains) rides along
//! inside the operator the `make_op`/`make_shard` closures construct,
//! so the same executor serves either backend — only the cost of
//! [`SummaryMerge::merge_summary`] changes (linear run merges vs array
//! adds). Summaries themselves are backend-neutral sorted
//! `(value, frequency)` multisets, so shards and the coordinator may
//! even run different backends.

use crate::aggregate::IncrementalAggregate;
use crate::window::{SlidingWindow, WindowSpec};
use crossbeam::channel;
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Batch size used on the channel: amortizes per-message synchronization,
/// keeping the channel out of the measured operator cost. The consumer
/// feeds each batch straight into the executor's batched ingestion path
/// ([`SlidingWindow::push_batch`]), so the batching survives end to end
/// instead of being undone element by element at the consumer.
pub const BATCH: usize = 4096;

/// Run `op` over `values` on a dedicated consumer thread while the
/// producer thread generates input, returning all emitted window results.
///
/// The generic bounds require `Send` because values cross threads; all
/// telemetry payloads used in this workspace are `u64`/`f64`.
pub fn run_pipelined<A, I>(op: A, spec: WindowSpec, values: I) -> Vec<A::Output>
where
    A: IncrementalAggregate + Send,
    A::Input: Clone + Send,
    A::Output: Send,
    A::State: Send,
    I: IntoIterator<Item = A::Input> + Send,
{
    let (tx, rx) = channel::bounded::<Vec<A::Input>>(8);
    thread::scope(|scope| {
        scope.spawn(move || {
            let mut batch = Vec::with_capacity(BATCH);
            for v in values {
                batch.push(v);
                if batch.len() == BATCH
                    && tx
                        .send(std::mem::replace(&mut batch, Vec::with_capacity(BATCH)))
                        .is_err()
                {
                    return;
                }
            }
            if !batch.is_empty() {
                let _ = tx.send(batch);
            }
        });
        let mut window = SlidingWindow::new(op, spec);
        let mut out = Vec::new();
        for batch in rx.iter() {
            window.push_batch(&batch, &mut out);
        }
        out
    })
}

/// Shard `values` round-robin across `shards` worker threads, each
/// running an **independent** sliding-window instance of the operator
/// built by `make_op`; returns each shard's emitted results.
///
/// This models per-shard quantile monitoring: each ingestion pipeline
/// watches its own slice of traffic and answers for that slice only.
/// For one logical window answered collectively from every shard's
/// data — the distributed merge of sub-window summaries — use
/// [`run_distributed`].
pub fn run_sharded<A, F>(
    make_op: F,
    spec: WindowSpec,
    values: &[A::Input],
    shards: usize,
) -> Vec<Vec<A::Output>>
where
    A: IncrementalAggregate + Send,
    A::Input: Clone + Send + Sync,
    A::Output: Send,
    F: Fn() -> A + Sync,
{
    assert!(shards > 0, "need at least one shard");
    let results: Vec<Mutex<Vec<A::Output>>> = (0..shards).map(|_| Mutex::new(Vec::new())).collect();
    let results = Arc::new(results);
    thread::scope(|scope| {
        for shard in 0..shards {
            let results = Arc::clone(&results);
            let make_op = &make_op;
            scope.spawn(move || {
                let mut window = SlidingWindow::new(make_op(), spec);
                let mut local = Vec::new();
                // Re-batch the strided slice so each worker also rides
                // the batched ingestion path.
                let mut batch: Vec<A::Input> = Vec::with_capacity(BATCH);
                for v in values.iter().skip(shard).step_by(shards) {
                    batch.push(v.clone());
                    if batch.len() == BATCH {
                        window.push_batch(&batch, &mut local);
                        batch.clear();
                    }
                }
                if !batch.is_empty() {
                    window.push_batch(&batch, &mut local);
                }
                *results[shard].lock() = local;
            });
        }
    });
    Arc::try_unwrap(results)
        .unwrap_or_else(|_| panic!("worker threads joined; sole owner"))
        .into_iter()
        .map(Mutex::into_inner)
        .collect()
}

/// The shard half of a distributed one-logical-window execution: a
/// boundary-free accumulator over one shard's slice of the stream that
/// periodically surrenders its in-flight state as a mergeable summary.
///
/// Implementations must be order-insensitive within a sub-window (a
/// multiset-like state), because the executor deals elements round-robin
/// and shards ingest their slices concurrently. Every summary covers
/// exactly the elements ingested since the previous `take_summary`.
pub trait ShardAccumulator {
    /// Element type ingested.
    type Input;
    /// The mergeable state snapshot shipped to the coordinator.
    type Summary: Send;
    /// Fold a batch of this shard's elements into the in-flight state.
    /// The executor guarantees batches never straddle a logical
    /// sub-window boundary.
    fn ingest_batch(&mut self, values: &[Self::Input]);
    /// Snapshot the in-flight state as a summary and reset it.
    fn take_summary(&mut self) -> Self::Summary;
}

/// The coordinator half of a distributed one-logical-window execution:
/// merges shard summaries into one logical window and emits an answer
/// whenever a merge completes an evaluation.
pub trait SummaryMerge {
    /// Summary type accepted (the shards' [`ShardAccumulator::Summary`]).
    type Summary;
    /// Window evaluation output.
    type Output;
    /// Merge one shard's summary into the logical window. Returns
    /// `Some` when this merge closed a sub-window that produced an
    /// evaluation (at most the final summary of each boundary group
    /// does).
    fn merge_summary(&mut self, summary: &Self::Summary) -> Option<Self::Output>;
}

/// Timing breakdown of a pipelined coordinator run
/// ([`coordinate_pipelined`]): how much merge work was hidden behind
/// summary collection (and, through collection's blocking reads, behind
/// shard ingest).
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// Boundary groups that went through the merger.
    pub boundaries: usize,
    /// Total time the merger thread spent merging summaries.
    pub merge_ns: u128,
    /// Total time the collector spent assembling boundary groups —
    /// including blocking on shard channels or sockets, which is
    /// exactly the ingest time merging should hide behind.
    pub collect_ns: u128,
    /// Wall-clock time of the whole coordinate loop.
    pub wall_ns: u128,
}

impl PipelineStats {
    /// Merge time that ran concurrently with collection: the busy time
    /// the two pipeline stages spent beyond the wall clock. Zero when
    /// the host serializes them (e.g. a 1-CPU runner) — overlap needs
    /// real parallelism to exist.
    pub fn overlap_ns(&self) -> u128 {
        (self.merge_ns + self.collect_ns).saturating_sub(self.wall_ns)
    }

    /// [`PipelineStats::overlap_ns`] per boundary, in microseconds.
    pub fn overlap_us_per_boundary(&self) -> f64 {
        if self.boundaries == 0 {
            return 0.0;
        }
        self.overlap_ns() as f64 / self.boundaries as f64 / 1e3
    }

    /// Fraction of total merge time hidden behind collection, in
    /// `[0, 1]`. `0.0` when no merging happened.
    pub fn merge_hidden_fraction(&self) -> f64 {
        if self.merge_ns == 0 {
            return 0.0;
        }
        (self.overlap_ns() as f64 / self.merge_ns as f64).min(1.0)
    }
}

/// Drive a [`SummaryMerge`] coordinator over `boundaries` boundary
/// groups with a **double-buffered merge pipeline**: the caller's
/// `collect` closure assembles boundary group *b+1* while a dedicated
/// merger thread folds group *b* into the coordinator.
///
/// This is the shared coordinator core of every distributed backend:
/// the in-process thread executor ([`run_distributed`]) collects from
/// per-shard channels, and the multi-process socket transport
/// (`qlove_transport`) collects by reading summary frames — both hand
/// complete groups to the same merger loop here. Two group buffers
/// rotate through a recycle channel, so steady-state collection
/// allocates nothing and the collector can run at most one full group
/// ahead of the merger (bounded in-flight memory, real backpressure).
///
/// `collect` is called once per boundary, in stream order, with a
/// cleared buffer to fill with that boundary's summaries (in shard
/// order — any order yields the same multiset, shard order keeps runs
/// reproducible). Returning `Err` stops the pipeline: the merger
/// finishes the groups already handed over, then the error is
/// propagated with the answers produced so far discarded.
///
/// Returns the merged answers in stream order plus a [`PipelineStats`]
/// recording how much merge time the pipelining hid.
pub fn coordinate_pipelined<C, E, F>(
    coordinator: &mut C,
    boundaries: usize,
    mut collect: F,
) -> Result<(Vec<C::Output>, PipelineStats), E>
where
    C: SummaryMerge + Send,
    C::Summary: Send,
    C::Output: Send,
    F: FnMut(usize, &mut Vec<C::Summary>) -> Result<(), E>,
{
    let wall_start = Instant::now();
    let (answers, merge_ns, collect_ns) = thread::scope(|scope| {
        // Group channel capacity 1 + two recycled buffers = double
        // buffering: one group being merged, one in flight or being
        // collected.
        let (group_tx, group_rx) = channel::bounded::<Vec<C::Summary>>(1);
        let (recycle_tx, recycle_rx) = channel::bounded::<Vec<C::Summary>>(2);
        for _ in 0..2 {
            assert!(
                recycle_tx.send(Vec::new()).is_ok(),
                "seeding empty group buffers"
            );
        }
        // Answer latency (merging one boundary group) feeds the global
        // `qlove_answer_merge_us` histogram — observational only, and a
        // no-op when telemetry is disabled.
        let merge_hist = qlove_telemetry::global_metrics().histogram("qlove_answer_merge_us");
        let merger = scope.spawn(move || {
            let mut answers = Vec::new();
            let mut merge_ns = 0u128;
            for group in group_rx.iter() {
                let start = Instant::now();
                for summary in &group {
                    if let Some(answer) = coordinator.merge_summary(summary) {
                        answers.push(answer);
                    }
                }
                let took = start.elapsed();
                merge_hist.observe(took.as_micros() as u64);
                merge_ns += took.as_nanos();
                // The collector may already be gone (error path); the
                // buffer is simply dropped then.
                let _ = recycle_tx.send(group);
            }
            (answers, merge_ns)
        });
        let mut collect_ns = 0u128;
        let mut failed: Option<E> = None;
        for boundary in 0..boundaries {
            // A closed channel here means the merger thread died; fall
            // through to the join below, which re-raises the merger's
            // actual panic payload instead of a channel artifact.
            let Ok(mut group) = recycle_rx.recv() else {
                break;
            };
            group.clear();
            let start = Instant::now();
            let result = collect(boundary, &mut group);
            collect_ns += start.elapsed().as_nanos();
            match result {
                Ok(()) => {
                    if group_tx.send(group).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        drop(group_tx);
        let (answers, merge_ns) = match merger.join() {
            Ok(out) => out,
            Err(payload) => std::panic::resume_unwind(payload),
        };
        match failed {
            Some(e) => Err(e),
            None => Ok((answers, merge_ns, collect_ns)),
        }
    })?;
    Ok((
        answers,
        PipelineStats {
            boundaries,
            merge_ns,
            collect_ns,
            wall_ns: wall_start.elapsed().as_nanos(),
        },
    ))
}

/// Answer **one logical window** from `shards` ingestion shards.
///
/// Values are dealt round-robin (element `i` to shard `i % shards`, the
/// arrival-order interleaving a distributed ingestion tier produces);
/// each shard accumulates its slice through the batched path and, at
/// every logical sub-window boundary (each `period` elements of the
/// *logical* stream), ships a summary of its partial sub-window to the
/// coordinator. The coordinator merges each boundary's summaries — in
/// stream order across boundaries — and returns the emitted answers.
/// Merging is pipelined through [`coordinate_pipelined`]: boundary
/// *b*'s group merges on a dedicated thread while the shards ingest
/// toward (and the collector assembles) boundary *b+1*.
///
/// Because shard state is a multiset union, the merged sub-window is
/// element-for-element the one a single instance would have built from
/// the undealt stream, so the answers (and the coordinator's trailing
/// in-flight state) match a sequential run exactly. A trailing partial
/// sub-window is shipped and merged too, leaving it pending in the
/// coordinator rather than dropped.
///
/// # Panics
/// Panics when `shards == 0` or `period == 0`.
pub fn run_distributed<S, C, F>(
    make_shard: F,
    coordinator: &mut C,
    period: usize,
    values: &[S::Input],
    shards: usize,
) -> Vec<C::Output>
where
    S: ShardAccumulator,
    S::Input: Clone + Sync,
    S::Summary: Send,
    C: SummaryMerge<Summary = S::Summary> + Send,
    C::Output: Send,
    F: Fn() -> S + Sync,
{
    run_distributed_with_stats(make_shard, coordinator, period, values, shards).0
}

/// [`run_distributed`], additionally reporting the coordinator's
/// [`PipelineStats`] (how much merge time overlapped shard ingest).
pub fn run_distributed_with_stats<S, C, F>(
    make_shard: F,
    coordinator: &mut C,
    period: usize,
    values: &[S::Input],
    shards: usize,
) -> (Vec<C::Output>, PipelineStats)
where
    S: ShardAccumulator,
    S::Input: Clone + Sync,
    S::Summary: Send,
    C: SummaryMerge<Summary = S::Summary> + Send,
    C::Output: Send,
    F: Fn() -> S + Sync,
{
    assert!(shards > 0, "need at least one shard");
    assert!(period > 0, "need a positive sub-window period");
    // One bounded channel per shard: each shard sends its summaries in
    // boundary order, so the k-th message on shard i's channel *is*
    // boundary k — no tagging or reorder buffering needed — and the
    // per-channel capacity is real backpressure (a fast shard can run
    // at most `capacity` boundaries ahead of the coordinator, keeping
    // in-flight summary memory bounded no matter how skewed the shard
    // scheduling gets).
    let boundaries = values.len().div_ceil(period);
    thread::scope(|scope| {
        let mut receivers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = channel::bounded::<S::Summary>(4);
            receivers.push(rx);
            let make_shard = &make_shard;
            scope.spawn(move || {
                let mut op = make_shard();
                let mut batch: Vec<S::Input> = Vec::with_capacity(BATCH.min(period));
                for (w, sub) in values.chunks(period).enumerate() {
                    // This shard's elements of sub-window `w`: global
                    // indices ≡ shard (mod shards), re-batched so each
                    // worker rides the batched ingestion path.
                    let start = w * period;
                    let first = (shard + shards - start % shards) % shards;
                    for v in sub.iter().skip(first).step_by(shards) {
                        batch.push(v.clone());
                        if batch.len() == BATCH {
                            op.ingest_batch(&batch);
                            batch.clear();
                        }
                    }
                    if !batch.is_empty() {
                        op.ingest_batch(&batch);
                        batch.clear();
                    }
                    if tx.send(op.take_summary()).is_err() {
                        return;
                    }
                }
            });
        }
        // Collect each boundary's summaries in shard order; the shared
        // pipelined core merges group b while the shards ingest toward
        // b+1. (Any group order would produce the same multiset; shard
        // order makes runs reproducible.)
        let collect = |_boundary: usize, group: &mut Vec<S::Summary>| {
            for rx in &receivers {
                group.push(rx.recv().expect("shard thread ended early"));
            }
            Ok::<(), std::convert::Infallible>(())
        };
        let Ok(result) = coordinate_pipelined(coordinator, boundaries, collect);
        result
    })
}

// ---------------------------------------------------------------------------
// Live resharding: elastic shard split/merge mid-window.
//
// The dealt-stream executors above freeze the shard set at window start.
// The types here describe a shard set that *changes while the window
// runs*: shards own half-open value ranges (a `RangeTable`), a
// `ReshardPlan` splits one range in two or merges two adjacent ranges,
// and a `ReshardSchedule` pins each plan to the sub-window boundary
// where it takes effect. Because sub-window summaries are commutative
// multiset unions, *where* an element is accumulated never affects the
// merged answer — only that each boundary group covers exactly its
// sub-window — so the shard set can change between two sub-windows with
// answers still bit-identical to a sequential run. `run_resharded` is
// the sequential in-process reference implementation differential tests
// compare against; the socket runtime in `qlove_transport` executes the
// same schedule across worker processes.
// ---------------------------------------------------------------------------

/// One elastic reconfiguration of the shard set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReshardPlan {
    /// Split `slot`'s value range at `pivot`: the successor covering
    /// `[lo, pivot)` replaces the parent, a second successor covers
    /// `[pivot, hi)`.
    Split {
        /// The live slot to split.
        slot: usize,
        /// New range boundary; must lie strictly inside the slot's range.
        pivot: u64,
    },
    /// Merge `left`'s range with the next range above it into one
    /// successor covering both.
    Merge {
        /// The lower of the two adjacent slots to merge.
        left: usize,
    },
}

/// A [`ReshardPlan`] pinned to the sub-window boundary where it takes
/// effect: sub-windows `< boundary` run on the old shard set,
/// sub-windows `>= boundary` on the new one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReshardSpec {
    /// First sub-window index dealt under the new shard set (≥ 1).
    pub boundary: u64,
    /// The reconfiguration to apply at that boundary.
    pub plan: ReshardPlan,
}

/// A successor shard created by a reshard: its stable slot id and the
/// lower bound of the value range it owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NewShard {
    /// The successor's slot id (also its wire session id).
    pub slot: usize,
    /// Lower bound (inclusive) of the successor's value range.
    pub lo: u64,
}

/// What one applied [`ReshardPlan`] did to the shard set.
///
/// Slot ids are never reused: a split retires one slot and creates two,
/// a merge retires two and creates one. By convention the *first*
/// created slot inherits the first retired parent's host (for a split,
/// the low half stays where the parent ran; for a merge, the successor
/// runs where the left parent ran) — the socket runtime uses this to
/// open the successor as a new session on the surviving connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReshardDelta {
    /// The plan that produced this delta.
    pub plan: ReshardPlan,
    /// Retired slots, in range order.
    pub retired: Vec<usize>,
    /// Created slots, in range order.
    pub created: Vec<NewShard>,
}

/// The dealer's routing table: which shard slot owns which value range.
///
/// Ranges are half-open `[lo, next lo)`, ascending, covering all of
/// `u64` (the first bound is 0, the last range is unbounded above).
/// Routing never affects merged answers — summaries are commutative —
/// so the bounds only steer load; correctness needs nothing from them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeTable {
    /// `(lower bound, slot)` per live shard, strictly ascending by
    /// bound; entry `k` owns `[bound_k, bound_{k+1})`.
    bounds: Vec<(u64, usize)>,
    /// Next slot id to assign (slot ids are never reused).
    next_slot: usize,
}

impl RangeTable {
    /// `shards` slots (ids `0..shards`) evenly partitioning `[0, span)`,
    /// with the last slot unbounded above. `span` only steers balance
    /// for the expected value domain (e.g. the quantization range);
    /// values `>= span` simply land in the top slot.
    ///
    /// # Panics
    /// Panics when `shards == 0` or `span < shards` (the bounds could
    /// not be strictly ascending).
    pub fn even(shards: usize, span: u64) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert!(span >= shards as u64, "span too small for shard count");
        let step = span / shards as u64;
        Self {
            bounds: (0..shards).map(|i| (i as u64 * step, i)).collect(),
            next_slot: shards,
        }
    }

    /// The `(lower bound, slot)` pairs, ascending by bound.
    pub fn bounds(&self) -> &[(u64, usize)] {
        &self.bounds
    }

    /// Number of live shards.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// `false` always — a table never goes empty (merges stop at one).
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// The slot owning `value`.
    pub fn route(&self, value: u64) -> usize {
        let idx = self.bounds.partition_point(|&(lo, _)| lo <= value) - 1;
        self.bounds[idx].1
    }

    /// `slot`'s range as `(lo, hi)`, `hi = None` for the top slot.
    pub fn slot_range(&self, slot: usize) -> Option<(u64, Option<u64>)> {
        let idx = self.bounds.iter().position(|&(_, s)| s == slot)?;
        Some((
            self.bounds[idx].0,
            self.bounds.get(idx + 1).map(|&(lo, _)| lo),
        ))
    }

    /// Apply one plan, mutating the table and reporting what changed.
    /// Fails (leaving the table untouched) when the plan names a dead
    /// slot, a split pivot outside the parent's range, or a merge of
    /// the top slot.
    pub fn apply(&mut self, plan: ReshardPlan) -> Result<ReshardDelta, String> {
        match plan {
            ReshardPlan::Split { slot, pivot } => {
                let idx = self
                    .bounds
                    .iter()
                    .position(|&(_, s)| s == slot)
                    .ok_or_else(|| format!("split: slot {slot} is not live"))?;
                let lo = self.bounds[idx].0;
                let hi = self.bounds.get(idx + 1).map(|&(b, _)| b);
                if pivot <= lo || hi.is_some_and(|h| pivot >= h) {
                    return Err(format!(
                        "split: pivot {pivot} outside slot {slot}'s range [{lo}, {})",
                        hi.map_or("∞".into(), |h| h.to_string())
                    ));
                }
                let (a, b) = (self.next_slot, self.next_slot + 1);
                self.next_slot += 2;
                self.bounds[idx] = (lo, a);
                self.bounds.insert(idx + 1, (pivot, b));
                Ok(ReshardDelta {
                    plan,
                    retired: vec![slot],
                    created: vec![NewShard { slot: a, lo }, NewShard { slot: b, lo: pivot }],
                })
            }
            ReshardPlan::Merge { left } => {
                let idx = self
                    .bounds
                    .iter()
                    .position(|&(_, s)| s == left)
                    .ok_or_else(|| format!("merge: slot {left} is not live"))?;
                if idx + 1 >= self.bounds.len() {
                    return Err(format!("merge: slot {left} has no slot above it"));
                }
                let right = self.bounds[idx + 1].1;
                let lo = self.bounds[idx].0;
                let m = self.next_slot;
                self.next_slot += 1;
                self.bounds.remove(idx + 1);
                self.bounds[idx] = (lo, m);
                Ok(ReshardDelta {
                    plan,
                    retired: vec![left, right],
                    created: vec![NewShard { slot: m, lo }],
                })
            }
        }
    }
}

/// The fully-validated, static timeline of a resharded run: one epoch
/// per applied plan (epoch 0 is the initial shard set), each with the
/// routing table in force and the delta that created it.
///
/// Everything downstream — the in-process reference, the socket
/// dealer, and the epoch-aware collector — derives its view from this
/// one schedule, so dealer and collector agree on group membership for
/// every boundary without runtime coordination.
#[derive(Debug, Clone)]
pub struct ReshardSchedule {
    /// `(first boundary of the epoch, table in force, delta)`; entry 0
    /// is `(0, initial table, None)`.
    epochs: Vec<(u64, RangeTable, Option<ReshardDelta>)>,
}

impl ReshardSchedule {
    /// Validate `specs` (strictly ascending boundaries, all ≥ 1, each
    /// plan legal against the table it amends) and build the timeline.
    pub fn build(shards: usize, span: u64, specs: &[ReshardSpec]) -> Result<Self, String> {
        if shards == 0 {
            return Err("need at least one shard".into());
        }
        if span < shards as u64 {
            return Err(format!("span {span} too small for {shards} shards"));
        }
        let mut epochs = vec![(0u64, RangeTable::even(shards, span), None)];
        for spec in specs {
            let (last_boundary, table, _) = epochs.last().expect("epoch 0 always exists");
            if spec.boundary == 0 {
                return Err("reshard boundary 0 would precede all data; use ≥ 1".into());
            }
            if epochs.len() > 1 && spec.boundary <= *last_boundary {
                return Err(format!(
                    "reshard boundaries must be strictly ascending ({} after {})",
                    spec.boundary, last_boundary
                ));
            }
            let mut table = table.clone();
            let delta = table.apply(spec.plan)?;
            epochs.push((spec.boundary, table, Some(delta)));
        }
        Ok(Self { epochs })
    }

    /// Number of epochs (1 + applied plans).
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    /// `false` always — epoch 0 always exists.
    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// The epoch in force for sub-window `boundary`.
    pub fn epoch_at(&self, boundary: u64) -> u64 {
        (self
            .epochs
            .partition_point(|&(from, _, _)| from <= boundary)
            - 1) as u64
    }

    /// First sub-window of `epoch`.
    pub fn from_boundary(&self, epoch: u64) -> u64 {
        self.epochs[epoch as usize].0
    }

    /// Routing table in force during `epoch`.
    pub fn table(&self, epoch: u64) -> &RangeTable {
        &self.epochs[epoch as usize].1
    }

    /// The delta that opened `epoch` (`None` for epoch 0).
    pub fn delta(&self, epoch: u64) -> Option<&ReshardDelta> {
        self.epochs[epoch as usize].2.as_ref()
    }

    /// Total slots ever created (initial + successors); slot ids are
    /// dense in `0..slot_count()`.
    pub fn slot_count(&self) -> usize {
        self.epochs
            .last()
            .expect("epoch 0 always exists")
            .1
            .next_slot
    }
}

/// [`run_distributed`] with a shard set that changes mid-window: the
/// sequential **reference implementation** of live resharding, which
/// the socket runtime's differential tests compare against.
///
/// Each sub-window is routed under the schedule's table for that
/// boundary; at each epoch boundary the retired shards are dropped and
/// the successors start empty — exactly what the distributed swap
/// restores from boundary checkpoints, which are empty *at* a boundary
/// (sub-window state was just shipped). Every live shard ships a
/// summary every boundary (empty ones included), so each boundary
/// group covers exactly its sub-window and the merged answers — values,
/// provenance, bounds, burst flags, trailing pending state — are
/// bit-identical to a sequential single-instance run.
pub fn run_resharded<S, C, F>(
    make_shard: F,
    coordinator: &mut C,
    period: usize,
    values: &[u64],
    shards: usize,
    span: u64,
    specs: &[ReshardSpec],
) -> Result<Vec<C::Output>, String>
where
    S: ShardAccumulator<Input = u64>,
    C: SummaryMerge<Summary = S::Summary>,
    F: Fn() -> S,
{
    assert!(period > 0, "need a positive sub-window period");
    let schedule = ReshardSchedule::build(shards, span, specs)?;
    let mut slots: Vec<Option<S>> = Vec::new();
    slots.resize_with(schedule.slot_count(), || None);
    let mut bufs: Vec<Vec<u64>> = vec![Vec::new(); schedule.slot_count()];
    for &(_, slot) in schedule.table(0).bounds() {
        slots[slot] = Some(make_shard());
    }
    let mut epoch = 0u64;
    let mut answers = Vec::new();
    for (w, sub) in values.chunks(period).enumerate() {
        let due = schedule.epoch_at(w as u64);
        while epoch < due {
            epoch += 1;
            let delta = schedule.delta(epoch).expect("non-zero epochs have deltas");
            for &retired in &delta.retired {
                slots[retired] = None;
            }
            for created in &delta.created {
                slots[created.slot] = Some(make_shard());
            }
        }
        let table = schedule.table(epoch);
        for &v in sub {
            bufs[table.route(v)].push(v);
        }
        for &(_, slot) in table.bounds() {
            let shard = slots[slot].as_mut().expect("live slot has a shard");
            let buf = &mut bufs[slot];
            for chunk in buf.chunks(BATCH) {
                shard.ingest_batch(chunk);
            }
            buf.clear();
        }
        for &(_, slot) in table.bounds() {
            let shard = slots[slot].as_mut().expect("live slot has a shard");
            if let Some(answer) = coordinator.merge_summary(&shard.take_summary()) {
                answers.push(answer);
            }
        }
    }
    Ok(answers)
}

/// Derive a reshard schedule from observed load: the **load-triggered
/// policy** behind `qlove_cli --reshard-auto`.
///
/// Walks the stream one sub-window at a time, simulating routing under
/// the evolving table, and emits at most one plan per boundary: a slot
/// whose sub-window element count exceeds `split_above` is split at
/// the median of the values it routed (taking effect at the *next*
/// boundary — decisions are made at boundary granularity, exactly when
/// a live coordinator would make them); when no split triggers, the
/// adjacent pair with the smallest combined count merges if it stays
/// under `split_above / 4` (cold ranges collapse). Deterministic in
/// the input; capped at `max_plans` plans.
pub fn plan_reshards(
    values: &[u64],
    period: usize,
    shards: usize,
    span: u64,
    split_above: usize,
    max_plans: usize,
) -> Result<Vec<ReshardSpec>, String> {
    if period == 0 {
        return Err("need a positive sub-window period".into());
    }
    if shards == 0 {
        return Err("need at least one shard".into());
    }
    if span < shards as u64 {
        return Err(format!("span {span} too small for {shards} shards"));
    }
    if split_above == 0 {
        return Err("--reshard-auto threshold must be positive".into());
    }
    let mut table = RangeTable::even(shards, span);
    let mut routed: Vec<Vec<u64>> = vec![Vec::new(); table.next_slot];
    let mut specs = Vec::new();
    for (w, sub) in values.chunks(period).enumerate() {
        if specs.len() == max_plans {
            break;
        }
        routed.resize_with(table.next_slot, Vec::new);
        for buf in &mut routed {
            buf.clear();
        }
        for &v in sub {
            routed[table.route(v)].push(v);
        }
        let plan = {
            let hottest = table
                .bounds()
                .iter()
                .map(|&(_, slot)| slot)
                .max_by_key(|&slot| routed[slot].len())
                .expect("table is never empty");
            if routed[hottest].len() > split_above {
                // Split the hot slot at the median of what it routed;
                // skipped when every element equals the lower bound
                // (no pivot could peel load off).
                let (lo, _) = table.slot_range(hottest).expect("hottest slot is live");
                let mut sorted = routed[hottest].clone();
                sorted.sort_unstable();
                let median = sorted[sorted.len() / 2];
                let pivot = if median > lo {
                    Some(median)
                } else {
                    sorted.iter().copied().find(|&v| v > lo)
                };
                pivot.map(|pivot| ReshardPlan::Split {
                    slot: hottest,
                    pivot,
                })
            } else if table.len() > 1 {
                // Coldest adjacent pair, merged only while clearly cold.
                let bounds = table.bounds();
                (0..bounds.len() - 1)
                    .min_by_key(|&i| routed[bounds[i].1].len() + routed[bounds[i + 1].1].len())
                    .filter(|&i| {
                        routed[bounds[i].1].len() + routed[bounds[i + 1].1].len() < split_above / 4
                    })
                    .map(|i| ReshardPlan::Merge { left: bounds[i].1 })
            } else {
                None
            }
        };
        if let Some(plan) = plan {
            table.apply(plan).map_err(|e| format!("auto plan: {e}"))?;
            specs.push(ReshardSpec {
                boundary: w as u64 + 1,
                plan,
            });
        }
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{CountOp, ExactQuantileOp};

    #[test]
    fn pipelined_matches_sequential() {
        let data: Vec<u64> = (0..5000u64).map(|i| (i * 7919) % 1000).collect();
        let spec = WindowSpec::sliding(1000, 500);
        let par = run_pipelined(ExactQuantileOp::new(&[0.5, 0.99]), spec, data.clone());
        let mut seq_window = SlidingWindow::new(ExactQuantileOp::new(&[0.5, 0.99]), spec);
        let seq: Vec<_> = data.iter().filter_map(|&v| seq_window.push(v)).collect();
        assert_eq!(par, seq);
        assert_eq!(par.len(), 9);
    }

    #[test]
    fn pipelined_batch_consumption_matches_sequential_per_element() {
        // The consumer feeds whole channel batches through push_batch;
        // results must equal the sequential per-element executor even
        // when the stream length is not a multiple of the channel batch
        // (forcing a short trailing batch) and the window boundary falls
        // mid-batch.
        let n = BATCH * 3 + 1234;
        let data: Vec<u64> = (0..n as u64).map(|i| (i * 2654435761) % 9973).collect();
        let spec = WindowSpec::sliding(5000, 1250);
        let par = run_pipelined(ExactQuantileOp::new(&[0.5, 0.999]), spec, data.clone());
        let mut seq = SlidingWindow::new(ExactQuantileOp::new(&[0.5, 0.999]), spec);
        let want: Vec<_> = data.iter().filter_map(|&v| seq.push(v)).collect();
        assert_eq!(par, want);
        assert!(!par.is_empty());
    }

    #[test]
    fn sharded_batching_matches_unbatched_stride() {
        // Each worker re-batches its strided slice; results must equal a
        // plain per-element walk of the same stride.
        let data: Vec<u64> = (0..3 * BATCH as u64 + 777)
            .map(|i| (i * 31) % 1009)
            .collect();
        let spec = WindowSpec::sliding(1000, 250);
        let shards = 3;
        let out = run_sharded(|| ExactQuantileOp::new(&[0.5]), spec, &data, shards);
        for (shard, results) in out.iter().enumerate() {
            let mut w = SlidingWindow::new(ExactQuantileOp::new(&[0.5]), spec);
            let want: Vec<_> = data
                .iter()
                .skip(shard)
                .step_by(shards)
                .filter_map(|&v| w.push(v))
                .collect();
            assert_eq!(results, &want, "shard {shard}");
        }
    }

    #[test]
    fn pipelined_handles_short_streams() {
        let out = run_pipelined(CountOp, WindowSpec::tumbling(10), (0..5).map(f64::from));
        assert!(out.is_empty());
    }

    #[test]
    fn sharded_each_shard_sees_its_slice() {
        let data: Vec<u64> = (0..4000).collect();
        let spec = WindowSpec::tumbling(500);
        let out = run_sharded(|| ExactQuantileOp::new(&[1.0]), spec, &data, 4);
        assert_eq!(out.len(), 4);
        for (shard, results) in out.iter().enumerate() {
            // Each shard got 1000 values → two tumbling windows of 500.
            assert_eq!(results.len(), 2, "shard {shard}");
            // Max of shard's first window: values shard + 4k for k < 500.
            assert_eq!(results[0][0], shard as u64 + 4 * 499);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn sharded_rejects_zero_shards() {
        let data: Vec<f64> = vec![];
        run_sharded(|| CountOp, WindowSpec::tumbling(1), &data, 0);
    }

    // ---- run_distributed over a toy mergeable operator -------------------

    /// Shard half of a distributed windowed sum: accumulates a partial
    /// sub-window `(sum, count)`.
    #[derive(Default)]
    struct SumShard {
        sum: u64,
        n: usize,
    }

    impl ShardAccumulator for SumShard {
        type Input = u64;
        type Summary = (u64, usize);
        fn ingest_batch(&mut self, values: &[u64]) {
            self.sum += values.iter().sum::<u64>();
            self.n += values.len();
        }
        fn take_summary(&mut self) -> (u64, usize) {
            let s = (self.sum, self.n);
            self.sum = 0;
            self.n = 0;
            s
        }
    }

    /// Coordinator half: a sliding window of `n_sub` sub-window sums,
    /// emitting the window total at each completed sub-window once full.
    struct SumCoordinator {
        period: usize,
        n_sub: usize,
        filled: usize,
        current: u64,
        ring: std::collections::VecDeque<u64>,
    }

    impl SumCoordinator {
        fn new(period: usize, n_sub: usize) -> Self {
            Self {
                period,
                n_sub,
                filled: 0,
                current: 0,
                ring: Default::default(),
            }
        }
    }

    impl SummaryMerge for SumCoordinator {
        type Summary = (u64, usize);
        type Output = u64;
        fn merge_summary(&mut self, &(sum, n): &(u64, usize)) -> Option<u64> {
            self.current += sum;
            self.filled += n;
            assert!(self.filled <= self.period, "summary crossed a boundary");
            if self.filled < self.period {
                return None;
            }
            self.filled = 0;
            self.ring.push_back(self.current);
            self.current = 0;
            if self.ring.len() > self.n_sub {
                self.ring.pop_front();
            }
            (self.ring.len() == self.n_sub).then(|| self.ring.iter().sum())
        }
    }

    /// Sequential reference: window sums of the undealt stream.
    fn sequential_window_sums(data: &[u64], period: usize, n_sub: usize) -> Vec<u64> {
        let window = period * n_sub;
        (0..(data.len().saturating_sub(window - 1)))
            .filter(|i| i % period == 0)
            .map(|i| data[i..i + window].iter().sum())
            .collect()
    }

    #[test]
    fn distributed_matches_sequential_window_sums() {
        let (period, n_sub) = (500, 4);
        // Lengths straddling BATCH multiples, period multiples, and a
        // trailing partial sub-window.
        for len in [0usize, 499, 2_000, 2_001, BATCH * 2 + 777, 3 * BATCH] {
            let data: Vec<u64> = (0..len as u64).map(|i| (i * 2654435761) % 10_007).collect();
            let want = sequential_window_sums(&data, period, n_sub);
            for shards in [1usize, 2, 3, 7] {
                let mut coord = SumCoordinator::new(period, n_sub);
                let got = run_distributed(SumShard::default, &mut coord, period, &data, shards);
                assert_eq!(got, want, "len {len} shards {shards}");
                // The trailing partial sub-window is merged, not dropped.
                assert_eq!(coord.filled, len % period, "len {len} shards {shards}");
            }
        }
    }

    #[test]
    fn distributed_more_shards_than_period_elements() {
        // Shards that receive no element of some sub-window must still
        // ship (empty) summaries so boundary groups complete.
        let data: Vec<u64> = (0..30u64).collect();
        let mut coord = SumCoordinator::new(10, 2);
        let got = run_distributed(SumShard::default, &mut coord, 10, &data, 16);
        assert_eq!(got, sequential_window_sums(&data, 10, 2));
    }

    #[test]
    fn range_table_routes_every_value_to_exactly_one_live_slot() {
        let table = RangeTable::even(4, 1_000);
        assert_eq!(table.bounds(), &[(0, 0), (250, 1), (500, 2), (750, 3)]);
        assert_eq!(table.route(0), 0);
        assert_eq!(table.route(249), 0);
        assert_eq!(table.route(250), 1);
        assert_eq!(table.route(999), 3);
        // Values beyond the span land in the (unbounded) top slot.
        assert_eq!(table.route(u64::MAX), 3);
        assert_eq!(table.slot_range(1), Some((250, Some(500))));
        assert_eq!(table.slot_range(3), Some((750, None)));
        assert_eq!(table.slot_range(9), None);
    }

    #[test]
    fn range_table_split_and_merge_never_reuse_slots() {
        let mut table = RangeTable::even(2, 100);
        let delta = table
            .apply(ReshardPlan::Split { slot: 0, pivot: 20 })
            .unwrap();
        assert_eq!(delta.retired, vec![0]);
        assert_eq!(
            delta.created,
            vec![NewShard { slot: 2, lo: 0 }, NewShard { slot: 3, lo: 20 }]
        );
        assert_eq!(table.bounds(), &[(0, 2), (20, 3), (50, 1)]);
        let delta = table.apply(ReshardPlan::Merge { left: 3 }).unwrap();
        assert_eq!(delta.retired, vec![3, 1]);
        assert_eq!(delta.created, vec![NewShard { slot: 4, lo: 20 }]);
        assert_eq!(table.bounds(), &[(0, 2), (20, 4)]);
        // Invalid plans fail and leave the table untouched.
        let before = table.clone();
        assert!(table
            .apply(ReshardPlan::Split { slot: 0, pivot: 5 })
            .is_err()); // dead slot
        assert!(table
            .apply(ReshardPlan::Split { slot: 2, pivot: 0 })
            .is_err()); // pivot ≤ lo
        assert!(table
            .apply(ReshardPlan::Split { slot: 2, pivot: 20 })
            .is_err()); // pivot ≥ hi
        assert!(table.apply(ReshardPlan::Merge { left: 4 }).is_err()); // top slot
        assert!(table.apply(ReshardPlan::Merge { left: 1 }).is_err()); // dead slot
        assert_eq!(table, before);
    }

    #[test]
    fn reshard_schedule_pins_epochs_to_boundaries() {
        let specs = [
            ReshardSpec {
                boundary: 2,
                plan: ReshardPlan::Split {
                    slot: 0,
                    pivot: 100,
                },
            },
            ReshardSpec {
                boundary: 5,
                plan: ReshardPlan::Merge { left: 3 },
            },
        ];
        let schedule = ReshardSchedule::build(2, 1_000, &specs).unwrap();
        assert_eq!(schedule.len(), 3);
        assert_eq!(schedule.epoch_at(0), 0);
        assert_eq!(schedule.epoch_at(1), 0);
        assert_eq!(schedule.epoch_at(2), 1);
        assert_eq!(schedule.epoch_at(4), 1);
        assert_eq!(schedule.epoch_at(5), 2);
        assert_eq!(schedule.epoch_at(999), 2);
        assert_eq!(schedule.from_boundary(1), 2);
        assert_eq!(schedule.slot_count(), 5);
        assert_eq!(schedule.table(0).len(), 2);
        assert_eq!(schedule.table(1).len(), 3);
        assert_eq!(schedule.table(2).len(), 2);
        // Rejections: boundary 0, non-ascending boundaries, bad plans.
        let at = |boundary, plan| ReshardSpec { boundary, plan };
        let split = ReshardPlan::Split {
            slot: 0,
            pivot: 100,
        };
        assert!(ReshardSchedule::build(2, 1_000, &[at(0, split)]).is_err());
        assert!(ReshardSchedule::build(
            2,
            1_000,
            &[at(3, split), at(3, ReshardPlan::Merge { left: 2 })]
        )
        .is_err());
        assert!(
            ReshardSchedule::build(2, 1_000, &[at(1, ReshardPlan::Merge { left: 1 })]).is_err()
        );
        assert!(ReshardSchedule::build(0, 1_000, &[]).is_err());
    }

    #[test]
    fn resharded_matches_sequential_at_every_boundary() {
        // The in-process reference: split and merge applied at every
        // sub-window boundary must leave windowed answers (and the
        // coordinator's trailing partial state) identical to the
        // sequential sums — including a trailing partial sub-window and
        // a non-period-multiple length.
        let (period, n_sub) = (250, 3);
        let len = 2_137usize;
        let data: Vec<u64> = (0..len as u64).map(|i| (i * 2654435761) % 1_000).collect();
        let want = sequential_window_sums(&data, period, n_sub);
        let boundaries = len.div_ceil(period) as u64;
        for b in 1..boundaries {
            for plan in [
                ReshardPlan::Split { slot: 0, pivot: 77 },
                ReshardPlan::Merge { left: 0 },
            ] {
                let mut coord = SumCoordinator::new(period, n_sub);
                let got = run_resharded(
                    SumShard::default,
                    &mut coord,
                    period,
                    &data,
                    2,
                    1_000,
                    &[ReshardSpec { boundary: b, plan }],
                )
                .unwrap();
                assert_eq!(got, want, "boundary {b} plan {plan:?}");
                assert_eq!(coord.filled, len % period, "boundary {b} plan {plan:?}");
            }
        }
        // A longer chain: split, split again, then merge back.
        let specs = [
            ReshardSpec {
                boundary: 1,
                plan: ReshardPlan::Split {
                    slot: 0,
                    pivot: 300,
                },
            },
            ReshardSpec {
                boundary: 3,
                plan: ReshardPlan::Split {
                    slot: 3,
                    pivot: 400,
                },
            },
            ReshardSpec {
                boundary: 6,
                plan: ReshardPlan::Merge { left: 4 },
            },
        ];
        let mut coord = SumCoordinator::new(period, n_sub);
        let got = run_resharded(
            SumShard::default,
            &mut coord,
            period,
            &data,
            2,
            1_000,
            &specs,
        )
        .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn plan_reshards_splits_hot_ranges_and_merges_cold_ones() {
        let period = 100;
        // Sub-windows 0..3 concentrate everything in slot 0's range,
        // then the stream goes quiet enough for merges.
        let mut data: Vec<u64> = (0..300u64).map(|i| i % 50).collect();
        data.extend((0..300u64).map(|i| 10 * (i % 100)));
        let specs = plan_reshards(&data, period, 2, 1_000, 80, 4).unwrap();
        assert!(!specs.is_empty());
        assert!(matches!(
            specs[0],
            ReshardSpec {
                boundary: 1,
                plan: ReshardPlan::Split { slot: 0, .. }
            }
        ));
        // Deterministic: same input, same schedule.
        assert_eq!(
            specs,
            plan_reshards(&data, period, 2, 1_000, 80, 4).unwrap()
        );
        // The planned schedule validates and reproduces sequential sums.
        let mut coord = SumCoordinator::new(period, 2);
        let got = run_resharded(
            SumShard::default,
            &mut coord,
            period,
            &data,
            2,
            1_000,
            &specs,
        )
        .unwrap();
        assert_eq!(got, sequential_window_sums(&data, period, 2));
        // The cap is honored.
        assert!(plan_reshards(&data, period, 2, 1_000, 80, 1).unwrap().len() <= 1);
        assert!(plan_reshards(&data, period, 0, 1_000, 80, 4).is_err());
        assert!(plan_reshards(&data, period, 2, 1_000, 0, 4).is_err());
    }

    #[test]
    fn distributed_stats_cover_every_boundary() {
        let (period, n_sub) = (100, 3);
        let data: Vec<u64> = (0..1050u64).collect();
        let mut coord = SumCoordinator::new(period, n_sub);
        let (got, stats) =
            run_distributed_with_stats(SumShard::default, &mut coord, period, &data, 3);
        assert_eq!(got, sequential_window_sums(&data, period, n_sub));
        // 10 full boundaries + the trailing partial sub-window.
        assert_eq!(stats.boundaries, 11);
        assert!(stats.merge_ns > 0);
        assert!(stats.collect_ns > 0);
        assert!(stats.wall_ns >= stats.merge_ns.max(stats.collect_ns));
        // Overlap is bounded by the merge time it hides.
        assert!(stats.overlap_ns() <= stats.merge_ns + stats.collect_ns);
        assert!((0.0..=1.0).contains(&stats.merge_hidden_fraction()));
    }

    #[test]
    fn coordinate_pipelined_matches_serial_merge_order() {
        // The pipelined core must merge groups in stream order and
        // summaries in the order the collector pushed them, exactly
        // like the old boundary-synchronous loop.
        let groups: Vec<Vec<(u64, usize)>> = (0..20u64)
            .map(|b| (0..4u64).map(|s| (b * 10 + s, 25usize)).collect())
            .collect();
        let mut serial = SumCoordinator::new(100, 2);
        let want: Vec<u64> = groups
            .iter()
            .flatten()
            .filter_map(|s| serial.merge_summary(s))
            .collect();
        let mut pipelined = SumCoordinator::new(100, 2);
        let (got, stats) = coordinate_pipelined(&mut pipelined, groups.len(), |b, group| {
            group.extend(groups[b].iter().copied());
            Ok::<(), std::convert::Infallible>(())
        })
        .unwrap();
        assert_eq!(got, want);
        assert_eq!(stats.boundaries, groups.len());
        assert_eq!(pipelined.filled, serial.filled);
        assert_eq!(pipelined.ring, serial.ring);
    }

    #[test]
    fn coordinate_pipelined_zero_boundaries() {
        let mut coord = SumCoordinator::new(10, 2);
        let (out, stats) =
            coordinate_pipelined(&mut coord, 0, |_, _| Ok::<(), std::convert::Infallible>(()))
                .unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.boundaries, 0);
        assert_eq!(stats.overlap_us_per_boundary(), 0.0);
    }

    #[test]
    fn coordinate_pipelined_propagates_collect_errors() {
        // A collector failure (e.g. a worker socket dying) must surface
        // as the error, not hang or panic, and must leave the
        // already-handed-over groups merged.
        let mut coord = SumCoordinator::new(100, 2);
        let err = coordinate_pipelined(&mut coord, 10, |b, group| {
            if b == 3 {
                return Err("worker died");
            }
            group.push((1, 100));
            Ok(())
        })
        .unwrap_err();
        assert_eq!(err, "worker died");
        // Groups 0..3 were collected and merged before the failure.
        assert_eq!(coord.ring.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn distributed_rejects_zero_shards() {
        let data: Vec<u64> = vec![];
        let mut coord = SumCoordinator::new(10, 2);
        run_distributed(SumShard::default, &mut coord, 10, &data, 0);
    }

    #[test]
    #[should_panic(expected = "positive sub-window period")]
    fn distributed_rejects_zero_period() {
        let data: Vec<u64> = vec![1];
        let mut coord = SumCoordinator::new(10, 2);
        run_distributed(SumShard::default, &mut coord, 0, &data, 2);
    }
}
