//! The one socket driver for a logical window, with live resharding:
//! shard splits and merges **mid-window**, answers still bit-identical
//! to a sequential single-instance run. A fixed-shard run
//! ([`run_supervised`](crate::run_supervised)) is a resharded run with
//! an empty schedule, dealt round-robin (element `i` to shard
//! `i % shards`); range routing applies only once a reshard is
//! scheduled.
//!
//! The schedule is static: every [`ReshardSpec`] (a split or merge
//! pinned to a sub-window boundary) is validated upfront into a
//! [`ReshardSchedule`], so the dealer and the collector derive the
//! same epoch timeline — routing table, group membership, and epoch
//! stamp per boundary — with no runtime coordination between them.
//!
//! ## The swap protocol
//!
//! A plan pinned to boundary `B` executes in the dealer, inline,
//! between dealing sub-window `B-1` and sub-window `B` — so ingest
//! pauses for exactly one inter-sub-window gap (`paused_subwindows ==
//! 1` on the reported [`ReshardEvent`], asserted by the differential
//! tests):
//!
//! 1. **Drain by construction**: every affected parent has already
//!    been dealt all its sub-windows `< B`; because a
//!    [`qlove_core::QloveShard`] resets at every boundary, the
//!    parent's *boundary checkpoint* is `boundary index + summary`
//!    with an empty summary — there is nothing left to move.
//! 2. **Retire**: parents get `CloseSession`; a merge's right-hand
//!    connection (which hosts no successor) also gets `Shutdown`.
//! 3. **Restore successors**: each successor slot is opened as a new
//!    session — on the surviving parent connection for the first
//!    successor, on a freshly connected worker for a split's high
//!    half — and `Restore`d at `B` from the parent checkpoint run
//!    through the core split/merge helpers
//!    ([`QloveSummary::split_at`] / [`QloveSummary::merged`]).
//! 4. **Stamp the epoch**: every session live in the new epoch gets a
//!    [`Frame::Reshard`] carrying `(B, epoch)`; workers stamp it on
//!    every subsequent summary, and the collector refuses any summary
//!    whose epoch does not match its boundary's epoch — groups from
//!    before and after the swap can never mix.
//! 5. **Swap the routing table**: the dealer continues under the new
//!    epoch's [`RangeTable`](qlove_stream::parallel::RangeTable).
//!
//! ## Composition with supervision
//!
//! Recovery is per **connection** (a connection can briefly host two
//! sessions: a retiring parent and its successor), through the same
//! connection link (`link.rs`) the multi-session driver deals through.
//! Under a restartable policy every frame dealt to a session —
//! including the swap's `CloseSession` and `Reshard` control frames —
//! rides that session's replay ring, pruned as its boundaries are
//! acknowledged; `OpenSession`, `Restore` and `Shutdown` become the
//! link's per-session and per-connection state instead. A worker killed
//! *during* a reshard is therefore recovered by the ordinary mechanism:
//! respawn, re-open every session whose close was not acknowledged,
//! `Restore` each to its acknowledged boundary, re-stamp its epoch,
//! replay its tail — parent before successor, so the in-flight swap is
//! replayed in order, every frame at the stream position it originally
//! held in its session.

use crate::coordinator::{
    drive_restarts, failures_view, join_io, protocol, DistributedRun, FailureKind, RecoveryPolicy,
    ShardMetrics, WorkerStats,
};
use crate::link::{self, Link, ReadHalf, Verdict};
use crate::net::Conn;
use crate::proto::{Frame, WorkerMode};
use qlove_core::{Qlove, QloveConfig, QloveSummary};
use qlove_stream::coordinate_pipelined;
use qlove_stream::parallel::{ReshardPlan, ReshardSchedule, ReshardSpec, BATCH};
use qlove_telemetry::{EventJournal, EventKind, Stopwatch};
use std::collections::HashSet;
use std::io;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// One executed reshard, with the metrics the acceptance gate and the
/// bench report care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReshardEvent {
    /// First sub-window dealt under the new shard set.
    pub boundary: u64,
    /// The epoch this swap opened (stamped on all subsequent
    /// summaries).
    pub epoch: u64,
    /// The plan that was applied.
    pub plan: ReshardPlan,
    /// Wall time the dealer spent inside the swap (session retirement,
    /// fresh-worker connect + handshake, successor restore, epoch
    /// stamping) — the whole ingest pause.
    pub pause_us: u64,
    /// Sub-window gaps the swap spanned, measured from the dealer's
    /// value frontier on either side of the swap. The protocol
    /// executes between two sub-windows, so this is 1 — the "no pause
    /// longer than one sub-window" bound, asserted by tests.
    pub paused_subwindows: u64,
    /// Control frames the swap dealt (`CloseSession`, `Shutdown`,
    /// `OpenSession`, `Restore`, `Reshard`).
    pub swap_frames: usize,
    /// Serialized bytes of the successor checkpoints carried by the
    /// swap's `Restore` frames.
    pub checkpoint_bytes: usize,
}

/// Materialize the [`ReshardEvent`] view from a run's journal: every
/// [`EventKind::Reshard`] record, with its pause cost filled from the
/// [`EventKind::Pause`] record the swap emitted right after it.
fn reshard_events_view(journal: &EventJournal) -> Vec<ReshardEvent> {
    let mut out: Vec<ReshardEvent> = Vec::new();
    let mut unfilled: Option<usize> = None;
    for event in journal.events() {
        match event.kind {
            EventKind::Reshard {
                boundary,
                epoch,
                split,
                slot,
                pivot,
                swap_frames,
                checkpoint_bytes,
            } => {
                out.push(ReshardEvent {
                    boundary,
                    epoch,
                    plan: if split {
                        ReshardPlan::Split { slot, pivot }
                    } else {
                        ReshardPlan::Merge { left: slot }
                    },
                    pause_us: 0,
                    paused_subwindows: 0,
                    swap_frames,
                    checkpoint_bytes,
                });
                unfilled = Some(out.len() - 1);
            }
            EventKind::Pause {
                boundary,
                pause_us,
                paused_subwindows,
            } => {
                if let Some(i) = unfilled.take() {
                    if out[i].boundary == boundary {
                        out[i].pause_us = pause_us;
                        out[i].paused_subwindows = paused_subwindows as u64;
                    }
                }
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Static connection plan
// ---------------------------------------------------------------------------

/// Where every slot the schedule will ever create is hosted, derived
/// once from the schedule: the first successor of a plan inherits the
/// first retired parent's connection (split low half, merge result);
/// a split's high half gets a fresh connection; a merge fully retires
/// the right parent's connection.
struct ConnPlan {
    /// Slot id → connection index.
    conn_of: Vec<usize>,
    /// Connection index → boundary at which its first frames are dealt
    /// (0 for the initial fleet).
    opened_at: Vec<u64>,
    /// Connection index → boundary at whose swap it receives
    /// `Shutdown` (merges only); `None` = lives to the end of the run.
    retired_at: Vec<Option<u64>>,
    /// Connection index → sessions the schedule closes on it.
    closing: Vec<Vec<u64>>,
}

impl ConnPlan {
    fn build(schedule: &ReshardSchedule, shards: usize) -> Self {
        let mut plan = ConnPlan {
            conn_of: (0..shards).collect(),
            opened_at: vec![0; shards],
            retired_at: vec![None; shards],
            closing: vec![Vec::new(); shards],
        };
        for epoch in 1..schedule.len() as u64 {
            let b = schedule.from_boundary(epoch);
            let delta = schedule.delta(epoch).expect("epoch > 0 has a delta");
            for &p in &delta.retired {
                plan.closing[plan.conn_of[p]].push(p as u64);
            }
            // Slot ids are dense and created in order, so each created
            // slot extends conn_of by exactly one entry.
            match delta.plan {
                ReshardPlan::Split { .. } => {
                    let parent = delta.retired[0];
                    debug_assert_eq!(delta.created[0].slot, plan.conn_of.len());
                    plan.conn_of.push(plan.conn_of[parent]); // low half stays
                    let fresh = plan.opened_at.len();
                    debug_assert_eq!(delta.created[1].slot, plan.conn_of.len());
                    plan.conn_of.push(fresh); // high half: new worker
                    plan.opened_at.push(b);
                    plan.retired_at.push(None);
                    plan.closing.push(Vec::new());
                }
                ReshardPlan::Merge { .. } => {
                    let (left, right) = (delta.retired[0], delta.retired[1]);
                    debug_assert_eq!(delta.created[0].slot, plan.conn_of.len());
                    plan.conn_of.push(plan.conn_of[left]); // successor on left's conn
                    plan.retired_at[plan.conn_of[right]] = Some(b);
                }
            }
        }
        plan
    }

    fn conns(&self) -> usize {
        self.opened_at.len()
    }
}

// ---------------------------------------------------------------------------
// Collector
// ---------------------------------------------------------------------------

struct Collector<'a, R> {
    policy: &'a RecoveryPolicy,
    links: &'a [Link],
    reads: Vec<Option<ReadHalf>>,
    /// Connection index → sessions the schedule closes on it: their
    /// `CloseSession` acks (possibly repeated by a replay) are skipped.
    closing: &'a [Vec<u64>],
    respawn: R,
    restarts: Vec<u32>,
    journal: &'a EventJournal,
    metrics: &'a [ShardMetrics],
    /// Latest scraped counters, indexed by slot.
    worker_stats: Vec<WorkerStats>,
}

impl<R: FnMut(usize) -> io::Result<Conn>> Collector<'_, R> {
    /// Read one frame from `conn`, probing through read deadlines; a
    /// connection born mid-run first has its read half taken over from
    /// the dealer.
    fn read_with_probe(&mut self, conn: usize) -> Result<Frame, Verdict> {
        if self.reads[conn].is_none() {
            let deadline = self.policy.deadline.max(Duration::from_secs(30));
            match self.links[conn].take_over(deadline) {
                Ok(Some(read)) => self.reads[conn] = Some(read),
                Ok(None) => {
                    let e = io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        format!("worker connection {conn} never came up"),
                    );
                    return Err((FailureKind::Crash, 0, e));
                }
                Err(e) => return Err((FailureKind::Crash, 0, e)),
            }
        }
        let read = self.reads[conn].as_mut().expect("read half just ensured");
        read.read_with_probe(&self.links[conn], &mut self.worker_stats)
    }

    /// Drive recovery of `conn` to completion or declare the run dead.
    /// Both the failure verdict and the terminal recovery record land
    /// in the run's event journal.
    fn recover(&mut self, conn: usize, verdict: Verdict) -> io::Result<()> {
        let (kind, detect_us, cause) = verdict;
        if let Some(read) = &self.reads[conn] {
            read.sever();
        }
        let stall = kind == FailureKind::Stall;
        let link = &self.links[conn];
        self.journal.emit(EventKind::Failure {
            domain: conn,
            boundary: link.acked(),
            stall,
            detect_us,
        });
        let (policy, respawn) = (self.policy, &mut self.respawn);
        let (restarts, outcome) = drive_restarts(policy, conn as u64, self.restarts[conn], || {
            link::restart(link, policy, || respawn(conn))
        });
        self.restarts[conn] = restarts;
        let (replayed, restore_us, replay_us, recovered) = match outcome {
            Some(restart) => {
                self.reads[conn] = Some(restart.read);
                let replayed = restart.restored.iter().map(|r| r.replayed).sum();
                (replayed, restart.restore_us, restart.replay_us, true)
            }
            None => (0, 0, 0, false),
        };
        self.journal.emit(EventKind::Recovery {
            domain: conn,
            boundary: link.acked(),
            stall,
            restarts,
            detect_us,
            restore_us,
            replay_us,
            replayed_frames: replayed,
            recovered,
        });
        if recovered {
            Ok(())
        } else {
            Err(cause)
        }
    }

    /// Read (recovering as needed) until `slot` on `conn` delivers its
    /// summary for boundary `b` stamped with `epoch`, then acknowledge
    /// it. `CloseSession` acks for retired sessions on the same
    /// connection are skipped.
    fn expect_summary(
        &mut self,
        conn: usize,
        slot: u64,
        b: u64,
        epoch: u64,
    ) -> io::Result<QloveSummary> {
        loop {
            match self.read_with_probe(conn) {
                Ok(Frame::BoundarySummary {
                    session,
                    boundary,
                    epoch: got,
                    summary,
                }) if session == slot && boundary == b && got == epoch => {
                    self.links[conn].ack(slot, b);
                    let metrics = &self.metrics[slot as usize];
                    if let Some(read) = &self.reads[conn] {
                        metrics
                            .summary_bytes
                            .add(read.reader.last_frame_len() as u64);
                    }
                    metrics.subwindow.set(summary.total() as i64);
                    return Ok(summary);
                }
                Ok(Frame::CloseSession { session }) if self.closing[conn].contains(&session) => {
                    self.links[conn].close_acked(session)
                }
                Ok(other) => {
                    return Err(protocol(format!(
                        "expected summary for slot {slot} boundary {b} epoch {epoch}, \
                         got {other:?}"
                    )))
                }
                Err(verdict) => self.recover(conn, verdict)?,
            }
        }
    }

    /// Read (recovering as needed) until `conn` acknowledges shutdown.
    fn expect_shutdown_ack(&mut self, conn: usize) -> io::Result<()> {
        loop {
            match self.read_with_probe(conn) {
                Ok(Frame::Shutdown) => return Ok(()),
                Ok(Frame::CloseSession { session }) if self.closing[conn].contains(&session) => {
                    self.links[conn].close_acked(session)
                }
                Ok(other) => return Err(protocol(format!("expected shutdown ack, got {other:?}"))),
                Err(verdict) => self.recover(conn, verdict)?,
            }
        }
    }

    /// Best-effort drain of a connection fully retired by a merge: its
    /// last needed summary is already merged, so its `CloseSession` and
    /// `Shutdown` acks are read for tidiness but a crash here cannot
    /// affect the answers and is deliberately ignored.
    fn drain_retired(&mut self, conn: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            let Some(read) = self.reads[conn].as_mut() else {
                break;
            };
            match read.reader.read_frame() {
                Ok(Frame::Shutdown) => break,
                Ok(Frame::CloseSession { .. }) | Ok(Frame::Heartbeat { .. }) => {}
                Ok(_) | Err(_) => break,
            }
        }
        if let Some(read) = self.reads[conn].take() {
            read.sever();
        }
    }

    fn fail_all(&mut self) {
        for read in self.reads.iter().flatten() {
            read.sever();
        }
        for link in self.links {
            link.fail();
        }
    }
}

// ---------------------------------------------------------------------------
// Dealer-side swap
// ---------------------------------------------------------------------------

/// Execute the swap opening `epoch`, between dealing sub-window
/// `boundary - 1` and sub-window `boundary`.
#[allow(clippy::too_many_arguments)]
fn execute_swap<D: Fn(usize) -> io::Result<Conn>>(
    epoch: u64,
    schedule: &ReshardSchedule,
    plan: &ConnPlan,
    links: &[Link],
    config: &QloveConfig,
    policy: &RecoveryPolicy,
    fresh: &D,
    open_conns: &mut HashSet<usize>,
) -> io::Result<ReshardEvent> {
    let b = schedule.from_boundary(epoch);
    let delta = schedule.delta(epoch).expect("epoch > 0 has a delta");
    let started = Stopwatch::start();
    let mut swap_frames = 0usize;
    let mut checkpoint_bytes = 0usize;

    // The parents' boundary checkpoints, run through the core
    // split/merge helpers. At a sub-window boundary a shard's state
    // has just been shipped, so these are empty here — but the path is
    // the general one: any state a checkpoint *did* carry would be
    // partitioned (split) or unioned (merge) into the successors.
    let parent = QloveSummary::default();
    let checkpoints: Vec<QloveSummary> = match delta.plan {
        ReshardPlan::Split { pivot, .. } => {
            let (lo, hi) = parent.split_at(pivot);
            vec![lo, hi]
        }
        ReshardPlan::Merge { .. } => {
            vec![parent
                .merged(&QloveSummary::default())
                .expect("merging empty checkpoints cannot overflow")]
        }
    };

    // 1. Retire the parents.
    for &p in &delta.retired {
        links[plan.conn_of[p]].deal(Frame::CloseSession { session: p as u64 })?;
        swap_frames += 1;
    }
    // 2. A merge's right-hand connection hosts no successor: shut it
    //    down entirely.
    #[allow(clippy::needless_range_loop)]
    for conn in 0..plan.conns() {
        if plan.retired_at[conn] == Some(b) {
            links[conn].deal(Frame::Shutdown)?;
            swap_frames += 1;
            open_conns.remove(&conn);
        }
    }
    // 3. Open + restore the successors.
    for (ns, checkpoint) in delta.created.iter().zip(checkpoints) {
        let conn = plan.conn_of[ns.slot];
        if plan.opened_at[conn] == b && open_conns.insert(conn) {
            // A fresh worker for this successor. Failure to bring it
            // up is not fatal here: the frames below are retained in
            // the (parked) link's ring, and the collector's ordinary
            // recovery path brings the connection up and replays them.
            links[conn].hand_over(fresh(conn).and_then(|c| link::open(c, policy)).ok());
        }
        checkpoint_bytes += checkpoint.to_bytes().len();
        links[conn].deal(Frame::OpenSession {
            session: ns.slot as u64,
            config: config.clone(),
            mode: WorkerMode::Shard,
        })?;
        links[conn].deal(Frame::Restore {
            session: ns.slot as u64,
            boundary: b,
            checkpoint,
        })?;
        links[conn].deal(Frame::Reshard {
            session: ns.slot as u64,
            boundary: b,
            epoch,
        })?;
        swap_frames += 3;
    }
    // 4. Stamp the new epoch on every surviving (unaffected) session.
    for &(_, slot) in schedule.table(epoch).bounds() {
        if delta.created.iter().any(|ns| ns.slot == slot) {
            continue;
        }
        links[plan.conn_of[slot]].deal(Frame::Reshard {
            session: slot as u64,
            boundary: b,
            epoch,
        })?;
        swap_frames += 1;
    }
    Ok(ReshardEvent {
        boundary: b,
        epoch,
        plan: delta.plan,
        pause_us: started.elapsed_us(),
        // Filled in by the dealer from its value frontier.
        paused_subwindows: 0,
        swap_frames,
        checkpoint_bytes,
    })
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// Answer **one logical window** from worker processes while applying
/// `specs` — live shard splits and merges — mid-window, under
/// supervision.
///
/// `conns` is the initial fleet (one connection per initial shard);
/// `span` steers the initial even key-range partition (values `>=
/// span` land in the top shard; routing never affects answers).
/// `connect(conn_index)` is called both to bring up the fresh worker a
/// split needs and to respawn a crashed worker under `policy` — for
/// process workers, typically spawn + `Conn::connect_retry`.
///
/// Answers — values, provenance, bounds, burst flags, and the
/// coordinator's trailing pending state — are **bit-identical** to a
/// sequential single-instance run and to the in-process reference
/// (`qlove_stream::parallel::run_resharded`), whatever the schedule,
/// and through any worker crash the policy can absorb — including a
/// crash in the middle of a swap, whose control frames are replayed
/// from the connection's ring.
///
/// # Panics
/// Panics when `conns` is empty or `config.period` is 0 (the same
/// contract as `run_supervised`).
#[allow(clippy::too_many_arguments)]
pub fn run_resharded<F>(
    config: &QloveConfig,
    coordinator: &mut Qlove,
    conns: Vec<Conn>,
    values: &[u64],
    span: u64,
    specs: &[ReshardSpec],
    policy: &RecoveryPolicy,
    connect: F,
) -> io::Result<DistributedRun>
where
    F: FnMut(usize) -> io::Result<Conn> + Send,
{
    // The dealer brings up a split's fresh worker and the collector
    // respawns failed ones, both through the one caller hook.
    let connect = Mutex::new(connect);
    let hook = |conn: usize| (*connect.lock().expect("connect hook poisoned"))(conn);
    drive(
        config,
        coordinator,
        conns,
        values,
        span,
        specs,
        policy,
        hook,
        hook,
    )
}

/// The driver behind [`run_resharded`] and
/// [`run_supervised`](crate::run_supervised). `respawn(conn)` replaces
/// a failed worker on the calling thread (the collector's);
/// `fresh(conn)` brings up a split's new worker on the dealer thread.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive<R, D>(
    config: &QloveConfig,
    coordinator: &mut Qlove,
    conns: Vec<Conn>,
    values: &[u64],
    span: u64,
    specs: &[ReshardSpec],
    policy: &RecoveryPolicy,
    respawn: R,
    fresh: D,
) -> io::Result<DistributedRun>
where
    R: FnMut(usize) -> io::Result<Conn>,
    D: Fn(usize) -> io::Result<Conn> + Sync,
{
    let shards = conns.len();
    assert!(shards > 0, "need at least one shard");
    let period = config.period;
    assert!(period > 0, "need a positive sub-window period");
    let boundaries = values.len().div_ceil(period);

    let schedule = ReshardSchedule::build(shards, span, specs)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let plan = ConnPlan::build(&schedule, shards);
    // Round-robin dealing replicates the in-process executor exactly;
    // key ranges are needed only to split or merge them.
    let round_robin = specs.is_empty();

    // Links for every connection the schedule will ever use; the ones
    // beyond the initial fleet stay dormant (no writer) until their
    // swap brings them up.
    let links: Vec<Link> = (0..plan.conns())
        .map(|_| Link::new(policy.enabled()))
        .collect();
    let mut reads: Vec<Option<ReadHalf>> = (0..plan.conns()).map(|_| None).collect();
    for (conn, c) in conns.into_iter().enumerate() {
        let (read, writer) = link::open(c, policy)?;
        reads[conn] = Some(read);
        links[conn].install(writer);
        links[conn].deal(Frame::OpenSession {
            session: conn as u64,
            config: config.clone(),
            mode: WorkerMode::Shard,
        })?;
    }

    // One journal per run: the dealer's reshard/pause records and the
    // collector's failure/recovery records interleave in causal order.
    let journal = EventJournal::new();
    let slots = schedule.slot_count();
    let metrics: Vec<ShardMetrics> = (0..slots).map(ShardMetrics::for_shard).collect();
    let mut collector = Collector {
        policy,
        links: &links,
        reads,
        closing: &plan.closing,
        respawn,
        restarts: vec![0; plan.conns()],
        journal: &journal,
        metrics: &metrics,
        worker_stats: vec![WorkerStats::default(); slots],
    };

    let (answers, stats, final_epoch) = thread::scope(|scope| -> io::Result<_> {
        let links_ref = &links;
        let schedule_ref = &schedule;
        let plan_ref = &plan;
        let journal_ref = &journal;
        let metrics_ref = &metrics;
        let fresh_ref = &fresh;
        let dealer = scope.spawn(move || -> io::Result<u64> {
            let mut bufs: Vec<Vec<u64>> = (0..slots)
                .map(|_| Vec::with_capacity(BATCH.min(period)))
                .collect();
            let deal_batch = |slot: usize, bufs: &mut [Vec<u64>]| {
                metrics_ref[slot].routed.add(bufs[slot].len() as u64);
                let values =
                    std::mem::replace(&mut bufs[slot], Vec::with_capacity(BATCH.min(period)));
                links_ref[plan_ref.conn_of[slot]].deal(Frame::EventBatch {
                    session: slot as u64,
                    values,
                })
            };
            let mut open_conns: HashSet<usize> = (0..shards).collect();
            let mut current_epoch = 0u64;
            for (b, chunk) in values.chunks(period).enumerate() {
                let target = schedule_ref.epoch_at(b as u64);
                while current_epoch < target {
                    current_epoch += 1;
                    let frontier_before = b * period;
                    let mut event = execute_swap(
                        current_epoch,
                        schedule_ref,
                        plan_ref,
                        links_ref,
                        config,
                        policy,
                        fresh_ref,
                        &mut open_conns,
                    )?;
                    // No values were dealt inside the swap, so the
                    // pause spans exactly the one inter-sub-window gap
                    // it started in.
                    event.paused_subwindows = ((b * period - frontier_before) / period + 1) as u64;
                    let (split, slot, pivot) = match event.plan {
                        ReshardPlan::Split { slot, pivot } => (true, slot, pivot),
                        ReshardPlan::Merge { left } => (false, left, 0),
                    };
                    journal_ref.emit(EventKind::Reshard {
                        boundary: event.boundary,
                        epoch: event.epoch,
                        split,
                        slot,
                        pivot,
                        swap_frames: event.swap_frames,
                        checkpoint_bytes: event.checkpoint_bytes,
                    });
                    journal_ref.emit(EventKind::Pause {
                        boundary: event.boundary,
                        pause_us: event.pause_us,
                        paused_subwindows: event.paused_subwindows as usize,
                    });
                }
                let table = schedule_ref.table(current_epoch);
                let start = b * period;
                for (i, &v) in chunk.iter().enumerate() {
                    let slot = if round_robin {
                        (start + i) % shards
                    } else {
                        table.route(v)
                    };
                    bufs[slot].push(v);
                    if bufs[slot].len() == BATCH {
                        deal_batch(slot, &mut bufs)?;
                    }
                }
                for &(_, slot) in table.bounds() {
                    if !bufs[slot].is_empty() {
                        deal_batch(slot, &mut bufs)?;
                    }
                    links_ref[plan_ref.conn_of[slot]].deal(Frame::Boundary {
                        session: slot as u64,
                        boundary: b as u64,
                    })?;
                }
            }
            // Scrape the live sessions' counters before shutdown; the
            // requests ride the replay ring like any dealt frame.
            let live = schedule_ref.table(current_epoch).bounds();
            let mut remaining: Vec<usize> = open_conns.into_iter().collect();
            remaining.sort_unstable();
            for conn in remaining {
                for &(_, slot) in live.iter().filter(|&&(_, s)| plan_ref.conn_of[s] == conn) {
                    links_ref[conn].deal(Frame::StatsRequest {
                        session: slot as u64,
                    })?;
                }
                links_ref[conn].deal(Frame::Shutdown)?;
            }
            Ok(current_epoch)
        });

        // Collector + double-buffered merger: group membership and the
        // expected epoch stamp are functions of the boundary.
        let mut drained_epoch = 0u64;
        let collect = |b: usize, group: &mut Vec<QloveSummary>| -> io::Result<()> {
            let epoch = schedule.epoch_at(b as u64);
            // Connections fully retired by now-reached merges are
            // drained once their last group is merged.
            while drained_epoch < epoch {
                drained_epoch += 1;
                let swap_b = schedule.from_boundary(drained_epoch);
                for conn in 0..plan.conns() {
                    if plan.retired_at[conn] == Some(swap_b) {
                        collector.drain_retired(conn);
                    }
                }
            }
            let mut total = 0u64;
            for &(_, slot) in schedule.table(epoch).bounds() {
                let summary =
                    collector.expect_summary(plan.conn_of[slot], slot as u64, b as u64, epoch)?;
                total += summary.total();
                group.push(summary);
            }
            let expected = (values.len() - b * period).min(period) as u64;
            if total != expected {
                return Err(protocol(format!(
                    "boundary {b}: summaries cover {total} elements, dealt {expected}"
                )));
            }
            Ok(())
        };
        let merged = coordinate_pipelined(coordinator, boundaries, collect);

        let finished = merged.and_then(|ok| {
            // Confirm shutdown on every connection alive at the end
            // (fully-retired ones were drained at their swap).
            for conn in 0..plan.conns() {
                let opened = plan.opened_at[conn] == 0 || plan.opened_at[conn] < boundaries as u64;
                let retired = plan.retired_at[conn].is_some_and(|rb| rb < boundaries as u64);
                if opened && !retired {
                    collector.expect_shutdown_ack(conn)?;
                }
            }
            Ok(ok)
        });
        if finished.is_err() {
            collector.fail_all();
        }
        let dealt = join_io(dealer, "dealer");
        let (answers, stats) = finished?;
        let final_epoch = dealt?;
        Ok((answers, stats, final_epoch))
    })?;
    let mut live: Vec<usize> = schedule
        .table(final_epoch)
        .bounds()
        .iter()
        .map(|&(_, slot)| slot)
        .collect();
    live.sort_unstable();
    Ok(DistributedRun {
        answers,
        stats,
        failures: failures_view(&journal),
        events: reshard_events_view(&journal),
        worker_stats: live
            .into_iter()
            .map(|slot| collector.worker_stats[slot])
            .collect(),
        journal,
    })
}

#[cfg(test)]
#[cfg(unix)]
mod tests {
    use super::*;
    use crate::worker::serve_stream;
    use qlove_core::{Backend, QloveAnswer};
    use qlove_stream::parallel::ReshardPlan;
    use std::os::unix::net::UnixStream;
    use std::sync::Mutex as StdMutex;
    use std::thread::JoinHandle;

    fn config(backend: Backend) -> QloveConfig {
        QloveConfig::new(&[0.5, 0.9], 400, 50).backend(backend)
    }

    fn stream(seed: u64, n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| (i.wrapping_mul(2654435761).wrapping_add(seed * 7919)) % 997)
            .collect()
    }

    fn sequential(cfg: &QloveConfig, data: &[u64]) -> (Vec<QloveAnswer>, Qlove) {
        let mut op = Qlove::new(cfg.clone());
        let answers = data.iter().filter_map(|&v| op.push_detailed(v)).collect();
        (answers, op)
    }

    fn uds_worker(handles: &StdMutex<Vec<JoinHandle<()>>>) -> io::Result<Conn> {
        let (ours, theirs) = UnixStream::pair()?;
        let h = std::thread::spawn(move || {
            let _ = serve_stream(Conn::Unix(theirs));
        });
        handles.lock().unwrap().push(h);
        Ok(Conn::Unix(ours))
    }

    #[test]
    fn conn_plan_follows_the_hosting_convention() {
        let specs = [
            ReshardSpec {
                boundary: 2,
                plan: ReshardPlan::Split {
                    slot: 0,
                    pivot: 250,
                },
            },
            ReshardSpec {
                boundary: 5,
                plan: ReshardPlan::Merge { left: 2 },
            },
        ];
        let schedule = ReshardSchedule::build(2, 1000, &specs).unwrap();
        let plan = ConnPlan::build(&schedule, 2);
        // Split of slot 0 (conn 0): low half (slot 2) stays on conn 0,
        // high half (slot 3) gets fresh conn 2.
        assert_eq!(plan.conn_of, vec![0, 1, 0, 2, 0]);
        assert_eq!(plan.opened_at, vec![0, 0, 2]);
        // Merge of slots 2 and 3: successor (slot 4) on slot 2's conn
        // (conn 0); slot 3's conn (conn 2) fully retired at boundary 5.
        assert_eq!(plan.retired_at, vec![None, None, Some(5)]);
        // Slot 0 closes on conn 0 at the split; the merge closes slot 2
        // there too, and slot 3 on conn 2.
        assert_eq!(plan.closing, vec![vec![0, 2], vec![], vec![3]]);
    }

    #[test]
    fn split_and_merge_over_uds_are_bit_identical() {
        let data = stream(3, 430); // 9 boundaries, last one partial
        for backend in [Backend::Tree, Backend::Dense] {
            let cfg = config(backend);
            let (want, single) = sequential(&cfg, &data);
            for specs in [
                vec![ReshardSpec {
                    boundary: 3,
                    plan: ReshardPlan::Split {
                        slot: 1,
                        pivot: 700,
                    },
                }],
                vec![ReshardSpec {
                    boundary: 4,
                    plan: ReshardPlan::Merge { left: 0 },
                }],
                vec![
                    ReshardSpec {
                        boundary: 2,
                        plan: ReshardPlan::Split {
                            slot: 0,
                            pivot: 200,
                        },
                    },
                    ReshardSpec {
                        boundary: 6,
                        plan: ReshardPlan::Merge { left: 2 },
                    },
                ],
            ] {
                let handles = StdMutex::new(Vec::new());
                let conns: Vec<Conn> = (0..2).map(|_| uds_worker(&handles).unwrap()).collect();
                let mut coordinator = Qlove::new(cfg.clone());
                let run = run_resharded(
                    &cfg,
                    &mut coordinator,
                    conns,
                    &data,
                    997,
                    &specs,
                    &RecoveryPolicy::disabled(),
                    |_conn| uds_worker(&handles),
                )
                .expect("resharded run");
                assert_eq!(run.answers, want, "{backend:?} {specs:?}");
                assert_eq!(coordinator.pending(), single.pending());
                assert!(run.failures.is_empty());
                assert_eq!(run.events.len(), specs.len());
                for (event, spec) in run.events.iter().zip(&specs) {
                    assert_eq!(event.boundary, spec.boundary);
                    assert_eq!(event.plan, spec.plan);
                    assert_eq!(
                        event.paused_subwindows, 1,
                        "ingest pause must be bounded by one sub-window"
                    );
                    assert!(event.swap_frames > 0);
                }
                for h in handles.into_inner().unwrap() {
                    h.join().expect("worker thread panicked");
                }
            }
        }
    }

    #[test]
    fn empty_schedule_degenerates_to_a_plain_supervised_run() {
        let cfg = config(Backend::Dense);
        let data = stream(7, 430);
        let (want, _) = sequential(&cfg, &data);
        let handles = StdMutex::new(Vec::new());
        let conns: Vec<Conn> = (0..3).map(|_| uds_worker(&handles).unwrap()).collect();
        let mut coordinator = Qlove::new(cfg.clone());
        let run = run_resharded(
            &cfg,
            &mut coordinator,
            conns,
            &data,
            997,
            &[],
            &RecoveryPolicy::disabled(),
            |_conn| uds_worker(&handles),
        )
        .unwrap();
        assert_eq!(run.answers, want);
        assert!(run.events.is_empty());
        for h in handles.into_inner().unwrap() {
            h.join().expect("worker thread panicked");
        }
    }

    #[test]
    fn rejects_an_invalid_schedule() {
        let cfg = config(Backend::Tree);
        let handles = StdMutex::new(Vec::new());
        let conns: Vec<Conn> = (0..2).map(|_| uds_worker(&handles).unwrap()).collect();
        let mut coordinator = Qlove::new(cfg.clone());
        let err = run_resharded(
            &cfg,
            &mut coordinator,
            conns,
            &[1, 2, 3],
            997,
            &[ReshardSpec {
                boundary: 0,
                plan: ReshardPlan::Merge { left: 0 },
            }],
            &RecoveryPolicy::disabled(),
            |_conn| uds_worker(&handles),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // Workers never handshook past hello; dropping the conns ends
        // their threads.
        for h in handles.into_inner().unwrap() {
            h.join().expect("worker thread panicked");
        }
    }
}
