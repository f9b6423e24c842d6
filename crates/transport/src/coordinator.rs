//! The coordinator side of a multi-process distributed run: deal the
//! stream to worker processes over sockets, collect per-boundary QLVS
//! summaries, and merge them through the shared double-buffered
//! pipeline — so merging boundary *b* overlaps the workers ingesting
//! toward boundary *b+1*.
//!
//! Three threads cooperate, connected only by sockets and the pipeline
//! channel, with no stage ever waiting on a stage downstream of it:
//!
//! ```text
//! dealer ──EventBatch/Boundary──▶ workers ──BoundarySummary──▶ collector
//!    (writes, runs ahead)          (ingest)    (reads, groups)     │
//!                                                         group b  ▼
//!                                               merger ◀── double buffer
//!                                          (Qlove::merge, emits answers)
//! ```
//!
//! Backpressure is physical: the dealer runs ahead of the workers only
//! as far as the socket buffers (and the bounded replay ring) allow,
//! the workers run ahead of the collector only until their write of a
//! summary blocks, and the collector runs ahead of the merger by at
//! most one full boundary group (the double buffer). Memory stays
//! bounded end to end.
//!
//! # Fault tolerance
//!
//! [`run_supervised`] adds exact-replay worker recovery on top of the
//! same pipeline. Every frame dealt to a shard is retained in a bounded
//! **replay ring** ([`MAX_RING_BOUNDARIES`] sub-windows deep) and
//! pruned as soon as the collector merges the matching
//! `BoundarySummary` — the acknowledgement that the worker's effect on
//! the answer stream is durable. Because a [`qlove_core::QloveShard`]
//! resets at every boundary, the state lost with a dead worker is
//! exactly the unacknowledged ring tail: recovery respawns a worker
//! (caller-provided closure), sends a [`Frame::Restore`] naming the
//! last acknowledged boundary, replays the tail, and resumes — the
//! merged answers are **bit-identical** to an undisturbed run.
//!
//! Detection is two-sided. A dead worker surfaces as an EOF/reset on
//! either socket half. A *hung* worker (e.g. `SIGSTOP`) is caught by
//! the heartbeat deadline: when a collector read times out it writes a
//! [`Frame::Heartbeat`] probe; a live worker echoes it, a frozen one
//! stays silent through the second timeout and is declared stalled.
//! A spurious stall verdict (worker merely slow) is *safe*: the old
//! socket is fully shut down before the replacement is handshaked, so
//! the straggler can never write into the recovered stream, and replay
//! recomputes identical summaries anyway.

use crate::net::Conn;
use crate::proto::{Frame, FrameReader, FrameWriter, Role, WorkerMode, PROTOCOL_VERSION};
use qlove_core::{Qlove, QloveAnswer, QloveConfig, QloveSummary};
use qlove_stream::parallel::BATCH;
use qlove_stream::{coordinate_pipelined, PipelineStats};
use qlove_telemetry::metrics::labeled;
use qlove_telemetry::{Counter, EventJournal, EventKind, Gauge, Stopwatch};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufReader};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// How many dealt-but-unacknowledged sub-windows the replay ring holds
/// per shard before the dealer waits for the collector to catch up.
///
/// This bounds both recovery replay volume and coordinator memory: at
/// most this many boundaries' worth of `EventBatch` frames are retained
/// per shard at any moment.
pub const MAX_RING_BOUNDARIES: usize = 8;

/// When and how hard the coordinator fights to keep a run alive.
///
/// [`RecoveryPolicy::disabled`] (also the `Default`) reproduces the
/// fail-fast behavior of the unsupervised runtime exactly: no socket
/// deadlines, no heartbeats, any worker failure ends the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Per-shard restart budget for the whole run. `0` disables
    /// recovery (failures are terminal, the respawn hook is never
    /// called).
    pub max_restarts: u32,
    /// Pause between consecutive restart attempts of the same shard.
    pub backoff: Duration,
    /// Ceiling for one whole recovery (respawn + handshake + restore +
    /// replay, across attempts). Also used as the socket write deadline
    /// so the dealer can never block forever on a frozen peer.
    pub deadline: Duration,
    /// Collector read deadline. After one silent interval the worker is
    /// probed with a heartbeat; silence through a second interval means
    /// the worker is declared stalled. `None` disables hang detection —
    /// only crashes (EOF/reset) are caught.
    pub heartbeat: Option<Duration>,
    /// Seed for deterministic backoff jitter (`0` disables jitter).
    /// When set, each restart sleeps `backoff` scaled by a factor in
    /// `[0.5, 1.5)` drawn from a [`SeededRng`](crate::chaos::SeededRng)
    /// keyed on `(jitter, shard, attempt)` — so simultaneous
    /// multi-shard failures don't respawn in lockstep, yet every
    /// schedule replays exactly from the seed (no wall-clock entropy).
    pub jitter: u64,
}

impl RecoveryPolicy {
    /// No supervision: identical behavior to the unsupervised runtime.
    pub fn disabled() -> Self {
        Self {
            max_restarts: 0,
            backoff: Duration::ZERO,
            deadline: Duration::ZERO,
            heartbeat: None,
            jitter: 0,
        }
    }

    /// Reasonable production defaults: 3 restarts per shard, 50 ms
    /// jittered backoff, 10 s recovery deadline, 500 ms heartbeat.
    pub fn supervised() -> Self {
        Self {
            max_restarts: 3,
            backoff: Duration::from_millis(50),
            deadline: Duration::from_secs(10),
            heartbeat: Some(Duration::from_millis(500)),
            jitter: 0x5EED_BACC_0FF5,
        }
    }

    /// Whether this policy supervises at all: `false` means failures
    /// abort the run exactly as if no policy were involved.
    pub fn enabled(&self) -> bool {
        self.max_restarts > 0
    }

    /// The pause before restart attempt `attempt` (1-based) of the
    /// failure domain identified by `key` (a shard index, session id —
    /// anything stable). With `jitter == 0` this is exactly `backoff`;
    /// otherwise `backoff` is scaled by a deterministic factor in
    /// `[0.5, 1.5)` drawn from the seed, so concurrent failures of
    /// different keys spread out instead of respawning in lockstep —
    /// and the whole schedule is reproducible (no wall-clock entropy).
    pub fn backoff_for(&self, key: u64, attempt: u32) -> Duration {
        if self.jitter == 0 || self.backoff.is_zero() {
            return self.backoff;
        }
        // One draw per (seed, key, attempt): mix the coordinates into
        // the seed rather than advancing a shared generator, so the
        // schedule doesn't depend on the order failures happen to
        // interleave in.
        let mut rng = crate::chaos::SeededRng::new(
            self.jitter ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt) << 17,
        );
        // factor = 0.5 + (draw / 2^64) ∈ [0.5, 1.5)
        let frac = rng.next_u64() as f64 / (u64::MAX as f64 + 1.0);
        Duration::from_nanos((self.backoff.as_nanos() as f64 * (0.5 + frac)) as u64)
    }

    /// Arm the socket deadlines this policy calls for. Timeouts are a
    /// property of the underlying socket, so one call here covers every
    /// `try_clone` handle (collector reads *and* dealer writes).
    ///
    /// On a multi-session connection the deadlines are necessarily
    /// shared by every session multiplexed over the socket: one slow
    /// session cannot get a private, longer deadline — the probe
    /// machinery tells a slow *worker* from a dead one instead.
    pub(crate) fn arm(&self, conn: &Conn) -> io::Result<()> {
        if let Some(hb) = self.heartbeat {
            conn.set_read_timeout(Some(hb))?;
        }
        if (self.enabled() || self.heartbeat.is_some()) && self.deadline > Duration::ZERO {
            conn.set_write_timeout(Some(self.deadline))?;
        }
        Ok(())
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// How a worker failure manifested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The socket died: EOF, reset, or a failed write — the worker
    /// process is gone (or unreachable, which must be treated the same).
    Crash,
    /// The worker is silent but the socket is open: no summary and no
    /// heartbeat echo within two read deadlines (e.g. `SIGSTOP`).
    Stall,
}

/// One worker failure and what recovery did about it, reported in
/// [`DistributedRun::failures`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureEvent {
    /// Which shard failed.
    pub shard: usize,
    /// The boundary the replacement was restored to (= boundaries
    /// already acknowledged by the collector when the failure hit).
    pub boundary: u64,
    /// Crash or stall.
    pub kind: FailureKind,
    /// Cumulative restarts consumed by this shard after this event.
    pub restarts: u32,
    /// Silence observed between first suspicion and the verdict, µs.
    pub detect_us: u64,
    /// Respawn + handshake + `Restore` frame, µs.
    pub restore_us: u64,
    /// Replaying the unacknowledged ring tail, µs.
    pub replay_us: u64,
    /// Frames replayed from the ring.
    pub replayed_frames: usize,
    /// `false` when the restart budget or deadline ran out and the run
    /// failed.
    pub recovered: bool,
}

/// A coordinator-side pipeline thread (dealer/feeder) died by panic;
/// carried inside `io::Error::other` so callers get the payload instead
/// of a coordinator panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportError {
    /// Which thread panicked (`"dealer"` or `"feeder"`).
    pub thread: &'static str,
    /// The stringified panic payload.
    pub panic: String,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} thread panicked: {}", self.thread, self.panic)
    }
}

impl std::error::Error for TransportError {}

/// Join a pipeline thread, converting a panic into a structured
/// [`TransportError`] instead of re-panicking the coordinator.
pub(crate) fn join_io<T>(
    handle: thread::ScopedJoinHandle<'_, io::Result<T>>,
    thread: &'static str,
) -> io::Result<T> {
    match handle.join() {
        Ok(result) => result,
        Err(payload) => {
            let panic = match payload.downcast::<String>() {
                Ok(s) => *s,
                Err(payload) => match payload.downcast::<&'static str>() {
                    Ok(s) => (*s).to_string(),
                    Err(_) => "opaque panic payload".to_string(),
                },
            };
            Err(io::Error::other(TransportError { thread, panic }))
        }
    }
}

/// Point-in-time worker-side counters scraped over a
/// [`Frame::StatsReport`] (the coordinator requests one per shard just
/// before shutdown). Purely observational: the values never influence
/// routing or merging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Wire session the counters describe.
    pub session: u64,
    /// `EventBatch` frames the worker ingested.
    pub batches: u64,
    /// Telemetry values the worker ingested.
    pub events: u64,
    /// Boundaries the worker completed.
    pub boundaries: u64,
    /// Responses (summaries or answers) the worker shipped.
    pub responses: u64,
}

/// Materialize the legacy [`FailureEvent`] view from a run's event
/// journal: every terminal [`EventKind::Recovery`] record maps onto
/// one `FailureEvent`, in journal (= causal) order.
pub(crate) fn failures_view(journal: &EventJournal) -> Vec<FailureEvent> {
    journal
        .events()
        .into_iter()
        .filter_map(|event| match event.kind {
            EventKind::Recovery {
                domain,
                boundary,
                stall,
                restarts,
                detect_us,
                restore_us,
                replay_us,
                replayed_frames,
                recovered,
            } => Some(FailureEvent {
                shard: domain,
                boundary,
                kind: if stall {
                    FailureKind::Stall
                } else {
                    FailureKind::Crash
                },
                restarts,
                detect_us,
                restore_us,
                replay_us,
                replayed_frames,
                recovered,
            }),
            _ => None,
        })
        .collect()
}

/// The restart loop shared by every collector (supervised, resharded,
/// multi-session): attempt `try_restart` under the policy's budget and
/// deadline, sleeping the jittered backoff between attempts. Returns
/// the total restarts consumed for this failure domain and the first
/// successful attempt's result (`None` when the budget or deadline ran
/// out). Timing runs on the shared telemetry clock.
pub(crate) fn drive_restarts<T>(
    policy: &RecoveryPolicy,
    key: u64,
    consumed: u32,
    mut try_restart: impl FnMut() -> io::Result<T>,
) -> (u32, Option<T>) {
    let started = Stopwatch::start();
    let mut restarts = consumed;
    let mut attempt = 0u32;
    while restarts < policy.max_restarts
        && Duration::from_micros(started.elapsed_us()) <= policy.deadline
    {
        if attempt > 0 {
            thread::sleep(policy.backoff_for(key, attempt));
        }
        attempt += 1;
        restarts += 1;
        match try_restart() {
            Ok(outcome) => return (restarts, Some(outcome)),
            Err(_retry) => continue,
        }
    }
    (restarts, None)
}

/// Per-shard coordinator metric handles, resolved once per run from
/// the global registry (labeled by shard index) so the hot loops pay
/// one atomic RMW per update, never a registry lookup.
pub(crate) struct ShardMetrics {
    /// `qlove_events_routed_total{shard=..}` — values dealt to the
    /// shard by the dealer.
    pub routed: Arc<Counter>,
    /// `qlove_summary_bytes_total{shard=..}` — wire bytes of the
    /// summary-bearing frames collected from the shard.
    pub summary_bytes: Arc<Counter>,
    /// `qlove_subwindow_events{shard=..}` — elements in the shard's
    /// most recent sub-window summary (the per-shard load signal the
    /// reshard policy loop reads).
    pub subwindow: Arc<Gauge>,
}

impl ShardMetrics {
    pub(crate) fn for_shard(shard: usize) -> Self {
        let registry = qlove_telemetry::global_metrics();
        let label = [("shard", shard.to_string())];
        let labels: Vec<(&str, &str)> = label.iter().map(|(k, v)| (*k, v.as_str())).collect();
        Self {
            routed: registry.counter(&labeled("qlove_events_routed_total", &labels)),
            summary_bytes: registry.counter(&labeled("qlove_summary_bytes_total", &labels)),
            subwindow: registry.gauge(&labeled("qlove_subwindow_events", &labels)),
        }
    }
}

/// Result of a socket-distributed run.
#[derive(Debug)]
pub struct DistributedRun {
    /// The merged window evaluations, bit-identical to a
    /// single-instance run over the undealt stream.
    pub answers: Vec<QloveAnswer>,
    /// Pipeline timing: how much merge time was hidden behind worker
    /// ingest.
    pub stats: PipelineStats,
    /// Worker failures detected during the run and how recovery went
    /// (always empty under [`RecoveryPolicy::disabled`], which turns
    /// failures into errors instead). A *view* materialized from
    /// [`DistributedRun::journal`]; kept as a field for compatibility.
    pub failures: Vec<FailureEvent>,
    /// The run's structured event journal: every failure, recovery,
    /// reshard, and pause record on one monotonic clock.
    pub journal: EventJournal,
    /// Worker-side counters scraped over the wire at shutdown, one per
    /// shard (all-zero when a worker died before answering its scrape).
    pub worker_stats: Vec<WorkerStats>,
}

fn protocol(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Connection-level handshake: hello exchange only. Sessions are
/// opened separately (a v2 connection can hold many).
pub(crate) fn hello_handshake(
    conn: Conn,
) -> io::Result<(FrameReader<BufReader<Conn>>, FrameWriter<Conn>)> {
    let read_half = conn.try_clone()?;
    let mut reader = FrameReader::new(BufReader::new(read_half));
    let mut writer = FrameWriter::new(conn);
    writer.write_frame(&Frame::Hello {
        version: PROTOCOL_VERSION,
        role: Role::Coordinator,
    })?;
    writer.flush()?;
    match reader.read_frame()? {
        Frame::Hello {
            version: PROTOCOL_VERSION,
            role: Role::Worker,
        } => {}
        Frame::Hello { version, .. } if version != PROTOCOL_VERSION => {
            return Err(protocol(format!(
                "worker speaks protocol v{version}, coordinator speaks v{PROTOCOL_VERSION}"
            )));
        }
        other => return Err(protocol(format!("expected worker hello, got {other:?}"))),
    }
    Ok((reader, writer))
}

/// Handshake one worker connection and open a single session on it:
/// hello exchange + `OpenSession`.
fn handshake(
    conn: Conn,
    session: u64,
    config: &QloveConfig,
    mode: WorkerMode,
) -> io::Result<(FrameReader<BufReader<Conn>>, FrameWriter<Conn>)> {
    let (reader, mut writer) = hello_handshake(conn)?;
    writer.write_frame(&Frame::OpenSession {
        session,
        config: config.clone(),
        mode,
    })?;
    writer.flush()?;
    Ok((reader, writer))
}

/// Everything the dealer and the collector share about one shard: the
/// replay ring (source of truth for unacknowledged frames) and the
/// current write half, if the shard has a live one.
struct ShardState {
    /// Wire session ID this shard's frames are scoped to (the shard
    /// index: each per-shard connection carries exactly one session).
    session: u64,
    /// Dealt frames not yet covered by a boundary acknowledgement, in
    /// deal order. On recovery this is exactly what gets replayed.
    ring: VecDeque<Frame>,
    /// `Boundary` frames currently in the ring — the dealer's run-ahead
    /// budget.
    ring_boundaries: usize,
    /// Live write half. `None` while the shard is down: the dealer
    /// keeps ringing frames and the collector's recovery replays them.
    writer: Option<FrameWriter<Conn>>,
    /// Terminal-failure flag: wake and stop everyone.
    failed: bool,
}

struct ShardLink {
    /// Whether dealt frames are retained for replay. `false` when the
    /// policy cannot restart workers (`max_restarts == 0`): replay can
    /// never happen, so the dealer writes straight through and the
    /// failure-free hot path pays nothing for the ring. Immutable, and
    /// deliberately *outside* the mutex (the `MuxLink` layout): when
    /// `false` the collector's acknowledgements never take the lock, so
    /// the collector keeps reading even while the dealer is blocked in
    /// a socket write holding it. (Dealer blocked writing → collector
    /// blocked on the lock → collector stops reading → the worker fills
    /// its outbound buffer and stops reading its inbound → the dealer's
    /// write never completes.)
    retain: bool,
    /// Boundaries acknowledged so far (== the boundary index a
    /// replacement worker must be restored to). Only the collector
    /// writes and reads it; it is atomic so the lock-free ack path keeps
    /// it exact (for the journal's `Failure { boundary }`) while the
    /// link stays shared with the dealer. It publishes no other data.
    acked: AtomicU64,
    state: Mutex<ShardState>,
    cv: Condvar,
}

impl ShardLink {
    fn new(session: u64, writer: FrameWriter<Conn>, retain: bool) -> Self {
        Self {
            retain,
            acked: AtomicU64::new(0),
            state: Mutex::new(ShardState {
                session,
                ring: VecDeque::new(),
                ring_boundaries: 0,
                writer: Some(writer),
                failed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Dealer path: retain `frame` in the replay ring (when the policy
    /// can restart workers), then push it down the socket. A failed or
    /// timed-out write *parks* the link (drops the writer) instead of
    /// erroring — the collector notices the dead peer and either
    /// recovers (replaying the ring) or ends the run. Blocks while the
    /// ring is at its boundary bound; without retention the frame is
    /// written straight through and backpressure stays purely physical
    /// (socket buffers), exactly the pre-supervision hot path.
    fn deal(&self, frame: Frame) -> io::Result<()> {
        let mut st = self.state.lock().expect("shard link poisoned");
        let is_boundary = matches!(frame, Frame::Boundary { .. });
        if is_boundary {
            while st.ring_boundaries >= MAX_RING_BOUNDARIES && !st.failed {
                st = self.cv.wait(st).expect("shard link poisoned");
            }
        }
        if st.failed {
            return Err(io::Error::other("distributed run aborted"));
        }
        let flush = is_boundary || matches!(frame, Frame::Shutdown);
        let st = &mut *st;
        let frame = if self.retain {
            st.ring.push_back(frame);
            if is_boundary {
                st.ring_boundaries += 1;
            }
            st.ring.back().expect("frame was just pushed")
        } else {
            &frame
        };
        if let Some(writer) = st.writer.as_mut() {
            let sent =
                writer
                    .write_frame(frame)
                    .and_then(|()| if flush { writer.flush() } else { Ok(()) });
            if sent.is_err() {
                st.writer = None;
            }
        }
        Ok(())
    }

    /// Collector ack: boundary `b` is merged — prune the ring through
    /// its `Boundary` frame and wake a dealer waiting on ring space.
    fn ack(&self, b: u64) {
        self.acked.store(b + 1, Ordering::Relaxed);
        if !self.retain {
            // Nothing rung, and an unsupervised dealer never parks on
            // ring backpressure: no lock, no one to wake (see `retain`).
            return;
        }
        let mut st = self.state.lock().expect("shard link poisoned");
        while let Some(frame) = st.ring.pop_front() {
            if matches!(frame, Frame::Boundary { boundary, .. } if boundary == b) {
                st.ring_boundaries -= 1;
                break;
            }
        }
        self.cv.notify_all();
    }

    fn acked(&self) -> u64 {
        self.acked.load(Ordering::Relaxed)
    }

    /// Ask the worker for a heartbeat echo. Fails when the link is
    /// parked or the write side is dead — i.e. the worker crashed.
    fn probe(&self) -> io::Result<()> {
        let mut st = self.state.lock().expect("shard link poisoned");
        let st = &mut *st;
        let session = st.session;
        match st.writer.as_mut() {
            Some(writer) => {
                let sent = writer
                    .write_frame(&Frame::Heartbeat { session })
                    .and_then(|()| writer.flush());
                if sent.is_err() {
                    st.writer = None;
                }
                sent
            }
            None => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "shard link is down",
            )),
        }
    }

    /// Recovery: restore a fresh worker to the last acknowledged
    /// boundary and replay the unacknowledged tail, then install its
    /// write half. Returns `(restored boundary, frames replayed)`.
    fn reinstall(&self, mut writer: FrameWriter<Conn>) -> io::Result<(u64, usize)> {
        let mut st = self.state.lock().expect("shard link poisoned");
        let acked = self.acked();
        writer.write_frame(&Frame::Restore {
            session: st.session,
            boundary: acked,
            checkpoint: QloveSummary::default(),
        })?;
        for frame in &st.ring {
            writer.write_frame(frame)?;
        }
        writer.flush()?;
        let replayed = st.ring.len();
        st.writer = Some(writer);
        Ok((acked, replayed))
    }

    fn fail(&self) {
        let mut st = self.state.lock().expect("shard link poisoned");
        st.failed = true;
        st.writer = None;
        self.cv.notify_all();
    }
}

/// The collector's view of the whole worker fleet plus the recovery
/// machinery. Lives on the calling thread; only the [`ShardLink`]s are
/// shared with the dealer.
struct Supervisor<'a, F> {
    config: &'a QloveConfig,
    policy: &'a RecoveryPolicy,
    links: &'a [ShardLink],
    readers: Vec<FrameReader<BufReader<Conn>>>,
    breakers: Vec<Conn>,
    respawn: F,
    restarts: Vec<u32>,
    journal: &'a EventJournal,
    metrics: &'a [ShardMetrics],
    worker_stats: Vec<WorkerStats>,
}

impl<F: FnMut(usize) -> io::Result<Conn>> Supervisor<'_, F> {
    /// Read one frame from `shard`, probing through read deadlines.
    /// `Err` carries the failure verdict, the silence observed before
    /// it (µs), and the underlying error.
    fn read_with_probe(&mut self, shard: usize) -> Result<Frame, (FailureKind, u64, io::Error)> {
        let mut silent_since: Option<Stopwatch> = None;
        let mut probed = false;
        loop {
            match self.readers[shard].read_frame() {
                // A heartbeat echo is proof of life, not progress;
                // reset the probe and keep waiting for the summary.
                Ok(Frame::Heartbeat { .. }) => {
                    silent_since = None;
                    probed = false;
                }
                // A stats scrape reply is absorbed here (like the
                // heartbeat echo) so it can arrive between any two
                // expected frames; it also proves the worker is alive.
                Ok(Frame::StatsReport {
                    session,
                    batches,
                    events,
                    boundaries,
                    responses,
                }) => {
                    self.worker_stats[shard] = WorkerStats {
                        session,
                        batches,
                        events,
                        boundaries,
                        responses,
                    };
                    silent_since = None;
                    probed = false;
                }
                Ok(frame) => return Ok(frame),
                Err(e) if is_timeout(&e) => {
                    let since = *silent_since.get_or_insert_with(Stopwatch::start);
                    if probed {
                        return Err((FailureKind::Stall, since.elapsed_us(), e));
                    }
                    if self.links[shard].probe().is_err() {
                        return Err((FailureKind::Crash, since.elapsed_us(), e));
                    }
                    probed = true;
                }
                Err(e) => {
                    let detect_us = silent_since.map(|s| s.elapsed_us()).unwrap_or(0);
                    return Err((FailureKind::Crash, detect_us, e));
                }
            }
        }
    }

    /// One restart attempt: respawn, arm deadlines, handshake, restore
    /// + replay, swap the read half in. Timings in µs.
    fn try_restart(&mut self, shard: usize) -> io::Result<(u64, usize, u64, u64)> {
        let restore_start = Stopwatch::start();
        let conn = (self.respawn)(shard)?;
        self.policy.arm(&conn)?;
        let breaker = conn.try_clone()?;
        let (reader, writer) = handshake(conn, shard as u64, self.config, WorkerMode::Shard)?;
        let restore_us = restore_start.elapsed_us();
        let replay_start = Stopwatch::start();
        let (boundary, replayed) = self.links[shard].reinstall(writer)?;
        let replay_us = replay_start.elapsed_us();
        self.readers[shard] = reader;
        self.breakers[shard] = breaker;
        Ok((boundary, replayed, restore_us, replay_us))
    }

    /// Drive recovery of `shard` to completion or declare the run dead.
    /// On success the shard has a live, restored worker and the caller
    /// retries its read. The failure verdict and the terminal recovery
    /// record both land in the run's event journal.
    fn recover(
        &mut self,
        shard: usize,
        kind: FailureKind,
        detect_us: u64,
        cause: io::Error,
    ) -> io::Result<()> {
        // Sever the old socket before anything else: a stalled worker
        // that wakes up later must find its stream dead, never the
        // recovered one.
        let _ = self.breakers[shard].shutdown();

        let stall = kind == FailureKind::Stall;
        self.journal.emit(EventKind::Failure {
            domain: shard,
            boundary: self.links[shard].acked(),
            stall,
            detect_us,
        });
        let policy = self.policy;
        let (restarts, outcome) =
            drive_restarts(policy, shard as u64, self.restarts[shard], || {
                self.try_restart(shard)
            });
        self.restarts[shard] = restarts;
        let (boundary, replayed, restore_us, replay_us, recovered) = match outcome {
            Some((boundary, replayed, restore_us, replay_us)) => {
                (boundary, replayed, restore_us, replay_us, true)
            }
            None => (self.links[shard].acked(), 0, 0, 0, false),
        };
        self.journal.emit(EventKind::Recovery {
            domain: shard,
            boundary,
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

    /// Read (recovering as needed) until `shard` delivers its summary
    /// for boundary `b`, then acknowledge it — pruning the replay ring.
    fn expect_summary(&mut self, shard: usize, b: usize) -> io::Result<QloveSummary> {
        loop {
            match self.read_with_probe(shard) {
                Ok(Frame::BoundarySummary {
                    session,
                    boundary,
                    epoch: 0,
                    summary,
                }) if session == shard as u64 && boundary == b as u64 => {
                    self.links[shard].ack(b as u64);
                    self.metrics[shard]
                        .summary_bytes
                        .add(self.readers[shard].last_frame_len() as u64);
                    self.metrics[shard].subwindow.set(summary.total() as i64);
                    return Ok(summary);
                }
                Ok(other) => {
                    return Err(protocol(format!(
                        "expected summary for boundary {b}, got {other:?}"
                    )))
                }
                Err((kind, detect_us, cause)) => self.recover(shard, kind, detect_us, cause)?,
            }
        }
    }

    /// Read (recovering as needed) until `shard` acknowledges shutdown.
    /// Covers a worker dying *after* its last summary — the replay ring
    /// tail is just the `Shutdown` frame then.
    fn expect_shutdown_ack(&mut self, shard: usize) -> io::Result<()> {
        loop {
            match self.read_with_probe(shard) {
                Ok(Frame::Shutdown) => return Ok(()),
                Ok(other) => return Err(protocol(format!("expected shutdown ack, got {other:?}"))),
                Err((kind, detect_us, cause)) => self.recover(shard, kind, detect_us, cause)?,
            }
        }
    }

    /// Terminal: stop every thread that could still be blocked — sever
    /// all sockets, fail all links.
    fn fail_all(&mut self) {
        for conn in &self.breakers {
            let _ = conn.shutdown();
        }
        for link in self.links {
            link.fail();
        }
    }
}

/// Answer **one logical window** from worker processes reached over
/// `conns` (one connection per shard, TCP or Unix-domain), with no
/// supervision: any worker failure ends the run with an error.
///
/// Equivalent to [`run_supervised`] under [`RecoveryPolicy::disabled`];
/// see there for the full contract.
pub fn run_over_sockets(
    config: &QloveConfig,
    coordinator: &mut Qlove,
    conns: Vec<Conn>,
    values: &[u64],
) -> io::Result<DistributedRun> {
    run_supervised(
        config,
        coordinator,
        conns,
        values,
        &RecoveryPolicy::disabled(),
        |shard| {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("no respawn hook for shard {shard}: supervision disabled"),
            ))
        },
    )
}

/// Answer **one logical window** from worker processes reached over
/// `conns` (one connection per shard, TCP or Unix-domain), restarting
/// failed workers according to `policy`.
///
/// Dealing replicates the in-process executor exactly — element `i` of
/// the logical stream goes to shard `i % shards`, batches never
/// straddle a sub-window boundary — so the merged answers (and the
/// coordinator's trailing partial sub-window) are **bit-identical** to
/// a single-instance run and to the thread-backend `run_distributed`.
/// A trailing partial sub-window is shipped and merged too, leaving it
/// pending in `coordinator` rather than dropped.
///
/// When a worker crashes or stalls mid-run, `respawn(shard)` is called
/// to produce a replacement connection (typically: spawn a process,
/// `Conn::connect_retry` to it); the replacement is restored to the
/// shard's last acknowledged boundary and fed the unacknowledged frame
/// tail from the replay ring, preserving bit-identity through the
/// failure. Each recovery is reported as a [`FailureEvent`] in
/// [`DistributedRun::failures`]. When the policy's restart budget or
/// deadline is exhausted, the run fails with the underlying error.
///
/// Sequence violations from a worker (out-of-order boundaries, totals
/// that do not add up to the dealt elements, malformed frames) are not
/// recoverable — they surface as errors and all connections are shut
/// down so no thread is left blocked.
///
/// # Panics
/// Panics when `conns` is empty or `config.period` is 0 (the same
/// contract as `run_distributed`).
pub fn run_supervised<F>(
    config: &QloveConfig,
    coordinator: &mut Qlove,
    conns: Vec<Conn>,
    values: &[u64],
    policy: &RecoveryPolicy,
    respawn: F,
) -> io::Result<DistributedRun>
where
    F: FnMut(usize) -> io::Result<Conn>,
{
    let shards = conns.len();
    assert!(shards > 0, "need at least one shard");
    let period = config.period;
    assert!(period > 0, "need a positive sub-window period");
    let boundaries = values.len().div_ceil(period);

    // Per shard: the collector owns the read half, the shared link owns
    // the write half (dealer writes through it, recovery replaces it),
    // and a breaker handle exists only to sever the socket — unblocking
    // whichever thread is stuck on a dead or frozen peer.
    let mut readers = Vec::with_capacity(shards);
    let mut breakers = Vec::with_capacity(shards);
    let mut links = Vec::with_capacity(shards);
    for (shard, conn) in conns.into_iter().enumerate() {
        policy.arm(&conn)?;
        breakers.push(conn.try_clone()?);
        let (reader, writer) = handshake(conn, shard as u64, config, WorkerMode::Shard)?;
        readers.push(reader);
        links.push(ShardLink::new(shard as u64, writer, policy.enabled()));
    }

    // One journal per run plus per-shard metric handles (labeled into
    // the process-global registry): observational only, never on the
    // answer path.
    let journal = EventJournal::new();
    let metrics: Vec<ShardMetrics> = (0..shards).map(ShardMetrics::for_shard).collect();

    let mut supervisor = Supervisor {
        config,
        policy,
        links: &links,
        readers,
        breakers,
        respawn,
        restarts: vec![0; shards],
        journal: &journal,
        metrics: &metrics,
        worker_stats: vec![WorkerStats::default(); shards],
    };

    let (answers, stats, worker_stats) = thread::scope(|scope| -> io::Result<_> {
        let links_ref = &links;
        let metrics_ref = &metrics;
        let dealer = scope.spawn(move || -> io::Result<()> {
            let mut bufs: Vec<Vec<u64>> = (0..shards)
                .map(|_| Vec::with_capacity(BATCH.min(period)))
                .collect();
            for (b, chunk) in values.chunks(period).enumerate() {
                let start = b * period;
                for (i, &v) in chunk.iter().enumerate() {
                    let shard = (start + i) % shards;
                    bufs[shard].push(v);
                    if bufs[shard].len() == BATCH {
                        metrics_ref[shard].routed.add(bufs[shard].len() as u64);
                        links_ref[shard].deal(Frame::EventBatch {
                            session: shard as u64,
                            values: std::mem::take(&mut bufs[shard]),
                        })?;
                        bufs[shard].reserve(BATCH.min(period));
                    }
                }
                for (shard, link) in links_ref.iter().enumerate() {
                    if !bufs[shard].is_empty() {
                        metrics_ref[shard].routed.add(bufs[shard].len() as u64);
                        link.deal(Frame::EventBatch {
                            session: shard as u64,
                            values: std::mem::take(&mut bufs[shard]),
                        })?;
                    }
                    link.deal(Frame::Boundary {
                        session: shard as u64,
                        boundary: b as u64,
                    })?;
                }
            }
            for (shard, link) in links_ref.iter().enumerate() {
                // Scrape worker counters before shutdown: the request
                // rides the replay ring like any dealt frame, so a
                // recovering worker replays (and re-answers) it, and
                // ordering guarantees the report precedes the
                // shutdown ack.
                link.deal(Frame::StatsRequest {
                    session: shard as u64,
                })?;
                link.deal(Frame::Shutdown)?;
            }
            Ok(())
        });

        // Collector + double-buffered merger (the shared pipelined
        // coordinator core).
        let collect = |b: usize, group: &mut Vec<QloveSummary>| -> io::Result<()> {
            let mut total = 0u64;
            for shard in 0..shards {
                let summary = supervisor.expect_summary(shard, b)?;
                total += summary.total();
                group.push(summary);
            }
            // The group must stand for exactly the elements dealt into
            // this boundary — anything else would poison (or panic)
            // the merge.
            let expected = (values.len() - b * period).min(period) as u64;
            if total != expected {
                return Err(protocol(format!(
                    "boundary {b}: summaries cover {total} elements, dealt {expected}"
                )));
            }
            Ok(())
        };
        let merged = coordinate_pipelined(coordinator, boundaries, collect);

        // Confirm every worker acknowledged shutdown before declaring
        // the run clean (they exit right after).
        let finished = merged.and_then(|ok| {
            for shard in 0..shards {
                supervisor.expect_shutdown_ack(shard)?;
            }
            Ok(ok)
        });
        if finished.is_err() {
            // Unblock the dealer (and any wedged worker) before
            // joining.
            supervisor.fail_all();
        }
        let dealt = join_io(dealer, "dealer");
        let (answers, stats) = finished?;
        dealt?;
        Ok((answers, stats, supervisor.worker_stats))
    })?;
    Ok(DistributedRun {
        answers,
        stats,
        failures: failures_view(&journal),
        journal,
        worker_stats,
    })
}

/// Stream `values` to a single remote **full operator** and collect its
/// evaluations — the offload deployment where the ingest process keeps
/// no operator state at all.
///
/// Answers come back as [`Frame::Answer`] frames and are returned in
/// evaluation order; they are bit-identical to running the operator
/// locally (locked by the transport differential test). The write side
/// runs on its own thread so a slow operator can never deadlock the
/// answer stream against the event stream.
pub fn run_remote_operator(
    config: &QloveConfig,
    conn: Conn,
    values: &[u64],
) -> io::Result<Vec<QloveAnswer>> {
    run_remote_operator_with_policy(config, conn, values, &RecoveryPolicy::disabled())
}

/// [`run_remote_operator`] with hang *detection* (not recovery).
///
/// A remote operator holds the full window state, which the ingest side
/// deliberately does not mirror — so a dead operator cannot be rebuilt
/// by replay and recovery is impossible by design. What `policy` adds
/// here is detection: with a heartbeat deadline set, a crashed or
/// frozen operator turns into a prompt `TimedOut`/`BrokenPipe` error
/// instead of blocking the caller forever. `max_restarts`, `backoff`,
/// and the respawn machinery do not apply.
pub fn run_remote_operator_with_policy(
    config: &QloveConfig,
    conn: Conn,
    values: &[u64],
    policy: &RecoveryPolicy,
) -> io::Result<Vec<QloveAnswer>> {
    policy.arm(&conn)?;
    let breaker = conn.try_clone()?;
    // The remote operator is the connection's only session: id 0.
    const SESSION: u64 = 0;
    let (mut reader, writer) = handshake(conn, SESSION, config, WorkerMode::Operator)?;
    // The feeder and the collector's heartbeat probes share the write
    // half; the mutex is uncontended except while a probe is in flight.
    let writer = Mutex::new(writer);
    thread::scope(|scope| -> io::Result<Vec<QloveAnswer>> {
        let feeder = scope.spawn(|| -> io::Result<()> {
            for chunk in values.chunks(BATCH) {
                let mut writer = writer.lock().expect("writer lock poisoned");
                writer.write_frame(&Frame::EventBatch {
                    session: SESSION,
                    values: chunk.to_vec(),
                })?;
            }
            let mut writer = writer.lock().expect("writer lock poisoned");
            writer.write_frame(&Frame::Shutdown)?;
            writer.flush()?;
            Ok(())
        });
        let mut answers = Vec::new();
        let mut probed = false;
        let collected = loop {
            match reader.read_frame() {
                Ok(Frame::Answer {
                    session: SESSION,
                    boundary,
                    answer,
                }) => {
                    probed = false;
                    if boundary != answers.len() as u64 {
                        break Err(protocol(format!(
                            "answer {boundary} out of order (expected {})",
                            answers.len()
                        )));
                    }
                    answers.push(answer);
                }
                Ok(Frame::Heartbeat { .. }) => probed = false,
                Ok(Frame::Shutdown) => break Ok(()),
                Ok(other) => break Err(protocol(format!("unexpected frame {other:?}"))),
                Err(e) if is_timeout(&e) && !probed => {
                    let mut writer = writer.lock().expect("writer lock poisoned");
                    let sent = writer
                        .write_frame(&Frame::Heartbeat { session: SESSION })
                        .and_then(|()| writer.flush());
                    drop(writer);
                    if let Err(probe_err) = sent {
                        break Err(probe_err);
                    }
                    probed = true;
                }
                Err(e) if is_timeout(&e) => {
                    break Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "remote operator stalled: no answer or heartbeat echo through two read deadlines",
                    ));
                }
                Err(e) => break Err(e),
            }
        };
        if collected.is_err() {
            let _ = breaker.shutdown();
        }
        let fed = join_io(feeder, "feeder");
        collected?;
        fed?;
        Ok(answers)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_io_structures_panic_payloads() {
        // String payloads (the common `panic!("{x}")` case), &'static
        // str payloads, and anything else must all surface as a
        // TransportError naming the thread -- never re-panic.
        let err = thread::scope(|scope| {
            let h = scope.spawn(|| -> io::Result<()> { panic!("{}", "formatted failure") });
            join_io(h, "dealer").unwrap_err()
        });
        let te = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<TransportError>())
            .expect("structured TransportError");
        assert_eq!(te.thread, "dealer");
        assert_eq!(te.panic, "formatted failure");
        assert_eq!(te.to_string(), "dealer thread panicked: formatted failure");

        let err = thread::scope(|scope| {
            let h = scope.spawn(|| -> io::Result<()> { panic!("static failure") });
            join_io(h, "feeder").unwrap_err()
        });
        let te = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<TransportError>())
            .expect("structured TransportError");
        assert_eq!(te.thread, "feeder");
        assert_eq!(te.panic, "static failure");

        let err = thread::scope(|scope| {
            let h = scope.spawn(|| -> io::Result<()> { std::panic::panic_any(42u32) });
            join_io(h, "merger").unwrap_err()
        });
        let te = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<TransportError>())
            .expect("structured TransportError");
        assert_eq!(te.panic, "opaque panic payload");
    }

    #[test]
    fn join_io_passes_results_through() {
        let ok = thread::scope(|scope| {
            let h = scope.spawn(|| -> io::Result<u64> { Ok(7) });
            join_io(h, "dealer")
        });
        assert_eq!(ok.unwrap(), 7);
        let err = thread::scope(|scope| {
            let h = scope.spawn(|| -> io::Result<u64> { Err(io::Error::other("boom")) });
            join_io(h, "dealer").unwrap_err()
        });
        assert_eq!(err.to_string(), "boom");
    }

    #[test]
    fn disabled_policy_is_the_default_and_inert() {
        let policy = RecoveryPolicy::default();
        assert_eq!(policy.max_restarts, 0);
        assert_eq!(policy.heartbeat, None);
        assert!(!policy.enabled());
        assert!(RecoveryPolicy::supervised().enabled());
    }

    #[test]
    fn backoff_jitter_is_deterministic_bounded_and_spreads_shards() {
        let base = Duration::from_millis(50);

        // jitter == 0: the schedule is exactly the flat backoff.
        let mut flat = RecoveryPolicy::supervised();
        flat.backoff = base;
        flat.jitter = 0;
        for key in 0..4 {
            for attempt in 1..4 {
                assert_eq!(flat.backoff_for(key, attempt), base);
            }
        }

        let mut jittered = RecoveryPolicy::supervised();
        jittered.backoff = base;
        jittered.jitter = 0xDEAD_BEEF;

        // Deterministic: the same (seed, key, attempt) always yields
        // the same pause — a failing schedule replays from its seed.
        let replay = RecoveryPolicy {
            jitter: 0xDEAD_BEEF,
            ..jittered
        };
        let schedule: Vec<Duration> = (0u64..8)
            .flat_map(|key| (1u32..4).map(move |attempt| (key, attempt)))
            .map(|(key, attempt)| jittered.backoff_for(key, attempt))
            .collect();
        let again: Vec<Duration> = (0u64..8)
            .flat_map(|key| (1u32..4).map(move |attempt| (key, attempt)))
            .map(|(key, attempt)| replay.backoff_for(key, attempt))
            .collect();
        assert_eq!(schedule, again);

        // Bounded: every pause lands in [0.5, 1.5) × backoff.
        for (i, d) in schedule.iter().enumerate() {
            assert!(*d >= base / 2 && *d < base * 3 / 2, "entry {i}: {d:?}");
        }

        // Spread: simultaneous failures of distinct shards must not
        // respawn in lockstep — first-attempt pauses all differ.
        let first: Vec<Duration> = (0u64..8).map(|key| jittered.backoff_for(key, 1)).collect();
        let mut unique = first.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), first.len(), "lockstep respawn: {first:?}");

        // Attempts of the same shard also vary (no fixed per-shard
        // offset that merely shifts the lockstep).
        assert_ne!(jittered.backoff_for(3, 1), jittered.backoff_for(3, 2));

        // A different seed is a different schedule.
        let mut other = jittered;
        other.jitter = 0xFEED_FACE;
        assert_ne!(
            (0u64..8)
                .map(|k| other.backoff_for(k, 1))
                .collect::<Vec<_>>(),
            first
        );

        // Zero backoff stays zero regardless of jitter.
        let mut zero = jittered;
        zero.backoff = Duration::ZERO;
        assert_eq!(zero.backoff_for(0, 1), Duration::ZERO);
    }
}
