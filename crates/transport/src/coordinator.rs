//! The coordinator side of a multi-process distributed run: deal the
//! stream to worker processes over sockets, collect per-boundary QLVS
//! summaries, and merge them through the shared double-buffered
//! pipeline — so merging boundary *b* overlaps the workers ingesting
//! toward boundary *b+1*.
//!
//! This module holds the entry points and the pieces every transport
//! path shares (recovery policy, failure records, handshake, restart
//! loop, per-shard metrics). The one-window driver itself — dealer and
//! collector — lives in [`crate::reshard`], on the connection link
//! (`link.rs`) it shares with [`crate::sessions`]: [`run_over_sockets`]
//! and [`run_supervised`] are resharded runs with an empty schedule.
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
//! bounded end to end. Without supervision the collector never takes a
//! lock the dealer can hold across a socket write, so a worker whose
//! summaries outgrow the socket buffer cannot deadlock the run.
//!
//! # Fault tolerance
//!
//! [`run_supervised`] adds exact-replay worker recovery on top of the
//! same pipeline. Every frame dealt to a session is retained in its
//! bounded **replay ring** ([`MAX_RING_BOUNDARIES`] sub-windows deep)
//! and pruned as soon as the collector merges the matching
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
use crate::reshard::ReshardEvent;
use crate::sessions::{no_respawn, run_sessions_supervised, SessionSpec};
use qlove_core::{Qlove, QloveAnswer, QloveConfig};
use qlove_stream::PipelineStats;
use qlove_telemetry::metrics::labeled;
use qlove_telemetry::{Counter, EventJournal, EventKind, Gauge, Stopwatch};
use std::fmt;
use std::io::{self, BufReader};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// How many dealt-but-unacknowledged sub-windows the replay ring holds
/// per session (one session per shard in a window run) before the
/// dealer waits for the collector to catch up.
///
/// This bounds both recovery replay volume and coordinator memory: at
/// most this many boundaries' worth of `EventBatch` frames are retained
/// per session at any moment.
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
/// [`Frame::StatsReport`] (the coordinator requests one per session just
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

/// Result of a socket-distributed run, fixed-shard or resharded.
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
    /// failures into errors instead). `shard` on each event is the
    /// connection index (= the shard index unless the run resharded).
    /// A *view* materialized from [`DistributedRun::journal`]; kept as
    /// a field for compatibility.
    pub failures: Vec<FailureEvent>,
    /// The reshards actually executed, in boundary order (always empty
    /// for a fixed-shard run). A view materialized from
    /// [`DistributedRun::journal`].
    pub events: Vec<ReshardEvent>,
    /// The run's structured event journal: every failure, recovery,
    /// reshard, and pause record on one monotonic clock.
    pub journal: EventJournal,
    /// Worker-side counters scraped over the wire at shutdown, one per
    /// session live at the end of the run, in slot order — one per
    /// shard for a fixed-shard run (all-zero when a worker died before
    /// answering its scrape).
    pub worker_stats: Vec<WorkerStats>,
}

/// A protocol violation by the peer: always `InvalidData`.
pub(crate) fn protocol(msg: impl Into<String>) -> io::Error {
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
/// A fixed-shard run is a [`run_resharded`](crate::run_resharded) run
/// with an empty schedule, on the same driver. Dealing replicates the
/// in-process executor exactly — element `i` of the logical stream
/// goes to shard `i % shards`, batches never straddle a sub-window
/// boundary — so the merged answers (and the coordinator's trailing
/// partial sub-window) are **bit-identical** to a single-instance run
/// and to the thread-backend `run_distributed`. A trailing partial
/// sub-window is shipped and merged too, leaving it pending in
/// `coordinator` rather than dropped.
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
    // An empty schedule never brings up a fresh worker, and the span
    // steers only range routing, which an empty schedule does not use.
    crate::reshard::drive(
        config,
        coordinator,
        conns,
        values,
        u64::MAX,
        &[],
        policy,
        respawn,
        |conn| {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("connection {conn}: a fixed-shard run opens no fresh workers"),
            ))
        },
    )
}

/// Stream `values` to a single remote **full operator** and collect its
/// evaluations — the offload deployment where the ingest process keeps
/// no operator state at all.
///
/// Answers come back as [`Frame::Answer`] frames and are returned in
/// evaluation order; they are bit-identical to running the operator
/// locally (locked by the transport differential test). The run is a
/// one-session [`crate::run_sessions`] in operator mode, so the write
/// side runs on its own thread and a slow operator can never deadlock
/// the answer stream against the event stream.
///
/// `policy` adds hang *detection*, not recovery. A remote operator
/// holds the full window state, which the ingest side deliberately does
/// not mirror — so a dead operator cannot be rebuilt by replay and
/// recovery is impossible by design. With a heartbeat deadline set, a
/// crashed or frozen operator turns into a prompt
/// `TimedOut`/`BrokenPipe` error instead of blocking the caller
/// forever; [`RecoveryPolicy::disabled`] blocks until the operator
/// answers or its socket dies. `max_restarts`, `backoff`, and the
/// respawn machinery do not apply.
pub fn run_remote_operator(
    config: &QloveConfig,
    conn: Conn,
    values: &[u64],
    policy: &RecoveryPolicy,
) -> io::Result<Vec<QloveAnswer>> {
    // The socket deadlines are the policy's own; the session driver
    // then sees a policy that never restarts, so it retains nothing
    // and accepts the operator session.
    policy.arm(&conn)?;
    let detect_only = RecoveryPolicy {
        max_restarts: 0,
        ..*policy
    };
    let spec = SessionSpec {
        config: config.clone(),
        mode: WorkerMode::Operator,
        values: values.to_vec(),
    };
    let mut run = run_sessions_supervised(conn, &[spec], &detect_only, no_respawn)?;
    Ok(run.outcomes.remove(0).answers)
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
