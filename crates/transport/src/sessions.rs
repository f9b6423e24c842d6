//! The multiplexed client: drive many independent sessions — distinct
//! configs, backends, and modes — over **one** worker connection.
//!
//! Where [`crate::run_supervised`] answers one logical window by
//! dealing it across many worker processes (one session per
//! connection), this module is the transpose: one worker process hosts
//! many whole windows, each an independent [`SessionSpec`] with its own
//! stream. The dealer thread interleaves the sessions' frames
//! round-robin (one unit — a batch, boundary, or close — per session
//! per round) so no stream monopolizes the socket, and the collector
//! demultiplexes responses by the session ID every frame carries.
//!
//! ## Per-session recovery
//!
//! [`run_sessions_supervised`] retains every dealt frame in a
//! per-session replay ring, pruned at each acknowledged boundary. When
//! the worker process dies (crash or stall, detected exactly as in the
//! supervised coordinator), the replacement connection re-opens **only
//! the sessions that had not finished**, restores each to *its own*
//! acknowledged boundary with a session-scoped [`Frame::Restore`], and
//! replays each session's ring — sessions whose `CloseSession` was
//! already acknowledged are not reopened, and the recovered answers
//! stay bit-identical per session. Because recovery is replay-based it
//! requires every session to be in shard mode: a remote full operator's
//! state cannot be rebuilt (see [`crate::run_remote_operator`]), so a
//! supervised mixed-mode run is rejected up front.

use crate::coordinator::{
    drive_restarts, failures_view, hello_handshake, is_timeout, join_io, protocol, FailureEvent,
    FailureKind, RecoveryPolicy, WorkerStats, MAX_RING_BOUNDARIES,
};
use crate::net::Conn;
use crate::proto::{Frame, FrameReader, FrameWriter, WorkerMode};
use qlove_core::{Qlove, QloveAnswer, QloveConfig, QloveSummary};
use qlove_stream::parallel::BATCH;
use qlove_telemetry::{EventJournal, EventKind, Stopwatch};
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::sync::{Condvar, Mutex};
use std::thread;

/// One session to run on the shared connection.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The session's operator configuration (window schedule, backend,
    /// quantization — fully independent of its neighbors).
    pub config: QloveConfig,
    /// Shard (coordinator-side merge, recoverable) or operator (remote
    /// full window, answers streamed back).
    pub mode: WorkerMode,
    /// The session's whole input stream.
    pub values: Vec<u64>,
}

/// What one session produced.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The mode the session ran in.
    pub mode: WorkerMode,
    /// The session's window evaluations, bit-identical to a sequential
    /// single-instance run over the same values.
    pub answers: Vec<QloveAnswer>,
    /// Elements of a trailing partial sub-window left pending in the
    /// client-side merge operator (shard mode; always 0 for operator
    /// mode, where the remote operator holds the pending state).
    pub pending: usize,
    /// Boundary summaries merged (shard mode; 0 for operator mode).
    pub boundaries: u64,
}

/// Result of a supervised multi-session run.
#[derive(Debug)]
pub struct SessionsRun {
    /// Per-session outcomes, in `specs` order.
    pub outcomes: Vec<SessionOutcome>,
    /// Worker failures and the per-session recoveries they triggered:
    /// one [`FailureEvent`] per session restored (its `shard` field
    /// carries the session index). A view materialized from
    /// [`SessionsRun::journal`].
    pub failures: Vec<FailureEvent>,
    /// The run's structured event journal.
    pub journal: EventJournal,
    /// Worker-side counters scraped over the wire just before each
    /// session closed, in `specs` order (all-zero when the worker died
    /// before answering a session's scrape).
    pub worker_stats: Vec<WorkerStats>,
}

/// Replay state for one session on the shared connection.
struct MuxSession {
    /// Dealt frames not yet covered by a boundary acknowledgement (or
    /// the close acknowledgement, which clears the ring outright).
    ring: VecDeque<Frame>,
    /// `Boundary` frames currently in the ring — this session's dealer
    /// run-ahead budget.
    ring_boundaries: usize,
    /// Boundaries acknowledged so far (== the boundary a restored
    /// session resumes from).
    acked: u64,
    /// The worker acknowledged this session's `CloseSession`: it is
    /// finished and recovery must not reopen it.
    closed: bool,
}

/// Everything the dealer and collector share about the connection.
struct MuxState {
    sessions: Vec<MuxSession>,
    /// Live write half; `None` while the worker is down (frames keep
    /// ringing and recovery replays them).
    writer: Option<FrameWriter<Conn>>,
    /// The dealer finished and sent (or tried to send) the final
    /// `Shutdown`; recovery must re-send it on the replacement
    /// connection.
    shutdown_sent: bool,
    failed: bool,
}

struct MuxLink {
    /// Retain dealt frames for replay (supervised runs). Immutable, and
    /// deliberately *outside* the mutex: when `false` the collector's
    /// acknowledgements are lock-free no-ops, so the collector can
    /// never stop reading behind a dealer that is blocked in a socket
    /// write while holding the state lock. (Dealer blocked writing →
    /// collector blocked on the lock → collector stops reading → the
    /// worker fills its outbound buffer and stops reading its inbound →
    /// the dealer's write never completes: a three-party deadlock this
    /// layout makes impossible in the unsupervised path.)
    retain: bool,
    state: Mutex<MuxState>,
    cv: Condvar,
}

impl MuxLink {
    fn new(writer: FrameWriter<Conn>, sessions: usize, retain: bool) -> Self {
        Self {
            retain,
            state: Mutex::new(MuxState {
                sessions: (0..sessions)
                    .map(|_| MuxSession {
                        ring: VecDeque::new(),
                        ring_boundaries: 0,
                        acked: 0,
                        closed: false,
                    })
                    .collect(),
                writer: Some(writer),
                shutdown_sent: false,
                failed: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Collector ack: session `s` boundary `b` merged — prune its ring
    /// through the matching `Boundary` frame and wake the dealer.
    fn ack(&self, s: usize, b: u64) {
        if !self.retain {
            // Nothing rung, and an unsupervised dealer never parks on
            // ring backpressure, so there is no one to wake. Skipping
            // the lock keeps the collector reading even while the
            // dealer is mid-write holding it (see `retain` above).
            return;
        }
        let mut st = self.state.lock().expect("mux link poisoned");
        let sess = &mut st.sessions[s];
        sess.acked = b + 1;
        while let Some(frame) = sess.ring.pop_front() {
            if matches!(frame, Frame::Boundary { boundary, .. } if boundary == b) {
                sess.ring_boundaries -= 1;
                break;
            }
        }
        self.cv.notify_all();
    }

    /// Collector: the worker acknowledged session `s`'s close — its
    /// effects are fully durable, drop the replay state for good.
    fn close_acked(&self, s: usize) {
        if !self.retain {
            return; // no ring to drop; `closed` only matters to recovery
        }
        let mut st = self.state.lock().expect("mux link poisoned");
        let sess = &mut st.sessions[s];
        sess.closed = true;
        sess.ring.clear();
        sess.ring_boundaries = 0;
        self.cv.notify_all();
    }

    /// Terminal: wake and stop everyone.
    fn fail(&self) {
        let mut st = self.state.lock().expect("mux link poisoned");
        st.failed = true;
        st.writer = None;
        self.cv.notify_all();
    }
}

/// Ring `frame` for session `s` (when retaining) and push it down the
/// socket; a failed write parks the writer for the collector to
/// notice. Caller holds the state lock.
fn push_frame(st: &mut MuxState, retain: bool, s: usize, frame: Frame) {
    let is_boundary = matches!(frame, Frame::Boundary { .. });
    let flush = is_boundary || matches!(frame, Frame::CloseSession { .. });
    let frame = if retain {
        let sess = &mut st.sessions[s];
        sess.ring.push_back(frame);
        if is_boundary {
            sess.ring_boundaries += 1;
        }
        sess.ring.back().expect("frame was just pushed")
    } else {
        &frame
    };
    if let Some(writer) = st.writer.as_mut() {
        let sent = writer
            .write_frame(frame)
            .and_then(|()| if flush { writer.flush() } else { Ok(()) });
        if sent.is_err() {
            st.writer = None;
        }
    }
}

/// The dealer's per-session position: what to send next. Units come
/// out as batches (never straddling a sub-window boundary in shard
/// mode), then the sub-window's `Boundary`, then — once the stream is
/// exhausted — a single `CloseSession`.
struct DealCursor<'a> {
    session: u64,
    values: &'a [u64],
    period: usize,
    mode: WorkerMode,
    pos: usize,
    sent_boundaries: u64,
    stats_sent: bool,
    close_sent: bool,
}

impl<'a> DealCursor<'a> {
    fn new(session: u64, spec: &'a SessionSpec) -> Self {
        Self {
            session,
            values: &spec.values,
            period: spec.config.period,
            mode: spec.mode,
            pos: 0,
            sent_boundaries: 0,
            stats_sent: false,
            close_sent: false,
        }
    }

    fn done(&self) -> bool {
        self.close_sent
    }

    /// Sub-windows fully dealt so far (the trailing partial counts once
    /// the stream is exhausted — it is shipped and merged, not
    /// dropped).
    fn dealt_windows(&self) -> u64 {
        if self.mode != WorkerMode::Shard {
            return 0;
        }
        if self.pos == self.values.len() {
            self.values.len().div_ceil(self.period) as u64
        } else {
            (self.pos / self.period) as u64
        }
    }

    /// Whether the next unit is a `Boundary` — the only unit subject to
    /// ring backpressure.
    fn boundary_due(&self) -> bool {
        self.sent_boundaries < self.dealt_windows()
    }

    /// Produce the next unit. Must not be called when [`Self::done`].
    fn next_unit(&mut self) -> Frame {
        if self.boundary_due() {
            let boundary = self.sent_boundaries;
            self.sent_boundaries += 1;
            return Frame::Boundary {
                session: self.session,
                boundary,
            };
        }
        let len = self.values.len();
        if self.pos < len {
            let end = match self.mode {
                WorkerMode::Shard => {
                    let window_end = (self.pos / self.period + 1) * self.period;
                    len.min(window_end).min(self.pos + BATCH)
                }
                WorkerMode::Operator => len.min(self.pos + BATCH),
            };
            let values = self.values[self.pos..end].to_vec();
            self.pos = end;
            return Frame::EventBatch {
                session: self.session,
                values,
            };
        }
        // Scrape the session's worker-side counters while it is still
        // live — a closed session is gone from the worker's slab and
        // would only answer zeros. The request rides the replay ring
        // like any other dealt frame, so a recovering worker re-answers
        // it and the collector keeps the latest report.
        if !self.stats_sent {
            self.stats_sent = true;
            return Frame::StatsRequest {
                session: self.session,
            };
        }
        self.close_sent = true;
        Frame::CloseSession {
            session: self.session,
        }
    }
}

/// Deal every session's stream, round-robin (one unit per live session
/// per round), then send the connection `Shutdown`. A session whose
/// ring is at its boundary bound is skipped for the round; when every
/// live session is blocked the dealer waits for a collector ack.
fn deal_all(link: &MuxLink, specs: &[SessionSpec]) -> io::Result<()> {
    let mut cursors: Vec<DealCursor> = specs
        .iter()
        .enumerate()
        .map(|(s, spec)| DealCursor::new(s as u64, spec))
        .collect();
    loop {
        let mut st = link.state.lock().expect("mux link poisoned");
        if st.failed {
            return Err(io::Error::other("multi-session run aborted"));
        }
        let mut progressed = false;
        let mut all_done = true;
        for (s, cursor) in cursors.iter_mut().enumerate() {
            if cursor.done() {
                continue;
            }
            all_done = false;
            if cursor.boundary_due()
                && link.retain
                && st.sessions[s].ring_boundaries >= MAX_RING_BOUNDARIES
            {
                continue; // backpressured: this session sits the round out
            }
            let frame = cursor.next_unit();
            push_frame(&mut st, link.retain, s, frame);
            progressed = true;
        }
        if all_done {
            st.shutdown_sent = true;
            if let Some(writer) = st.writer.as_mut() {
                let sent = writer
                    .write_frame(&Frame::Shutdown)
                    .and_then(|()| writer.flush());
                if sent.is_err() {
                    st.writer = None;
                }
            }
            return Ok(());
        }
        if !progressed {
            // Every live session is waiting on ring space: sleep until
            // an ack (or failure) changes that. The re-check happens
            // at the top of the loop under the same lock, so a wakeup
            // cannot be missed.
            drop(link.cv.wait(st).expect("mux link poisoned"));
        }
    }
}

/// The collector's connection-level view: reader, breaker, recovery
/// bookkeeping.
/// One session brought back by a restart: `(session index, boundary it
/// resumed from, frames replayed)`.
type RestoredSession = (usize, u64, usize);

struct MuxCollector<'a, F> {
    link: &'a MuxLink,
    specs: &'a [SessionSpec],
    policy: &'a RecoveryPolicy,
    reader: FrameReader<BufReader<Conn>>,
    breaker: Conn,
    respawn: F,
    restarts: u32,
    journal: &'a EventJournal,
    worker_stats: Vec<WorkerStats>,
}

impl<F: FnMut() -> io::Result<Conn>> MuxCollector<'_, F> {
    /// Ask the worker for a heartbeat echo (proof its event loop is
    /// alive). Session 0 is named arbitrarily; the worker echoes
    /// regardless of session state.
    fn probe(&self) -> io::Result<()> {
        let mut st = self.link.state.lock().expect("mux link poisoned");
        let st = &mut *st;
        match st.writer.as_mut() {
            Some(writer) => {
                let sent = writer
                    .write_frame(&Frame::Heartbeat { session: 0 })
                    .and_then(|()| writer.flush());
                if sent.is_err() {
                    st.writer = None;
                }
                sent
            }
            None => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "worker link is down",
            )),
        }
    }

    /// Read one frame, probing through read deadlines (same two-silent-
    /// intervals verdict as the supervised coordinator).
    fn read_with_probe(&mut self) -> Result<Frame, (FailureKind, u64, io::Error)> {
        let mut silent_since: Option<Stopwatch> = None;
        let mut probed = false;
        loop {
            match self.reader.read_frame() {
                Ok(Frame::Heartbeat { .. }) => {
                    silent_since = None;
                    probed = false;
                }
                // A stats scrape reply is absorbed here (latest report
                // wins — a replayed scrape after recovery overwrites);
                // it also proves the worker is alive.
                Ok(Frame::StatsReport {
                    session,
                    batches,
                    events,
                    boundaries,
                    responses,
                }) => {
                    if let Some(slot) = usize::try_from(session)
                        .ok()
                        .filter(|&s| s < self.worker_stats.len())
                    {
                        self.worker_stats[slot] = WorkerStats {
                            session,
                            batches,
                            events,
                            boundaries,
                            responses,
                        };
                    }
                    silent_since = None;
                    probed = false;
                }
                Ok(frame) => return Ok(frame),
                Err(e) if is_timeout(&e) => {
                    let since = *silent_since.get_or_insert_with(Stopwatch::start);
                    if probed {
                        return Err((FailureKind::Stall, since.elapsed_us(), e));
                    }
                    if self.probe().is_err() {
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

    /// One restart attempt: respawn a worker process, handshake the new
    /// connection, then re-open **every unfinished session** on it —
    /// each with its own `OpenSession` + session-scoped `Restore` to
    /// its own acknowledged boundary + its own ring replay. Returns
    /// `(restored sessions, restore_us, replay_us)`.
    fn try_restart(&mut self) -> io::Result<(Vec<RestoredSession>, u64, u64)> {
        let restore_start = Stopwatch::start();
        let conn = (self.respawn)()?;
        self.policy.arm(&conn)?;
        let breaker = conn.try_clone()?;
        let (reader, mut writer) = hello_handshake(conn)?;
        let restore_us = restore_start.elapsed_us();
        let replay_start = Stopwatch::start();
        let mut st = self.link.state.lock().expect("mux link poisoned");
        let st = &mut *st;
        let mut restored = Vec::new();
        for (s, sess) in st.sessions.iter().enumerate() {
            if sess.closed {
                continue;
            }
            writer.write_frame(&Frame::OpenSession {
                session: s as u64,
                config: self.specs[s].config.clone(),
                mode: WorkerMode::Shard,
            })?;
            writer.write_frame(&Frame::Restore {
                session: s as u64,
                boundary: sess.acked,
                checkpoint: QloveSummary::default(),
            })?;
            for frame in &sess.ring {
                writer.write_frame(frame)?;
            }
            restored.push((s, sess.acked, sess.ring.len()));
        }
        if st.shutdown_sent {
            writer.write_frame(&Frame::Shutdown)?;
        }
        writer.flush()?;
        st.writer = Some(writer);
        self.link.cv.notify_all();
        let replay_us = replay_start.elapsed_us();
        self.reader = reader;
        self.breaker = breaker;
        Ok((restored, restore_us, replay_us))
    }

    /// Drive recovery of the whole connection to completion or declare
    /// the run dead. Every unfinished session is restored individually;
    /// one [`EventKind::Recovery`] record is journaled per restored
    /// session (surfacing as one [`FailureEvent`] each in the view).
    fn recover(&mut self, kind: FailureKind, detect_us: u64, cause: io::Error) -> io::Result<()> {
        // Sever the old socket first: a stalled worker that wakes up
        // later must find its stream dead, never the recovered one.
        let _ = self.breaker.shutdown();
        if !self.policy.enabled() {
            return Err(cause);
        }
        let stall = kind == FailureKind::Stall;
        let lowest_acked = {
            let st = self.link.state.lock().expect("mux link poisoned");
            st.sessions
                .iter()
                .filter(|s| !s.closed)
                .map(|s| s.acked)
                .min()
                .unwrap_or(0)
        };
        self.journal.emit(EventKind::Failure {
            // The whole connection is one failure domain (every session
            // shares the socket): domain 0, at the least-restored
            // unfinished session's boundary.
            domain: 0,
            boundary: lowest_acked,
            stall,
            detect_us,
        });
        let policy = self.policy;
        let (restarts, outcome) = drive_restarts(policy, 0, self.restarts, || self.try_restart());
        self.restarts = restarts;
        match outcome {
            Some((restored, restore_us, replay_us)) => {
                for (s, boundary, replayed) in restored {
                    self.journal.emit(EventKind::Recovery {
                        domain: s,
                        boundary,
                        stall,
                        restarts,
                        detect_us,
                        restore_us,
                        replay_us,
                        replayed_frames: replayed,
                        recovered: true,
                    });
                }
                Ok(())
            }
            None => {
                self.journal.emit(EventKind::Recovery {
                    domain: 0,
                    boundary: 0,
                    stall,
                    restarts,
                    detect_us,
                    restore_us: 0,
                    replay_us: 0,
                    replayed_frames: 0,
                    recovered: false,
                });
                Err(cause)
            }
        }
    }

    fn fail_all(&mut self) {
        let _ = self.breaker.shutdown();
        self.link.fail();
    }
}

/// Run every `spec` to completion over the single established
/// connection `conn`, with no supervision: any worker failure ends the
/// run with an error. Sessions may freely mix shard/operator modes and
/// tree/dense backends.
///
/// Each outcome's answers are **bit-identical** to a sequential
/// single-instance run of the same config over the same values (locked
/// by the multi-session transport differential).
///
/// # Panics
/// Panics when `specs` is empty (same contract as the distributed
/// runtimes).
pub fn run_sessions(conn: Conn, specs: &[SessionSpec]) -> io::Result<Vec<SessionOutcome>> {
    let run = drive_sessions(conn, specs, &RecoveryPolicy::disabled(), || {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "no respawn hook: supervision disabled",
        ))
    })?;
    Ok(run.outcomes)
}

/// [`run_sessions`] with whole-process recovery: when the worker dies,
/// `respawn()` produces a replacement connection and **each unfinished
/// session is individually restored** to its own acknowledged boundary
/// and replayed from its own ring — already-closed sessions are left
/// alone. Requires every spec to be in shard mode ([`WorkerMode::
/// Shard`]): operator sessions hold remote-only state that replay
/// cannot rebuild, so supervising them is rejected with
/// `InvalidInput` (run them unsupervised, or detect-only via
/// [`crate::run_remote_operator`]).
pub fn run_sessions_supervised<F>(
    conn: Conn,
    specs: &[SessionSpec],
    policy: &RecoveryPolicy,
    respawn: F,
) -> io::Result<SessionsRun>
where
    F: FnMut() -> io::Result<Conn>,
{
    if policy.enabled() {
        if let Some(s) = specs.iter().position(|s| s.mode != WorkerMode::Shard) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "session {s} is operator-mode: replay recovery requires shard sessions \
                     (operator state cannot be rebuilt)"
                ),
            ));
        }
    }
    drive_sessions(conn, specs, policy, respawn)
}

fn drive_sessions<F>(
    conn: Conn,
    specs: &[SessionSpec],
    policy: &RecoveryPolicy,
    respawn: F,
) -> io::Result<SessionsRun>
where
    F: FnMut() -> io::Result<Conn>,
{
    let n = specs.len();
    assert!(n > 0, "need at least one session");
    for spec in specs {
        assert!(spec.config.period > 0, "need a positive sub-window period");
    }

    policy.arm(&conn)?;
    let breaker = conn.try_clone()?;
    let (reader, mut writer) = hello_handshake(conn)?;
    for (s, spec) in specs.iter().enumerate() {
        writer.write_frame(&Frame::OpenSession {
            session: s as u64,
            config: spec.config.clone(),
            mode: spec.mode,
        })?;
    }
    writer.flush()?;

    let link = MuxLink::new(writer, n, policy.enabled());
    let journal = EventJournal::new();
    let mut collector = MuxCollector {
        link: &link,
        specs,
        policy,
        reader,
        breaker,
        respawn,
        restarts: 0,
        journal: &journal,
        worker_stats: vec![WorkerStats::default(); n],
    };

    // Client-side merge state per shard session (operator sessions get
    // their answers pre-evaluated by the worker).
    let mut merges: Vec<Option<Qlove>> = specs
        .iter()
        .map(|spec| match spec.mode {
            WorkerMode::Shard => Some(Qlove::new(spec.config.clone())),
            WorkerMode::Operator => None,
        })
        .collect();
    let mut answers: Vec<Vec<QloveAnswer>> = vec![Vec::new(); n];
    let mut merged: Vec<u64> = vec![0; n];
    let mut closed: Vec<bool> = vec![false; n];

    let (outcomes, worker_stats) = thread::scope(|scope| -> io::Result<_> {
        let link_ref = &link;
        let dealer = scope.spawn(move || deal_all(link_ref, specs));

        let mut open = n;
        let collected = loop {
            let frame = match collector.read_with_probe() {
                Ok(frame) => frame,
                Err((kind, detect_us, cause)) => match collector.recover(kind, detect_us, cause) {
                    Ok(()) => continue,
                    Err(e) => break Err(e),
                },
            };
            let session_index = |session: u64| -> io::Result<usize> {
                usize::try_from(session)
                    .ok()
                    .filter(|&s| s < n)
                    .ok_or_else(|| protocol(format!("frame for unknown session {session}")))
            };
            match frame {
                Frame::BoundarySummary {
                    session,
                    boundary,
                    epoch: 0,
                    summary,
                } => {
                    let s = match session_index(session) {
                        Ok(s) => s,
                        Err(e) => break Err(e),
                    };
                    let Some(merge) = merges[s].as_mut() else {
                        break Err(protocol(format!(
                            "session {s}: boundary summary from an operator session"
                        )));
                    };
                    if closed[s] || boundary != merged[s] {
                        break Err(protocol(format!(
                            "session {s}: summary for boundary {boundary} out of order \
                             (expected {})",
                            merged[s]
                        )));
                    }
                    let len = specs[s].values.len();
                    let period = specs[s].config.period;
                    let expected = (len - (boundary as usize) * period).min(period) as u64;
                    if summary.total() != expected {
                        break Err(protocol(format!(
                            "session {s} boundary {boundary}: summary covers {} elements, \
                             dealt {expected}",
                            summary.total()
                        )));
                    }
                    if let Some(answer) = merge.merge(&summary) {
                        answers[s].push(answer);
                    }
                    merged[s] += 1;
                    link.ack(s, boundary);
                }
                Frame::Answer {
                    session,
                    boundary,
                    answer,
                } => {
                    let s = match session_index(session) {
                        Ok(s) => s,
                        Err(e) => break Err(e),
                    };
                    if merges[s].is_some() {
                        break Err(protocol(format!(
                            "session {s}: answer frame from a shard session"
                        )));
                    }
                    if closed[s] || boundary != answers[s].len() as u64 {
                        break Err(protocol(format!(
                            "session {s}: answer {boundary} out of order (expected {})",
                            answers[s].len()
                        )));
                    }
                    answers[s].push(answer);
                }
                Frame::CloseSession { session } => {
                    let s = match session_index(session) {
                        Ok(s) => s,
                        Err(e) => break Err(e),
                    };
                    if closed[s] {
                        break Err(protocol(format!("session {s}: duplicate close ack")));
                    }
                    closed[s] = true;
                    open -= 1;
                    link.close_acked(s);
                }
                Frame::Shutdown => {
                    if open > 0 {
                        break Err(protocol(format!(
                            "shutdown ack with {open} sessions still open"
                        )));
                    }
                    break Ok(());
                }
                other => break Err(protocol(format!("unexpected frame {other:?}"))),
            }
        };
        if collected.is_err() {
            collector.fail_all();
        }
        let dealt = join_io(dealer, "dealer");
        collected?;
        dealt?;

        let outcomes = specs
            .iter()
            .enumerate()
            .map(|(s, spec)| SessionOutcome {
                mode: spec.mode,
                answers: std::mem::take(&mut answers[s]),
                pending: merges[s].as_ref().map_or(0, Qlove::pending),
                boundaries: merged[s],
            })
            .collect();
        Ok((outcomes, collector.worker_stats))
    })?;

    Ok(SessionsRun {
        outcomes,
        failures: failures_view(&journal),
        journal,
        worker_stats,
    })
}
