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
//! The connection itself — write half, replay rings, heartbeat probe,
//! restart — is the link (`link.rs`) the one-window driver in
//! [`crate::reshard`] deals through as well; this module keeps the
//! round-robin dealer, the demultiplexing collector and its journal
//! records.
//!
//! ## Per-session recovery
//!
//! [`run_sessions_supervised`] retains every dealt frame in a
//! per-session replay ring, pruned at each acknowledged boundary. When
//! the worker process dies (crash or stall, detected exactly as in the
//! one-window driver), the replacement connection re-opens **only
//! the sessions that had not finished**, restores each to *its own*
//! acknowledged boundary with a session-scoped [`Frame::Restore`], and
//! replays each session's ring — sessions whose `CloseSession` was
//! already acknowledged are not reopened, and the recovered answers
//! stay bit-identical per session. Because recovery is replay-based it
//! requires every session to be in shard mode: a remote full operator's
//! state cannot be rebuilt (see [`crate::run_remote_operator`]), so a
//! supervised mixed-mode run is rejected up front.

use crate::coordinator::{
    drive_restarts, failures_view, join_io, protocol, FailureEvent, FailureKind, RecoveryPolicy,
    WorkerStats,
};
use crate::link::{self, Link, ReadHalf, Verdict};
use crate::net::Conn;
use crate::proto::{Frame, WorkerMode};
use qlove_core::{Qlove, QloveAnswer, QloveConfig};
use qlove_stream::parallel::BATCH;
use qlove_telemetry::{EventJournal, EventKind};
use std::io;
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
fn deal_all(link: &Link, specs: &[SessionSpec]) -> io::Result<()> {
    let mut cursors: Vec<DealCursor> = specs
        .iter()
        .enumerate()
        .map(|(s, spec)| DealCursor::new(s as u64, spec))
        .collect();
    let mut blocked = Vec::new();
    loop {
        blocked.clear();
        let mut progressed = false;
        let mut all_done = true;
        for cursor in cursors.iter_mut().filter(|c| !c.done()) {
            all_done = false;
            if cursor.boundary_due() && !link.has_room(cursor.session) {
                blocked.push(cursor.session); // backpressured: sits the round out
                continue;
            }
            link.deal(cursor.next_unit())?;
            progressed = true;
        }
        if all_done {
            return link.deal(Frame::Shutdown);
        }
        if !progressed {
            link.wait_for_room(&blocked)?;
        }
    }
}

/// The collector's connection-level view: the read half, and the
/// recovery bookkeeping that turns a failure into journal records.
struct MuxCollector<'a, F> {
    link: &'a Link,
    policy: &'a RecoveryPolicy,
    read: ReadHalf,
    respawn: F,
    restarts: u32,
    journal: &'a EventJournal,
    worker_stats: Vec<WorkerStats>,
}

impl<F: FnMut() -> io::Result<Conn>> MuxCollector<'_, F> {
    /// Drive recovery of the whole connection to completion or declare
    /// the run dead. Every unfinished session is restored individually;
    /// one [`EventKind::Recovery`] record is journaled per restored
    /// session (surfacing as one [`FailureEvent`] each in the view).
    fn recover(&mut self, verdict: Verdict) -> io::Result<()> {
        let (kind, detect_us, cause) = verdict;
        self.read.sever();
        if !self.policy.enabled() {
            return Err(cause);
        }
        let stall = kind == FailureKind::Stall;
        self.journal.emit(EventKind::Failure {
            // The whole connection is one failure domain (every session
            // shares the socket): domain 0, at the least-restored
            // unfinished session's boundary.
            domain: 0,
            boundary: self.link.unfinished_floor(),
            stall,
            detect_us,
        });
        let (link, policy, respawn) = (self.link, self.policy, &mut self.respawn);
        let (restarts, outcome) = drive_restarts(policy, 0, self.restarts, || {
            link::restart(link, policy, &mut *respawn)
        });
        self.restarts = restarts;
        let Some(restart) = outcome else {
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
            return Err(cause);
        };
        for restored in restart.restored {
            self.journal.emit(EventKind::Recovery {
                domain: restored.session as usize,
                boundary: restored.boundary,
                stall,
                restarts,
                detect_us,
                restore_us: restart.restore_us,
                replay_us: restart.replay_us,
                replayed_frames: restored.replayed,
                recovered: true,
            });
        }
        self.read = restart.read;
        Ok(())
    }

    fn fail_all(&mut self) {
        self.read.sever();
        self.link.fail();
    }

    /// Read (recovering as needed) and demultiplex by session ID until
    /// the worker acknowledges the connection's shutdown.
    fn collect(&mut self, specs: &[SessionSpec], sessions: &mut [Collected]) -> io::Result<()> {
        let mut open = sessions.len();
        loop {
            let frame = match self.read.read_with_probe(self.link, &mut self.worker_stats) {
                Ok(frame) => frame,
                Err(verdict) => {
                    self.recover(verdict)?;
                    continue;
                }
            };
            let index = |session: u64| -> io::Result<usize> {
                usize::try_from(session)
                    .ok()
                    .filter(|&s| s < sessions.len())
                    .ok_or_else(|| protocol(format!("frame for unknown session {session}")))
            };
            match frame {
                Frame::BoundarySummary {
                    session,
                    boundary,
                    epoch: 0,
                    summary,
                } => {
                    let s = index(session)?;
                    let st = &mut sessions[s];
                    let Some(merge) = st.merge.as_mut() else {
                        return Err(protocol(format!(
                            "session {s}: boundary summary from an operator session"
                        )));
                    };
                    if st.closed || boundary != st.merged {
                        return Err(protocol(format!(
                            "session {s}: summary for boundary {boundary} out of order \
                             (expected {})",
                            st.merged
                        )));
                    }
                    let len = specs[s].values.len();
                    let period = specs[s].config.period;
                    let dealt = len.div_ceil(period) as u64;
                    if boundary >= dealt {
                        return Err(protocol(format!(
                            "session {s}: summary for boundary {boundary}, \
                             but only {dealt} were dealt"
                        )));
                    }
                    let expected = (len - (boundary as usize) * period).min(period) as u64;
                    if summary.total() != expected {
                        return Err(protocol(format!(
                            "session {s} boundary {boundary}: summary covers {} elements, \
                             dealt {expected}",
                            summary.total()
                        )));
                    }
                    if let Some(answer) = merge.merge(&summary) {
                        st.answers.push(answer);
                    }
                    st.merged += 1;
                    self.link.ack(session, boundary);
                }
                Frame::Answer {
                    session,
                    boundary,
                    answer,
                } => {
                    let s = index(session)?;
                    let st = &mut sessions[s];
                    if st.merge.is_some() {
                        return Err(protocol(format!(
                            "session {s}: answer frame from a shard session"
                        )));
                    }
                    if st.closed || boundary != st.answers.len() as u64 {
                        return Err(protocol(format!(
                            "session {s}: answer {boundary} out of order (expected {})",
                            st.answers.len()
                        )));
                    }
                    st.answers.push(answer);
                }
                Frame::CloseSession { session } => {
                    let s = index(session)?;
                    if sessions[s].closed {
                        return Err(protocol(format!("session {s}: duplicate close ack")));
                    }
                    sessions[s].closed = true;
                    open -= 1;
                    self.link.close_acked(session);
                }
                Frame::Shutdown if open == 0 => return Ok(()),
                Frame::Shutdown => {
                    return Err(protocol(format!(
                        "shutdown ack with {open} sessions still open"
                    )))
                }
                other => return Err(protocol(format!("unexpected frame {other:?}"))),
            }
        }
    }
}

/// What the collector has gathered for one session.
struct Collected {
    /// The client-side merge (shard mode; operator sessions get their
    /// answers pre-evaluated by the worker).
    merge: Option<Qlove>,
    answers: Vec<QloveAnswer>,
    /// Boundary summaries merged.
    merged: u64,
    /// The worker acknowledged the session's close.
    closed: bool,
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
    let run = drive_sessions(conn, specs, &RecoveryPolicy::disabled(), no_respawn)?;
    Ok(run.outcomes)
}

/// The respawn hook of a run whose policy never restarts the worker.
pub(crate) fn no_respawn() -> io::Result<Conn> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "no respawn hook: supervision disabled",
    ))
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

    let (read, writer) = link::open(conn, policy)?;
    let link = Link::new(policy.enabled());
    link.install(writer);
    for (s, spec) in specs.iter().enumerate() {
        link.deal(Frame::OpenSession {
            session: s as u64,
            config: spec.config.clone(),
            mode: spec.mode,
        })?;
    }

    let journal = EventJournal::new();
    let mut collector = MuxCollector {
        link: &link,
        policy,
        read,
        respawn,
        restarts: 0,
        journal: &journal,
        worker_stats: vec![WorkerStats::default(); n],
    };

    let mut sessions: Vec<Collected> = specs
        .iter()
        .map(|spec| Collected {
            merge: (spec.mode == WorkerMode::Shard).then(|| Qlove::new(spec.config.clone())),
            answers: Vec::new(),
            merged: 0,
            closed: false,
        })
        .collect();

    let (outcomes, worker_stats) = thread::scope(|scope| -> io::Result<_> {
        let dealer = scope.spawn(|| deal_all(&link, specs));
        let collected = collector.collect(specs, &mut sessions);
        if collected.is_err() {
            collector.fail_all();
        }
        let dealt = join_io(dealer, "dealer");
        collected?;
        dealt?;

        let outcomes = specs
            .iter()
            .zip(sessions)
            .map(|(spec, session)| SessionOutcome {
                mode: spec.mode,
                pending: session.merge.as_ref().map_or(0, Qlove::pending),
                answers: session.answers,
                boundaries: session.merged,
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
