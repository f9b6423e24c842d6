//! The worker runtime: one process (or thread) serving **many
//! independent sessions** over one connection.
//!
//! A worker binds an endpoint, accepts a coordinator connection, and
//! then serves every session the coordinator opens on it — each with
//! its own `OpenSession` config, backend, and mode, multiplexed by the
//! varint session ID every post-handshake frame carries:
//!
//! * **Shard mode** — wraps a [`QloveShard`] (Level-1 accumulation
//!   only). `EventBatch` frames are ingested through the batched path;
//!   every `Boundary` frame snapshots the partial sub-window and ships
//!   it back as a `BoundarySummary` QLVS frame.
//! * **Operator mode** — wraps a full [`Qlove`] operator. `EventBatch`
//!   frames stream through `push_batch_into`; every produced evaluation
//!   is shipped back as an `Answer` frame, bit-identical to a local
//!   run.
//!
//! ## Fairness and backpressure
//!
//! Sessions live in a slab of independent states. Incoming
//! `EventBatch` frames are *queued* per session rather than ingested
//! inline, so a session's `Boundary` (or `CloseSession`) never waits
//! behind another session's backlog: the expensive ingest work is
//! scheduled **round-robin** — one queued batch per session per
//! scheduling slice — whenever the socket is quiet (a short read
//! timeout drives idle slices) and after every dispatched frame.
//! Each queue is bounded at [`MAX_PENDING_BATCHES_PER_SESSION`]
//! batches: a hot session that outruns the scheduler pays its own
//! ingest cost inline instead of ballooning memory or starving its
//! neighbors.
//!
//! A session ends with a `CloseSession` exchange (its slot is freed and
//! immediately reusable); the connection ends with a `Shutdown`
//! exchange that drains every remaining session first. A coordinator
//! that simply disappears (crash, kill) surfaces as an I/O error and
//! the worker still returns promptly — a worker process outlives any
//! one *session*, but never its *connection*, which is what keeps CI
//! free of leaked processes.
//!
//! Protocol violations (frames out of order, unknown session IDs,
//! wrong role, version skew, malformed payloads) are `InvalidData`
//! errors, never panics.

use crate::coordinator::{is_timeout, protocol};
use crate::net::{Conn, Endpoint, Listener};
use crate::proto::{Frame, FrameReader, FrameWriter, Role, WorkerMode, PROTOCOL_VERSION};
use qlove_core::{Qlove, QloveAnswer, QloveConfig, QloveShard};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader};
use std::time::Duration;

/// Bound on each session's queue of not-yet-ingested `EventBatch`
/// frames. When a session is dealt batches faster than the round-robin
/// scheduler drains them, the frames beyond this bound are ingested
/// inline on arrival — per-session backpressure that keeps worker
/// memory bounded without ever blocking the other sessions on the
/// connection.
pub const MAX_PENDING_BATCHES_PER_SESSION: usize = 8;

/// Read deadline armed on the connection while any session has queued
/// input: a quiet socket yields the event loop to the scheduler this
/// often. Disarmed (blocking reads) whenever every queue is empty.
const BUSY_POLL: Duration = Duration::from_millis(1);

/// What one completed session looked like, for logging and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionReport {
    /// The session's wire ID.
    pub session: u64,
    /// Mode the coordinator asked for.
    pub mode: WorkerMode,
    /// Responses actually shipped **by this worker**: boundary
    /// summaries (shard mode) or answers (operator mode). A restored
    /// session counts only what it shipped after the restore, not the
    /// absolute boundary index it resumed from.
    pub responses: u64,
    /// Telemetry values ingested.
    pub events: u64,
    /// `EventBatch` frames ingested.
    pub batches: u64,
    /// When the session was opened, in microseconds on the shared
    /// monotonic telemetry clock ([`qlove_telemetry::now_us`]) — never
    /// wall time, so reports from different threads order consistently.
    pub opened_us: u64,
    /// When this report was cut (session close or connection
    /// shutdown), on the same clock.
    pub closed_us: u64,
}

/// What a completed connection looked like: one report per session, in
/// the order the sessions finished (explicit `CloseSession` first, then
/// any still open at `Shutdown`, in slot order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Per-session accounting.
    pub sessions: Vec<SessionReport>,
}

impl ServeReport {
    /// Sessions served on this connection.
    pub fn sessions_served(&self) -> usize {
        self.sessions.len()
    }

    /// Total responses shipped across all sessions.
    pub fn responses(&self) -> u64 {
        self.sessions.iter().map(|s| s.responses).sum()
    }

    /// Total values ingested across all sessions.
    pub fn events(&self) -> u64 {
        self.sessions.iter().map(|s| s.events).sum()
    }
}

/// The mode-specific half of a session's state.
enum SessionCore {
    Shard {
        shard: QloveShard,
        /// Next boundary index expected from the coordinator (absolute:
        /// a `Restore` fast-forwards it).
        boundaries: u64,
        /// `BoundarySummary` frames actually shipped by this worker —
        /// the number reported, deliberately distinct from
        /// `boundaries` so a restored session does not claim summaries
        /// a previous incarnation shipped.
        shipped: u64,
        /// A `Restore` is legal only before any stream traffic:
        /// recovery sends it immediately after `OpenSession`, and
        /// accepting one mid-stream would let a buggy coordinator
        /// corrupt shard state.
        virgin: bool,
        /// Reshard epoch stamped on every summary this session ships;
        /// 0 until a `Reshard` frame raises it (i.e. always 0 outside
        /// resharded runs).
        epoch: u64,
    },
    Operator {
        op: Box<Qlove>,
        produced: u64,
        scratch: Vec<QloveAnswer>,
    },
}

/// One live session: its operator state plus the queue of dealt
/// batches the scheduler has not ingested yet.
struct Session {
    id: u64,
    core: SessionCore,
    events: u64,
    /// `EventBatch` frames ingested (the scrapeable twin of `events`).
    batches: u64,
    /// Open timestamp on the shared monotonic telemetry clock.
    opened_us: u64,
    pending: VecDeque<Vec<u64>>,
}

impl Session {
    fn new(id: u64, config: &QloveConfig, mode: WorkerMode) -> Self {
        let core = match mode {
            WorkerMode::Shard => SessionCore::Shard {
                shard: QloveShard::new(config),
                boundaries: 0,
                shipped: 0,
                virgin: true,
                epoch: 0,
            },
            WorkerMode::Operator => SessionCore::Operator {
                op: Box::new(Qlove::new(config.clone())),
                produced: 0,
                scratch: Vec::new(),
            },
        };
        Self {
            id,
            core,
            events: 0,
            batches: 0,
            opened_us: qlove_telemetry::now_us(),
            pending: VecDeque::new(),
        }
    }

    fn mode(&self) -> WorkerMode {
        match self.core {
            SessionCore::Shard { .. } => WorkerMode::Shard,
            SessionCore::Operator { .. } => WorkerMode::Operator,
        }
    }

    /// Ingest one queued batch (front of the queue), shipping any
    /// answers it produces (operator mode). Returns whether a batch was
    /// ingested.
    fn ingest_one<W: io::Write>(&mut self, writer: &mut FrameWriter<W>) -> io::Result<bool> {
        let Some(values) = self.pending.pop_front() else {
            return Ok(false);
        };
        self.events += values.len() as u64;
        self.batches += 1;
        match &mut self.core {
            SessionCore::Shard { shard, .. } => shard.push_batch(&values),
            SessionCore::Operator {
                op,
                produced,
                scratch,
            } => {
                scratch.clear();
                op.push_batch_into(&values, scratch);
                for answer in scratch.iter() {
                    writer.write_frame(&Frame::Answer {
                        session: self.id,
                        boundary: *produced,
                        answer: answer.clone(),
                    })?;
                    *produced += 1;
                }
                if !scratch.is_empty() {
                    writer.flush()?;
                }
            }
        }
        Ok(true)
    }

    /// Ingest everything still queued, in order.
    fn drain<W: io::Write>(&mut self, writer: &mut FrameWriter<W>) -> io::Result<()> {
        while self.ingest_one(writer)? {}
        Ok(())
    }

    fn report(&self) -> SessionReport {
        let responses = match &self.core {
            SessionCore::Shard { shipped, .. } => *shipped,
            SessionCore::Operator { produced, .. } => *produced,
        };
        SessionReport {
            session: self.id,
            mode: self.mode(),
            responses,
            events: self.events,
            batches: self.batches,
            opened_us: self.opened_us,
            closed_us: qlove_telemetry::now_us(),
        }
    }

    /// Point-in-time counters for a [`Frame::StatsRequest`] scrape.
    fn stats_frame(&self) -> Frame {
        let (boundaries, responses) = match &self.core {
            SessionCore::Shard {
                boundaries,
                shipped,
                ..
            } => (*boundaries, *shipped),
            SessionCore::Operator { produced, .. } => (*produced, *produced),
        };
        Frame::StatsReport {
            session: self.id,
            batches: self.batches,
            events: self.events,
            boundaries,
            responses,
        }
    }
}

/// The slab of live sessions plus the round-robin scheduler cursor.
/// Slots are reused through a free list so long-lived connections
/// churning short-lived sessions stay compact.
struct SessionSlab {
    slots: Vec<Option<Session>>,
    free: Vec<usize>,
    index: HashMap<u64, usize>,
    cursor: usize,
}

impl SessionSlab {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            cursor: 0,
        }
    }

    fn open(&mut self, session: Session) -> io::Result<()> {
        if self.index.contains_key(&session.id) {
            return Err(protocol(format!("session {} is already open", session.id)));
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(session);
                slot
            }
            None => {
                self.slots.push(Some(session));
                self.slots.len() - 1
            }
        };
        let id = self.slots[slot].as_ref().expect("just inserted").id;
        self.index.insert(id, slot);
        Ok(())
    }

    fn get(&mut self, id: u64, what: &str) -> io::Result<&mut Session> {
        match self.index.get(&id) {
            Some(&slot) => Ok(self.slots[slot].as_mut().expect("indexed slot is live")),
            None => Err(protocol(format!("{what} for unknown session {id}"))),
        }
    }

    /// Non-erroring lookup, for frames (stats scrape) that answer even
    /// when the session is unknown.
    fn peek(&self, id: u64) -> Option<&Session> {
        self.index
            .get(&id)
            .map(|&slot| self.slots[slot].as_ref().expect("indexed slot is live"))
    }

    fn close(&mut self, id: u64) -> io::Result<Session> {
        let slot = self
            .index
            .remove(&id)
            .ok_or_else(|| protocol(format!("close for unknown session {id}")))?;
        self.free.push(slot);
        Ok(self.slots[slot].take().expect("indexed slot is live"))
    }

    /// Whether any session has queued input for the scheduler.
    fn has_pending(&self) -> bool {
        self.slots.iter().flatten().any(|s| !s.pending.is_empty())
    }

    /// One scheduling slice: give every live session one queued batch
    /// of ingest, starting after wherever the last slice stopped
    /// (round-robin, so a slice's worth of progress is spread evenly).
    fn slice_all<W: io::Write>(&mut self, writer: &mut FrameWriter<W>) -> io::Result<()> {
        let n = self.slots.len();
        for step in 0..n {
            let slot = (self.cursor + step) % n;
            if let Some(session) = self.slots[slot].as_mut() {
                session.ingest_one(writer)?;
            }
        }
        self.cursor = if n == 0 { 0 } else { (self.cursor + 1) % n };
        Ok(())
    }

    /// A minimal slice: advance the cursor to the next session with
    /// queued input and ingest one batch from it. Called after every
    /// dispatched frame so ingest keeps pace with a busy socket.
    fn slice_one<W: io::Write>(&mut self, writer: &mut FrameWriter<W>) -> io::Result<()> {
        let n = self.slots.len();
        for step in 0..n {
            let slot = (self.cursor + step) % n;
            if let Some(session) = self.slots[slot].as_mut() {
                if session.ingest_one(writer)? {
                    self.cursor = (slot + 1) % n;
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Drain every live session's queue (connection shutdown).
    fn drain_all<W: io::Write>(&mut self, writer: &mut FrameWriter<W>) -> io::Result<()> {
        for session in self.slots.iter_mut().flatten() {
            session.drain(writer)?;
        }
        Ok(())
    }

    /// Reports for every session still open, in slot order.
    fn reports(&self) -> Vec<SessionReport> {
        self.slots.iter().flatten().map(Session::report).collect()
    }
}

/// Serve one full connection — every session the coordinator opens on
/// it — until the coordinator shuts the connection down (or errors
/// out).
pub fn serve_stream(conn: Conn) -> io::Result<ServeReport> {
    // The third handle exists to flip the read deadline that drives
    // idle scheduler slices; socket options are shared across clones.
    let ctrl = conn.try_clone()?;
    let read_half = conn.try_clone()?;
    let mut reader = FrameReader::new(BufReader::new(read_half));
    let mut writer = FrameWriter::new(conn);

    // Handshake: coordinator hello in, worker hello out.
    match reader.read_frame()? {
        Frame::Hello {
            version: PROTOCOL_VERSION,
            role: Role::Coordinator,
        } => {}
        Frame::Hello { version, .. } if version != PROTOCOL_VERSION => {
            return Err(protocol(format!(
                "coordinator speaks protocol v{version}, worker speaks v{PROTOCOL_VERSION}"
            )));
        }
        other => {
            return Err(protocol(format!(
                "expected coordinator hello, got {other:?}"
            )))
        }
    }
    writer.write_frame(&Frame::Hello {
        version: PROTOCOL_VERSION,
        role: Role::Worker,
    })?;
    writer.flush()?;

    let mut slab = SessionSlab::new();
    let mut finished: Vec<SessionReport> = Vec::new();
    let mut armed = false;
    loop {
        // Arm a short read deadline only while the scheduler has work;
        // otherwise block (no idle spinning between streams).
        let want_armed = slab.has_pending();
        if want_armed != armed {
            ctrl.set_read_timeout(if want_armed { Some(BUSY_POLL) } else { None })?;
            armed = want_armed;
        }
        let frame = match reader.try_read_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "coordinator closed the connection mid-stream",
                ))
            }
            Err(e) if is_timeout(&e) => {
                slab.slice_all(&mut writer)?;
                continue;
            }
            Err(e) => return Err(e),
        };
        match frame {
            Frame::OpenSession {
                session,
                config,
                mode,
            } => {
                // The decoder has already validated the config, so
                // constructing the operator cannot panic.
                slab.open(Session::new(session, &config, mode))?;
            }
            Frame::EventBatch { session, values } => {
                let s = slab.get(session, "event batch")?;
                if let SessionCore::Shard { virgin, .. } = &mut s.core {
                    *virgin = false;
                }
                s.pending.push_back(values);
                // Per-session backpressure: beyond the bound, the hot
                // session pays its own ingest inline.
                while s.pending.len() > MAX_PENDING_BATCHES_PER_SESSION {
                    s.ingest_one(&mut writer)?;
                }
            }
            Frame::Boundary { session, boundary } => {
                let s = slab.get(session, "boundary")?;
                s.drain(&mut writer)?;
                match &mut s.core {
                    SessionCore::Shard {
                        shard,
                        boundaries,
                        shipped,
                        virgin,
                        epoch,
                    } => {
                        *virgin = false;
                        if boundary != *boundaries {
                            return Err(protocol(format!(
                                "session {session}: boundary {boundary} out of order \
                                 (expected {boundaries})"
                            )));
                        }
                        writer.write_frame(&Frame::BoundarySummary {
                            session,
                            boundary,
                            epoch: *epoch,
                            summary: shard.take_summary(),
                        })?;
                        writer.flush()?;
                        *boundaries += 1;
                        *shipped += 1;
                    }
                    SessionCore::Operator { .. } => {
                        return Err(protocol(format!(
                            "session {session}: boundary frame in operator mode"
                        )))
                    }
                }
            }
            Frame::Heartbeat { session } => {
                // Echo immediately, even for a session this worker does
                // not know: the probe asks "is your event loop alive",
                // and recovery may probe before reopening sessions.
                writer.write_frame(&Frame::Heartbeat { session })?;
                writer.flush()?;
            }
            Frame::StatsRequest { session } => {
                // Same echo-regardless contract as Heartbeat: a scrape
                // for a session that already closed (or never opened on
                // this incarnation) answers with zero counters instead
                // of erroring, so stats collection can never kill a
                // healthy connection.
                let report = match slab.peek(session) {
                    Some(s) => s.stats_frame(),
                    None => Frame::StatsReport {
                        session,
                        batches: 0,
                        events: 0,
                        boundaries: 0,
                        responses: 0,
                    },
                };
                writer.write_frame(&report)?;
                writer.flush()?;
            }
            Frame::Restore {
                session,
                boundary,
                checkpoint,
            } => {
                let s = slab.get(session, "restore")?;
                match &mut s.core {
                    SessionCore::Shard {
                        shard,
                        boundaries,
                        virgin,
                        ..
                    } => {
                        if !*virgin {
                            return Err(protocol(format!(
                                "session {session}: restore to boundary {boundary} \
                                 after session traffic"
                            )));
                        }
                        *virgin = false;
                        *boundaries = boundary;
                        shard.restore(&checkpoint);
                    }
                    SessionCore::Operator { .. } => {
                        return Err(protocol(format!(
                            "session {session}: restore in operator mode \
                             (operator state is not replayable)"
                        )))
                    }
                }
            }
            Frame::CloseSession { session } => {
                {
                    let s = slab.get(session, "close")?;
                    s.drain(&mut writer)?;
                }
                let closed = slab.close(session)?;
                finished.push(closed.report());
                writer.write_frame(&Frame::CloseSession { session })?;
                writer.flush()?;
            }
            Frame::Reshard {
                session,
                boundary,
                epoch,
            } => {
                let s = slab.get(session, "reshard")?;
                match &mut s.core {
                    SessionCore::Shard {
                        boundaries,
                        virgin,
                        epoch: current,
                        ..
                    } => {
                        // The stamp takes effect at the next summary,
                        // so it must sit exactly between two
                        // sub-windows of the session's stream (the
                        // dealer emits it right after a Boundary, and
                        // recovery right after the Restore).
                        if boundary != *boundaries {
                            return Err(protocol(format!(
                                "session {session}: reshard at boundary {boundary} \
                                 out of order (expected {boundaries})"
                            )));
                        }
                        if epoch < *current {
                            return Err(protocol(format!(
                                "session {session}: reshard epoch regressed \
                                 ({epoch} after {current})"
                            )));
                        }
                        *virgin = false;
                        *current = epoch;
                    }
                    SessionCore::Operator { .. } => {
                        return Err(protocol(format!(
                            "session {session}: reshard in operator mode"
                        )))
                    }
                }
            }
            Frame::Shutdown => {
                slab.drain_all(&mut writer)?;
                finished.extend(slab.reports());
                writer.write_frame(&Frame::Shutdown)?;
                writer.flush()?;
                return Ok(ServeReport { sessions: finished });
            }
            other @ (Frame::Hello { .. }
            | Frame::BoundarySummary { .. }
            | Frame::Answer { .. }
            | Frame::StatsReport { .. }) => {
                return Err(protocol(format!(
                    "unexpected frame from coordinator: {other:?}"
                )))
            }
        }
        // Fairness between frames: one queued batch of ingest for the
        // next session in round-robin order, so a busy socket (which
        // starves the idle-timeout slices) still makes even progress.
        slab.slice_one(&mut writer)?;
    }
}

/// A bound worker endpoint, ready to serve connections.
#[derive(Debug)]
pub struct WorkerServer {
    listener: Listener,
}

impl WorkerServer {
    /// Bind `endpoint` (TCP port 0 picks a free port).
    pub fn bind(endpoint: &Endpoint) -> io::Result<Self> {
        Ok(Self {
            listener: Listener::bind(endpoint)?,
        })
    }

    /// The endpoint actually bound — announce this to coordinators.
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        self.listener.local_endpoint()
    }

    /// Accept one coordinator connection and serve every session on it
    /// to completion.
    pub fn serve_one(&self) -> io::Result<ServeReport> {
        serve_stream(self.listener.accept()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(id: u64) -> Session {
        Session::new(id, &QloveConfig::new(&[0.5], 100, 10), WorkerMode::Shard)
    }

    #[test]
    fn slab_reuses_slots_and_rejects_duplicates() {
        let mut slab = SessionSlab::new();
        slab.open(dummy(1)).unwrap();
        slab.open(dummy(2)).unwrap();
        slab.open(dummy(3)).unwrap();
        assert_eq!(slab.slots.len(), 3);
        assert!(slab.open(dummy(2)).is_err(), "duplicate id");
        slab.close(2).unwrap();
        assert!(slab.get(2, "x").is_err(), "closed session is gone");
        // Reopening (even the same wire id) reuses the freed slot.
        slab.open(dummy(9)).unwrap();
        assert_eq!(slab.slots.len(), 3, "slot was reused, not appended");
        assert!(slab.close(9).is_ok());
        assert!(slab.close(9).is_err(), "double close");
    }

    #[test]
    fn slab_round_robin_spreads_ingest() {
        // Three sessions with queued batches: repeated slice_one calls
        // must rotate through them instead of draining one first.
        let mut slab = SessionSlab::new();
        for id in 0..3u64 {
            slab.open(dummy(id)).unwrap();
            let s = slab.get(id, "t").unwrap();
            for _ in 0..2 {
                s.pending.push_back(vec![id, id + 10]);
            }
        }
        let mut sink = FrameWriter::new(Vec::new());
        let mut order = Vec::new();
        for _ in 0..6 {
            // Find who the cursor will pick by comparing queue lengths
            // before and after.
            let before: Vec<usize> = (0..3u64)
                .map(|id| slab.get(id, "t").unwrap().pending.len())
                .collect();
            slab.slice_one(&mut sink).unwrap();
            for id in 0..3u64 {
                if slab.get(id, "t").unwrap().pending.len() < before[id as usize] {
                    order.push(id);
                }
            }
        }
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2], "round-robin rotation");
        assert!(!slab.has_pending(), "all queues drained");
    }

    #[test]
    fn slab_slice_skips_empty_queues() {
        let mut slab = SessionSlab::new();
        slab.open(dummy(0)).unwrap();
        slab.open(dummy(1)).unwrap();
        slab.get(1, "t").unwrap().pending.push_back(vec![7]);
        let mut sink = FrameWriter::new(Vec::new());
        slab.slice_one(&mut sink).unwrap();
        assert!(!slab.has_pending(), "slice found the non-empty queue");
        // Empty slab: slices are no-ops, not panics.
        let mut empty = SessionSlab::new();
        empty.slice_one(&mut sink).unwrap();
        empty.slice_all(&mut sink).unwrap();
        assert!(!empty.has_pending());
    }

    #[test]
    fn restored_session_reports_only_shipped_responses() {
        // The satellite bugfix: a session restored to boundary 5 that
        // then ships 2 summaries must report responses == 2, not 7.
        let mut session = dummy(0);
        let mut sink = FrameWriter::new(Vec::new());
        match &mut session.core {
            SessionCore::Shard {
                boundaries, virgin, ..
            } => {
                *virgin = false;
                *boundaries = 5;
            }
            SessionCore::Operator { .. } => unreachable!(),
        }
        session.pending.push_back(vec![1, 2, 3]);
        session.drain(&mut sink).unwrap();
        match &mut session.core {
            SessionCore::Shard {
                boundaries,
                shipped,
                ..
            } => {
                *boundaries += 2;
                *shipped += 2;
            }
            SessionCore::Operator { .. } => unreachable!(),
        }
        let report = session.report();
        assert_eq!(report.responses, 2, "shipped, not absolute boundary index");
        assert_eq!(report.events, 3);
    }
}
