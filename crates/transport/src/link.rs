//! The connection link both socket drivers deal through, and the
//! collector's end of the same connection.
//!
//! A [`Link`] holds one worker connection's write half and, when the
//! policy can restart workers, one replay state per session on it: the
//! frames dealt and not yet covered by an acknowledged boundary (its
//! ring), the `Boundary` frames in the ring (the dealer's run-ahead
//! budget), the boundary a restore resumes from, the epoch to
//! re-stamp, and whether the worker acknowledged the close. Rings are
//! per session because acknowledgements are: on a connection hosting
//! several sessions, one session's boundary can be acknowledged while
//! frames dealt earlier to another are still owed.
//!
//! [`restart`] brings a replacement connection up and re-opens every
//! unfinished session on it, in session-ID order: `OpenSession`,
//! `Restore`, `Reshard` when the session was stamped, then its ring. A
//! reshard successor has a higher ID than the parent it replaces on a
//! connection, so the window collector gets their summaries in the
//! order it expects them. A dealt `Shutdown` is re-sent last.
//! [`ReadHalf`] is the collector's end: the frame reader with the
//! heartbeat probe, and the breaker that severs the socket.

use crate::coordinator::{
    hello_handshake, is_timeout, FailureKind, RecoveryPolicy, WorkerStats, MAX_RING_BOUNDARIES,
};
use crate::net::Conn;
use crate::proto::{Frame, FrameReader, FrameWriter, WorkerMode};
use qlove_core::{QloveConfig, QloveSummary};
use qlove_telemetry::Stopwatch;
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// A failure verdict: how the connection failed, the silence observed
/// between first suspicion and the verdict (µs), and the error.
pub(crate) type Verdict = (FailureKind, u64, io::Error);

/// Replay state for one session hosted on a link.
struct SessionReplay {
    session: u64,
    config: QloveConfig,
    mode: WorkerMode,
    /// Dealt frames not yet covered by an acknowledged boundary.
    ring: VecDeque<Frame>,
    /// `Boundary` frames currently in the ring.
    boundaries: usize,
    /// Boundaries acknowledged (the boundary a restore resumes from).
    acked: u64,
    /// Epoch stamped by the newest `Reshard` pruned from the ring.
    epoch: u64,
    /// The worker acknowledged the session's close: recovery must not
    /// reopen it.
    closed: bool,
}

/// Everything recovery needs to rebuild the connection's sessions.
#[derive(Default)]
struct Replay {
    /// In ascending session order (sessions open in that order).
    sessions: Vec<SessionReplay>,
    /// A `Shutdown` was dealt.
    shutdown: bool,
}

impl Replay {
    fn find(&mut self, session: u64) -> Option<&mut SessionReplay> {
        let i = self
            .sessions
            .binary_search_by_key(&session, |s| s.session)
            .ok()?;
        Some(&mut self.sessions[i])
    }

    fn has_room(&self, session: u64) -> bool {
        match self.sessions.binary_search_by_key(&session, |s| s.session) {
            Ok(i) => self.sessions[i].boundaries < MAX_RING_BOUNDARIES,
            Err(_) => true,
        }
    }

    /// Retain a dealt frame. Returns the ringed copy to write, or hands
    /// the frame back when it is not ringed: `OpenSession` registers
    /// the session, `Restore` sets where it resumes, `Shutdown` is
    /// remembered — recovery re-sends each of those from this state.
    fn record(&mut self, frame: Frame) -> Result<&Frame, Frame> {
        let session = match &frame {
            Frame::OpenSession {
                session,
                config,
                mode,
            } => {
                debug_assert!(self.sessions.last().is_none_or(|s| s.session < *session));
                self.sessions.push(SessionReplay {
                    session: *session,
                    config: config.clone(),
                    mode: *mode,
                    ring: VecDeque::new(),
                    boundaries: 0,
                    acked: 0,
                    epoch: 0,
                    closed: false,
                });
                return Err(frame);
            }
            Frame::Restore {
                session, boundary, ..
            } => {
                if let Some(s) = self.find(*session) {
                    s.acked = *boundary;
                }
                return Err(frame);
            }
            Frame::Shutdown => {
                self.shutdown = true;
                return Err(frame);
            }
            Frame::EventBatch { session, .. }
            | Frame::Boundary { session, .. }
            | Frame::Reshard { session, .. }
            | Frame::CloseSession { session }
            | Frame::StatsRequest { session } => *session,
            _ => return Err(frame),
        };
        let Some(s) = self.find(session) else {
            return Err(frame);
        };
        s.boundaries += usize::from(matches!(frame, Frame::Boundary { .. }));
        s.ring.push_back(frame);
        Ok(s.ring.back().expect("frame was just pushed"))
    }
}

struct LinkState {
    replay: Replay,
    /// `None` while the connection is down (parked): frames keep
    /// ringing and recovery replays them.
    writer: Option<FrameWriter<Conn>>,
    failed: bool,
}

/// One session brought back by a restart.
pub(crate) struct Restored {
    pub session: u64,
    /// The boundary it resumed from.
    pub boundary: u64,
    /// Frames replayed from its ring.
    pub replayed: usize,
}

/// One worker connection as the dealer and the collector share it.
pub(crate) struct Link {
    /// Whether dealt frames are retained for replay (`false` when the
    /// policy cannot restart workers). Immutable and outside the mutex:
    /// without retention the collector's acks never take the lock, so
    /// it keeps reading while the dealer is blocked in a socket write
    /// holding it — otherwise dealer, collector, and a worker with a
    /// full outbound buffer deadlock.
    retain: bool,
    /// Highest acknowledged boundary + 1 over the link's sessions, for
    /// the journal's failure and recovery records; atomic so the
    /// lock-free ack path keeps it.
    acked: AtomicU64,
    state: Mutex<LinkState>,
    cv: Condvar,
    /// The read half of a connection the dealer brought up mid-run,
    /// until the collector takes it over (`Some(None)`: it failed to
    /// come up). Under its own lock: the collector must never wait on
    /// the state lock, which the dealer holds across socket writes.
    handed: Mutex<Option<Option<ReadHalf>>>,
    handed_cv: Condvar,
}

/// Write `frame`, flushing when asked. A failed write parks the link:
/// the collector notices the dead peer and recovers or ends the run.
fn send(writer: &mut Option<FrameWriter<Conn>>, frame: &Frame, flush: bool) -> io::Result<()> {
    let Some(w) = writer.as_mut() else {
        return Err(io::Error::new(
            io::ErrorKind::BrokenPipe,
            "worker link is down",
        ));
    };
    let sent = w
        .write_frame(frame)
        .and_then(|()| if flush { w.flush() } else { Ok(()) });
    if sent.is_err() {
        *writer = None;
    }
    sent
}

fn aborted() -> io::Error {
    io::Error::other("socket run aborted")
}

impl Link {
    /// A link with no writer yet; see [`Link::install`].
    pub(crate) fn new(retain: bool) -> Self {
        Self {
            retain,
            acked: AtomicU64::new(0),
            state: Mutex::new(LinkState {
                replay: Replay::default(),
                writer: None,
                failed: false,
            }),
            cv: Condvar::new(),
            handed: Mutex::new(None),
            handed_cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LinkState> {
        self.state.lock().expect("link poisoned")
    }

    pub(crate) fn install(&self, writer: FrameWriter<Conn>) {
        self.lock().writer = Some(writer);
    }

    /// Dealer: install a connection brought up mid-run and hand its
    /// read half to the collector — or `None` when it could not be
    /// brought up, which the collector treats as a crash and recovers.
    pub(crate) fn hand_over(&self, opened: Option<(ReadHalf, FrameWriter<Conn>)>) {
        let read = opened.map(|(read, writer)| {
            self.install(writer);
            read
        });
        *self.handed.lock().expect("link poisoned") = Some(read);
        self.handed_cv.notify_all();
    }

    /// Collector: wait (bounded) for the dealer's [`Link::hand_over`].
    pub(crate) fn take_over(&self, deadline: Duration) -> io::Result<Option<ReadHalf>> {
        let handed = self.handed.lock().expect("link poisoned");
        let (mut handed, _) = self
            .handed_cv
            .wait_timeout_while(handed, deadline, |h| h.is_none())
            .expect("link poisoned");
        handed.take().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::TimedOut,
                "the dealer never brought the connection up",
            )
        })
    }

    /// Dealer path: ring the frame (when retaining), then push it down
    /// the socket. Blocks while a `Boundary`'s session already has
    /// [`MAX_RING_BOUNDARIES`] boundaries ringed.
    pub(crate) fn deal(&self, frame: Frame) -> io::Result<()> {
        let mut st = self.lock();
        if let Frame::Boundary { session, .. } = frame {
            while !st.failed && !st.replay.has_room(session) {
                st = self.cv.wait(st).expect("link poisoned");
            }
        }
        if st.failed {
            return Err(aborted());
        }
        let flush = matches!(
            frame,
            Frame::Boundary { .. } | Frame::CloseSession { .. } | Frame::Shutdown
        );
        let st = &mut *st;
        // A failed write parks the link; the collector takes it from there.
        let _parked = match if self.retain {
            st.replay.record(frame)
        } else {
            Err(frame)
        } {
            Ok(ringed) => send(&mut st.writer, ringed, flush),
            Err(frame) => send(&mut st.writer, &frame, flush),
        };
        Ok(())
    }

    /// Whether `session` can take a `Boundary` without waiting.
    pub(crate) fn has_room(&self, session: u64) -> bool {
        !self.retain || self.lock().replay.has_room(session)
    }

    /// Block until one of `sessions` can take a `Boundary`.
    pub(crate) fn wait_for_room(&self, sessions: &[u64]) -> io::Result<()> {
        let mut st = self.lock();
        while !st.failed && !sessions.iter().any(|&s| st.replay.has_room(s)) {
            st = self.cv.wait(st).expect("link poisoned");
        }
        if st.failed {
            return Err(aborted());
        }
        Ok(())
    }

    /// Collector ack: `session`'s summary for boundary `b` is merged —
    /// prune its ring through that `Boundary` frame, folding pruned
    /// `Reshard` stamps into its epoch, and wake a dealer waiting on
    /// ring space.
    pub(crate) fn ack(&self, session: u64, b: u64) {
        self.acked.fetch_max(b + 1, Ordering::Relaxed);
        if !self.retain {
            // Nothing ringed, and an unretained dealer never parks on
            // ring backpressure: no lock, no one to wake (see `retain`).
            return;
        }
        let mut st = self.lock();
        if let Some(s) = st.replay.find(session) {
            s.acked = b + 1;
            while let Some(frame) = s.ring.pop_front() {
                match frame {
                    Frame::Reshard { epoch, .. } => s.epoch = epoch,
                    Frame::Boundary { boundary, .. } => {
                        s.boundaries -= 1;
                        if boundary == b {
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        self.cv.notify_all();
    }

    /// Collector: the worker acknowledged `session`'s close — drop its
    /// replay state for good.
    pub(crate) fn close_acked(&self, session: u64) {
        if !self.retain {
            return;
        }
        let mut st = self.lock();
        if let Some(s) = st.replay.find(session) {
            s.closed = true;
            s.ring.clear();
            s.boundaries = 0;
        }
        self.cv.notify_all();
    }

    /// Highest acknowledged boundary + 1 over the link's sessions.
    pub(crate) fn acked(&self) -> u64 {
        self.acked.load(Ordering::Relaxed)
    }

    /// The lowest boundary an unfinished session would resume from.
    pub(crate) fn unfinished_floor(&self) -> u64 {
        let st = self.lock();
        let unfinished = st.replay.sessions.iter().filter(|s| !s.closed);
        unfinished.map(|s| s.acked).min().unwrap_or(0)
    }

    /// Ask the worker for a heartbeat echo; fails when the link is
    /// parked — i.e. the worker crashed. The worker echoes whatever the
    /// session, so the probe names session 0.
    fn probe(&self) -> io::Result<()> {
        send(
            &mut self.lock().writer,
            &Frame::Heartbeat { session: 0 },
            true,
        )
    }

    /// Recovery, on a fresh post-handshake connection: re-open every
    /// unfinished session at its acknowledged boundary, re-stamp its
    /// epoch, replay its ring; then re-send a dealt `Shutdown`.
    fn reinstall(&self, mut writer: FrameWriter<Conn>) -> io::Result<Vec<Restored>> {
        let mut st = self.lock();
        let mut restored = Vec::new();
        for s in st.replay.sessions.iter().filter(|s| !s.closed) {
            writer.write_frame(&Frame::OpenSession {
                session: s.session,
                config: s.config.clone(),
                mode: s.mode,
            })?;
            writer.write_frame(&Frame::Restore {
                session: s.session,
                boundary: s.acked,
                checkpoint: QloveSummary::default(),
            })?;
            if s.epoch > 0 {
                writer.write_frame(&Frame::Reshard {
                    session: s.session,
                    boundary: s.acked,
                    epoch: s.epoch,
                })?;
            }
            for frame in &s.ring {
                writer.write_frame(frame)?;
            }
            restored.push(Restored {
                session: s.session,
                boundary: s.acked,
                replayed: s.ring.len(),
            });
        }
        if st.replay.shutdown {
            writer.write_frame(&Frame::Shutdown)?;
        }
        writer.flush()?;
        st.writer = Some(writer);
        Ok(restored)
    }

    /// Terminal: wake and stop the dealer.
    pub(crate) fn fail(&self) {
        let mut st = self.lock();
        st.failed = true;
        st.writer = None;
        self.cv.notify_all();
    }
}

/// The collector's end of a worker connection.
pub(crate) struct ReadHalf {
    pub(crate) reader: FrameReader<BufReader<Conn>>,
    /// A clone of the socket, kept to sever it.
    breaker: Conn,
}

/// Bring a connection up: arm the policy's socket deadlines and
/// exchange hellos. Returns the collector's end and the write half.
pub(crate) fn open(
    conn: Conn,
    policy: &RecoveryPolicy,
) -> io::Result<(ReadHalf, FrameWriter<Conn>)> {
    policy.arm(&conn)?;
    let breaker = conn.try_clone()?;
    let (reader, writer) = hello_handshake(conn)?;
    Ok((ReadHalf { reader, breaker }, writer))
}

impl ReadHalf {
    /// Read one frame, probing through read deadlines. A heartbeat echo
    /// or a `StatsReport` (stored into `stats` by session) proves the
    /// worker alive and is absorbed here; a first silent deadline sends
    /// a probe down `link`, a second is a stall.
    pub(crate) fn read_with_probe(
        &mut self,
        link: &Link,
        stats: &mut [WorkerStats],
    ) -> Result<Frame, Verdict> {
        let mut silent_since: Option<Stopwatch> = None;
        let mut probed = false;
        loop {
            match self.reader.read_frame() {
                Ok(Frame::Heartbeat { .. }) => {
                    silent_since = None;
                    probed = false;
                }
                // Latest report wins: a scrape replayed after recovery
                // overwrites.
                Ok(Frame::StatsReport {
                    session,
                    batches,
                    events,
                    boundaries,
                    responses,
                }) => {
                    if let Some(slot) = usize::try_from(session).ok().and_then(|s| stats.get_mut(s))
                    {
                        *slot = WorkerStats {
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
                        let stalled = io::Error::new(
                            io::ErrorKind::TimedOut,
                            "worker stalled: no frame or heartbeat echo through two read deadlines",
                        );
                        return Err((FailureKind::Stall, since.elapsed_us(), stalled));
                    }
                    if let Err(dead) = link.probe() {
                        return Err((FailureKind::Crash, since.elapsed_us(), dead));
                    }
                    probed = true;
                }
                Err(e) => {
                    let detect_us = silent_since.map_or(0, |s| s.elapsed_us());
                    return Err((FailureKind::Crash, detect_us, e));
                }
            }
        }
    }

    /// Shut the socket down both ways: a stalled worker that wakes up
    /// later finds its stream dead, never the recovered one.
    pub(crate) fn sever(&self) {
        let _ = self.breaker.shutdown();
    }
}

/// What a successful restart brought back.
pub(crate) struct Restart {
    pub read: ReadHalf,
    pub restored: Vec<Restored>,
    /// Respawn + arm + handshake, µs.
    pub restore_us: u64,
    /// Re-opening the sessions and replaying their rings, µs.
    pub replay_us: u64,
}

/// One restart attempt on `link`: respawn a worker, arm its deadlines,
/// handshake, and reinstall every unfinished session.
pub(crate) fn restart(
    link: &Link,
    policy: &RecoveryPolicy,
    respawn: impl FnOnce() -> io::Result<Conn>,
) -> io::Result<Restart> {
    let restore = Stopwatch::start();
    let (read, writer) = open(respawn()?, policy)?;
    let restore_us = restore.elapsed_us();
    let replay = Stopwatch::start();
    let restored = link.reinstall(writer)?;
    Ok(Restart {
        read,
        restored,
        restore_us,
        replay_us: replay.elapsed_us(),
    })
}

#[cfg(test)]
#[cfg(unix)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    fn open(session: u64) -> Frame {
        let config = QloveConfig::new(&[0.5], 4, 2);
        let mode = WorkerMode::Shard;
        Frame::OpenSession {
            session,
            config,
            mode,
        }
    }

    fn restore(session: u64, boundary: u64) -> Frame {
        let checkpoint = QloveSummary::default();
        Frame::Restore {
            session,
            boundary,
            checkpoint,
        }
    }

    fn batch(session: u64, value: u64) -> Frame {
        let values = vec![value];
        Frame::EventBatch { session, values }
    }

    fn boundary(session: u64, boundary: u64) -> Frame {
        Frame::Boundary { session, boundary }
    }

    fn reshard(session: u64, boundary: u64, epoch: u64) -> Frame {
        Frame::Reshard {
            session,
            boundary,
            epoch,
        }
    }

    fn ring(link: &Link, session: u64) -> Vec<Frame> {
        let mut st = link.lock();
        st.replay
            .find(session)
            .unwrap()
            .ring
            .iter()
            .cloned()
            .collect()
    }

    /// A link with a live writer whose peer end is kept open.
    fn link(retain: bool) -> (Link, UnixStream) {
        let (ours, theirs) = UnixStream::pair().unwrap();
        let link = Link::new(retain);
        link.install(FrameWriter::new(Conn::Unix(ours)));
        (link, theirs)
    }

    #[test]
    fn rings_prune_per_session_and_reinstall_replays_each_tail() {
        let (link, _peer) = link(true);
        for frame in [
            open(0),
            open(1),
            open(2),
            batch(0, 10),
            batch(1, 20),
            boundary(1, 0),
            reshard(1, 1, 1),
            batch(0, 11),
            batch(1, 21),
            boundary(1, 1),
            batch(1, 22),
            boundary(0, 0),
            batch(0, 12),
            batch(2, 30),
            boundary(2, 0),
            Frame::StatsRequest { session: 2 },
            Frame::CloseSession { session: 2 },
            Frame::Shutdown,
        ] {
            link.deal(frame).unwrap();
        }
        let tail0 = [batch(0, 10), batch(0, 11), boundary(0, 0), batch(0, 12)];
        // The second session's boundary is acknowledged first: only its
        // own frames go, although the first session's were dealt before.
        link.ack(1, 0);
        assert_eq!(ring(&link, 0), tail0);
        let tail1 = [reshard(1, 1, 1), batch(1, 21), boundary(1, 1), batch(1, 22)];
        assert_eq!(ring(&link, 1), tail1);
        link.ack(1, 1); // folds the pruned stamp into the session's epoch
        link.ack(2, 0);
        link.close_acked(2);
        assert_eq!((link.acked(), link.unfinished_floor()), (2, 0));

        // Reinstall on a fresh socket and read back what it wrote.
        let (ours, theirs) = UnixStream::pair().unwrap();
        let restored = link.reinstall(FrameWriter::new(Conn::Unix(ours))).unwrap();
        link.fail(); // drops the writer: the reader below ends at EOF
        let mut reader = FrameReader::new(BufReader::new(Conn::Unix(theirs)));
        let frames: Vec<Frame> = std::iter::from_fn(|| reader.read_frame().ok()).collect();
        let mut want = vec![open(0), restore(0, 0)];
        want.extend(tail0);
        want.extend([open(1), restore(1, 2), reshard(1, 2, 1), batch(1, 22)]);
        want.push(Frame::Shutdown);
        assert_eq!(frames, want);
        let restored: Vec<_> = restored
            .iter()
            .map(|r| (r.session, r.boundary, r.replayed))
            .collect();
        assert_eq!(restored, [(0, 0, 4), (1, 2, 1)]);
    }
}
