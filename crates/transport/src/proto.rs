//! The framed QLVT wire protocol: length-prefixed, versioned frames
//! carrying the QLVS summary codec plus the control messages a
//! distributed session needs.
//!
//! ## Frame layout
//!
//! ```text
//! ┌────────────┬──────────┬──────────────────────┐
//! │ length u32 │ type  u8 │ payload (length B)   │  little-endian
//! └────────────┴──────────┴──────────────────────┘
//! ```
//!
//! | type | frame             | payload                                              |
//! |------|-------------------|------------------------------------------------------|
//! | 1    | `Hello`           | magic `"QLVT"`, version u8, role u8                  |
//! | 2    | `OpenSession`     | varint session id, config + mode (varints/f64 bits)  |
//! | 3    | `EventBatch`      | varint session id, varint count, packed value blocks |
//! | 4    | `Boundary`        | varint session id, varint boundary index             |
//! | 5    | `BoundarySummary` | varint session, boundary, epoch, then one QLVS v2    |
//! | 6    | `Answer`          | varint session id, varint eval index, `QloveAnswer`  |
//! | 7    | `Shutdown`        | empty                                                |
//! | 8    | `Heartbeat`       | varint session id                                    |
//! | 9    | `Restore`         | varint session id, varint boundary, QLVS v2 frame    |
//! | 10   | `CloseSession`    | varint session id                                    |
//! | 11   | `Reshard`         | varint session id, varint boundary, varint epoch     |
//! | 15   | `StatsRequest`    | varint session id                                    |
//! | 16   | `StatsReport`     | varint session id, then four varint counters         |
//!
//! Types 12–14 carried the retired shared-memory data plane (v4–v5).
//! They stay unassigned, so a decoder treats them as unknown types.
//!
//! The two hot payloads are bit-packed (`qlove_wire::write_packed`):
//! an `EventBatch`'s values are frame-of-reference blocks of up to 128
//! values, and a summary or checkpoint is a QLVS v2 frame of packed key
//! deltas and frequencies. Everything else is varints.
//!
//! Since protocol v2 a single connection multiplexes many independent
//! sessions: every post-handshake frame except `Shutdown` leads with a
//! varint session ID, sessions are opened with `OpenSession` (each with
//! its own config, backend, and mode) and retired with a `CloseSession`
//! exchange, while `Hello` and `Shutdown` stay connection-level.
//!
//! ## Decode contract
//!
//! Mirrors the QLVS fuzz contract from `qlove_wire`: malformed input of
//! any shape — truncated frames, unknown types, corrupt counts,
//! non-canonical payloads, trailing bytes — surfaces as an
//! `InvalidData`/`UnexpectedEof` error, **never** a panic. Declared
//! lengths are capped ([`MAX_FRAME_LEN`]), event counts are capped
//! ([`MAX_BATCH_VALUES`]), and counts are checked against the fewest
//! bytes their items could take before any allocation, so a hostile
//! peer cannot trigger an OOM. Decoded configs are fully
//! validated here (the checks `QloveConfig::validate` would assert) so
//! a worker can construct an operator from a wire config without
//! risking a panic on malicious input.

use qlove_core::{AnswerSource, Backend, FewKConfig, QloveAnswer, QloveConfig, QloveSummary};
use qlove_stats::error_bound::CltBound;
use qlove_wire::{
    read_packed, read_uvarint, write_packed, write_uvarint, MIN_BLOCK_BYTES, PACK_BLOCK,
};
use std::io::{self, Read, Write};

/// Connection magic carried by every [`Frame::Hello`].
pub const PROTOCOL_MAGIC: &[u8; 4] = b"QLVT";
/// Current protocol version. v2 made every post-handshake frame
/// session-scoped (multi-session connections); v3 added live
/// resharding (the `Reshard` frame and the epoch stamp on
/// `BoundarySummary`); v4 added a shared-memory data plane (frame
/// types 12–14); v5 added on-demand worker stats scraping
/// (`StatsRequest`/`StatsReport`); v6 retired the shared-memory plane,
/// leaving types 12–14 unassigned; v7 bit-packs `EventBatch` values and
/// carries QLVS v2 summaries. Older peers are rejected at the hello
/// exchange.
pub const PROTOCOL_VERSION: u8 = 7;
/// Hard cap on a frame's declared payload length. An `EventBatch` of
/// the executor's batch size (4,096 values) costs at most ~33 KB even
/// at width 64; 16 MiB leaves room for huge unquantized summaries while
/// bounding what a corrupt length can make the reader allocate.
pub const MAX_FRAME_LEN: usize = 1 << 24;
/// Most values one `EventBatch` may carry. Dealers send at most the
/// executor's batch size (4,096). A width-0 block stands for 128 values
/// in two bytes, so the bytes present do not bound the count; this cap
/// does, and the decoder checks it before allocating.
pub const MAX_BATCH_VALUES: usize = 1 << 16;

/// Which side of a session a peer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Deals events, collects summaries, merges.
    Coordinator,
    /// Ingests dealt events, ships summaries (or answers).
    Worker,
}

/// What a worker process runs behind the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerMode {
    /// A `QloveShard`: Level-1 accumulation only; ships a
    /// [`Frame::BoundarySummary`] for every [`Frame::Boundary`].
    Shard,
    /// A full `Qlove` operator: self-schedules boundaries and streams
    /// every evaluation back as a [`Frame::Answer`].
    Operator,
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session opener, sent by both sides: protocol magic + version +
    /// the sender's role.
    Hello {
        /// Protocol version the sender speaks.
        version: u8,
        /// The sender's role.
        role: Role,
    },
    /// Coordinator → worker: open an independent session on this
    /// connection, with its own configuration, backend, and mode. A
    /// connection can hold any number of concurrent sessions; opening a
    /// session ID that is already open is a protocol error.
    OpenSession {
        /// Connection-unique session ID carried by every frame of this
        /// session.
        session: u64,
        /// Full operator configuration (shard and coordinator must
        /// agree on quantization, backend, and the window schedule).
        config: QloveConfig,
        /// What to run behind the socket for this session.
        mode: WorkerMode,
    },
    /// Coordinator → worker: a batch of dealt telemetry values for one
    /// session. Batches never straddle a sub-window boundary in shard
    /// mode.
    EventBatch {
        /// Which session these values belong to.
        session: u64,
        /// The dealt values.
        values: Vec<u64>,
    },
    /// Coordinator → worker (shard mode): the session's logical stream
    /// reached sub-window boundary `boundary`; snapshot and ship the
    /// partial sub-window now.
    Boundary {
        /// Which session reached the boundary.
        session: u64,
        /// 0-based boundary index, for sequence checking.
        boundary: u64,
    },
    /// Worker → coordinator (shard mode): the partial sub-window
    /// accumulated since the previous boundary, as a QLVS multiset.
    BoundarySummary {
        /// Which session this summary belongs to.
        session: u64,
        /// Which boundary this summary closes (must match the
        /// triggering [`Frame::Boundary`]).
        boundary: u64,
        /// The reshard epoch the session was stamped with by the last
        /// [`Frame::Reshard`] (0 until one arrives — i.e. always 0
        /// outside resharded runs). The collector refuses to assemble
        /// a boundary group from mixed epochs, so summaries from
        /// before and after an elastic swap can never blend.
        epoch: u64,
        /// The shard's partial sub-window.
        summary: QloveSummary,
    },
    /// Worker → coordinator (operator mode): one window evaluation.
    Answer {
        /// Which session produced the evaluation.
        session: u64,
        /// 0-based evaluation index, for sequence checking.
        boundary: u64,
        /// The evaluation, bit-identical to a local run.
        answer: QloveAnswer,
    },
    /// Connection end. The coordinator sends it when every stream is
    /// exhausted; the worker drains all remaining sessions,
    /// acknowledges with its own `Shutdown`, and returns. Sessions
    /// still open are finalized implicitly.
    Shutdown,
    /// Liveness probe, either direction. A worker that receives one
    /// echoes a `Heartbeat` with the same session ID immediately — the
    /// coordinator's failure detector counts any frame as progress, so
    /// an echo arriving within the probe deadline proves the worker's
    /// event loop is alive even when no summaries are due. Because it
    /// probes the shared event loop, the echo does not require the
    /// session to exist (recovery may probe before reopening).
    Heartbeat {
        /// Session the prober is waiting on (informational; echoed
        /// verbatim).
        session: u64,
    },
    /// Coordinator → worker (shard mode): resume a recovered session.
    /// Legal only as the first frame of a session after its
    /// `OpenSession`: the worker sets that session's boundary counter
    /// to `boundary` (the next boundary it should expect) and merges
    /// `checkpoint` into its fresh store as mid-sub-window state. The
    /// coordinator then replays the unacknowledged tail of dealt
    /// frames, which rebuilds the rest of the session's state exactly
    /// (multiset accumulation is order-insensitive), so recovered
    /// answers stay bit-identical. Only the failed session is restored;
    /// other sessions on a shared connection are untouched.
    ///
    /// With boundary-grained acknowledgement the checkpoint at the last
    /// acked boundary is the empty multiset (shard state resets at
    /// every `take_summary`); the field exists — and the worker honors
    /// arbitrary checkpoints — so finer-grained checkpointing (e.g.
    /// live resharding) can restore mid-sub-window state over the same
    /// frame.
    Restore {
        /// Which session to restore.
        session: u64,
        /// Next boundary index the recovered session should expect.
        boundary: u64,
        /// Mid-sub-window state to merge into the fresh shard, as QLVS.
        checkpoint: QloveSummary,
    },
    /// Session end, both directions. The coordinator sends one when a
    /// session's stream is exhausted; the worker drains that session's
    /// pending input, ships any responses still due, acknowledges with
    /// its own `CloseSession`, and frees the slot — while every other
    /// session on the connection keeps running.
    CloseSession {
        /// Which session to retire.
        session: u64,
    },
    /// Coordinator → worker (shard mode): an elastic reshard of the
    /// dealt key space takes effect for this session at sub-window
    /// `boundary` — stamp every summary from that boundary on with
    /// `epoch`. Sent to *every* surviving session when the dealer swaps
    /// its routing table (and replayed from the ring or re-synthesized
    /// during recovery), so a boundary group's members always agree on
    /// the epoch and the collector can tell pre- from post-swap groups
    /// apart. The plan itself (which ranges split or merged) stays
    /// coordinator-local: workers only ever see sessions and epochs.
    Reshard {
        /// Which session the epoch applies to.
        session: u64,
        /// First boundary whose summary carries the new epoch; must be
        /// the session's next expected boundary (sequence check).
        boundary: u64,
        /// The new reshard epoch (monotonically increasing per run).
        epoch: u64,
    },
    /// Coordinator → worker (v5): report the named session's ingest
    /// counters now. Like [`Frame::Heartbeat`], the worker answers
    /// regardless of whether the session exists (all-zero counters for
    /// an unknown session), so a scrape can never deadlock against a
    /// session that already closed.
    StatsRequest {
        /// Session to report on.
        session: u64,
    },
    /// Worker → coordinator (v5): point-in-time ingest counters for
    /// one session, answering a [`Frame::StatsRequest`]. Purely
    /// observational — the coordinator folds these into its metrics
    /// registry; they never influence routing or merging.
    StatsReport {
        /// Session the counters describe.
        session: u64,
        /// `EventBatch` frames ingested so far.
        batches: u64,
        /// Telemetry values ingested so far.
        events: u64,
        /// Boundaries snapshot (shard mode) or self-scheduled
        /// (operator mode) so far.
        boundaries: u64,
        /// Responses (summaries or answers) shipped so far.
        responses: u64,
    },
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::OpenSession { .. } => 2,
            Frame::EventBatch { .. } => 3,
            Frame::Boundary { .. } => 4,
            Frame::BoundarySummary { .. } => 5,
            Frame::Answer { .. } => 6,
            Frame::Shutdown => 7,
            Frame::Heartbeat { .. } => 8,
            Frame::Restore { .. } => 9,
            Frame::CloseSession { .. } => 10,
            Frame::Reshard { .. } => 11,
            Frame::StatsRequest { .. } => 15,
            Frame::StatsReport { .. } => 16,
        }
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ---- payload primitives ---------------------------------------------------

fn write_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn read_f64(data: &mut &[u8]) -> io::Result<f64> {
    let Some((bytes, rest)) = data.split_first_chunk::<8>() else {
        return Err(bad("truncated f64"));
    };
    *data = rest;
    Ok(f64::from_le_bytes(*bytes))
}

fn read_varint(data: &mut &[u8], what: &str) -> io::Result<u64> {
    read_uvarint(data).ok_or_else(|| bad(format!("truncated {what}")))
}

/// Read a count that prefixes per-item payload of at least
/// `min_item_bytes` bytes: rejects counts the remaining payload cannot
/// possibly hold, before any allocation.
fn read_count(data: &mut &[u8], min_item_bytes: usize, what: &str) -> io::Result<usize> {
    let count = read_varint(data, what)?;
    if count > (data.len() / min_item_bytes.max(1)) as u64 {
        return Err(bad(format!("{what} exceeds payload")));
    }
    // The bound above already caps `count` by the payload length, but a
    // checked conversion keeps the no-narrowing contract explicit (and
    // airtight if the bound ever changes) on 16/32-bit targets.
    usize::try_from(count).map_err(|_| bad(format!("{what} overflows usize")))
}

// ---- config codec ---------------------------------------------------------

fn encode_config(buf: &mut Vec<u8>, config: &QloveConfig, mode: WorkerMode) {
    buf.push(match mode {
        WorkerMode::Shard => 0,
        WorkerMode::Operator => 1,
    });
    write_uvarint(buf, config.window as u64);
    write_uvarint(buf, config.period as u64);
    // Option<u32> as a biased varint: 0 = None, d+1 = Some(d).
    write_uvarint(buf, config.sig_digits.map_or(0, |d| u64::from(d) + 1));
    buf.push(match config.backend {
        Backend::Auto => 0,
        Backend::Tree => 1,
        Backend::Dense => 2,
    });
    match &config.fewk {
        None => buf.push(0),
        Some(f) => {
            buf.push(1);
            write_f64(buf, f.topk_fraction);
            write_f64(buf, f.samplek_fraction);
            write_f64(buf, f.ts);
            write_f64(buf, f.burst_alpha);
            write_f64(buf, f.min_phi);
        }
    }
    write_uvarint(buf, config.phis.len() as u64);
    for &phi in &config.phis {
        write_f64(buf, phi);
    }
}

/// Decode and validate a wire config. Performs every check
/// `QloveConfig::validate` asserts, as *errors*: the returned config is
/// guaranteed to construct an operator without panicking.
fn decode_config(data: &mut &[u8]) -> io::Result<(QloveConfig, WorkerMode)> {
    let mode = match data.split_first() {
        Some((&0, rest)) => {
            *data = rest;
            WorkerMode::Shard
        }
        Some((&1, rest)) => {
            *data = rest;
            WorkerMode::Operator
        }
        Some((&m, _)) => return Err(bad(format!("unknown worker mode {m}"))),
        None => return Err(bad("truncated config")),
    };
    let raw_window = read_varint(data, "config window")?;
    let raw_period = read_varint(data, "config period")?;
    if raw_period == 0 || raw_window < raw_period || raw_window % raw_period != 0 {
        return Err(bad("config window must be a positive multiple of period"));
    }
    let window = usize::try_from(raw_window).map_err(|_| bad("config window overflows usize"))?;
    let period = usize::try_from(raw_period).map_err(|_| bad("config period overflows usize"))?;
    let sig_digits = match read_varint(data, "config sig_digits")? {
        0 => None,
        biased => match u32::try_from(biased - 1) {
            Ok(d) if d > 0 => Some(d),
            _ => return Err(bad("config sig_digits out of range")),
        },
    };
    let backend = match data.split_first() {
        Some((&0, rest)) => {
            *data = rest;
            Backend::Auto
        }
        Some((&1, rest)) => {
            *data = rest;
            Backend::Tree
        }
        Some((&2, rest)) => {
            *data = rest;
            Backend::Dense
        }
        Some((&b, _)) => return Err(bad(format!("unknown backend {b}"))),
        None => return Err(bad("truncated config")),
    };
    if backend == Backend::Dense {
        match sig_digits {
            Some(d) if d <= qlove_freqstore::DenseFreqStore::MAX_SIG_DIGITS => {}
            _ => return Err(bad("dense backend requires narrow quantization")),
        }
    }
    let fewk = match data.split_first() {
        Some((&0, rest)) => {
            *data = rest;
            None
        }
        Some((&1, rest)) => {
            *data = rest;
            let topk_fraction = read_f64(data)?;
            let samplek_fraction = read_f64(data)?;
            let ts = read_f64(data)?;
            let burst_alpha = read_f64(data)?;
            let min_phi = read_f64(data)?;
            // NaN fails every range check below (each comparison is
            // written positively, so an incomparable value reads as
            // out-of-range), which means a corrupt bit pattern cannot
            // smuggle a panic into validate().
            let in_range = (0.0..=1.0).contains(&topk_fraction)
                && (0.0..=1.0).contains(&samplek_fraction)
                && ts >= 0.0
                && burst_alpha > 0.0
                && burst_alpha < 1.0
                && (0.5..=1.0).contains(&min_phi);
            if !in_range {
                return Err(bad("config few-k parameters out of range"));
            }
            Some(FewKConfig {
                topk_fraction,
                samplek_fraction,
                ts,
                burst_alpha,
                min_phi,
            })
        }
        Some((&f, _)) => return Err(bad(format!("unknown few-k tag {f}"))),
        None => return Err(bad("truncated config")),
    };
    let phi_count = read_count(data, 8, "config phi count")?;
    if phi_count == 0 {
        return Err(bad("config needs at least one quantile"));
    }
    let mut phis = Vec::with_capacity(phi_count);
    for _ in 0..phi_count {
        let phi = read_f64(data)?;
        if !(0.0..=1.0).contains(&phi) {
            return Err(bad("config quantile fraction out of [0, 1]"));
        }
        phis.push(phi);
    }
    let config = QloveConfig {
        phis,
        window,
        period,
        sig_digits,
        fewk,
        backend,
    };
    Ok((config, mode))
}

// ---- answer codec ---------------------------------------------------------

fn encode_answer(buf: &mut Vec<u8>, answer: &QloveAnswer) {
    debug_assert_eq!(answer.values.len(), answer.sources.len());
    debug_assert_eq!(answer.values.len(), answer.bounds.len());
    write_uvarint(buf, answer.values.len() as u64);
    for &v in &answer.values {
        write_uvarint(buf, v);
    }
    for source in &answer.sources {
        buf.push(match source {
            AnswerSource::Level2 => 0,
            AnswerSource::TopK => 1,
            AnswerSource::SampleK => 2,
        });
    }
    for bound in &answer.bounds {
        match bound {
            None => buf.push(0),
            Some(b) => {
                buf.push(1);
                write_f64(buf, b.half_width);
                write_f64(buf, b.confidence);
            }
        }
    }
    buf.push(u8::from(answer.bursty));
}

fn decode_answer(data: &mut &[u8]) -> io::Result<QloveAnswer> {
    let l = read_count(data, 1, "answer quantile count")?;
    let mut values = Vec::with_capacity(l);
    for _ in 0..l {
        values.push(read_varint(data, "answer value")?);
    }
    let mut sources = Vec::with_capacity(l);
    for _ in 0..l {
        sources.push(match data.split_first() {
            Some((&0, rest)) => {
                *data = rest;
                AnswerSource::Level2
            }
            Some((&1, rest)) => {
                *data = rest;
                AnswerSource::TopK
            }
            Some((&2, rest)) => {
                *data = rest;
                AnswerSource::SampleK
            }
            Some((&s, _)) => return Err(bad(format!("unknown answer source {s}"))),
            None => return Err(bad("truncated answer sources")),
        });
    }
    let mut bounds = Vec::with_capacity(l);
    for _ in 0..l {
        bounds.push(match data.split_first() {
            Some((&0, rest)) => {
                *data = rest;
                None
            }
            Some((&1, rest)) => {
                *data = rest;
                let half_width = read_f64(data)?;
                let confidence = read_f64(data)?;
                Some(CltBound {
                    half_width,
                    confidence,
                })
            }
            Some((&t, _)) => return Err(bad(format!("unknown bound tag {t}"))),
            None => return Err(bad("truncated answer bounds")),
        });
    }
    let bursty = match data.split_first() {
        Some((&0, rest)) => {
            *data = rest;
            false
        }
        Some((&1, rest)) => {
            *data = rest;
            true
        }
        Some((&b, _)) => return Err(bad(format!("bad bursty flag {b}"))),
        None => return Err(bad("truncated answer flag")),
    };
    Ok(QloveAnswer {
        values,
        sources,
        bounds,
        bursty,
    })
}

// ---- frame codec ----------------------------------------------------------

/// Encode `frame`'s payload into `buf` (appended, not cleared). The
/// length/type header is the [`FrameWriter`]'s job.
fn encode_payload(buf: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Hello { version, role } => {
            buf.extend_from_slice(PROTOCOL_MAGIC);
            buf.push(*version);
            buf.push(match role {
                Role::Coordinator => 0,
                Role::Worker => 1,
            });
        }
        Frame::OpenSession {
            session,
            config,
            mode,
        } => {
            write_uvarint(buf, *session);
            encode_config(buf, config, *mode);
        }
        Frame::EventBatch { session, values } => {
            write_uvarint(buf, *session);
            write_uvarint(buf, values.len() as u64);
            write_packed(buf, values);
        }
        Frame::Boundary { session, boundary } => {
            write_uvarint(buf, *session);
            write_uvarint(buf, *boundary);
        }
        Frame::BoundarySummary {
            session,
            boundary,
            epoch,
            summary,
        } => {
            write_uvarint(buf, *session);
            write_uvarint(buf, *boundary);
            write_uvarint(buf, *epoch);
            qlove_wire::encode_summary(summary.counts(), buf);
        }
        Frame::Answer {
            session,
            boundary,
            answer,
        } => {
            write_uvarint(buf, *session);
            write_uvarint(buf, *boundary);
            encode_answer(buf, answer);
        }
        Frame::Shutdown => {}
        Frame::Heartbeat { session } => write_uvarint(buf, *session),
        Frame::Restore {
            session,
            boundary,
            checkpoint,
        } => {
            write_uvarint(buf, *session);
            write_uvarint(buf, *boundary);
            qlove_wire::encode_summary(checkpoint.counts(), buf);
        }
        Frame::CloseSession { session } => write_uvarint(buf, *session),
        Frame::Reshard {
            session,
            boundary,
            epoch,
        } => {
            write_uvarint(buf, *session);
            write_uvarint(buf, *boundary);
            write_uvarint(buf, *epoch);
        }
        Frame::StatsRequest { session } => write_uvarint(buf, *session),
        Frame::StatsReport {
            session,
            batches,
            events,
            boundaries,
            responses,
        } => {
            write_uvarint(buf, *session);
            write_uvarint(buf, *batches);
            write_uvarint(buf, *events);
            write_uvarint(buf, *boundaries);
            write_uvarint(buf, *responses);
        }
    }
}

/// Decode one frame from its type byte and payload. Every malformed
/// input returns an error; nothing panics. Exposed so fuzz tests (and
/// alternative readers) can drive the decoder directly.
pub fn decode_frame(frame_type: u8, mut payload: &[u8]) -> io::Result<Frame> {
    let data = &mut payload;
    let frame = match frame_type {
        1 => {
            let Some((magic, rest)) = data.split_first_chunk::<4>() else {
                return Err(bad("truncated hello"));
            };
            *data = rest;
            if magic != PROTOCOL_MAGIC {
                return Err(bad("not a QLVT hello"));
            }
            let (version, role) = match *data {
                [version, role_byte] => (
                    *version,
                    match role_byte {
                        0 => Role::Coordinator,
                        1 => Role::Worker,
                        other => return Err(bad(format!("unknown role {other}"))),
                    },
                ),
                _ => return Err(bad("malformed hello")),
            };
            *data = &[];
            Frame::Hello { version, role }
        }
        2 => {
            let session = read_varint(data, "session id")?;
            let (config, mode) = decode_config(data)?;
            Frame::OpenSession {
                session,
                config,
                mode,
            }
        }
        3 => {
            let session = read_varint(data, "session id")?;
            let count = read_varint(data, "event batch count")?;
            if count > MAX_BATCH_VALUES as u64 {
                return Err(bad("event batch count exceeds cap"));
            }
            let count = count as usize;
            if count.div_ceil(PACK_BLOCK) > data.len() / MIN_BLOCK_BYTES {
                return Err(bad("event batch count exceeds payload"));
            }
            let mut values = vec![0; count];
            read_packed(data, &mut values).ok_or_else(|| bad("corrupt event block"))?;
            Frame::EventBatch { session, values }
        }
        4 => Frame::Boundary {
            session: read_varint(data, "session id")?,
            boundary: read_varint(data, "boundary index")?,
        },
        5 => {
            let session = read_varint(data, "session id")?;
            let boundary = read_varint(data, "boundary index")?;
            let epoch = read_varint(data, "reshard epoch")?;
            let summary = QloveSummary::from_bytes(data)?;
            *data = &[];
            Frame::BoundarySummary {
                session,
                boundary,
                epoch,
                summary,
            }
        }
        6 => {
            let session = read_varint(data, "session id")?;
            let boundary = read_varint(data, "answer index")?;
            let answer = decode_answer(data)?;
            Frame::Answer {
                session,
                boundary,
                answer,
            }
        }
        7 => Frame::Shutdown,
        8 => Frame::Heartbeat {
            session: read_varint(data, "session id")?,
        },
        9 => {
            let session = read_varint(data, "session id")?;
            let boundary = read_varint(data, "restore boundary index")?;
            let checkpoint = QloveSummary::from_bytes(data)?;
            *data = &[];
            Frame::Restore {
                session,
                boundary,
                checkpoint,
            }
        }
        10 => Frame::CloseSession {
            session: read_varint(data, "session id")?,
        },
        11 => Frame::Reshard {
            session: read_varint(data, "session id")?,
            boundary: read_varint(data, "reshard boundary index")?,
            epoch: read_varint(data, "reshard epoch")?,
        },
        15 => Frame::StatsRequest {
            session: read_varint(data, "session id")?,
        },
        16 => Frame::StatsReport {
            session: read_varint(data, "session id")?,
            batches: read_varint(data, "stats batch count")?,
            events: read_varint(data, "stats event count")?,
            boundaries: read_varint(data, "stats boundary count")?,
            responses: read_varint(data, "stats response count")?,
        },
        other => return Err(bad(format!("unknown frame type {other}"))),
    };
    if !data.is_empty() {
        return Err(bad("trailing bytes after frame payload"));
    }
    Ok(frame)
}

/// Writes frames to a byte sink, one `write_all` per frame (header and
/// payload are assembled in a reusable buffer first, so a frame is a
/// single syscall on a socket).
#[derive(Debug)]
pub struct FrameWriter<W> {
    inner: W,
    buf: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// Wrap a sink.
    pub fn new(inner: W) -> Self {
        Self {
            inner,
            buf: Vec::with_capacity(1024),
        }
    }

    /// Encode and send one frame. A frame whose payload exceeds
    /// [`MAX_FRAME_LEN`] (e.g. a summary of an unquantized
    /// multi-million-unique sub-window), or an `EventBatch` of more than
    /// [`MAX_BATCH_VALUES`] values, errors **at the sender** instead of
    /// being shipped for the peer to reject — and can never wrap the
    /// u32 length prefix and desynchronize the stream.
    pub fn write_frame(&mut self, frame: &Frame) -> io::Result<()> {
        if let Frame::EventBatch { values, .. } = frame {
            if values.len() > MAX_BATCH_VALUES {
                return Err(bad(format!(
                    "refusing to send oversized event batch ({} values > {MAX_BATCH_VALUES} cap)",
                    values.len()
                )));
            }
        }
        self.buf.clear();
        self.buf.extend_from_slice(&[0u8; 5]);
        encode_payload(&mut self.buf, frame);
        let payload_len = self.buf.len() - 5;
        if payload_len > MAX_FRAME_LEN {
            return Err(bad(format!(
                "refusing to send oversized frame ({payload_len} B > {MAX_FRAME_LEN} B cap)"
            )));
        }
        self.buf[..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        self.buf[4] = frame.type_byte();
        self.inner.write_all(&self.buf)
    }

    /// Flush the underlying sink.
    pub fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Reads frames from a byte source with strict validation.
///
/// The reader is **resumable across read timeouts**: when the source
/// returns `WouldBlock`/`TimedOut` (a socket with a read deadline set),
/// partial header/payload progress is kept and the next call continues
/// exactly where the timed-out one stopped — the coordinator's
/// heartbeat probing depends on being able to time out mid-frame
/// without desynchronizing the stream.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// Partial-frame progress, kept across timed-out reads.
    header: [u8; 5],
    header_filled: usize,
    payload_filled: usize,
    last_frame_len: usize,
}

impl<R: Read> FrameReader<R> {
    /// Wrap a source. Sources doing small reads (sockets) should be
    /// wrapped in a `BufReader` first.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            buf: Vec::new(),
            header: [0u8; 5],
            header_filled: 0,
            payload_filled: 0,
            last_frame_len: 0,
        }
    }

    /// Wire size (5-byte header + payload) of the most recently
    /// *returned* frame. Lets telemetry charge e.g. summary bytes per
    /// shard without re-encoding the frame it just decoded; 0 before
    /// the first frame.
    pub fn last_frame_len(&self) -> usize {
        self.last_frame_len
    }

    /// Read the next frame. EOF — even a clean one between frames —
    /// is an `UnexpectedEof` error; use [`FrameReader::try_read_frame`]
    /// where a peer is allowed to close the connection.
    pub fn read_frame(&mut self) -> io::Result<Frame> {
        self.try_read_frame()?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed mid-session"))
    }

    /// Read the next frame, or `None` if the source is cleanly at EOF
    /// (closed exactly on a frame boundary). EOF *inside* a frame is
    /// still an error. A `WouldBlock`/`TimedOut` error from the source
    /// is returned as-is and leaves the reader resumable (see the type
    /// docs); every other error abandons the stream.
    pub fn try_read_frame(&mut self) -> io::Result<Option<Frame>> {
        while self.header_filled < self.header.len() {
            match self.inner.read(&mut self.header[self.header_filled..]) {
                Ok(0) if self.header_filled == 0 => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "truncated frame header",
                    ))
                }
                Ok(n) => self.header_filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let len = u32::from_le_bytes(self.header[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_LEN {
            return Err(bad(format!("frame length {len} exceeds cap")));
        }
        // On first entry for this frame `payload_filled` is 0 and this
        // sizes the buffer; on re-entry after a timeout the length is
        // unchanged, the resize is a no-op, and filling resumes.
        self.buf.resize(len, 0);
        while self.payload_filled < len {
            match self.inner.read(&mut self.buf[self.payload_filled..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "truncated frame payload",
                    ))
                }
                Ok(n) => self.payload_filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.header_filled = 0;
        self.payload_filled = 0;
        self.last_frame_len = len + 5;
        decode_frame(self.header[4], &self.buf).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: &Frame) -> Frame {
        let mut bytes = Vec::new();
        FrameWriter::new(&mut bytes).write_frame(frame).unwrap();
        let mut reader = FrameReader::new(bytes.as_slice());
        let got = reader.read_frame().unwrap();
        assert!(reader.try_read_frame().unwrap().is_none(), "leftover bytes");
        got
    }

    fn sample_config() -> QloveConfig {
        QloveConfig::new(&[0.5, 0.99, 0.999], 8_000, 1_000)
    }

    fn sample_answer() -> QloveAnswer {
        QloveAnswer {
            values: vec![42, 0, u64::MAX],
            sources: vec![
                AnswerSource::Level2,
                AnswerSource::TopK,
                AnswerSource::SampleK,
            ],
            bounds: vec![
                None,
                Some(CltBound {
                    half_width: 1.25e-3,
                    confidence: 0.95,
                }),
                Some(CltBound {
                    half_width: f64::MIN_POSITIVE,
                    confidence: 0.9999999,
                }),
            ],
            bursty: true,
        }
    }

    #[test]
    fn all_frames_roundtrip() {
        let summary = QloveSummary::from_counts(vec![(3, 2), (70, 1), (u64::MAX, 9)]).unwrap();
        let frames = [
            Frame::Hello {
                version: PROTOCOL_VERSION,
                role: Role::Coordinator,
            },
            Frame::Hello {
                version: PROTOCOL_VERSION,
                role: Role::Worker,
            },
            Frame::OpenSession {
                session: 0,
                config: sample_config(),
                mode: WorkerMode::Shard,
            },
            Frame::OpenSession {
                session: u64::MAX,
                config: QloveConfig::without_fewk(&[0.5], 100, 10)
                    .quantize(None)
                    .backend(Backend::Tree),
                mode: WorkerMode::Operator,
            },
            Frame::EventBatch {
                session: 0,
                values: vec![],
            },
            Frame::EventBatch {
                session: 1_000,
                values: vec![0, 1, 127, 128, 1_000_000, u64::MAX],
            },
            Frame::Boundary {
                session: 0,
                boundary: 0,
            },
            Frame::Boundary {
                session: u64::MAX,
                boundary: u64::MAX,
            },
            Frame::BoundarySummary {
                session: 7,
                boundary: 17,
                epoch: 0,
                summary: QloveSummary::from_counts(vec![]).unwrap(),
            },
            Frame::BoundarySummary {
                session: 0,
                boundary: 18,
                epoch: u64::MAX,
                summary,
            },
            Frame::Answer {
                session: 63,
                boundary: 3,
                answer: sample_answer(),
            },
            Frame::Shutdown,
            Frame::Heartbeat { session: 0 },
            Frame::Heartbeat { session: u64::MAX },
            Frame::Restore {
                session: 0,
                boundary: 0,
                checkpoint: QloveSummary::from_counts(vec![]).unwrap(),
            },
            Frame::Restore {
                session: 129,
                boundary: u64::MAX,
                checkpoint: QloveSummary::from_counts(vec![(3, 2), (9, 1), (u64::MAX, 4)]).unwrap(),
            },
            Frame::CloseSession { session: 0 },
            Frame::CloseSession { session: u64::MAX },
            Frame::Reshard {
                session: 0,
                boundary: 0,
                epoch: 1,
            },
            Frame::Reshard {
                session: u64::MAX,
                boundary: u64::MAX,
                epoch: u64::MAX,
            },
            Frame::StatsRequest { session: 0 },
            Frame::StatsRequest { session: u64::MAX },
            Frame::StatsReport {
                session: 0,
                batches: 0,
                events: 0,
                boundaries: 0,
                responses: 0,
            },
            Frame::StatsReport {
                session: u64::MAX,
                batches: u64::MAX,
                events: u64::MAX,
                boundaries: u64::MAX,
                responses: u64::MAX,
            },
        ];
        for frame in &frames {
            assert_eq!(&roundtrip(frame), frame, "{frame:?}");
        }
    }

    #[test]
    fn answer_roundtrip_is_bitwise_on_bounds() {
        // f64 payloads travel as raw bits: equality must be exact, not
        // approximate, for the bit-identity invariant to survive the
        // wire.
        let answer = sample_answer();
        let Frame::Answer { answer: got, .. } = roundtrip(&Frame::Answer {
            session: 5,
            boundary: 0,
            answer: answer.clone(),
        }) else {
            panic!("wrong frame kind")
        };
        for (a, b) in answer.bounds.iter().zip(&got.bounds) {
            match (a, b) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.half_width.to_bits(), y.half_width.to_bits());
                    assert_eq!(x.confidence.to_bits(), y.confidence.to_bits());
                }
                _ => panic!("bound presence diverged"),
            }
        }
    }

    #[test]
    fn decoded_config_always_survives_validate() {
        // The decoder promises: whatever it returns, validate() cannot
        // panic. Spot-check the interesting configs.
        for (config, mode) in [
            (sample_config(), WorkerMode::Shard),
            (
                QloveConfig::new(&[0.999], 40, 10).backend(Backend::Dense),
                WorkerMode::Operator,
            ),
            (
                QloveConfig::without_fewk(&[0.0, 1.0], 7, 7).quantize(Some(9)),
                WorkerMode::Shard,
            ),
        ] {
            let Frame::OpenSession {
                config: got,
                mode: got_mode,
                ..
            } = roundtrip(&Frame::OpenSession {
                session: 2,
                config: config.clone(),
                mode,
            })
            else {
                panic!("wrong frame kind")
            };
            got.validate();
            assert_eq!(got, config);
            assert_eq!(got_mode, mode);
        }
    }

    /// Build an `OpenSession` payload (session 0) around a raw config
    /// encoding, for hand-corruption.
    fn open_payload(config: &QloveConfig, mode: WorkerMode) -> Vec<u8> {
        let mut payload = Vec::new();
        write_uvarint(&mut payload, 0); // session id
        encode_config(&mut payload, config, mode);
        payload
    }

    #[test]
    fn rejects_malformed_configs() {
        // Hand-built config payloads that parse structurally but fail
        // the semantic checks validate() would panic on. Offset 1 skips
        // the session varint (one byte for session 0).
        let check = |mutate: &dyn Fn(&mut Vec<u8>)| {
            let mut payload = open_payload(&sample_config(), WorkerMode::Shard);
            mutate(&mut payload);
            assert!(decode_frame(2, &payload).is_err());
        };
        // Unknown mode byte.
        check(&|p| p[1] = 9);
        // Window not a multiple of period: rewrite the two varints.
        let mut payload = vec![0u8, 0u8]; // session 0, shard mode
        write_uvarint(&mut payload, 1000);
        write_uvarint(&mut payload, 300);
        assert!(decode_frame(2, &payload).is_err());
        // Dense backend without quantization.
        let cfg = QloveConfig::new(&[0.5], 100, 10); // auto backend, sig 3
        let mut bad_cfg = cfg.clone();
        bad_cfg.sig_digits = None;
        bad_cfg.backend = Backend::Dense;
        assert!(decode_frame(2, &open_payload(&bad_cfg, WorkerMode::Shard)).is_err());
        // NaN few-k fraction.
        let mut bad_cfg = cfg.clone();
        bad_cfg.fewk = Some(FewKConfig {
            topk_fraction: f64::NAN,
            ..FewKConfig::auto(100, 10, false)
        });
        assert!(decode_frame(2, &open_payload(&bad_cfg, WorkerMode::Shard)).is_err());
        // Out-of-range phi.
        let mut bad_cfg = cfg;
        bad_cfg.phis = vec![1.5];
        assert!(decode_frame(2, &open_payload(&bad_cfg, WorkerMode::Shard)).is_err());
        // Empty phis.
        let mut payload = open_payload(&QloveConfig::new(&[0.5], 100, 10), WorkerMode::Shard);
        // Truncate the phi list: drop the final f64 and shrink count.
        payload.truncate(payload.len() - 8);
        *payload.last_mut().unwrap() = 0; // phi count 0 (last varint byte)
        assert!(decode_frame(2, &payload).is_err());
    }

    /// Satellite of the no-narrowing contract: varint values straddling
    /// the `u32`/`usize` boundaries must surface as `InvalidData`, not
    /// wrap on a cast (a 32-bit worker decoding `window = 2^32 + 100`
    /// as `100` would silently compute wrong answers).
    #[test]
    fn rejects_boundary_value_payloads() {
        let err_kind = |payload: &[u8], ty: u8| {
            let err = decode_frame(ty, payload).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "type {ty}");
        };
        // Config with window/period just past u64 representability of
        // a valid pair: u64::MAX window with period 1 passes the
        // multiple-of check, so it must die on the usize conversion
        // (64-bit: never; the shape check still rejects the others) or
        // the later validation. Exercise the extremes explicitly.
        for (window, period) in [
            (u64::MAX, 1u64),
            (u64::MAX - 1, 2),
            (1u64 << 63, 1u64 << 62),
            (u64::from(u32::MAX) + 1, 1),
        ] {
            let mut payload = vec![0u8, 0u8]; // session 0, shard mode
            write_uvarint(&mut payload, window);
            write_uvarint(&mut payload, period);
            write_uvarint(&mut payload, 0); // sig_digits: none
            payload.push(0); // backend auto
            payload.push(0); // no few-k
            write_uvarint(&mut payload, 1); // one phi
            payload.extend_from_slice(&0.5f64.to_le_bytes());
            // On 64-bit hosts these configs parse numerically but are
            // absurd; they must decode to an error or a config that
            // survives validate() — never a wrapped cast. All listed
            // windows exceed what a phi payload this small could ever
            // legitimately accompany, but the decoder has no way to
            // know that; what it must guarantee is no narrowing.
            match decode_frame(2, &payload) {
                Ok(Frame::OpenSession { config, .. }) => {
                    assert_eq!(config.window as u64, window, "no silent narrowing");
                    config.validate();
                }
                Ok(other) => panic!("unexpected frame {other:?}"),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            }
        }
        // sig_digits biased varint at u32::MAX + 2 → d = u32::MAX + 1:
        // must be rejected by the checked u32 conversion.
        let mut payload = vec![0u8, 0u8];
        write_uvarint(&mut payload, 100);
        write_uvarint(&mut payload, 10);
        write_uvarint(&mut payload, u64::from(u32::MAX) + 2);
        err_kind(&payload, 2);
        // Same at u64::MAX (biased): d = u64::MAX - 1 overflows u32.
        let mut payload = vec![0u8, 0u8];
        write_uvarint(&mut payload, 100);
        write_uvarint(&mut payload, 10);
        write_uvarint(&mut payload, u64::MAX);
        err_kind(&payload, 2);
        // Event batch counts at the integer extremes: all exceed the
        // protocol cap and must be rejected before allocation, even
        // with a width-0 block behind them that could stand for 128
        // values per two bytes.
        for count in [
            MAX_BATCH_VALUES as u64 + 1,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
            usize::MAX as u64,
            u64::MAX,
        ] {
            let mut payload = Vec::new();
            write_uvarint(&mut payload, 0); // session
            write_uvarint(&mut payload, count);
            write_packed(&mut payload, &[7; PACK_BLOCK]);
            err_kind(&payload, 3);
            let err = decode_frame(3, &payload).unwrap_err();
            assert!(err.to_string().contains("exceeds cap"), "{count}: {err}");
        }
        // Answer quantile count at the extremes, through frame 6.
        for count in [u64::from(u32::MAX) + 1, u64::MAX] {
            let mut payload = Vec::new();
            write_uvarint(&mut payload, 0); // session
            write_uvarint(&mut payload, 0); // eval index
            write_uvarint(&mut payload, count);
            err_kind(&payload, 6);
        }
    }

    #[test]
    fn rejects_structural_corruption() {
        // Unknown frame type (15/16 became the stats scrape in v5; 17
        // is the first unassigned type). 12–14 carried the retired
        // shared-memory plane and are unassigned since v6: their old
        // well-formed payloads must not decode.
        assert!(decode_frame(0, &[]).is_err());
        let mut payload = Vec::new();
        write_uvarint(&mut payload, 2); // ring path length
        payload.extend_from_slice(b"/x");
        write_uvarint(&mut payload, 4); // slots
        write_uvarint(&mut payload, 8); // slot capacity
        assert!(decode_frame(12, &payload).is_err());
        assert!(decode_frame(13, &[0, 0, 0, 0]).is_err());
        assert!(decode_frame(14, &[0, 0]).is_err());
        assert!(decode_frame(17, &[]).is_err());
        assert!(decode_frame(255, &[1, 2, 3]).is_err());
        // Bad hello: wrong magic, wrong length, unknown role.
        assert!(decode_frame(1, b"NOPE\x01\x00").is_err());
        assert!(decode_frame(1, b"QLVT\x01").is_err());
        assert!(decode_frame(1, b"QLVT\x01\x09").is_err());
        assert!(decode_frame(1, b"QLVT\x01\x00\x00").is_err());
        // Event batch whose count (within the cap) exceeds what the
        // payload could hold even at width 0: rejected before the
        // values are allocated.
        let mut payload = Vec::new();
        write_uvarint(&mut payload, 0); // session
        write_uvarint(&mut payload, MAX_BATCH_VALUES as u64);
        write_packed(&mut payload, &[7; PACK_BLOCK]);
        let err = decode_frame(3, &payload).unwrap_err();
        assert!(err.to_string().contains("exceeds payload"), "{err}");
        // Event batch with no session id at all.
        assert!(decode_frame(3, &[]).is_err());
        // Trailing garbage after a valid session + boundary index.
        let mut payload = Vec::new();
        write_uvarint(&mut payload, 0);
        write_uvarint(&mut payload, 4);
        payload.push(0);
        assert!(decode_frame(4, &payload).is_err());
        // Boundary missing its boundary index (session only).
        let mut payload = Vec::new();
        write_uvarint(&mut payload, 4);
        assert!(decode_frame(4, &payload).is_err());
        // Summary frame with corrupt QLVS payload.
        let mut payload = Vec::new();
        write_uvarint(&mut payload, 0); // session
        write_uvarint(&mut payload, 0); // boundary
        payload.extend_from_slice(b"QLVX");
        assert!(decode_frame(5, &payload).is_err());
        // Answer with an unknown source byte.
        let mut payload = Vec::new();
        write_uvarint(&mut payload, 0); // session
        write_uvarint(&mut payload, 0); // eval index
        write_uvarint(&mut payload, 1); // l = 1
        write_uvarint(&mut payload, 10); // value
        payload.push(7); // bad source
        payload.push(0); // bound tag
        payload.push(0); // bursty
        assert!(decode_frame(6, &payload).is_err());
        // Shutdown with a payload.
        assert!(decode_frame(7, &[0]).is_err());
        // Heartbeat: missing session id, truncated varint, trailing
        // bytes after a valid session id.
        assert!(decode_frame(8, &[]).is_err());
        assert!(decode_frame(8, &[0x80]).is_err());
        assert!(decode_frame(8, &[0]).is_ok());
        assert!(decode_frame(8, &[0, 0]).is_err());
        // CloseSession: same shape contract as heartbeat.
        assert!(decode_frame(10, &[]).is_err());
        assert!(decode_frame(10, &[0x80]).is_err());
        assert!(decode_frame(10, &[7]).is_ok());
        assert!(decode_frame(10, &[7, 7]).is_err());
        // Restore: truncated varints, corrupt QLVS checkpoint, and
        // trailing bytes after a valid checkpoint.
        assert!(decode_frame(9, &[]).is_err());
        assert!(decode_frame(9, &[0x80]).is_err());
        assert!(decode_frame(9, &[0, 0x80]).is_err());
        let mut payload = Vec::new();
        write_uvarint(&mut payload, 0); // session
        write_uvarint(&mut payload, 3); // boundary
        payload.extend_from_slice(b"QLVX");
        assert!(decode_frame(9, &payload).is_err());
        let mut payload = Vec::new();
        write_uvarint(&mut payload, 0);
        write_uvarint(&mut payload, 3);
        qlove_wire::encode_summary(&[(1, 2)], &mut payload);
        assert!(decode_frame(9, &payload).is_ok());
        payload.push(0);
        assert!(decode_frame(9, &payload).is_err());
        // A restore checkpoint claiming far more pairs than the payload
        // holds must be rejected before any allocation (the QLVS
        // decoder's count checks, reached through frame 9).
        for (count, reason) in [
            (u64::MAX, "exceeds cap"),
            (qlove_wire::MAX_SUMMARY_PAIRS as u64, "exceeds payload"),
        ] {
            let mut payload = Vec::new();
            write_uvarint(&mut payload, 0); // session
            write_uvarint(&mut payload, 0); // boundary
            let mut qlvs = Vec::new();
            qlove_wire::encode_summary(&[(1, 1)], &mut qlvs);
            // Blow up the declared pair count (varint right after the
            // QLVS magic + version header) while keeping the rest of
            // the one-pair v2 payload: first key, delta and frequency
            // blocks.
            let header = 5;
            let body = qlvs.split_off(header + 1);
            qlvs.truncate(header); // drop the one-byte count of 1
            write_uvarint(&mut qlvs, count);
            qlvs.extend_from_slice(&body);
            payload.extend_from_slice(&qlvs);
            let err = decode_frame(9, &payload).unwrap_err();
            assert!(err.to_string().contains(reason), "{count}: {err}");
        }
    }

    /// The v5 stats frames face the same hostile-input contract:
    /// truncation, torn varints, and trailing bytes all surface as
    /// `InvalidData` — never a panic.
    #[test]
    fn rejects_corrupt_stats_frames() {
        // StatsRequest: same shape contract as Heartbeat.
        assert!(decode_frame(15, &[]).is_err());
        assert!(decode_frame(15, &[0x80]).is_err());
        assert!(decode_frame(15, &[3]).is_ok());
        assert!(decode_frame(15, &[3, 0]).is_err());
        // StatsReport: each of the five varints truncated in turn.
        for varints in 0..5usize {
            let mut payload = Vec::new();
            for _ in 0..varints {
                write_uvarint(&mut payload, 7);
            }
            assert!(decode_frame(16, &payload).is_err(), "{varints} varints");
            payload.push(0x80); // torn continuation byte
            assert!(decode_frame(16, &payload).is_err());
        }
        // Exactly five varints is a frame; a sixth byte is trailing.
        let mut payload = Vec::new();
        for v in [0u64, 1, u64::MAX, 3, 4] {
            write_uvarint(&mut payload, v);
        }
        assert!(decode_frame(16, &payload).is_ok());
        payload.push(0);
        assert!(decode_frame(16, &payload).is_err());
    }

    /// QLVT v7 event payloads are packed blocks: a corrupt block
    /// (width above 64, nonzero padding bits, `min + offset` past
    /// `u64::MAX`) is `InvalidData`, and so is every cut of a
    /// multi-block batch.
    #[test]
    fn rejects_corrupt_packed_event_blocks() {
        let batch = |values: &[u64]| {
            let mut payload = Vec::new();
            write_uvarint(&mut payload, 0); // session
            write_uvarint(&mut payload, values.len() as u64);
            payload
        };
        // Width 65.
        let mut payload = batch(&[0, 0]);
        payload.extend_from_slice(&[0, 65]);
        payload.extend_from_slice(&[0; 17]);
        assert!(decode_frame(3, &payload).is_err());
        // Nonzero padding: three 1-bit offsets, bit 7 set.
        let mut payload = batch(&[0, 1, 0]);
        payload.extend_from_slice(&[0, 1, 0b1000_0010]);
        assert!(decode_frame(3, &payload).is_err());
        payload[4] = 0b010;
        assert!(decode_frame(3, &payload).is_ok());
        // min + offset overflows.
        let mut payload = batch(&[0, 0]);
        write_uvarint(&mut payload, u64::MAX);
        payload.extend_from_slice(&[1, 0b10]);
        assert!(decode_frame(3, &payload).is_err());
        // Every cut of a three-block batch, width 0 in the middle.
        let values: Vec<u64> = (0..300u64)
            .map(|i| {
                if (128..256).contains(&i) {
                    5
                } else {
                    218 + i * 613
                }
            })
            .collect();
        let mut payload = batch(&values);
        write_packed(&mut payload, &values);
        let Frame::EventBatch { values: got, .. } = decode_frame(3, &payload).unwrap() else {
            panic!("wrong frame kind")
        };
        assert_eq!(got, values);
        for cut in 0..payload.len() {
            assert!(decode_frame(3, &payload[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn writer_refuses_batches_past_the_cap() {
        let mut bytes = Vec::new();
        let mut writer = FrameWriter::new(&mut bytes);
        let at_cap = Frame::EventBatch {
            session: 0,
            values: vec![1; MAX_BATCH_VALUES],
        };
        writer.write_frame(&at_cap).unwrap();
        let past = Frame::EventBatch {
            session: 0,
            values: vec![1; MAX_BATCH_VALUES + 1],
        };
        let err = writer.write_frame(&past).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            FrameReader::new(bytes.as_slice()).read_frame().unwrap(),
            at_cap
        );
    }

    #[test]
    fn reader_rejects_truncation_everywhere() {
        // Any cut that is not exactly a frame boundary must error; a
        // cut on a boundary yields the preceding frames then clean EOF.
        let frames = [
            Frame::OpenSession {
                session: 3,
                config: sample_config(),
                mode: WorkerMode::Shard,
            },
            Frame::Restore {
                session: 3,
                boundary: 7,
                checkpoint: QloveSummary::from_counts(vec![(1, 2), (300, 1)]).unwrap(),
            },
            Frame::EventBatch {
                session: 3,
                values: vec![1, 2, 3],
            },
            Frame::CloseSession { session: 3 },
            Frame::Heartbeat { session: 0 },
        ];
        let mut bytes = Vec::new();
        let mut clean_cuts = vec![0usize];
        {
            let mut writer = FrameWriter::new(&mut bytes);
            for frame in &frames {
                writer.write_frame(frame).unwrap();
            }
        }
        for frame in &frames {
            let mut only = Vec::new();
            FrameWriter::new(&mut only).write_frame(frame).unwrap();
            clean_cuts.push(clean_cuts.last().unwrap() + only.len());
        }
        for cut in 1..bytes.len() {
            let mut reader = FrameReader::new(&bytes[..cut]);
            let mut result = Ok(());
            loop {
                match reader.try_read_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(e) => {
                        result = Err(e);
                        break;
                    }
                }
            }
            if clean_cuts.contains(&cut) {
                assert!(result.is_ok(), "cut on frame boundary is clean EOF");
            } else {
                assert!(result.is_err(), "cut at {cut} should fail");
            }
        }
    }

    /// A source that interleaves `WouldBlock` timeouts between every
    /// delivered byte — the worst case a socket read deadline can
    /// produce. The reader must resume mid-frame and still decode the
    /// stream exactly.
    #[test]
    fn reader_resumes_across_read_timeouts() {
        struct Choppy<'a> {
            data: &'a [u8],
            pos: usize,
            deliver_next: bool,
        }
        impl io::Read for Choppy<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.pos == self.data.len() {
                    return Ok(0);
                }
                if !self.deliver_next {
                    self.deliver_next = true;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "deadline"));
                }
                self.deliver_next = false;
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let frames = [
            Frame::Heartbeat { session: 9 },
            Frame::BoundarySummary {
                session: 9,
                boundary: 5,
                epoch: 0,
                summary: QloveSummary::from_counts(vec![(2, 9), (40, 1)]).unwrap(),
            },
            Frame::Shutdown,
        ];
        let mut bytes = Vec::new();
        {
            let mut writer = FrameWriter::new(&mut bytes);
            for frame in &frames {
                writer.write_frame(frame).unwrap();
            }
        }
        let mut reader = FrameReader::new(Choppy {
            data: &bytes,
            pos: 0,
            deliver_next: false,
        });
        let mut got = Vec::new();
        loop {
            match reader.try_read_frame() {
                Ok(Some(frame)) => got.push(frame),
                Ok(None) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => continue,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn reader_rejects_oversized_declared_length() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        bytes.push(3);
        let err = FrameReader::new(bytes.as_slice()).read_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn decode_never_panics_on_noise() {
        // The QLVS fuzz loop, extended to the framed decoder: byte soup
        // through every frame type, and through the stream reader with
        // a plausible header.
        let mut state = 0xA24BAED4963EE407u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 56) as u8
        };
        for len in 0..96usize {
            let noise: Vec<u8> = (0..len).map(|_| next()).collect();
            for frame_type in 0..=18u8 {
                let _ = decode_frame(frame_type, &noise); // must return
            }
            // Streamed: random header + noise payload.
            let mut stream = Vec::with_capacity(len + 5);
            stream.extend_from_slice(&(len as u32).to_le_bytes());
            stream.push(next() % 17);
            stream.extend_from_slice(&noise);
            let mut reader = FrameReader::new(stream.as_slice());
            while let Ok(Some(_)) = reader.try_read_frame() {}
        }
    }
}
