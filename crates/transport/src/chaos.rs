//! Seed-deterministic fault injection for QLVT connections.
//!
//! Grown out of the frame-position cut proxy that used to live inside
//! `tests/transport_recovery.rs`: a proxy thread pair sits between the
//! coordinator and a worker [`Conn`], parses the coordinator→worker
//! byte stream frame by frame (QLVT framing: 4-byte LE payload length,
//! 1 type byte, payload), and asks a [`FaultInjector`] what to do with
//! each frame — forward it, duplicate it, delay it, or sever both
//! connections right there. The worker→coordinator direction is a dumb
//! byte pump: faults are injected where the coordinator's dealer and
//! replay machinery have to cope with them.
//!
//! Everything here is deterministic given a seed. [`SeededRng`] is a
//! tiny xorshift64* generator — no wall clock, no OS entropy — so a
//! failing chaos schedule reproduces from its seed alone. The same
//! generator drives [`RecoveryPolicy`] backoff jitter, keeping every
//! source of "randomness" in the crate replayable.
//!
//! [`RecoveryPolicy`]: crate::coordinator::RecoveryPolicy

use crate::net::Conn;
use std::io::{self, Read, Write};
use std::thread::JoinHandle;
use std::time::Duration;

/// A tiny deterministic xorshift64* generator.
///
/// Not cryptographic and not meant to be: it exists so fault schedules
/// and backoff jitter are pure functions of their seeds. Any seed is
/// accepted (zero is remapped internally; xorshift has no escape from
/// the all-zero state).
#[derive(Debug, Clone)]
pub struct SeededRng {
    state: u64,
}

impl SeededRng {
    /// A generator whose whole future is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        // SplitMix64-style scrambling so nearby seeds (0, 1, 2, ...)
        // still produce unrelated streams, and seed 0 is usable.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self {
            state: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z },
        }
    }

    /// The next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A value uniform in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// True once in `one_in` draws on average (`0` means never).
    pub fn chance(&mut self, one_in: u64) -> bool {
        one_in != 0 && self.below(one_in) == 0
    }
}

/// What the proxy does with one coordinator→worker frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Deliver the frame unchanged.
    Forward,
    /// Deliver the frame twice back to back (a retransmit-style
    /// duplicate; the worker must reject or tolerate it).
    Dup,
    /// Hold the frame — and everything queued behind it — for this
    /// long before delivering it (a congested or flaky link; exercises
    /// heartbeat/stall detection rather than crash detection).
    Delay(Duration),
    /// Sever both directions of both sockets, abruptly, exactly here.
    /// The frame is *not* delivered. The proxy exits.
    Cut,
}

/// Decides the [`Fate`] of each coordinator→worker frame, in stream
/// order. `index` counts every frame on the connection starting at 0 —
/// including the handshake (`Hello`, `OpenSession`) — so a cut
/// position pins an exact protocol state. `frame_type` is the QLVT
/// type byte and `payload_len` the payload size, letting injectors
/// target frame kinds without decoding payloads.
pub trait FaultInjector: Send + 'static {
    /// The fate of frame number `index`.
    fn fate(&mut self, index: u64, frame_type: u8, payload_len: usize) -> Fate;
}

/// Forwards exactly `0..n` frames, then cuts: the deterministic
/// "worker crashed at frame N" injector the recovery sweeps are built
/// on.
#[derive(Debug, Clone, Copy)]
pub struct CutAfter(pub u64);

impl FaultInjector for CutAfter {
    fn fate(&mut self, index: u64, _frame_type: u8, _payload_len: usize) -> Fate {
        if index == self.0 {
            Fate::Cut
        } else {
            Fate::Forward
        }
    }
}

/// Never interferes — a proxied connection that behaves like a direct
/// one (useful as the uncut arm of a sweep so both arms share the
/// proxy's buffering behavior).
#[derive(Debug, Clone, Copy)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn fate(&mut self, _index: u64, _frame_type: u8, _payload_len: usize) -> Fate {
        Fate::Forward
    }
}

/// Seed-deterministic background noise: duplicates roughly one frame
/// in `dup_one_in`, delays roughly one in `delay_one_in` by up to
/// `max_delay`, and optionally cuts after a fixed frame count. The
/// whole schedule is a pure function of the seed.
#[derive(Debug, Clone)]
pub struct SeededFaults {
    rng: SeededRng,
    dup_one_in: u64,
    delay_one_in: u64,
    max_delay: Duration,
    cut_after: Option<u64>,
}

impl SeededFaults {
    /// A quiet injector (no faults) seeded with `seed`; dial faults in
    /// with the builder methods.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SeededRng::new(seed),
            dup_one_in: 0,
            delay_one_in: 0,
            max_delay: Duration::ZERO,
            cut_after: None,
        }
    }

    /// Duplicate one frame in `one_in` on average (`0` = never).
    pub fn dup_one_in(mut self, one_in: u64) -> Self {
        self.dup_one_in = one_in;
        self
    }

    /// Delay one frame in `one_in` on average by a uniform duration in
    /// `0..=max_delay` (`0` = never).
    pub fn delay_one_in(mut self, one_in: u64, max_delay: Duration) -> Self {
        self.delay_one_in = one_in;
        self.max_delay = max_delay;
        self
    }

    /// Also sever the connection after exactly `n` forwarded-or-faulted
    /// frames, like [`CutAfter`].
    pub fn cut_after(mut self, n: u64) -> Self {
        self.cut_after = Some(n);
        self
    }
}

impl FaultInjector for SeededFaults {
    fn fate(&mut self, index: u64, _frame_type: u8, _payload_len: usize) -> Fate {
        if self.cut_after == Some(index) {
            return Fate::Cut;
        }
        // Fixed draw order per frame keeps the schedule a pure
        // function of (seed, index) regardless of which faults are
        // enabled together.
        let delay = self.rng.chance(self.delay_one_in);
        let dup = self.rng.chance(self.dup_one_in);
        if delay {
            let us = self.rng.below(self.max_delay.as_micros().max(1) as u64);
            return Fate::Delay(Duration::from_micros(us));
        }
        if dup {
            return Fate::Dup;
        }
        Fate::Forward
    }
}

/// The threads backing one interposed connection; join after the run
/// so tests never leak. Pump errors on a deliberately severed
/// connection are expected and swallowed — the assertions live on the
/// coordinator side.
#[derive(Debug)]
pub struct ChaosProxy {
    threads: Vec<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Wait for both pump threads to exit (they exit on EOF, error, or
    /// an injected cut). Panics only if a pump thread itself panicked.
    pub fn join(self) {
        for t in self.threads {
            t.join().expect("chaos proxy thread panicked");
        }
    }
}

/// An in-process connected pair for the proxy's coordinator-facing
/// leg: a Unix socketpair where available, loopback TCP elsewhere.
fn internal_pair() -> io::Result<(Conn, Conn)> {
    #[cfg(unix)]
    {
        let (a, b) = std::os::unix::net::UnixStream::pair()?;
        Ok((Conn::Unix(a), Conn::Unix(b)))
    }
    #[cfg(not(unix))]
    {
        use crate::net::{Endpoint, Listener};
        let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into()))?;
        let ep = listener.local_endpoint()?;
        let a = Conn::connect(&ep)?;
        let b = listener.accept()?;
        Ok((a, b))
    }
}

/// Interpose `injector` on `upstream` (a connection leading to a
/// worker): returns a new [`Conn`] for the coordinator to use in its
/// place, plus the proxy threads to join afterwards.
///
/// Coordinator→worker traffic is re-framed through the injector one
/// QLVT frame at a time; worker→coordinator traffic is pumped
/// verbatim. [`Fate::Cut`] (or a malformed/EOF'd stream) severs both
/// directions of both sockets, so either side observes a worker crash
/// rather than a hang.
pub fn interpose<I: FaultInjector>(upstream: Conn, injector: I) -> io::Result<(Conn, ChaosProxy)> {
    let (coord_side, proxy_side) = internal_pair()?;

    // worker→coordinator: dumb byte pump.
    let mut pump_read = upstream.try_clone()?;
    let mut pump_write = proxy_side.try_clone()?;
    let pump = std::thread::spawn(move || {
        let mut buf = [0u8; 8192];
        loop {
            match pump_read.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => {
                    if pump_write.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        }
        let _ = pump_write.shutdown();
    });

    // coordinator→worker: frame-by-frame forwarder with the injector.
    let mut chop_read = proxy_side;
    let mut chop_write = upstream;
    let mut injector = injector;
    let chopper = std::thread::spawn(move || {
        let mut index = 0u64;
        let mut header = [0u8; 5];
        let mut payload = Vec::new();
        loop {
            if chop_read.read_exact(&mut header).is_err() {
                let _ = chop_write.shutdown();
                break;
            }
            let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
            let frame_type = header[4];
            payload.resize(len, 0);
            if chop_read.read_exact(&mut payload).is_err() {
                let _ = chop_write.shutdown();
                break;
            }
            let repeats = match injector.fate(index, frame_type, len) {
                Fate::Forward => 1,
                Fate::Dup => 2,
                Fate::Delay(d) => {
                    std::thread::sleep(d);
                    1
                }
                Fate::Cut => {
                    // The injected failure: sever both directions of
                    // both sockets, abruptly, exactly here.
                    let _ = chop_read.shutdown();
                    let _ = chop_write.shutdown();
                    break;
                }
            };
            for _ in 0..repeats {
                if chop_write.write_all(&header).is_err() || chop_write.write_all(&payload).is_err()
                {
                    let _ = chop_read.shutdown();
                    let _ = chop_write.shutdown();
                    return;
                }
            }
            index += 1;
        }
    });

    Ok((
        coord_side,
        ChaosProxy {
            threads: vec![pump, chopper],
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Frame, FrameReader, FrameWriter};
    use std::io::BufReader;

    #[test]
    fn seeded_rng_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = SeededRng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SeededRng::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = SeededRng::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b, "same seed, same stream");
        assert_ne!(a, c, "adjacent seeds must diverge");
        // Seed 0 must not wedge in the all-zero state.
        let mut z = SeededRng::new(0);
        assert_ne!(z.next_u64(), z.next_u64());
    }

    #[test]
    fn seeded_faults_schedule_is_a_pure_function_of_the_seed() {
        let schedule = |seed: u64| -> Vec<Fate> {
            let mut inj = SeededFaults::new(seed)
                .dup_one_in(3)
                .delay_one_in(4, Duration::from_micros(500))
                .cut_after(37);
            (0..40).map(|i| inj.fate(i, 3, 100)).collect()
        };
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
        assert_eq!(schedule(7)[37], Fate::Cut);
        assert!(
            schedule(7).contains(&Fate::Dup),
            "1-in-3 dup odds over 37 frames should fire at least once"
        );
    }

    /// Drive real frames through an interposed pair and count what the
    /// far side receives.
    fn pump_frames<I: FaultInjector>(injector: I, send: usize) -> Vec<Frame> {
        let (near, far) = internal_pair().expect("pair");
        let (proxied, proxy) = interpose(far, injector).expect("interpose");

        let reader = std::thread::spawn(move || {
            let mut reader = FrameReader::new(BufReader::new(near));
            let mut got = Vec::new();
            while let Ok(frame) = reader.read_frame() {
                got.push(frame);
            }
            got
        });

        let mut writer = FrameWriter::new(proxied);
        for i in 0..send {
            // The session id doubles as a nonce, so dup/cut positions
            // are visible in the received sequence.
            if writer
                .write_frame(&Frame::Heartbeat { session: i as u64 })
                .is_err()
            {
                break;
            }
            let _ = writer.flush();
        }
        drop(writer);
        let got = reader.join().expect("reader panicked");
        proxy.join();
        got
    }

    #[test]
    fn cut_after_severs_at_the_exact_frame() {
        let got = pump_frames(CutAfter(3), 10);
        assert_eq!(
            got,
            (0..3)
                .map(|i| Frame::Heartbeat { session: i })
                .collect::<Vec<_>>(),
            "exactly the frames before the cut arrive, in order"
        );
    }

    #[test]
    fn dup_delivers_the_frame_twice_in_place() {
        struct DupAt(u64);
        impl FaultInjector for DupAt {
            fn fate(&mut self, index: u64, _t: u8, _l: usize) -> Fate {
                if index == self.0 {
                    Fate::Dup
                } else {
                    Fate::Forward
                }
            }
        }
        let got = pump_frames(DupAt(1), 4);
        let nonces: Vec<u64> = got
            .iter()
            .map(|f| match f {
                Frame::Heartbeat { session } => *session,
                other => panic!("unexpected frame {other:?}"),
            })
            .collect();
        assert_eq!(nonces, [0, 1, 1, 2, 3], "frame 1 arrives twice, in place");
    }

    #[test]
    fn no_faults_is_transparent() {
        let got = pump_frames(NoFaults, 5);
        assert_eq!(got.len(), 5);
    }
}
