//! Differential harness for the multi-process socket transport: real
//! worker **child processes** (spawned by re-invoking this test binary
//! in worker mode), connected over Unix-domain and TCP loopback
//! sockets, must answer **bit-identically** to a sequential
//! single-instance `Qlove` run — values, `AnswerSource` provenance,
//! bounds, burst flags, and the trailing partial sub-window — for both
//! Level-1 backends and for stream lengths that are not multiples of
//! the dealing batch.
//!
//! The worker harness: [`worker_child_entry`] is an ordinary test that
//! no-ops in a normal run, but when `QLOVE_TRANSPORT_WORKER` is set it
//! becomes the child's main: bind the endpoint, announce the resolved
//! address on stdout, serve every session on one connection, report,
//! exit. The parent spawns `current_exe() --exact worker_child_entry`
//! per worker — no extra binaries, and the children die with their
//! connection (or with the parent's `Drop`, so CI can never leak
//! processes).
//!
//! The multi-session differentials point the same harness at the v2
//! multiplexed client: 64 interleaved sessions with mixed backends and
//! modes over ONE child process, bit-identical per session — including
//! a `kill -9` mid-run with per-session `Restore` recovery.

use qlove::core::{AnswerSource, Backend, FewKConfig, Qlove, QloveAnswer, QloveConfig};
use qlove::stream::parallel::BATCH;
use qlove::transport::{
    run_over_sockets, run_remote_operator, run_sessions, run_sessions_supervised, run_supervised,
    Conn, Endpoint, FailureEvent, FailureKind, RecoveryPolicy, SessionSpec, WorkerMode,
    WorkerServer,
};
use qlove::workloads::NormalGen;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const WINDOW: usize = 8_000;
const PERIOD: usize = 1_000;
const PHIS: [f64; 3] = [0.5, 0.9, 0.999];

/// Table-3 half-budget top-k configuration (as in the in-process
/// differential): Q0.999 routes through the top-k pipeline, so the
/// differential covers non-Level2 provenance across the wire.
fn config_for(backend: Backend) -> QloveConfig {
    QloveConfig::new(&PHIS, WINDOW, PERIOD)
        .fewk(Some(FewKConfig::with_fractions(0.5, 0.0)))
        .backend(backend)
}

fn sequential_qlove(cfg: &QloveConfig, data: &[u64]) -> (Vec<QloveAnswer>, Qlove) {
    let mut op = Qlove::new(cfg.clone());
    let answers = data.iter().filter_map(|&v| op.push_detailed(v)).collect();
    (answers, op)
}

// ---- child-process worker harness -----------------------------------------

const WORKER_ENV: &str = "QLOVE_TRANSPORT_WORKER";
const READY_PREFIX: &str = "QLOVE_WORKER_READY ";
const DONE_PREFIX: &str = "QLOVE_WORKER_DONE";
const ERROR_PREFIX: &str = "QLOVE_WORKER_ERROR";

/// Worker-mode entry point. In a normal test run (env unset) this
/// passes immediately; re-invoked by the harness with
/// `QLOVE_TRANSPORT_WORKER=<endpoint>` it serves one session and
/// reports the outcome on stdout.
#[test]
fn worker_child_entry() {
    let Ok(spec) = std::env::var(WORKER_ENV) else {
        return;
    };
    let endpoint = Endpoint::parse(&spec).expect("harness passes a valid endpoint");
    let server = WorkerServer::bind(&endpoint).expect("bind worker endpoint");
    let actual = server.local_endpoint().expect("resolve bound endpoint");
    println!("{READY_PREFIX}{actual}");
    std::io::stdout()
        .flush()
        .expect("announce listening endpoint");
    match server.serve_one() {
        Ok(report) => println!(
            "{DONE_PREFIX} sessions={} responses={} events={}",
            report.sessions_served(),
            report.responses(),
            report.events()
        ),
        Err(e) => println!("{ERROR_PREFIX} {e}"),
    }
}

/// One spawned worker child process. Killed (then reaped) on drop, so
/// a failing assertion in the parent can never leak a child into CI.
struct WorkerProc {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    endpoint: Endpoint,
}

impl WorkerProc {
    /// Spawn a worker child listening on `spec` (TCP port 0 and UDS
    /// paths both work) and wait until it announces readiness.
    fn spawn(spec: &str) -> Self {
        let exe = std::env::current_exe().expect("test binary path");
        let mut child = Command::new(exe)
            .args(["--exact", "worker_child_entry", "--nocapture"])
            .env(WORKER_ENV, spec)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn worker child");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        // The child prints libtest chatter first; scan for the
        // readiness line carrying the resolved endpoint.
        let mut line = String::new();
        let endpoint = loop {
            line.clear();
            let n = std::io::BufRead::read_line(&mut stdout, &mut line)
                .expect("read worker child stdout");
            assert!(n > 0, "worker child exited before announcing readiness");
            // libtest prints its own "test ... " chatter around (and on
            // the same line as) the marker; scan, don't prefix-match.
            if let Some(at) = line.find(READY_PREFIX) {
                let addr = line[at + READY_PREFIX.len()..].trim();
                break Endpoint::parse(addr).expect("child announces a valid endpoint");
            }
        };
        Self {
            child,
            stdout,
            endpoint,
        }
    }

    fn connect(&self) -> Conn {
        Conn::connect_retry(&self.endpoint, Duration::from_secs(10)).expect("connect to worker")
    }

    /// Send an arbitrary signal to the child (`"KILL"`, `"STOP"`, ...)
    /// via the system `kill` — std only speaks SIGKILL itself.
    fn signal(&self, sig: &str) {
        let _ = Command::new("kill")
            .args([&format!("-{sig}"), &self.child.id().to_string()])
            .status();
    }

    /// Wait for the child to exit cleanly and return its outcome line
    /// (`DONE ...` or `ERROR ...`).
    fn join(mut self) -> String {
        let outcome = loop {
            let mut line = String::new();
            let n = self
                .stdout
                .read_line(&mut line)
                .expect("read worker child stdout");
            assert!(n > 0, "worker child exited without an outcome line");
            if let Some(at) = line.find(DONE_PREFIX).or_else(|| line.find(ERROR_PREFIX)) {
                break line[at..].trim().to_string();
            }
        };
        let status = self.child.wait().expect("reap worker child");
        assert!(status.success(), "worker child failed: {status}");
        // Drop still runs kill()+wait(), but both are harmless no-op
        // errors on an already-reaped child.
        outcome
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        // Safety net for panicking tests: kill + reap so CI never
        // accumulates orphans. Killing an already-exited child is a
        // no-op error, and wait() after wait() is fine too.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Transport families under test. Each call produces fresh endpoint
/// specs so parallel tests never collide.
fn endpoint_specs(shards: usize, family: &str, tag: &str) -> Vec<String> {
    match family {
        "tcp" => (0..shards).map(|_| "tcp:127.0.0.1:0".to_string()).collect(),
        "uds" => (0..shards)
            .map(|i| {
                let path = std::env::temp_dir()
                    .join(format!("qlove-td-{}-{tag}-{i}.sock", std::process::id()));
                format!("unix:{}", path.display())
            })
            .collect(),
        other => panic!("unknown transport family {other}"),
    }
}

fn spawn_fleet(specs: &[String]) -> Vec<WorkerProc> {
    specs.iter().map(|s| WorkerProc::spawn(s)).collect()
}

// ---- differentials --------------------------------------------------------

#[test]
fn socket_distributed_is_bit_identical_to_sequential() {
    // Not a multiple of BATCH (4096), PERIOD does not divide BATCH —
    // every sub-window boundary falls mid-batch, the final batch is
    // short, and a trailing partial sub-window is left pending.
    let n = 2 * BATCH + 1_234;
    for (backend, family) in [
        (Backend::Tree, "uds"),
        (Backend::Dense, "uds"),
        (Backend::Tree, "tcp"),
        (Backend::Dense, "tcp"),
    ] {
        let cfg = config_for(backend);
        let data = NormalGen::generate(9, n);
        let (want, single) = sequential_qlove(&cfg, &data);
        assert!(want.len() >= 2, "{backend:?}: too few evaluations");
        for shards in [1usize, 3] {
            let tag = format!("{backend:?}-{shards}").to_lowercase();
            let fleet = spawn_fleet(&endpoint_specs(shards, family, &tag));
            let conns = fleet.iter().map(WorkerProc::connect).collect();
            let mut coordinator = Qlove::new(cfg.clone());
            let run = run_over_sockets(&cfg, &mut coordinator, conns, &data)
                .expect("socket-distributed run");
            assert_eq!(run.answers, want, "{backend:?} {family} shards {shards}");
            assert_eq!(
                coordinator.pending(),
                single.pending(),
                "{backend:?} {family} shards {shards}: trailing partial sub-window"
            );
            assert_eq!(coordinator.pending(), n % PERIOD);
            assert_eq!(run.stats.boundaries, n.div_ceil(PERIOD));
            for worker in fleet {
                let outcome = worker.join();
                assert!(
                    outcome.starts_with(DONE_PREFIX),
                    "worker should end cleanly, got: {outcome}"
                );
            }
        }
    }
}

#[test]
fn socket_distributed_provenance_is_preserved_and_exercised() {
    let cfg = config_for(Backend::Dense);
    let data = NormalGen::generate(5, 2 * BATCH + 7_777);
    let (want, _) = sequential_qlove(&cfg, &data);
    let fleet = spawn_fleet(&endpoint_specs(2, "tcp", "prov"));
    let conns = fleet.iter().map(WorkerProc::connect).collect();
    let mut coordinator = Qlove::new(cfg.clone());
    let run = run_over_sockets(&cfg, &mut coordinator, conns, &data).expect("socket run");
    let seq_sources: Vec<_> = want.iter().flat_map(|a| a.sources.clone()).collect();
    let dist_sources: Vec<_> = run.answers.iter().flat_map(|a| a.sources.clone()).collect();
    assert_eq!(dist_sources, seq_sources);
    // The differential only means something if it covers the few-k
    // pipeline, not just Level 2.
    assert!(dist_sources.contains(&AnswerSource::TopK));
    assert!(dist_sources.contains(&AnswerSource::Level2));
    for worker in fleet {
        worker.join();
    }
}

#[test]
fn remote_operator_answers_cross_process_bit_identically() {
    // Operator mode: the child runs the whole operator and streams
    // Answer frames back — the answer codec itself crosses the process
    // boundary and must preserve bit-identity (incl. f64 bounds).
    for family in ["uds", "tcp"] {
        let cfg = config_for(Backend::Dense);
        let data = NormalGen::generate(13, BATCH + 9_111);
        let (want, _) = sequential_qlove(&cfg, &data);
        assert!(!want.is_empty());
        let worker = WorkerProc::spawn(&endpoint_specs(1, family, "remote")[0]);
        let answers =
            run_remote_operator(&cfg, worker.connect(), &data, &RecoveryPolicy::disabled())
                .expect("remote operator run");
        assert_eq!(answers, want, "{family}");
        let outcome = worker.join();
        assert!(
            outcome.contains(&format!("responses={}", want.len())),
            "{outcome}"
        );
        assert!(
            outcome.contains(&format!("events={}", data.len())),
            "{outcome}"
        );
    }
}

#[test]
fn worker_process_rejects_garbage_without_hanging() {
    // Malformed bytes from a broken peer must end the child's session
    // with an error — promptly, with the process exiting cleanly.
    let worker = WorkerProc::spawn("tcp:127.0.0.1:0");
    let mut conn = worker.connect();
    conn.write_all(b"\xff\xff\xff\xff garbage, not a QLVT frame")
        .expect("write garbage");
    let _ = conn.shutdown();
    let outcome = worker.join();
    assert!(
        outcome.starts_with(ERROR_PREFIX),
        "expected a decode error, got: {outcome}"
    );
}

// ---- multi-session differentials ------------------------------------------

/// `n` fully independent session specs: varied window schedules, mixed
/// tree/dense backends, varied stream lengths (so sessions finish at
/// different times), and — unless `shard_only` — mixed shard/operator
/// modes in the same process.
fn session_specs(n: usize, shard_only: bool) -> Vec<SessionSpec> {
    (0..n)
        .map(|s| {
            let period = 250 + 50 * (s % 2);
            let window = period * (6 + s % 3);
            let backend = if s % 2 == 0 {
                Backend::Tree
            } else {
                Backend::Dense
            };
            let mode = if !shard_only && s % 4 == 3 {
                WorkerMode::Operator
            } else {
                WorkerMode::Shard
            };
            SessionSpec {
                config: QloveConfig::new(&PHIS, window, period).backend(backend),
                mode,
                values: NormalGen::generate(100 + s as u64, 3_000 + s * 17),
            }
        })
        .collect()
}

#[test]
fn multi_session_one_process_is_bit_identical() {
    // The acceptance bar: ONE worker child process serves 64
    // interleaved sessions — mixed backends, mixed shard/operator
    // modes, distinct window schedules — and every session's answers
    // (values, provenance, bounds, trailing partials) are bit-identical
    // to its own sequential single-instance run.
    let specs = session_specs(64, false);
    let worker = WorkerProc::spawn("tcp:127.0.0.1:0");
    let outcomes = run_sessions(worker.connect(), &specs).expect("multi-session run");
    assert_eq!(outcomes.len(), specs.len());
    for (s, (spec, outcome)) in specs.iter().zip(&outcomes).enumerate() {
        let (want, single) = sequential_qlove(&spec.config, &spec.values);
        assert!(!want.is_empty(), "session {s}: degenerate spec");
        assert_eq!(outcome.answers, want, "session {s} ({:?})", spec.mode);
        if spec.mode == WorkerMode::Shard {
            assert_eq!(
                outcome.pending,
                single.pending(),
                "session {s}: trailing partial sub-window"
            );
        }
    }
    let outcome = worker.join();
    assert!(outcome.contains("sessions=64"), "{outcome}");
}

#[test]
fn multi_session_kill_recovers_every_session() {
    // kill -9 the child mid-run: the replacement process must re-host
    // every unfinished session, each restored to its own acknowledged
    // boundary, and all 64 answer streams must still come out
    // bit-identical. The retry loop guards against the rare run that
    // finishes before the signal lands — bit-identity is asserted on
    // every attempt regardless.
    let specs = session_specs(64, true);
    let seq: Vec<Vec<QloveAnswer>> = specs
        .iter()
        .map(|spec| sequential_qlove(&spec.config, &spec.values).0)
        .collect();
    let mut delay = jitter_ms(3, 15);
    let mut hit = false;
    for attempt in 0..3 {
        let victim = WorkerProc::spawn("tcp:127.0.0.1:0");
        let conn = victim.connect();
        let saboteur = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(delay));
            victim.signal("KILL");
            victim // keep the handle alive; the caller reaps it
        });
        let mut respawned: Vec<WorkerProc> = Vec::new();
        let result = run_sessions_supervised(conn, &specs, &chaos_policy(), || {
            let replacement = WorkerProc::spawn("tcp:127.0.0.1:0");
            let conn = replacement.connect();
            respawned.push(replacement);
            Ok(conn)
        });
        drop(saboteur.join().expect("saboteur thread"));
        let run = result.expect("supervised multi-session run must survive the kill");
        for (s, (want, outcome)) in seq.iter().zip(&run.outcomes).enumerate() {
            assert_eq!(&outcome.answers, want, "attempt {attempt} session {s}");
        }
        for event in &run.failures {
            assert!(event.recovered, "attempt {attempt}: unrecovered {event:?}");
        }
        if !run.failures.is_empty() {
            hit = true;
            break;
        }
        delay = (delay / 2).max(1);
    }
    assert!(hit, "kill -9 never landed mid-run in 3 attempts");
}

// ---- chaos differentials --------------------------------------------------

/// Stream length for the chaos runs: big enough that a signal a few
/// milliseconds in reliably lands mid-stream, small enough for CI.
const CHAOS_N: usize = 1_000_000;

fn chaos_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_restarts: 5,
        backoff: Duration::from_millis(20),
        deadline: Duration::from_secs(30),
        heartbeat: Some(Duration::from_millis(250)),
        jitter: 0xC4A05, // deterministic spread for multi-shard chaos respawns
    }
}

/// A randomized-but-bounded delay, reseeded from the clock per call so
/// repeated CI runs sample different kill points.
fn jitter_ms(lo: u64, hi: u64) -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after epoch")
        .subsec_nanos() as u64;
    lo + nanos % (hi - lo + 1)
}

/// One supervised run over two real worker child processes where a
/// saboteur thread signals shard 0's child `delay_ms` in. Asserts the
/// answers are bit-identical to sequential no matter where the signal
/// landed, and that every detected failure recovered; returns the
/// failure log so callers can assert on what was (or wasn't) detected.
fn chaos_run(
    backend: Backend,
    family: &str,
    tag: &str,
    sig: &str,
    delay_ms: u64,
) -> Vec<FailureEvent> {
    let cfg = config_for(backend);
    let data = NormalGen::generate(21, CHAOS_N);
    let (want, single) = sequential_qlove(&cfg, &data);
    let mut fleet = spawn_fleet(&endpoint_specs(2, family, tag));
    let conns: Vec<Conn> = fleet.iter().map(WorkerProc::connect).collect();
    let victim = fleet.remove(0);

    let sabotage_sig = sig.to_string();
    let saboteur = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(delay_ms));
        victim.signal(&sabotage_sig);
        victim // keep the handle alive; the caller reaps it
    });

    let mut respawned: Vec<WorkerProc> = Vec::new();
    let mut counter = 0usize;
    let family_owned = family.to_string();
    let tag_owned = tag.to_string();
    let mut coordinator = Qlove::new(cfg.clone());
    let result = run_supervised(
        &cfg,
        &mut coordinator,
        conns,
        &data,
        &chaos_policy(),
        |_shard| {
            counter += 1;
            let spec = endpoint_specs(1, &family_owned, &format!("{tag_owned}-r{counter}"))
                .pop()
                .expect("one spec");
            let replacement = WorkerProc::spawn(&spec);
            let conn = replacement.connect();
            respawned.push(replacement);
            Ok(conn)
        },
    );
    // Reap the signalled child (kill+wait in Drop handles every state,
    // stopped processes included) before judging the run.
    drop(saboteur.join().expect("saboteur thread"));
    let run = result.expect("supervised run must survive the chaos");
    assert_eq!(run.answers, want, "{backend:?} {family} sig {sig}");
    assert_eq!(
        coordinator.pending(),
        single.pending(),
        "{backend:?} {family} sig {sig}: trailing partial sub-window"
    );
    for event in &run.failures {
        assert!(
            event.recovered,
            "{backend:?} {family} sig {sig}: unrecovered {event:?}"
        );
    }
    // Survivors and replacements are dropped (killed+reaped) here; a
    // spurious stall verdict may have severed any of them mid-session,
    // so their exit status is deliberately not asserted.
    run.failures
}

#[test]
fn chaos_kill9_mid_stream_recovers_bit_identically() {
    // The acceptance matrix: both socket families x both Level-1
    // backends, SIGKILL at a randomized point. The retry loop guards
    // against the rare run that finishes before the signal lands — the
    // bit-identity assert inside chaos_run holds on every attempt.
    for (backend, family) in [
        (Backend::Tree, "uds"),
        (Backend::Dense, "uds"),
        (Backend::Tree, "tcp"),
        (Backend::Dense, "tcp"),
    ] {
        let mut delay = jitter_ms(3, 15);
        let mut hit = false;
        for attempt in 0..3 {
            let tag = format!("k9-{backend:?}-{attempt}").to_lowercase();
            if !chaos_run(backend, family, &tag, "KILL", delay).is_empty() {
                hit = true;
                break;
            }
            delay = (delay / 2).max(1);
        }
        assert!(
            hit,
            "{backend:?} {family}: kill -9 never landed mid-stream in 3 attempts"
        );
    }
}

#[test]
fn chaos_sigstop_hung_worker_is_detected_and_recovered() {
    // A stopped child keeps its sockets open, so only the heartbeat
    // deadline can unmask it: the failure must surface as a stall (not
    // a crash) and recovery must still end bit-identically.
    for (backend, family) in [(Backend::Tree, "uds"), (Backend::Dense, "tcp")] {
        let mut delay = jitter_ms(3, 15);
        let mut stalled = false;
        for attempt in 0..3 {
            let tag = format!("stop-{backend:?}-{attempt}").to_lowercase();
            let failures = chaos_run(backend, family, &tag, "STOP", delay);
            if failures.iter().any(|f| f.kind == FailureKind::Stall) {
                stalled = true;
                break;
            }
            delay = (delay / 2).max(1);
        }
        assert!(
            stalled,
            "{backend:?} {family}: SIGSTOP never surfaced as a stall in 3 attempts"
        );
    }
}

#[test]
fn worker_process_dies_with_its_coordinator() {
    // A coordinator that connects and vanishes mid-session must not
    // strand the worker: EOF surfaces as an error and the child exits.
    let worker = WorkerProc::spawn("tcp:127.0.0.1:0");
    {
        let conn = worker.connect();
        // Handshake far enough that the worker is inside its session
        // loop, then drop the connection.
        use qlove::transport::{Frame, FrameWriter, Role, PROTOCOL_VERSION};
        let mut writer = FrameWriter::new(conn);
        writer
            .write_frame(&Frame::Hello {
                version: PROTOCOL_VERSION,
                role: Role::Coordinator,
            })
            .expect("hello");
        writer.flush().expect("flush");
        // Connection drops here.
    }
    let outcome = worker.join();
    assert!(outcome.starts_with(ERROR_PREFIX), "got: {outcome}");
}
