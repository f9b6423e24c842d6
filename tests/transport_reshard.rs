//! Differential suite for **live resharding**: the shard set changes
//! mid-window — splits and merges applied between sub-windows — and
//! the answers must still come out **bit-identical** to a sequential
//! single-instance run: values, provenance, f64 bounds, burst flags,
//! and the trailing partial sub-window.
//!
//! Four layers of evidence:
//!
//! 1. An exhaustive reshard-point sweep: split and merge at **every**
//!    sub-window boundary, both Level-1 backends, UDS socketpairs and
//!    TCP loopback, against real in-process `serve_stream` workers.
//! 2. A cross-check against the in-process reference
//!    (`qlove::stream::parallel::run_resharded`) on the same schedule.
//! 3. A deterministic chaos sweep using the shared `transport::chaos`
//!    harness: the coordinator→worker connection is severed at every
//!    frame position **across the swap itself** — parent retirement,
//!    successor restore, epoch stamp — and recovery must replay the
//!    in-flight reshard bit-identically. Both the resharded parent
//!    connection and the *fresh* connection a split brings up get cut.
//! 4. Real worker **child processes** (same re-invocation harness as
//!    `tests/transport_differential.rs`) over UDS and TCP, including a
//!    `kill -9` of a worker mid-run with splits and merges on the
//!    schedule.
//!
//! The ingest-pause bound rides along everywhere: every executed
//! reshard must report `paused_subwindows == 1`.
#![cfg(unix)]

use qlove::core::{Backend, Qlove, QloveAnswer, QloveConfig, QloveShard};
use qlove::stream::parallel::{ReshardPlan, ReshardSpec, BATCH};
use qlove::transport::{
    interpose, run_resharded, serve_stream, ChaosProxy, Conn, CutAfter, DistributedRun, Endpoint,
    RecoveryPolicy, WorkerServer,
};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixStream;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Duration;

const WINDOW: usize = 400;
const PERIOD: usize = 50;
/// Values are quantized into [0, SPAN); the initial fleet splits this
/// range evenly.
const SPAN: u64 = 997;

fn config_for(backend: Backend) -> QloveConfig {
    QloveConfig::new(&[0.5, 0.9, 0.999], WINDOW, PERIOD).backend(backend)
}

fn sequential(cfg: &QloveConfig, data: &[u64]) -> (Vec<QloveAnswer>, Qlove) {
    let mut op = Qlove::new(cfg.clone());
    let answers = data.iter().filter_map(|&v| op.push_detailed(v)).collect();
    (answers, op)
}

/// A quick deterministic value stream (quantized, like telemetry).
fn stream(seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| (i.wrapping_mul(2654435761).wrapping_add(seed * 7919)) % SPAN)
        .collect()
}

// ---- in-process workers (both socket families) -----------------------------

enum WorkerHandle {
    Direct(JoinHandle<()>),
    Proxied(JoinHandle<()>, ChaosProxy),
}

impl WorkerHandle {
    fn join(self) {
        match self {
            // Session errors on deliberately severed or early-dropped
            // connections are expected; the asserts live coordinator-side.
            WorkerHandle::Direct(h) => h.join().expect("worker thread panicked"),
            WorkerHandle::Proxied(worker, proxy) => {
                worker.join().expect("worker thread panicked");
                proxy.join();
            }
        }
    }
}

/// A real in-process worker reachable over the given socket family.
fn in_process_worker(family: &str, handles: &Mutex<Vec<WorkerHandle>>) -> io::Result<Conn> {
    let (ours, handle) = match family {
        "uds" => {
            let (ours, theirs) = UnixStream::pair()?;
            let h = std::thread::spawn(move || {
                let _ = serve_stream(Conn::Unix(theirs));
            });
            (Conn::Unix(ours), WorkerHandle::Direct(h))
        }
        "tcp" => {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            let h = std::thread::spawn(move || {
                if let Ok((sock, _)) = listener.accept() {
                    let _ = serve_stream(Conn::Tcp(sock));
                }
            });
            (
                Conn::Tcp(std::net::TcpStream::connect(addr)?),
                WorkerHandle::Direct(h),
            )
        }
        other => panic!("unknown family {other}"),
    };
    handles.lock().unwrap().push(handle);
    Ok(ours)
}

/// An in-process UDS worker behind the shared `transport::chaos` proxy,
/// severed after `cut` coordinator→worker frames (counting from the
/// very first, i.e. including the handshake).
fn proxied_worker(cut: u64, handles: &Mutex<Vec<WorkerHandle>>) -> io::Result<Conn> {
    let (upstream, worker_side) = UnixStream::pair()?;
    let worker = std::thread::spawn(move || {
        let _ = serve_stream(Conn::Unix(worker_side));
    });
    let (conn, proxy) = interpose(Conn::Unix(upstream), CutAfter(cut))?;
    handles
        .lock()
        .unwrap()
        .push(WorkerHandle::Proxied(worker, proxy));
    Ok(conn)
}

fn no_jitter_policy(restarts: u32) -> RecoveryPolicy {
    RecoveryPolicy {
        max_restarts: restarts,
        backoff: Duration::from_millis(1),
        deadline: Duration::from_secs(30),
        // EOF detection needs no heartbeat, and a deterministic frame
        // cut needs no probes muddying the frame counts.
        heartbeat: None,
        jitter: 0,
    }
}

/// Run one resharded window over in-process workers and assert the
/// standing invariants: bit-identity with sequential (answers and
/// trailing pending state) and the one-sub-window ingest-pause bound
/// on every executed reshard.
fn assert_resharded_run(
    cfg: &QloveConfig,
    data: &[u64],
    shards: usize,
    specs: &[ReshardSpec],
    family: &str,
    label: &str,
) -> DistributedRun {
    let (want, single) = sequential(cfg, data);
    let handles = Mutex::new(Vec::new());
    let conns: Vec<Conn> = (0..shards)
        .map(|_| in_process_worker(family, &handles).expect("spawn worker"))
        .collect();
    let mut coordinator = Qlove::new(cfg.clone());
    let run = run_resharded(
        cfg,
        &mut coordinator,
        conns,
        data,
        SPAN,
        specs,
        &RecoveryPolicy::disabled(),
        |_conn| in_process_worker(family, &handles),
    )
    .unwrap_or_else(|e| panic!("{label}: resharded run failed: {e}"));
    assert_eq!(run.answers, want, "{label}: answers must be bit-identical");
    assert_eq!(
        coordinator.pending(),
        single.pending(),
        "{label}: trailing partial sub-window"
    );
    assert!(run.failures.is_empty(), "{label}: {:?}", run.failures);
    let boundaries = data.len().div_ceil(cfg.period) as u64;
    let executed: Vec<_> = specs.iter().filter(|s| s.boundary < boundaries).collect();
    assert_eq!(run.events.len(), executed.len(), "{label}");
    for (event, spec) in run.events.iter().zip(executed) {
        assert_eq!(event.boundary, spec.boundary, "{label}");
        assert_eq!(event.plan, spec.plan, "{label}");
        assert_eq!(
            event.paused_subwindows, 1,
            "{label}: ingest pause must be bounded by one sub-window"
        );
        assert!(event.swap_frames > 0, "{label}");
        assert!(event.checkpoint_bytes > 0, "{label}");
    }
    for h in handles.into_inner().unwrap() {
        h.join();
    }
    run
}

// ---- exhaustive reshard-point sweep ----------------------------------------

#[test]
fn split_is_bit_identical_at_every_boundary() {
    // 430 values / period 50: nine boundaries, the last sub-window
    // partial, every dealt batch shorter than BATCH. Splitting at
    // boundary 9 (== total) is legal but inert — the window ends first.
    let data = stream(3, 430);
    let boundaries = data.len().div_ceil(PERIOD) as u64;
    for backend in [Backend::Tree, Backend::Dense] {
        let cfg = config_for(backend);
        for family in ["uds", "tcp"] {
            for b in 1..=boundaries {
                let specs = [ReshardSpec {
                    boundary: b,
                    plan: ReshardPlan::Split {
                        slot: 0,
                        pivot: 250,
                    },
                }];
                assert_resharded_run(
                    &cfg,
                    &data,
                    2,
                    &specs,
                    family,
                    &format!("{backend:?}/{family} split@{b}"),
                );
            }
        }
    }
}

#[test]
fn merge_is_bit_identical_at_every_boundary() {
    let data = stream(5, 430);
    let boundaries = data.len().div_ceil(PERIOD) as u64;
    for backend in [Backend::Tree, Backend::Dense] {
        let cfg = config_for(backend);
        for family in ["uds", "tcp"] {
            for b in 1..=boundaries {
                let specs = [ReshardSpec {
                    boundary: b,
                    plan: ReshardPlan::Merge { left: 0 },
                }];
                assert_resharded_run(
                    &cfg,
                    &data,
                    2,
                    &specs,
                    family,
                    &format!("{backend:?}/{family} merge@{b}"),
                );
            }
        }
    }
}

#[test]
fn split_then_merge_chain_spanning_multi_batch_boundaries() {
    // period > BATCH: every sub-window reaches each shard as several
    // EventBatch frames, so swaps land between multi-batch trains.
    let period = BATCH + 500;
    let cfg = QloveConfig::new(&[0.5, 0.9], 2 * period, period).backend(Backend::Dense);
    let data = stream(11, 2 * period + period / 2);
    let specs = [
        ReshardSpec {
            boundary: 1,
            plan: ReshardPlan::Split {
                slot: 1,
                pivot: 700,
            },
        },
        ReshardSpec {
            boundary: 2,
            plan: ReshardPlan::Merge { left: 0 },
        },
    ];
    assert_resharded_run(&cfg, &data, 2, &specs, "uds", "multi-batch chain");
}

#[test]
fn transport_reshard_matches_the_in_process_reference() {
    // Same schedule through the in-process reference executor and the
    // socket runtime: both must equal sequential, hence each other.
    let data = stream(7, 430);
    let specs = [
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
    ];
    for backend in [Backend::Tree, Backend::Dense] {
        let cfg = config_for(backend);
        let (want, _) = sequential(&cfg, &data);
        let mut reference = Qlove::new(cfg.clone());
        let ref_answers = qlove::stream::parallel::run_resharded(
            || QloveShard::new(&cfg),
            &mut reference,
            PERIOD,
            &data,
            2,
            SPAN,
            &specs,
        )
        .expect("reference resharded run");
        assert_eq!(ref_answers, want, "{backend:?}: reference vs sequential");
        let run = assert_resharded_run(&cfg, &data, 2, &specs, "uds", "vs reference");
        assert_eq!(run.answers, ref_answers, "{backend:?}");
    }
}

// ---- chaos: sever the connection at every frame across the swap ------------

/// Run a resharded window where one connection is severed after a
/// given number of frames — either the connection hosting the split
/// parent (`cut_parent = Some(frames)`) or the fresh connection the
/// split brings up (`cut_fresh = Some(frames)`). Replacement workers
/// are uncut, so recovery must converge; asserts bit-identity and that
/// every surfaced failure recovered.
fn chaos_reshard_run(
    cfg: &QloveConfig,
    data: &[u64],
    specs: &[ReshardSpec],
    cut_parent: Option<u64>,
    cut_fresh: Option<u64>,
    label: &str,
) -> DistributedRun {
    let (want, single) = sequential(cfg, data);
    let handles = Mutex::new(Vec::new());
    let mut conns = Vec::new();
    for shard in 0..2usize {
        let conn = match (shard, cut_parent) {
            (0, Some(cut)) => proxied_worker(cut, &handles).expect("spawn proxied worker"),
            _ => in_process_worker("uds", &handles).expect("spawn worker"),
        };
        conns.push(conn);
    }
    let fresh_cut = Mutex::new(cut_fresh);
    let mut coordinator = Qlove::new(cfg.clone());
    let run = run_resharded(
        cfg,
        &mut coordinator,
        conns,
        data,
        SPAN,
        specs,
        &no_jitter_policy(3),
        |_conn| match fresh_cut.lock().unwrap().take() {
            // Only the very first bring-up of the fresh connection is
            // proxied; every replacement afterwards is healthy.
            Some(cut) => proxied_worker(cut, &handles),
            None => in_process_worker("uds", &handles),
        },
    )
    .unwrap_or_else(|e| panic!("{label}: resharded run failed: {e}"));
    assert_eq!(run.answers, want, "{label}");
    assert_eq!(coordinator.pending(), single.pending(), "{label}");
    for event in &run.failures {
        assert!(event.recovered, "{label}: unrecovered {event:?}");
    }
    for h in handles.into_inner().unwrap() {
        h.join();
    }
    run
}

/// Handshake frames on an initial connection before stream traffic:
/// `Hello` + the initial `OpenSession`.
const HANDSHAKE_FRAMES: u64 = 2;

#[test]
fn cut_parent_connection_at_every_frame_across_a_split() {
    // Split at boundary 3 on a 9-boundary stream. Connection 0 carries:
    // handshake (2), three pre-swap sub-windows (EventBatch + Boundary
    // each), the swap itself (CloseSession + OpenSession + Restore +
    // Reshard), six post-swap sub-windows for the low successor, and
    // the final Shutdown — ~23 post-handshake frames. Sweeping the cut
    // over all of them lands failures before, *inside*, and after the
    // in-flight reshard; positions past the last frame are uncut
    // control runs.
    let cfg = config_for(Backend::Tree);
    let data = stream(3, 430);
    let specs = [ReshardSpec {
        boundary: 3,
        plan: ReshardPlan::Split {
            slot: 0,
            pivot: 250,
        },
    }];
    for cut in 0..=24u64 {
        let run = chaos_reshard_run(
            &cfg,
            &data,
            &specs,
            Some(HANDSHAKE_FRAMES + cut),
            None,
            &format!("split cut@{cut}"),
        );
        assert!(run.failures.len() <= 1, "cut {cut}: {:?}", run.failures);
        assert_eq!(run.events.len(), 1, "cut {cut}");
        assert_eq!(run.events[0].paused_subwindows, 1, "cut {cut}");
    }
}

#[test]
fn cut_parent_connection_at_every_frame_across_a_merge() {
    // Merge at boundary 4: connection 0 hosts the left parent and then
    // the merged successor; connection 1 is fully retired by the swap.
    let cfg = config_for(Backend::Dense);
    let data = stream(9, 430);
    let specs = [ReshardSpec {
        boundary: 4,
        plan: ReshardPlan::Merge { left: 0 },
    }];
    for cut in 0..=24u64 {
        let run = chaos_reshard_run(
            &cfg,
            &data,
            &specs,
            Some(HANDSHAKE_FRAMES + cut),
            None,
            &format!("merge cut@{cut}"),
        );
        assert!(run.failures.len() <= 1, "cut {cut}: {:?}", run.failures);
        assert_eq!(run.events.len(), 1, "cut {cut}");
    }
}

#[test]
fn cut_the_fresh_connection_a_split_brings_up() {
    // The split's high half lives on a connection born mid-run. Sever
    // it at every early frame — including position 0, where even the
    // hello handshake dies and the coordinator must fall back to the
    // recovery path to bring the connection up at all.
    let cfg = config_for(Backend::Tree);
    let data = stream(13, 430);
    let specs = [ReshardSpec {
        boundary: 3,
        plan: ReshardPlan::Split {
            slot: 0,
            pivot: 250,
        },
    }];
    for cut in 0..=8u64 {
        let run = chaos_reshard_run(
            &cfg,
            &data,
            &specs,
            None,
            Some(cut),
            &format!("fresh cut@{cut}"),
        );
        assert!(run.failures.len() <= 1, "cut {cut}: {:?}", run.failures);
        assert_eq!(run.events.len(), 1, "cut {cut}");
    }
}

// ---- real worker child processes -------------------------------------------

const WORKER_ENV: &str = "QLOVE_RESHARD_WORKER";
const READY_PREFIX: &str = "QLOVE_WORKER_READY ";
const DONE_PREFIX: &str = "QLOVE_WORKER_DONE";
const ERROR_PREFIX: &str = "QLOVE_WORKER_ERROR";

/// Worker-mode entry point (same re-invocation harness as
/// `tests/transport_differential.rs`): a no-op in a normal run, the
/// child's main when `QLOVE_RESHARD_WORKER` is set.
#[test]
fn worker_child_entry() {
    let Ok(spec) = std::env::var(WORKER_ENV) else {
        return;
    };
    let endpoint = Endpoint::parse(&spec).expect("harness passes a valid endpoint");
    let server = WorkerServer::bind(&endpoint).expect("bind worker endpoint");
    let actual = server.local_endpoint().expect("resolve bound endpoint");
    println!("{READY_PREFIX}{actual}");
    std::io::stdout().flush().expect("announce endpoint");
    match server.serve_one() {
        Ok(report) => println!("{DONE_PREFIX} sessions={}", report.sessions_served()),
        Err(e) => println!("{ERROR_PREFIX} {e}"),
    }
}

/// One spawned worker child process; killed + reaped on drop.
struct WorkerProc {
    child: Child,
    endpoint: Endpoint,
}

impl WorkerProc {
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
        let mut line = String::new();
        let endpoint = loop {
            line.clear();
            let n = stdout.read_line(&mut line).expect("read child stdout");
            assert!(n > 0, "worker child exited before announcing readiness");
            if let Some(at) = line.find(READY_PREFIX) {
                let addr = line[at + READY_PREFIX.len()..].trim();
                break Endpoint::parse(addr).expect("child announces a valid endpoint");
            }
        };
        Self { child, endpoint }
    }

    fn connect(&self) -> Conn {
        Conn::connect_retry(&self.endpoint, Duration::from_secs(10)).expect("connect to worker")
    }

    fn signal(&self, sig: &str) {
        let _ = Command::new("kill")
            .args([&format!("-{sig}"), &self.child.id().to_string()])
            .status();
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn endpoint_spec(family: &str, tag: &str) -> String {
    match family {
        "tcp" => "tcp:127.0.0.1:0".to_string(),
        "uds" => {
            let path =
                std::env::temp_dir().join(format!("qlove-rs-{}-{tag}.sock", std::process::id()));
            format!("unix:{}", path.display())
        }
        other => panic!("unknown transport family {other}"),
    }
}

/// A split (bringing up a fresh worker process) and a later merge
/// (fully retiring one) on the big-window schedule.
fn process_specs() -> [ReshardSpec; 2] {
    [
        ReshardSpec {
            boundary: 3,
            plan: ReshardPlan::Split {
                slot: 1,
                pivot: 700,
            },
        },
        ReshardSpec {
            boundary: 6,
            plan: ReshardPlan::Merge { left: 0 },
        },
    ]
}

fn process_config(backend: Backend) -> QloveConfig {
    QloveConfig::new(&[0.5, 0.9, 0.999], 8_000, 1_000).backend(backend)
}

#[test]
fn reshard_over_real_worker_processes_is_bit_identical() {
    // Not a multiple of BATCH; ~10 boundaries, trailing partial
    // sub-window. The split spawns a third worker process mid-run; the
    // merge shuts one down mid-run.
    let n = 2 * BATCH + 1_234;
    for (backend, family) in [
        (Backend::Tree, "uds"),
        (Backend::Dense, "uds"),
        (Backend::Tree, "tcp"),
        (Backend::Dense, "tcp"),
    ] {
        let cfg = process_config(backend);
        let data = stream(21, n);
        let (want, single) = sequential(&cfg, &data);
        let tag = format!("{backend:?}").to_lowercase();
        let fleet: Vec<WorkerProc> = (0..2)
            .map(|i| WorkerProc::spawn(&endpoint_spec(family, &format!("{tag}-{i}"))))
            .collect();
        let conns = fleet.iter().map(WorkerProc::connect).collect();
        let mut spawned: Vec<WorkerProc> = Vec::new();
        let mut counter = 0usize;
        let mut coordinator = Qlove::new(cfg.clone());
        let run = run_resharded(
            &cfg,
            &mut coordinator,
            conns,
            &data,
            SPAN,
            &process_specs(),
            &RecoveryPolicy::disabled(),
            |_conn| {
                counter += 1;
                let worker =
                    WorkerProc::spawn(&endpoint_spec(family, &format!("{tag}-f{counter}")));
                let conn = worker.connect();
                spawned.push(worker);
                Ok(conn)
            },
        )
        .expect("resharded run over processes");
        assert_eq!(run.answers, want, "{backend:?} {family}");
        assert_eq!(
            coordinator.pending(),
            single.pending(),
            "{backend:?} {family}"
        );
        assert_eq!(run.events.len(), 2);
        for event in &run.events {
            assert_eq!(event.paused_subwindows, 1, "{backend:?} {family}");
        }
        assert_eq!(spawned.len(), 1, "exactly the split's fresh worker");
    }
}

fn chaos_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        max_restarts: 5,
        backoff: Duration::from_millis(20),
        deadline: Duration::from_secs(30),
        heartbeat: Some(Duration::from_millis(250)),
        jitter: 0xC4A05,
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

#[test]
fn reshard_survives_kill9_of_a_worker_process() {
    // kill -9 a worker child while the window reshards: a million
    // values with a split (fresh process) and a merge (retired process)
    // on the schedule, SIGKILL landing at a randomized point. Whatever
    // it interrupts — dealing, the swap, the fresh bring-up — the run
    // must recover and stay bit-identical. The deterministic
    // *mid-swap* positions are pinned by the chaos cut sweeps above;
    // this adds the real-process, real-signal variant. The retry loop
    // guards against the rare run that finishes before the signal
    // lands — bit-identity is asserted on every attempt regardless.
    let n = 1_000_000;
    for family in ["uds", "tcp"] {
        let cfg = process_config(Backend::Dense);
        let data = stream(33, n);
        let (want, single) = sequential(&cfg, &data);
        let mut delay = jitter_ms(3, 15);
        let mut hit = false;
        for attempt in 0..3 {
            let tag = format!("k9-{family}-{attempt}");
            let mut fleet: Vec<WorkerProc> = (0..2)
                .map(|i| WorkerProc::spawn(&endpoint_spec(family, &format!("{tag}-{i}"))))
                .collect();
            let conns: Vec<Conn> = fleet.iter().map(WorkerProc::connect).collect();
            let victim = fleet.remove(0);
            let saboteur = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(delay));
                victim.signal("KILL");
                victim // keep the handle alive; the caller reaps it
            });
            let respawned: Mutex<Vec<WorkerProc>> = Mutex::new(Vec::new());
            let counter = Mutex::new(0usize);
            let mut coordinator = Qlove::new(cfg.clone());
            let result = run_resharded(
                &cfg,
                &mut coordinator,
                conns,
                &data,
                SPAN,
                &process_specs(),
                &chaos_policy(),
                |_conn| {
                    let mut c = counter.lock().unwrap();
                    *c += 1;
                    let spec = endpoint_spec(family, &format!("{tag}-r{c}"));
                    drop(c);
                    let worker = WorkerProc::spawn(&spec);
                    let conn = worker.connect();
                    respawned.lock().unwrap().push(worker);
                    Ok(conn)
                },
            );
            drop(saboteur.join().expect("saboteur thread"));
            let run = result.expect("resharded run must survive the kill");
            assert_eq!(run.answers, want, "{family} attempt {attempt}");
            assert_eq!(
                coordinator.pending(),
                single.pending(),
                "{family} attempt {attempt}"
            );
            assert_eq!(run.events.len(), 2, "{family} attempt {attempt}");
            for event in &run.failures {
                assert!(event.recovered, "{family} attempt {attempt}: {event:?}");
            }
            if !run.failures.is_empty() {
                hit = true;
                break;
            }
            delay = (delay / 2).max(1);
        }
        assert!(hit, "{family}: kill -9 never landed mid-run in 3 attempts");
    }
}
