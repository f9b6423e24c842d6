//! `bench_merge` — record the cost of mergeable-summary distributed
//! execution per Level-1 store backend as `BENCH_merge.json`, so the
//! merge path's perf trajectory is tracked across PRs alongside
//! `BENCH_ingest.json`.
//!
//! ```text
//! bench_merge [--events N] [--shards a,b,c] [--transport a,b,c] [--out PATH] [--smoke]
//! ```
//!
//! Measures, over the quantized Normal stream with the paper-default
//! QLOVE configuration (100K/10K window), for **both** backends (the
//! sorted-run store in the `tree` rows, named for `Backend::Tree`, and
//! the dense store):
//!
//! * single-instance batched ingestion throughput (the baseline the
//!   distributed executor must amortize against);
//! * `run_distributed` end-to-end throughput per shard count, verifying
//!   on the way that the merged answers are bit-identical to the
//!   sequential run;
//! * the isolated coordinator merge cost per sub-window boundary
//!   (pre-extracted shard summaries, timed merge loop only) — this
//!   includes the boundary *completion* work (exact quantiles, tail
//!   snapshot, burst test, bounds), which is backend-independent and
//!   dominates at high shard counts;
//! * the isolated **boundary completion** cost (`boundary_cost_us`):
//!   single-shard dealing driven through `Qlove::merge`, few-k on and
//!   off per backend. The on/off gap is essentially the burst
//!   detector, and this is the metric the CI perf gate holds to the
//!   committed baseline (the detector's allocation-free rework cut it
//!   severalfold — see README "Performance");
//! * the isolated **fold** cost per summary — a fresh Level-1 store
//!   per boundary folding each shard summary in, which is the
//!   primitive the backend actually changes (a copy or linear run
//!   merge vs one array add per pair). Measured on the Normal stream
//!   *and* the Pareto stream: quantized Normal summaries hold ~150
//!   unique pairs, while Pareto's heavy tail spreads across decades;
//! * summary codec compactness (bytes per shipped summary vs the raw
//!   16-bytes-per-pair encoding; backend-neutral, measured once);
//! * the **transport dimension** (`--transport {inproc,uds,tcp}`,
//!   dense backend): end-to-end distributed throughput per transport —
//!   the in-process thread executor vs real socket sessions against
//!   in-process worker threads speaking the full QLVT framed protocol
//!   over Unix-domain socketpairs and TCP loopback — plus the pipelined
//!   coordinator's overlap
//!   (µs of merge per boundary hidden behind shard ingest, and the
//!   hidden fraction of total merge time). Throughput rows are gated
//!   by CI; the overlap rows are recorded but ungated — overlap needs
//!   real parallelism, so on a 1-CPU runner it sits at ~0 and its
//!   run-to-run noise is meaningless to gate (see `gate.rs`);
//! * the **telemetry on/off twin** (`telemetry_overhead` section):
//!   the same socket-distributed pass with the metrics registry
//!   globally enabled vs disabled, bit-checked both ways. Report-only —
//!   the gate already holds the *instrumented* transport rows to ±25%,
//!   so this section exists to record that the uninstrumented twin
//!   sits in the same band, not to gate a second noisy number;
//! * the **sessions/process scaling curve** (`sessions` section): S ∈
//!   {1, 4, 16, 64} independent windows multiplexed over ONE worker
//!   connection via the v2 multi-session server, with aggregate
//!   throughput and wall-µs per session — bit-checked per session and
//!   recorded report-only (a 1-CPU host measures fairness, not
//!   speedup; single-session socket throughput stays gated via the
//!   `transport` rows).
//!
//! Headline ratios: fold cost per summary, tree over dense (folding
//! sorted pairs into a flat array against merging them into sorted
//! runs), and dense-backend distributed throughput at 4
//! shards over both its own sequential run and the tree sequential
//! baseline. The artifact records `host_cpus`: on a single-CPU host
//! distributed execution serializes onto one core and can at best tie
//! sequential ingest (it is the same work plus dealing overhead), so
//! the tree-baseline ratio is the meaningful cross-PR trajectory there,
//! while the own-sequential ratio becomes meaningful on multi-core
//! hosts where shard ingest overlaps coordinator merging.
//!
//! `--smoke` shrinks the run for CI (fewer events, fewer shard counts)
//! while keeping every measurement present in the artifact.

use qlove_core::{Backend, Qlove, QloveAnswer, QloveConfig, QloveShard, QloveSummary};
use qlove_stream::{run_distributed, run_distributed_with_stats, PipelineStats};
use qlove_workloads::NormalGen;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const WINDOW: usize = 100_000;
const PERIOD: usize = 10_000;
const PHIS: [f64; 4] = [0.5, 0.9, 0.99, 0.999];
const BACKENDS: [(Backend, &str); 2] = [(Backend::Tree, "tree"), (Backend::Dense, "dense")];

struct Args {
    events: usize,
    shards: Vec<usize>,
    transports: Vec<String>,
    out: String,
}

const ALL_TRANSPORTS: [&str; 3] = ["inproc", "uds", "tcp"];

/// Transports measured when `--transport` is not given: everything the
/// target supports (Unix-domain socketpairs need a unix target).
fn default_transports() -> Vec<String> {
    ALL_TRANSPORTS
        .iter()
        .filter(|&&t| cfg!(unix) || t != "uds")
        .map(|&t| t.to_string())
        .collect()
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        events: 2_000_000,
        shards: vec![2, 4, 8],
        transports: default_transports(),
        out: "BENCH_merge.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--help" | "-h" => {
                println!(
                    "usage: bench_merge [--events N] [--shards a,b,c] \
                     [--transport inproc,uds,tcp] [--out PATH] [--smoke]"
                );
                std::process::exit(0);
            }
            "--smoke" => {
                // 600K events = 60 timed boundaries per measurement:
                // enough to keep the per-boundary cost rows' run-to-run
                // noise well inside the perf gate's ±25% band (at 300K
                // the 30-boundary loops brushed against it).
                args.events = 600_000;
                args.shards = vec![2, 4];
                i += 1;
                continue;
            }
            flag @ ("--events" | "--shards" | "--transport" | "--out") => {
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("{flag} needs a value"))?;
                match flag {
                    "--events" => args.events = value.parse().map_err(|e| format!("{e}"))?,
                    "--shards" => {
                        args.shards = value
                            .split(',')
                            .map(|s| s.trim().parse::<usize>().map_err(|e| format!("{e}")))
                            .collect::<Result<_, _>>()?;
                        if args.shards.contains(&0) {
                            return Err("shard counts must be positive".into());
                        }
                    }
                    "--transport" => {
                        args.transports = value
                            .split(',')
                            .map(|s| s.trim().to_string())
                            .collect::<Vec<_>>();
                        if let Some(bad) = args
                            .transports
                            .iter()
                            .find(|t| !ALL_TRANSPORTS.contains(&t.as_str()))
                        {
                            return Err(format!("unknown transport {bad} (inproc|uds|tcp)"));
                        }
                        if !cfg!(unix) && args.transports.iter().any(|t| t == "uds") {
                            return Err("uds transport needs a unix target".into());
                        }
                    }
                    _ => args.out = value.clone(),
                }
                i += 2;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.events < WINDOW + PERIOD {
        return Err(format!("need at least {} events", WINDOW + PERIOD));
    }
    Ok(args)
}

/// How many times each per-boundary cost loop is repeated; the
/// **minimum** total is reported. Per-boundary loops are short
/// (milliseconds), so on a busy single-CPU host a single pass can
/// absorb a scheduling hiccup worth >25% — enough to trip the CI perf
/// gate on unchanged code. The minimum of several passes approximates
/// the uncontended cost; passes are nearly free next to the dealing
/// setup they reuse.
const COST_PASSES: usize = 5;

/// Repeats for the whole-stream throughput measurements (sequential and
/// distributed); the **maximum** rate is reported, for the same
/// anti-noise reason — the fastest pass is the least-contended one.
const RATE_PASSES: usize = 3;

/// Best-of-[`COST_PASSES`] total nanoseconds for merging every boundary
/// group into a fresh coordinator.
fn best_of_passes(cfg: &QloveConfig, groups: &[Vec<QloveSummary>]) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..COST_PASSES {
        let mut coordinator = Qlove::new(cfg.clone());
        let start = Instant::now();
        for group in groups {
            for summary in group {
                std::hint::black_box(coordinator.merge(summary));
            }
        }
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// Deal `data` round-robin into `shards` accumulators, extracting one
/// summary group per sub-window boundary (full boundaries only).
fn deal_summaries(cfg: &QloveConfig, data: &[u64], shards: usize) -> Vec<Vec<QloveSummary>> {
    let mut workers: Vec<QloveShard> = (0..shards).map(|_| QloveShard::new(cfg)).collect();
    let mut groups = Vec::with_capacity(data.len() / cfg.period);
    for sub in data.chunks_exact(cfg.period) {
        for (i, &v) in sub.iter().enumerate() {
            workers[i % shards].push(v);
        }
        groups.push(workers.iter_mut().map(QloveShard::take_summary).collect());
    }
    groups
}

struct BackendReport {
    name: &'static str,
    seq_rate: f64,
    /// Per shard count: (shards, Melem/s, answers match sequential).
    dist_rows: Vec<(usize, f64, bool)>,
    /// Per shard count: (shards, ns/boundary, ns/summary).
    merge_rows: Vec<(usize, f64, f64)>,
}

/// Isolated boundary-completion cost, few-k on/off per backend.
struct BoundaryRow {
    backend: &'static str,
    fewk: bool,
    us_per_boundary: f64,
}

/// Boundary-completion cost in isolation: one full-sub-window summary
/// per boundary (single-shard dealing, so the backend fold is one
/// sorted-pair merge) driven through `Qlove::merge`, with few-k on and
/// off. The few-k-on/off gap is almost entirely the burst detector —
/// the coordinator's serial fraction at N shards, and the number the
/// allocation-free detector rework is accountable for across PRs.
fn measure_boundary_cost(data: &[u64], out: &mut Vec<BoundaryRow>) {
    for (backend, name) in BACKENDS {
        for fewk in [true, false] {
            let base = if fewk {
                QloveConfig::new(&PHIS, WINDOW, PERIOD)
            } else {
                QloveConfig::without_fewk(&PHIS, WINDOW, PERIOD)
            };
            let cfg = base.backend(backend);
            let groups = deal_summaries(&cfg, data, 1);
            let best_ns = best_of_passes(&cfg, &groups);
            let us_per_boundary = best_ns / groups.len() as f64 / 1e3;
            let label = if fewk { "on " } else { "off" };
            eprintln!(
                "{name:>5} boundary completion (few-k {label})  {us_per_boundary:8.1} µs/boundary"
            );
            out.push(BoundaryRow {
                backend: name,
                fewk,
                us_per_boundary,
            });
        }
    }
}

/// Pure fold cost: (dataset, backend, ns/summary, avg pairs/summary).
struct FoldRow {
    dataset: &'static str,
    backend: &'static str,
    ns_per_summary: f64,
    avg_pairs: f64,
}

/// Store-level fold measurement: a fresh Level-1 store per boundary,
/// each of the boundary group's summaries folded in through
/// `FreqStoreImpl::merge_sorted_counts` — exactly the coordinator's
/// state-combining step, with no boundary-completion work attached.
fn measure_folds(dataset: &'static str, data: &[u64], shards: usize, out: &mut Vec<FoldRow>) {
    use qlove_freqstore::{FreqStore, FreqStoreImpl};
    let cfg = QloveConfig::new(&PHIS, WINDOW, PERIOD);
    let groups = deal_summaries(&cfg, data, shards);
    let n: usize = groups.iter().map(Vec::len).sum();
    let pairs: usize = groups
        .iter()
        .flat_map(|g| g.iter().map(|s| s.counts().len()))
        .sum();
    let avg_pairs = pairs as f64 / n as f64;
    for (name, mut store) in [
        ("tree", FreqStoreImpl::tree(1 << 14)),
        ("dense", FreqStoreImpl::dense(3)),
    ] {
        let start = Instant::now();
        for group in &groups {
            store.clear();
            for summary in group {
                store.merge_sorted_counts(summary.counts());
            }
            std::hint::black_box(store.total());
        }
        let ns_per_summary = start.elapsed().as_nanos() as f64 / n as f64;
        eprintln!(
            "{dataset:>7} {name:>5} fold                  {ns_per_summary:8.0} ns/summary \
             ({avg_pairs:.0} pairs)"
        );
        out.push(FoldRow {
            dataset,
            backend: name,
            ns_per_summary,
            avg_pairs,
        });
    }
}

/// One transport-dimension measurement: end-to-end distributed rate
/// over a given transport plus the pipelined coordinator's overlap.
struct TransportRow {
    transport: String,
    shards: usize,
    rate: f64,
    overlap_us_per_boundary: f64,
    merge_hidden_pct: f64,
    matches: bool,
}

/// Run one socket-distributed pass against in-process worker threads
/// speaking the full QLVT framed protocol. `uds` uses socketpairs,
/// `tcp` a loopback listener — real sockets and real frame
/// encode/decode either way, isolating the wire cost without the
/// child-process spawn noise (the cross-process differential lives in
/// `tests/transport_differential.rs`).
fn socket_pass(
    cfg: &QloveConfig,
    data: &[u64],
    shards: usize,
    family: &str,
) -> (Vec<QloveAnswer>, PipelineStats) {
    use qlove_transport::{serve_stream, Conn, Endpoint, Listener};
    std::thread::scope(|scope| {
        let mut conns = Vec::with_capacity(shards);
        for _ in 0..shards {
            match family {
                #[cfg(unix)]
                "uds" => {
                    let (ours, theirs) = std::os::unix::net::UnixStream::pair()
                        .expect("socketpair for uds transport");
                    conns.push(Conn::Unix(ours));
                    scope.spawn(move || serve_stream(Conn::Unix(theirs)));
                }
                "tcp" => {
                    let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into()))
                        .expect("bind loopback listener");
                    let endpoint = listener.local_endpoint().expect("resolve port");
                    scope.spawn(move || {
                        let conn = listener.accept().expect("accept worker conn");
                        serve_stream(conn)
                    });
                    conns.push(Conn::connect(&endpoint).expect("connect to worker thread"));
                }
                other => panic!("unsupported transport family {other}"),
            }
        }
        let mut coordinator = Qlove::new(cfg.clone());
        let run = qlove_transport::run_over_sockets(cfg, &mut coordinator, conns, data)
            .expect("socket-distributed pass");
        (run.answers, run.stats)
    })
}

/// Measure the transport dimension on the dense backend (the backend
/// dimension is covered by the main distributed rows; sockets change
/// the wire, not the store).
fn measure_transports(
    data: &[u64],
    shards_list: &[usize],
    transports: &[String],
    seq_answers: &[QloveAnswer],
    out: &mut Vec<TransportRow>,
) {
    let cfg = QloveConfig::new(&PHIS, WINDOW, PERIOD).backend(Backend::Dense);
    for transport in transports {
        for &shards in shards_list {
            let mut rate = 0.0f64;
            let mut best_stats = PipelineStats::default();
            let mut matches = true;
            for _ in 0..RATE_PASSES {
                let start = Instant::now();
                let (answers, stats) = match transport.as_str() {
                    "inproc" => {
                        let mut coordinator = Qlove::new(cfg.clone());
                        run_distributed_with_stats(
                            || QloveShard::new(&cfg),
                            &mut coordinator,
                            cfg.period,
                            data,
                            shards,
                        )
                    }
                    family => socket_pass(&cfg, data, shards, family),
                };
                let pass_rate = data.len() as f64 / start.elapsed().as_secs_f64() / 1e6;
                if pass_rate > rate {
                    rate = pass_rate;
                    best_stats = stats;
                }
                matches &= answers == seq_answers;
            }
            eprintln!(
                "{transport:>6} distributed({shards} shards)     {rate:8.2} Melem/s  \
                 overlap {:7.1} µs/boundary ({:3.0}% of merge hidden)  answers_match={matches}",
                best_stats.overlap_us_per_boundary(),
                best_stats.merge_hidden_fraction() * 100.0,
            );
            out.push(TransportRow {
                transport: transport.clone(),
                shards,
                rate,
                overlap_us_per_boundary: best_stats.overlap_us_per_boundary(),
                merge_hidden_pct: best_stats.merge_hidden_fraction() * 100.0,
                matches,
            });
        }
    }
}

/// One sessions/process scaling measurement: S independent windows
/// multiplexed over ONE worker connection (the v2 multi-session
/// server), with the whole stream split into S contiguous slices.
/// Report-only — on a 1-CPU host the curve mostly measures scheduling
/// fairness, not parallel speedup, so CI records it without gating
/// (single-session transport throughput stays gated via the
/// `transport` section).
struct SessionsRow {
    sessions: usize,
    rate: f64,
    us_per_session: f64,
    matches: bool,
}

/// Window schedule for the multi-session scaling curve: small enough
/// that 64 sessions each still evaluate several windows over a smoke
/// slice of the stream.
const SESS_WINDOW: usize = 4_000;
const SESS_PERIOD: usize = 500;

/// Measure the sessions/process scaling curve: one in-process worker
/// thread serving S multiplexed sessions, each an independent QLOVE
/// window over its own slice of the stream, bit-checked per session
/// against its own sequential run.
fn measure_sessions(data: &[u64], out: &mut Vec<SessionsRow>) {
    use qlove_transport::{run_sessions, serve_stream, Conn, SessionSpec, WorkerMode};
    let cfg = QloveConfig::new(&PHIS, SESS_WINDOW, SESS_PERIOD);
    for &sessions in &[1usize, 4, 16, 64] {
        let slice = data.len() / sessions;
        if slice < SESS_WINDOW {
            eprintln!("sessions/process {sessions:3}: stream too short, skipped");
            continue;
        }
        let specs: Vec<SessionSpec> = (0..sessions)
            .map(|s| SessionSpec {
                config: cfg.clone(),
                mode: WorkerMode::Shard,
                values: data[s * slice..(s + 1) * slice].to_vec(),
            })
            .collect();
        let seq: Vec<Vec<QloveAnswer>> = specs
            .iter()
            .map(|spec| {
                let mut op = Qlove::new(spec.config.clone());
                let mut answers = Vec::new();
                for chunk in spec.values.chunks(4096) {
                    op.push_batch_into(chunk, &mut answers);
                }
                answers
            })
            .collect();
        let mut rate = 0.0f64;
        let mut best_us = f64::INFINITY;
        let mut matches = true;
        for _ in 0..RATE_PASSES {
            let (outcomes, wall) = std::thread::scope(|scope| {
                #[cfg(unix)]
                let conn = {
                    let (ours, theirs) =
                        std::os::unix::net::UnixStream::pair().expect("socketpair for sessions");
                    scope.spawn(move || serve_stream(Conn::Unix(theirs)));
                    Conn::Unix(ours)
                };
                #[cfg(not(unix))]
                let conn = {
                    use qlove_transport::{Endpoint, Listener};
                    let listener = Listener::bind(&Endpoint::Tcp("127.0.0.1:0".into()))
                        .expect("bind loopback listener");
                    let endpoint = listener.local_endpoint().expect("resolve port");
                    scope.spawn(move || {
                        let conn = listener.accept().expect("accept worker conn");
                        serve_stream(conn)
                    });
                    Conn::connect(&endpoint).expect("connect to worker thread")
                };
                let start = Instant::now();
                let outcomes = run_sessions(conn, &specs).expect("multi-session pass");
                (outcomes, start.elapsed())
            });
            let pass_rate = (slice * sessions) as f64 / wall.as_secs_f64() / 1e6;
            if pass_rate > rate {
                rate = pass_rate;
                best_us = wall.as_micros() as f64;
            }
            matches &= outcomes
                .iter()
                .zip(&seq)
                .all(|(outcome, want)| &outcome.answers == want);
        }
        let us_per_session = best_us / sessions as f64;
        eprintln!(
            "sessions/process {sessions:3}            {rate:8.2} Melem/s  \
             {us_per_session:9.1} µs/session  answers_match={matches}"
        );
        out.push(SessionsRow {
            sessions,
            rate,
            us_per_session,
            matches,
        });
    }
}

/// One telemetry-overhead measurement (report-only): the same
/// socket-distributed pass with metric recording globally enabled vs
/// disabled. The pair proves the counters/gauges/histograms on the
/// dealer and collector hot paths cost nothing measurable — CI locks
/// the *instrumented* transport rows to the gated ±25% band, and this
/// section records the uninstrumented twin for the diff.
struct TelemetryRow {
    enabled: bool,
    rate: f64,
    matches: bool,
}

/// Measure instrumented vs uninstrumented distributed throughput over
/// the cheapest real socket family (uds on unix, tcp loopback
/// elsewhere), bit-checking every pass. Metric recording is restored
/// to enabled afterwards regardless, so later sections keep their
/// instrumentation.
fn measure_telemetry_overhead(
    data: &[u64],
    shards: usize,
    seq_answers: &[QloveAnswer],
    out: &mut Vec<TelemetryRow>,
) {
    let cfg = QloveConfig::new(&PHIS, WINDOW, PERIOD).backend(Backend::Dense);
    let family = if cfg!(unix) { "uds" } else { "tcp" };
    for enabled in [true, false] {
        qlove_telemetry::set_enabled(enabled);
        let mut rate = 0.0f64;
        let mut matches = true;
        for _ in 0..RATE_PASSES {
            let start = Instant::now();
            let (answers, _stats) = socket_pass(&cfg, data, shards, family);
            rate = rate.max(data.len() as f64 / start.elapsed().as_secs_f64() / 1e6);
            matches &= answers == seq_answers;
        }
        let label = if enabled { "on " } else { "off" };
        eprintln!(
            "telemetry {label} {family} distributed({shards} shards) {rate:8.2} Melem/s  \
             answers_match={matches}"
        );
        out.push(TelemetryRow {
            enabled,
            rate,
            matches,
        });
    }
    qlove_telemetry::set_enabled(true);
}

/// One supervised-recovery measurement: a worker crashes mid-stream,
/// the supervisor detects, restores, and replays; these are the
/// per-phase costs it reported. Report-only — the perf gate reads
/// none of this (recovery is off the failure-free hot path).
struct RecoveryRow {
    pass: usize,
    detect_us: u64,
    restore_us: u64,
    replay_us: u64,
    replayed_frames: usize,
    matches: bool,
}

/// Measure recovery-time components with a deterministic in-process
/// failure: an honest worker thread (real `QloveShard`, real
/// summaries) serves until `die_after` boundary answers, then drops
/// its socket. The supervisor restores a fresh `serve_stream` worker
/// from the boundary checkpoint and replays the unacknowledged ring.
/// A Unix socketpair keeps the crash deterministic (buffered frames
/// then clean EOF); on non-unix hosts the section is empty.
#[allow(unused_variables)]
fn measure_recovery(data: &[u64], passes: usize, out: &mut Vec<RecoveryRow>) {
    #[cfg(unix)]
    {
        use qlove_transport::{
            run_supervised, serve_stream, Conn, Frame, FrameReader, FrameWriter, RecoveryPolicy,
            Role, PROTOCOL_VERSION,
        };
        let cfg = QloveConfig::new(&PHIS, WINDOW, PERIOD).backend(Backend::Dense);
        // Recovery cost is dominated by the unacked tail, not stream
        // length; a couple of windows keeps this pass quick.
        let data = &data[..data.len().min(2 * WINDOW)];
        let mut single = Qlove::new(cfg.clone());
        let mut seq: Vec<QloveAnswer> = Vec::new();
        for chunk in data.chunks(4096) {
            single.push_batch_into(chunk, &mut seq);
        }
        let policy = RecoveryPolicy {
            max_restarts: 3,
            backoff: Duration::from_millis(1),
            deadline: Duration::from_secs(30),
            heartbeat: None, // EOF detection needs no probes
            jitter: 0,
        };
        for pass in 0..passes {
            let (ours, theirs) = std::os::unix::net::UnixStream::pair().expect("socketpair");
            let worker_cfg = cfg.clone();
            let dying = std::thread::spawn(move || -> std::io::Result<()> {
                let conn = Conn::Unix(theirs);
                let read_half = conn.try_clone()?;
                let mut reader = FrameReader::new(std::io::BufReader::new(read_half));
                let mut writer = FrameWriter::new(conn);
                reader.read_frame()?; // coordinator hello
                writer.write_frame(&Frame::Hello {
                    version: PROTOCOL_VERSION,
                    role: Role::Worker,
                })?;
                writer.flush()?;
                reader.read_frame()?; // open session
                let mut shard = QloveShard::new(&worker_cfg);
                let mut answered = 0u64;
                loop {
                    match reader.read_frame()? {
                        Frame::EventBatch { values, .. } => shard.push_batch(&values),
                        Frame::Boundary { session, boundary } => {
                            writer.write_frame(&Frame::BoundarySummary {
                                session,
                                boundary,
                                epoch: 0,
                                summary: shard.take_summary(),
                            })?;
                            writer.flush()?;
                            answered += 1;
                            if answered == 3 {
                                return Ok(()); // crash mid-stream
                            }
                        }
                        _ => continue,
                    }
                }
            });
            let mut replacements = Vec::new();
            let respawn = |_shard: usize| {
                let (ours, theirs) = std::os::unix::net::UnixStream::pair()?;
                replacements.push(std::thread::spawn(move || serve_stream(Conn::Unix(theirs))));
                Ok(Conn::Unix(ours))
            };
            let mut coordinator = Qlove::new(cfg.clone());
            let run = run_supervised(
                &cfg,
                &mut coordinator,
                vec![Conn::Unix(ours)],
                data,
                &policy,
                respawn,
            )
            .expect("supervised recovery pass");
            let matches = run.answers == seq;
            let f = *run.failures.first().expect("one injected failure");
            eprintln!(
                "recovery pass {pass}: detect {:6} µs  restore {:6} µs  replay {:6} µs \
                 ({} frames)  answers_match={matches}",
                f.detect_us, f.restore_us, f.replay_us, f.replayed_frames
            );
            out.push(RecoveryRow {
                pass,
                detect_us: f.detect_us,
                restore_us: f.restore_us,
                replay_us: f.replay_us,
                replayed_frames: f.replayed_frames,
                matches,
            });
            dying.join().expect("dying worker panicked").ok();
            for join in replacements {
                join.join().expect("replacement worker panicked").ok();
            }
        }
    }
}

/// One live-reshard measurement (report-only, like `recovery`): the
/// dealer's ingest pause, the swap's control-frame and checkpoint
/// footprint, and — on the kill pass — the frames replayed to carry
/// the in-flight swap through a worker crash.
struct ReshardRow {
    pass: &'static str,
    pause_us: u64,
    paused_subwindows: u64,
    swap_frames: usize,
    checkpoint_bytes: usize,
    replayed_frames: usize,
    matches: bool,
}

/// Measure live-resharding costs over real in-process socket workers:
/// a split (fresh worker joins mid-window), a merge (worker retired
/// mid-window), and a split with the parent connection severed
/// mid-swap so recovery must replay the reshard itself. Unix-only,
/// like `measure_recovery`; report-only for the perf gate.
#[allow(unused_variables)]
fn measure_reshard(data: &[u64], out: &mut Vec<ReshardRow>) {
    #[cfg(unix)]
    {
        use qlove_stream::parallel::{ReshardPlan, ReshardSpec};
        use qlove_transport::{
            interpose, run_resharded, serve_stream, Conn, CutAfter, RecoveryPolicy,
        };
        use std::sync::Mutex;

        let cfg = QloveConfig::new(&PHIS, WINDOW, PERIOD).backend(Backend::Dense);
        // Swap cost is per-event-independent; two windows suffice.
        let data = &data[..data.len().min(2 * WINDOW)];
        let span = data.iter().copied().max().unwrap_or(1) + 1;
        let mut single = Qlove::new(cfg.clone());
        let mut seq: Vec<QloveAnswer> = Vec::new();
        for chunk in data.chunks(4096) {
            single.push_batch_into(chunk, &mut seq);
        }
        let policy = RecoveryPolicy {
            max_restarts: 3,
            backoff: Duration::from_millis(1),
            deadline: Duration::from_secs(30),
            heartbeat: None, // EOF detection needs no probes
            jitter: 0,
        };
        // Initial fleet splits [0, span) in half; the split pass cuts
        // slot 0 again at the quarter point.
        let passes: [(&'static str, ReshardSpec, Option<u64>); 3] = [
            (
                "split",
                ReshardSpec {
                    boundary: 3,
                    plan: ReshardPlan::Split {
                        slot: 0,
                        pivot: span / 4,
                    },
                },
                None,
            ),
            (
                "merge",
                ReshardSpec {
                    boundary: 3,
                    plan: ReshardPlan::Merge { left: 0 },
                },
                None,
            ),
            // Sever the fresh connection the split brings up after 3
            // frames (Hello, OpenSession, Restore — the Reshard frame
            // dies), so recovery has to replay the in-flight swap.
            (
                "split+kill",
                ReshardSpec {
                    boundary: 3,
                    plan: ReshardPlan::Split {
                        slot: 0,
                        pivot: span / 4,
                    },
                },
                Some(3),
            ),
        ];
        for (pass, spec, cut) in passes {
            let proxies = Mutex::new(Vec::new());
            let workers = Mutex::new(Vec::new());
            let spawn = |cut: Option<u64>| -> std::io::Result<Conn> {
                let (ours, theirs) = std::os::unix::net::UnixStream::pair()?;
                workers
                    .lock()
                    .unwrap()
                    .push(std::thread::spawn(move || serve_stream(Conn::Unix(theirs))));
                match cut {
                    None => Ok(Conn::Unix(ours)),
                    Some(cut) => {
                        let (conn, proxy) = interpose(Conn::Unix(ours), CutAfter(cut))?;
                        proxies.lock().unwrap().push(proxy);
                        Ok(conn)
                    }
                }
            };
            let conns = vec![
                spawn(None).expect("spawn shard 0"),
                spawn(None).expect("spawn shard 1"),
            ];
            // Only the first bring-up of the fresh connection is cut;
            // every replacement afterwards is healthy.
            let fresh_cut = Mutex::new(cut);
            let mut coordinator = Qlove::new(cfg.clone());
            let run = run_resharded(
                &cfg,
                &mut coordinator,
                conns,
                data,
                span,
                std::slice::from_ref(&spec),
                &policy,
                |_conn| spawn(fresh_cut.lock().unwrap().take()),
            )
            .expect("resharded bench pass");
            let matches = run.answers == seq;
            let e = *run.events.first().expect("one executed reshard");
            let replayed: usize = run.failures.iter().map(|f| f.replayed_frames).sum();
            eprintln!(
                "reshard {pass:>10}: pause {:6} µs ({} sub-window gap)  {} swap frames  \
                 {:4} checkpoint B  {replayed:4} replayed frames  answers_match={matches}",
                e.pause_us, e.paused_subwindows, e.swap_frames, e.checkpoint_bytes
            );
            out.push(ReshardRow {
                pass,
                pause_us: e.pause_us,
                paused_subwindows: e.paused_subwindows,
                swap_frames: e.swap_frames,
                checkpoint_bytes: e.checkpoint_bytes,
                replayed_frames: replayed,
                matches,
            });
            for join in workers.into_inner().unwrap() {
                join.join().expect("worker thread panicked").ok();
            }
            for proxy in proxies.into_inner().unwrap() {
                proxy.join();
            }
        }
    }
}

fn measure_backend(
    backend: Backend,
    name: &'static str,
    data: &[u64],
    shards_list: &[usize],
) -> BackendReport {
    let cfg = QloveConfig::new(&PHIS, WINDOW, PERIOD).backend(backend);

    // Baseline: single-instance batched ingestion (best of
    // RATE_PASSES — the fastest pass is the least-contended one).
    let mut seq_rate = 0.0f64;
    let mut seq_answers: Vec<QloveAnswer> = Vec::new();
    for _ in 0..RATE_PASSES {
        let mut single = Qlove::new(cfg.clone());
        seq_answers.clear();
        let start = Instant::now();
        for chunk in data.chunks(4096) {
            single.push_batch_into(chunk, &mut seq_answers);
        }
        seq_rate = seq_rate.max(data.len() as f64 / start.elapsed().as_secs_f64() / 1e6);
    }
    eprintln!("{name:>5} sequential push_batch(4096)      {seq_rate:8.2} Melem/s");

    // Distributed end-to-end, checking bit-identity with the baseline
    // on every pass.
    let mut dist_rows: Vec<(usize, f64, bool)> = Vec::new();
    for &shards in shards_list {
        let mut rate = 0.0f64;
        let mut matches = true;
        for _ in 0..RATE_PASSES {
            let mut coordinator = Qlove::new(cfg.clone());
            let start = Instant::now();
            let answers = run_distributed(
                || QloveShard::new(&cfg),
                &mut coordinator,
                cfg.period,
                data,
                shards,
            );
            rate = rate.max(data.len() as f64 / start.elapsed().as_secs_f64() / 1e6);
            matches &= answers == seq_answers;
        }
        eprintln!(
            "{name:>5} run_distributed({shards} shards)       {rate:8.2} Melem/s  \
             answers_match={matches}"
        );
        dist_rows.push((shards, rate, matches));
    }

    // Isolated merge cost per sub-window boundary (best of a few
    // passes — see COST_PASSES).
    let mut merge_rows: Vec<(usize, f64, f64)> = Vec::new();
    for &shards in shards_list {
        let groups = deal_summaries(&cfg, data, shards);
        let boundaries = groups.len();
        let total_ns = best_of_passes(&cfg, &groups);
        let per_boundary = total_ns / boundaries as f64;
        let per_summary = per_boundary / shards as f64;
        eprintln!(
            "{name:>5} merge cost ({shards} shards)           {per_boundary:10.0} ns/boundary \
             ({per_summary:.0} ns/summary)"
        );
        merge_rows.push((shards, per_boundary, per_summary));
    }

    BackendReport {
        name,
        seq_rate,
        dist_rows,
        merge_rows,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_merge: {e}");
            std::process::exit(1);
        }
    };
    let data = NormalGen::generate(7, args.events);

    let reports: Vec<BackendReport> = BACKENDS
        .iter()
        .map(|&(backend, name)| measure_backend(backend, name, &data, &args.shards))
        .collect();

    // Transport dimension (dense backend): in-process pipelined
    // executor vs socket sessions, with coordinator-overlap metrics.
    let mut transport_rows: Vec<TransportRow> = Vec::new();
    if !args.transports.is_empty() {
        let dense_cfg = QloveConfig::new(&PHIS, WINDOW, PERIOD).backend(Backend::Dense);
        let mut single = Qlove::new(dense_cfg);
        let mut dense_seq: Vec<QloveAnswer> = Vec::new();
        for chunk in data.chunks(4096) {
            single.push_batch_into(chunk, &mut dense_seq);
        }
        measure_transports(
            &data,
            &args.shards,
            &args.transports,
            &dense_seq,
            &mut transport_rows,
        );
    }

    // Telemetry on/off twin of the gated transport rows. Report-only
    // (see `TelemetryRow`): the gate holds the instrumented rows, this
    // section records what turning the registry off buys (nothing, by
    // design).
    let mut telemetry_rows: Vec<TelemetryRow> = Vec::new();
    {
        let dense_cfg = QloveConfig::new(&PHIS, WINDOW, PERIOD).backend(Backend::Dense);
        let mut single = Qlove::new(dense_cfg);
        let mut dense_seq: Vec<QloveAnswer> = Vec::new();
        for chunk in data.chunks(4096) {
            single.push_batch_into(chunk, &mut dense_seq);
        }
        let shards = args.shards.iter().copied().find(|&s| s >= 4).unwrap_or(1);
        measure_telemetry_overhead(&data, shards, &dense_seq, &mut telemetry_rows);
    }

    // Sessions/process scaling curve: S windows multiplexed over one
    // worker connection. Report-only (see `SessionsRow`).
    let mut sessions_rows: Vec<SessionsRow> = Vec::new();
    measure_sessions(&data, &mut sessions_rows);

    // Supervised-recovery phase costs with an injected worker crash.
    // Report-only: the perf gate never reads this section, because
    // recovery is off the failure-free hot path by construction.
    let mut recovery_rows: Vec<RecoveryRow> = Vec::new();
    measure_recovery(&data, 3, &mut recovery_rows);

    // Live-resharding swap costs (split / merge / split under a
    // mid-swap crash). Report-only, like `recovery`: the swap is off
    // the steady-state hot path, so the gate never reads the section.
    let mut reshard_rows: Vec<ReshardRow> = Vec::new();
    measure_reshard(&data, &mut reshard_rows);

    // Isolated boundary-completion cost (few-k on/off, both backends).
    let mut boundary_rows: Vec<BoundaryRow> = Vec::new();
    measure_boundary_cost(&data, &mut boundary_rows);

    // Store-level fold cost on both workload families, at the 4-shard
    // (or closest configured) dealing.
    let fold_shards = args.shards.iter().copied().find(|&s| s >= 4).unwrap_or(1);
    let mut fold_rows: Vec<FoldRow> = Vec::new();
    measure_folds("normal", &data, fold_shards, &mut fold_rows);
    let pareto = qlove_workloads::ParetoGen::generate(7, args.events);
    measure_folds("pareto", &pareto, fold_shards, &mut fold_rows);

    // Codec compactness over a representative dealing (4 shards or the
    // largest configured count below that). Summaries are backend-
    // neutral sorted pairs, so one backend suffices.
    let codec_shards = args.shards.iter().copied().find(|&s| s >= 4).unwrap_or(1);
    let codec_cfg = QloveConfig::new(&PHIS, WINDOW, PERIOD);
    let groups = deal_summaries(&codec_cfg, &data, codec_shards);
    let (mut bytes, mut pairs, mut n) = (0usize, 0usize, 0usize);
    for group in &groups {
        for summary in group {
            bytes += summary.to_bytes().len();
            pairs += summary.counts().len();
            n += 1;
        }
    }
    let avg_bytes = bytes as f64 / n as f64;
    let avg_pairs = pairs as f64 / n as f64;
    let raw_bytes = avg_pairs * 16.0;
    eprintln!(
        "codec ({codec_shards} shards)              {avg_bytes:8.1} B/summary vs \
         {raw_bytes:.1} B raw ({avg_pairs:.0} pairs)"
    );

    // Headline ratios at the 4-shard (or closest) configuration.
    let tree = &reports[0];
    let dense = &reports[1];
    let fold_of = |dataset: &str, backend: &str| {
        fold_rows
            .iter()
            .find(|r| r.dataset == dataset && r.backend == backend)
            .map(|r| r.ns_per_summary)
            .unwrap_or(f64::NAN)
    };
    let fold_speedup_normal = fold_of("normal", "tree") / fold_of("normal", "dense");
    let fold_speedup_pareto = fold_of("pareto", "tree") / fold_of("pareto", "dense");
    let dense_dist4 = dense
        .dist_rows
        .iter()
        .find(|r| r.0 == 4)
        .or(dense.dist_rows.last())
        .map(|r| r.1)
        .unwrap_or(f64::NAN);
    let dist_over_seq = dense_dist4 / dense.seq_rate;
    let dist_over_tree_seq = dense_dist4 / tree.seq_rate;
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("fold ns/summary tree / dense (normal):     {fold_speedup_normal:.2}x");
    eprintln!("fold ns/summary tree / dense (pareto):     {fold_speedup_pareto:.2}x");
    eprintln!("dense distributed(4) / dense sequential:   {dist_over_seq:.2}x");
    eprintln!("dense distributed(4) / tree sequential:    {dist_over_tree_seq:.2}x  (host_cpus={host_cpus})");

    // Hand-rolled JSON: the workspace deliberately has no serde.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"experiment\": \"merge\",");
    let _ = writeln!(json, "  \"window\": {WINDOW},");
    let _ = writeln!(json, "  \"period\": {PERIOD},");
    let _ = writeln!(json, "  \"events\": {},", args.events);
    let _ = writeln!(
        json,
        "  \"phis\": [{}],",
        PHIS.map(|p| p.to_string()).join(", ")
    );
    let _ = writeln!(json, "  \"results\": [");
    for (bi, report) in reports.iter().enumerate() {
        let name = report.name;
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{name}\", \"mode\": \"sequential\", \"shards\": 1, \
             \"melems_per_sec\": {:.3}}},",
            report.seq_rate
        );
        for (i, (shards, rate, matches)) in report.dist_rows.iter().enumerate() {
            let last = bi + 1 == reports.len() && i + 1 == report.dist_rows.len();
            let comma = if last { "" } else { "," };
            let _ = writeln!(
                json,
                "    {{\"backend\": \"{name}\", \"mode\": \"distributed\", \"shards\": {shards}, \
                 \"melems_per_sec\": {rate:.3}, \"answers_match_sequential\": {matches}}}{comma}"
            );
        }
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"merge_cost_per_boundary\": [");
    for (bi, report) in reports.iter().enumerate() {
        for (i, (shards, per_boundary, per_summary)) in report.merge_rows.iter().enumerate() {
            let last = bi + 1 == reports.len() && i + 1 == report.merge_rows.len();
            let comma = if last { "" } else { "," };
            let _ = writeln!(
                json,
                "    {{\"backend\": \"{}\", \"shards\": {shards}, \"ns_per_boundary\": \
                 {per_boundary:.0}, \"ns_per_summary\": {per_summary:.0}}}{comma}",
                report.name
            );
        }
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"transport\": [");
    for (i, row) in transport_rows.iter().enumerate() {
        let comma = if i + 1 < transport_rows.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            json,
            "    {{\"transport\": \"{}\", \"shards\": {}, \"melems_per_sec\": {:.3}, \
             \"overlap_us_per_boundary\": {:.2}, \"merge_hidden_pct\": {:.1}, \
             \"answers_match_sequential\": {}}}{comma}",
            row.transport,
            row.shards,
            row.rate,
            row.overlap_us_per_boundary,
            row.merge_hidden_pct,
            row.matches
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"telemetry_overhead\": [");
    for (i, row) in telemetry_rows.iter().enumerate() {
        let comma = if i + 1 < telemetry_rows.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            json,
            "    {{\"enabled\": {}, \"melems_per_sec\": {:.3}, \
             \"answers_match_sequential\": {}}}{comma}",
            row.enabled, row.rate, row.matches
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"sessions\": [");
    for (i, row) in sessions_rows.iter().enumerate() {
        let comma = if i + 1 < sessions_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"sessions\": {}, \"melems_per_sec\": {:.3}, \"us_per_session\": {:.1}, \
             \"answers_match_sequential\": {}}}{comma}",
            row.sessions, row.rate, row.us_per_session, row.matches
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"recovery\": [");
    for (i, row) in recovery_rows.iter().enumerate() {
        let comma = if i + 1 < recovery_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"pass\": {}, \"detect_us\": {}, \"restore_us\": {}, \"replay_us\": {}, \
             \"replayed_frames\": {}, \"answers_match_sequential\": {}}}{comma}",
            row.pass,
            row.detect_us,
            row.restore_us,
            row.replay_us,
            row.replayed_frames,
            row.matches
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"reshard\": [");
    for (i, row) in reshard_rows.iter().enumerate() {
        let comma = if i + 1 < reshard_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"pass\": \"{}\", \"pause_us\": {}, \"paused_subwindows\": {}, \
             \"swap_frames\": {}, \"checkpoint_bytes\": {}, \"replayed_frames\": {}, \
             \"answers_match_sequential\": {}}}{comma}",
            row.pass,
            row.pause_us,
            row.paused_subwindows,
            row.swap_frames,
            row.checkpoint_bytes,
            row.replayed_frames,
            row.matches
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"boundary_cost_us\": [");
    for (i, row) in boundary_rows.iter().enumerate() {
        let comma = if i + 1 < boundary_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{}\", \"fewk\": {}, \"us_per_boundary\": {:.2}}}{comma}",
            row.backend, row.fewk, row.us_per_boundary
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"fold_ns_per_summary\": [");
    for (i, row) in fold_rows.iter().enumerate() {
        let comma = if i + 1 < fold_rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"dataset\": \"{}\", \"backend\": \"{}\", \"ns_per_summary\": {:.0}, \
             \"avg_pairs_per_summary\": {:.1}}}{comma}",
            row.dataset, row.backend, row.ns_per_summary, row.avg_pairs
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"codec\": {{\"shards\": {codec_shards}, \"avg_bytes_per_summary\": {avg_bytes:.1}, \
         \"avg_pairs_per_summary\": {avg_pairs:.1}, \"raw_bytes_per_summary\": {raw_bytes:.1}}},"
    );
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(
        json,
        "  \"fold_tree_over_dense_normal\": {fold_speedup_normal:.2},"
    );
    let _ = writeln!(
        json,
        "  \"fold_tree_over_dense_pareto\": {fold_speedup_pareto:.2},"
    );
    let _ = writeln!(
        json,
        "  \"dense_distributed4_over_dense_sequential\": {dist_over_seq:.3},"
    );
    let _ = writeln!(
        json,
        "  \"dense_distributed4_over_tree_sequential\": {dist_over_tree_seq:.3}"
    );
    json.push_str("}\n");

    if reports
        .iter()
        .any(|r| r.dist_rows.iter().any(|&(_, _, m)| !m))
        || transport_rows.iter().any(|r| !r.matches)
        || telemetry_rows.iter().any(|r| !r.matches)
        || sessions_rows.iter().any(|r| !r.matches)
        || recovery_rows.iter().any(|r| !r.matches)
        || reshard_rows.iter().any(|r| !r.matches)
    {
        eprintln!("bench_merge: distributed answers diverged from sequential");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write(&args.out, json) {
        eprintln!("bench_merge: cannot write {}: {e}", args.out);
        std::process::exit(1);
    }
    eprintln!("wrote {}", args.out);
}
