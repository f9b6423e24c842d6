//! `qlove_cli` — run a quantile monitor over values from stdin.
//!
//! Reads one non-negative integer per line (e.g. latency in µs) and
//! prints an evaluation line every window period:
//!
//! ```text
//! some_producer | qlove_cli --window 100000 --period 10000 \
//!                           --phis 0.5,0.99,0.999 --policy qlove
//! # or replay a generated trace:
//! qlove_cli --demo netmon --events 500000
//! # batched ingestion (same answers, much faster on high-rate input):
//! qlove_cli --demo netmon --events 5000000 --batch 4096
//! ```
//!
//! Policies: `qlove` (default), `exact`, `cmqs`, `am`, `random`,
//! `moment`, `ddsketch`, `kll`, `ckms`, `tdigest`.
//!
//! `--batch N` feeds input through the policy's batched ingestion path
//! (`QuantilePolicy::push_batch`) in N-element slices. Answers are
//! identical to per-element feeding; the printed event numbers are
//! derived from the window schedule (first evaluation at `window`
//! elements, then every `period`), which every bundled policy follows.
//! The trailing `space` column is sampled after the whole batch is
//! ingested (mid-sub-window fill), so it can differ from a `--batch 1`
//! run of the same input — compare the answer columns, not `space`.
//!
//! `--distributed N` (QLOVE only) answers **one logical window** from N
//! ingestion shards: values are dealt round-robin to shard accumulators,
//! sub-window summaries are merged by a coordinator, and the printed
//! answers are bit-identical to a single-instance run of the same
//! stream. The `space` column shows the coordinator's footprint after
//! the run.
//!
//! `--backend {tree,dense,auto}` (QLOVE only) pins the Level-1
//! frequency-store backend: the sorted-run store, the flat direct-indexed
//! dense store (requires quantization, which the CLI's default config
//! has on), or automatic selection (default — dense under the paper's
//! 3-digit quantization). Answers are bit-identical either way; only
//! throughput and memory change.
//!
//! **Multi-process deployment** (QLOVE only; endpoints are
//! `tcp:HOST:PORT`, bare `HOST:PORT`, or `unix:/path.sock`):
//!
//! ```text
//! # terminal 1 and 2: one worker process each
//! qlove_cli --worker unix:/tmp/q1.sock
//! qlove_cli --worker unix:/tmp/q2.sock
//! # terminal 3: coordinate one logical window across both
//! qlove_cli --coordinate unix:/tmp/q1.sock,unix:/tmp/q2.sock \
//!           --demo netmon --events 500000
//! ```
//!
//! `--worker` is a multi-session server: it serves every session the
//! coordinator opens on the connection — each with its own config,
//! backend, and mode (shard or full-operator) — and exits with the
//! *connection*, not with any one session. `--coordinate`
//! deals the stream to the workers, pipelines summary merging against
//! their ingest, and prints answers bit-identical to a single-process
//! run. `--connect ADDR` instead streams the input to one remote
//! full-operator worker and prints the answers it sends back.
//!
//! `--connect ADDR --sessions N` exercises the multi-session side of
//! that server: the input is split into N contiguous slices and each
//! becomes an independent shard-mode session — N whole windows through
//! ONE worker process over one connection, answers per session
//! bit-identical to N separate runs. With supervision flags set, a
//! dead worker is respawned at the same endpoint and every unfinished
//! session is individually restored to its own acknowledged boundary.
//!
//! `--max-restarts N` and `--heartbeat-ms MS` enable worker
//! supervision in `--coordinate` mode: crashed or hung shards are
//! reconnected at the same endpoint (up to N times per shard, with
//! MS-millisecond heartbeat probes), restored from their boundary
//! checkpoint, and replayed from the coordinator's bounded replay
//! ring — answers stay bit-identical. In `--connect` mode the flags
//! only add hang *detection* (the remote operator owns the full
//! window state, so its crash is unrecoverable by design).
//!
//! **Live resharding** (QLOVE only): `--reshard-at B:split:SLOT:PIVOT`
//! or `--reshard-at B:merge:LEFT` (repeatable, ascending boundaries)
//! changes the shard set **mid-window** at sub-window boundary B,
//! with answers still bit-identical to a single-instance run:
//!
//! ```text
//! # three workers: two initial shards + one spare for the split
//! qlove_cli --coordinate unix:/tmp/q1.sock,unix:/tmp/q2.sock,unix:/tmp/q3.sock \
//!           --shards 2 --reshard-at 4:split:1:700000 --reshard-at 9:merge:0 \
//!           --demo netmon --events 500000
//! ```
//!
//! A split retires slot SLOT and opens two successors around value
//! PIVOT — the high half on the next spare endpoint from the
//! `--coordinate` list; a merge fuses slot LEFT with its range
//! neighbour and shuts the freed worker down. `--reshard-auto N`
//! instead derives the schedule from measured load (split a shard
//! whose sub-window load exceeds N, re-merge when it cools).
//! `--shards K` sets the initial fleet to the first K endpoints (with
//! `--reshard-at` it defaults to every endpoint not needed as a split
//! spare); `--span S` bounds the value key-range that is partitioned
//! (default 1000000 — routing never affects answers, only balance).
//! Both flags also work with the in-process `--distributed N`
//! executor, which reshards local accumulators instead of sockets.
//!
//! **Telemetry**: `--metrics PATH` dumps the process-wide metrics
//! registry when the run ends — Prometheus text exposition, or JSON
//! when PATH ends in `.json`. `--metrics-interval-ms MS` additionally
//! rewrites the file every MS milliseconds while the run is live, so
//! a node-exporter-style textfile collector can scrape mid-window.
//! Telemetry is observational only: answers are bit-identical with it
//! on, off, or dumped mid-run.

use qlove_core::{Backend, Qlove, QloveConfig, QloveShard};
use qlove_sketches::{
    AmPolicy, CkmsPolicy, CmqsPolicy, DdSketchPolicy, ExactPolicy, KllPolicy, MomentPolicy,
    RandomPolicy, TDigestPolicy,
};
use qlove_stream::run_distributed;
use qlove_stream::QuantilePolicy;
use std::io::{BufRead, Write};

struct Args {
    window: usize,
    period: usize,
    phis: Vec<f64>,
    policy: String,
    demo: Option<String>,
    events: usize,
    batch: usize,
    distributed: usize,
    backend: Backend,
    worker: Option<String>,
    coordinate: Vec<String>,
    connect: Option<String>,
    sessions: usize,
    max_restarts: u32,
    heartbeat_ms: u64,
    reshard_at: Vec<String>,
    reshard_auto: usize,
    shards: usize,
    span: u64,
    metrics: Option<String>,
    metrics_interval_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        window: 100_000,
        period: 10_000,
        phis: vec![0.5, 0.9, 0.99, 0.999],
        policy: "qlove".into(),
        demo: None,
        events: 1_000_000,
        batch: 1,
        distributed: 0,
        backend: Backend::Auto,
        worker: None,
        coordinate: Vec::new(),
        connect: None,
        sessions: 1,
        max_restarts: 0,
        heartbeat_ms: 0,
        reshard_at: Vec::new(),
        reshard_auto: 0,
        shards: 0,
        span: 1_000_000,
        metrics: None,
        metrics_interval_ms: 0,
    };
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        let need_value = |i: usize| -> Result<&str, String> {
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{} needs a value", argv[i]))
        };
        match argv[i].as_str() {
            "--window" => args.window = need_value(i)?.parse().map_err(|e| format!("{e}"))?,
            "--period" => args.period = need_value(i)?.parse().map_err(|e| format!("{e}"))?,
            "--events" => args.events = need_value(i)?.parse().map_err(|e| format!("{e}"))?,
            "--batch" => {
                args.batch = need_value(i)?.parse().map_err(|e| format!("{e}"))?;
                if args.batch == 0 {
                    return Err("--batch must be positive".into());
                }
            }
            "--distributed" => {
                args.distributed = need_value(i)?.parse().map_err(|e| format!("{e}"))?;
                if args.distributed == 0 {
                    return Err("--distributed needs at least one shard".into());
                }
            }
            "--policy" => args.policy = need_value(i)?.to_string(),
            "--backend" => {
                args.backend = match need_value(i)? {
                    "auto" => Backend::Auto,
                    "tree" => Backend::Tree,
                    "dense" => Backend::Dense,
                    other => return Err(format!("unknown backend {other} (tree|dense|auto)")),
                };
            }
            "--sessions" => {
                args.sessions = need_value(i)?.parse().map_err(|e| format!("{e}"))?;
                if args.sessions == 0 {
                    return Err("--sessions needs at least one session".into());
                }
            }
            "--max-restarts" => {
                args.max_restarts = need_value(i)?.parse().map_err(|e| format!("{e}"))?;
            }
            "--heartbeat-ms" => {
                args.heartbeat_ms = need_value(i)?.parse().map_err(|e| format!("{e}"))?;
            }
            "--reshard-at" => args.reshard_at.push(need_value(i)?.to_string()),
            "--reshard-auto" => {
                args.reshard_auto = need_value(i)?.parse().map_err(|e| format!("{e}"))?;
                if args.reshard_auto == 0 {
                    return Err("--reshard-auto needs a positive load threshold".into());
                }
            }
            "--shards" => {
                args.shards = need_value(i)?.parse().map_err(|e| format!("{e}"))?;
                if args.shards == 0 {
                    return Err("--shards needs at least one shard".into());
                }
            }
            "--span" => args.span = need_value(i)?.parse().map_err(|e| format!("{e}"))?,
            "--metrics" => args.metrics = Some(need_value(i)?.to_string()),
            "--metrics-interval-ms" => {
                args.metrics_interval_ms = need_value(i)?.parse().map_err(|e| format!("{e}"))?;
                if args.metrics_interval_ms == 0 {
                    return Err("--metrics-interval-ms must be positive".into());
                }
            }
            "--demo" => args.demo = Some(need_value(i)?.to_string()),
            "--worker" => args.worker = Some(need_value(i)?.to_string()),
            "--connect" => args.connect = Some(need_value(i)?.to_string()),
            "--coordinate" => {
                args.coordinate = need_value(i)?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if args.coordinate.is_empty() {
                    return Err("--coordinate needs at least one worker endpoint".into());
                }
            }
            "--phis" => {
                args.phis = need_value(i)?
                    .split(',')
                    .map(|s| s.trim().parse::<f64>().map_err(|e| format!("{e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: qlove_cli [--window N] [--period K] [--phis a,b,c] \
                     [--policy qlove|exact|cmqs|am|random|moment|ddsketch|kll|ckms|tdigest] \
                     [--demo netmon|search|normal|uniform|pareto --events N] [--batch N] \
                     [--distributed N] [--backend tree|dense|auto] \
                     [--worker ENDPOINT | --coordinate EP1,EP2,... | --connect ENDPOINT] \
                     [--sessions N] [--max-restarts N] [--heartbeat-ms MS] \
                     [--reshard-at B:split:SLOT:PIVOT | B:merge:LEFT]... \
                     [--reshard-auto LOAD] [--shards K] [--span S] \
                     [--metrics PATH] [--metrics-interval-ms MS]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    Ok(args)
}

fn make_policy(a: &Args) -> Result<Box<dyn QuantilePolicy>, String> {
    let (phis, w, p) = (&a.phis[..], a.window, a.period);
    if a.backend != Backend::Auto && a.policy != "qlove" {
        return Err("--backend only applies to the qlove policy".into());
    }
    Ok(match a.policy.as_str() {
        "qlove" => Box::new(Qlove::new(QloveConfig::new(phis, w, p).backend(a.backend))),
        "exact" => Box::new(ExactPolicy::new(phis, w, p)),
        "cmqs" => Box::new(CmqsPolicy::new(phis, w, p, 0.02)),
        "am" => Box::new(AmPolicy::new(phis, w, p, 0.02)),
        "random" => Box::new(RandomPolicy::from_epsilon(phis, w, p, 0.02)),
        "moment" => Box::new(MomentPolicy::new(phis, w, p, 12)),
        "ddsketch" => Box::new(DdSketchPolicy::new(phis, w, p, 0.01)),
        "kll" => Box::new(KllPolicy::new(phis, w, p, 200, 0xC11)),
        "ckms" => Box::new(CkmsPolicy::new(phis, w, p, 0.02)),
        "tdigest" => Box::new(TDigestPolicy::new(phis, w, p, 200.0)),
        other => return Err(format!("unknown policy {other}")),
    })
}

fn demo_values(name: &str, n: usize) -> Result<Vec<u64>, String> {
    Ok(match name {
        "netmon" => qlove_workloads::NetMonGen::generate(42, n),
        "search" => qlove_workloads::SearchGen::generate(42, n),
        "normal" => qlove_workloads::NormalGen::generate(42, n),
        "uniform" => qlove_workloads::UniformGen::generate(42, n),
        "pareto" => qlove_workloads::ParetoGen::generate(42, n),
        other => return Err(format!("unknown demo workload {other}")),
    })
}

/// Parse one stdin line: `Ok(None)` for blank/comment lines, the value
/// otherwise. `line_no` is 1-based, for error messages only. The single
/// source of truth for what qlove_cli accepts as input, shared by every
/// stdin mode.
fn parse_value(line: &str, line_no: usize) -> Result<Option<u64>, String> {
    let t = line.trim();
    if t.is_empty() || t.starts_with('#') {
        return Ok(None);
    }
    t.parse()
        .map(Some)
        .map_err(|_| format!("line {line_no}: not a non-negative integer: {t}"))
}

fn read_stdin_values() -> Result<Vec<u64>, String> {
    let stdin = std::io::stdin();
    let mut values = Vec::new();
    for (i, line) in stdin.lock().lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        if let Some(v) = parse_value(&line, i + 1)? {
            values.push(v);
        }
    }
    Ok(values)
}

/// Print the standard answer table for a finished run.
fn print_answers(
    phis: &[f64],
    window: usize,
    period: usize,
    answers: &[qlove_core::QloveAnswer],
    space: usize,
) -> Result<(), String> {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let header: Vec<String> = phis.iter().map(|p| format!("Q{p}")).collect();
    writeln!(out, "# event\t{}\tspace", header.join("\t")).map_err(|e| e.to_string())?;
    for (k, ans) in answers.iter().enumerate() {
        let event = window + k * period;
        let cells: Vec<String> = ans.values.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "{event}\t{}\t{space}", cells.join("\t"));
    }
    Ok(())
}

/// `--worker ENDPOINT`: serve every session a coordinator multiplexes
/// over one connection, then exit with that connection.
fn run_worker_mode(args: &Args, spec: &str) -> Result<(), String> {
    if args.policy != "qlove" {
        return Err("--worker is only supported for the qlove policy".into());
    }
    let endpoint = qlove_transport::Endpoint::parse(spec).map_err(|e| e.to_string())?;
    let server = qlove_transport::WorkerServer::bind(&endpoint).map_err(|e| e.to_string())?;
    let actual = server.local_endpoint().map_err(|e| e.to_string())?;
    eprintln!("qlove_cli: worker listening on {actual}");
    let report = server.serve_one().map_err(|e| e.to_string())?;
    for s in &report.sessions {
        eprintln!(
            "qlove_cli: session {} done ({:?} mode, {} events in, {} responses out)",
            s.session, s.mode, s.events, s.responses
        );
    }
    eprintln!(
        "qlove_cli: connection done ({} sessions, {} events in, {} responses out)",
        report.sessions_served(),
        report.events(),
        report.responses()
    );
    Ok(())
}

/// Translate the `--max-restarts`/`--heartbeat-ms` flags into a
/// supervision policy. Both zero (the default) means disabled —
/// failures abort the run, exactly as before the flags existed.
fn recovery_policy(args: &Args) -> qlove_transport::RecoveryPolicy {
    if args.max_restarts == 0 && args.heartbeat_ms == 0 {
        return qlove_transport::RecoveryPolicy::disabled();
    }
    let mut policy = qlove_transport::RecoveryPolicy::supervised();
    policy.max_restarts = args.max_restarts;
    policy.heartbeat =
        (args.heartbeat_ms > 0).then(|| std::time::Duration::from_millis(args.heartbeat_ms));
    policy
}

/// Parse one `--reshard-at` spec: `B:split:SLOT:PIVOT` or
/// `B:merge:LEFT`.
fn parse_reshard_spec(raw: &str) -> Result<qlove_stream::parallel::ReshardSpec, String> {
    use qlove_stream::parallel::{ReshardPlan, ReshardSpec};
    let bad = || {
        format!("bad --reshard-at spec {raw:?}: expected BOUNDARY:split:SLOT:PIVOT or BOUNDARY:merge:LEFT")
    };
    let parts: Vec<&str> = raw.split(':').collect();
    let parse = |s: &str| s.parse::<u64>().map_err(|_| bad());
    match parts.as_slice() {
        [b, "split", slot, pivot] => Ok(ReshardSpec {
            boundary: parse(b)?,
            plan: ReshardPlan::Split {
                slot: parse(slot)? as usize,
                pivot: parse(pivot)?,
            },
        }),
        [b, "merge", left] => Ok(ReshardSpec {
            boundary: parse(b)?,
            plan: ReshardPlan::Merge {
                left: parse(left)? as usize,
            },
        }),
        _ => Err(bad()),
    }
}

/// Resolve the reshard schedule for `shards` initial shards: explicit
/// `--reshard-at` specs, or a load-derived plan under `--reshard-auto`.
fn reshard_schedule(
    args: &Args,
    values: &[u64],
    shards: usize,
) -> Result<Vec<qlove_stream::parallel::ReshardSpec>, String> {
    if args.reshard_auto > 0 {
        if !args.reshard_at.is_empty() {
            return Err("pick one of --reshard-at / --reshard-auto".into());
        }
        let specs = qlove_stream::parallel::plan_reshards(
            values,
            args.period,
            shards,
            args.span,
            args.reshard_auto,
            8,
        )?;
        eprintln!(
            "qlove_cli: --reshard-auto {} planned {} reshard(s)",
            args.reshard_auto,
            specs.len()
        );
        return Ok(specs);
    }
    args.reshard_at
        .iter()
        .map(|s| parse_reshard_spec(s))
        .collect()
}

fn count_splits(specs: &[qlove_stream::parallel::ReshardSpec]) -> usize {
    specs
        .iter()
        .filter(|s| matches!(s.plan, qlove_stream::parallel::ReshardPlan::Split { .. }))
        .count()
}

/// `--coordinate` with resharding: the first `shards` endpoints are the
/// initial fleet; each split consumes the next spare endpoint from the
/// list for its fresh worker. Recovery reconnects whichever endpoint
/// the failed connection index maps to.
fn run_coordinate_resharded(
    args: &Args,
    cfg: &QloveConfig,
    values: &[u64],
    endpoints: &[qlove_transport::Endpoint],
    conns: Vec<qlove_transport::Conn>,
) -> Result<(), String> {
    let shards = conns.len();
    let specs = reshard_schedule(args, values, shards)?;
    let needed = shards + count_splits(&specs);
    if endpoints.len() < needed {
        return Err(format!(
            "reshard schedule needs {needed} worker endpoints ({shards} initial + {} split \
             spare(s)), got {}",
            needed - shards,
            endpoints.len()
        ));
    }
    let mut coordinator = Qlove::new(cfg.clone());
    let connect = |conn: usize| {
        qlove_transport::Conn::connect_retry(&endpoints[conn], std::time::Duration::from_secs(5))
    };
    let run = qlove_transport::run_resharded(
        cfg,
        &mut coordinator,
        conns,
        values,
        args.span,
        &specs,
        &recovery_policy(args),
        connect,
    )
    .map_err(|e| e.to_string())?;
    for f in &run.failures {
        eprintln!(
            "qlove_cli: connection {} {:?} at boundary {} ({}): detect {} µs, restore {} µs, \
             replayed {} frames",
            f.shard,
            f.kind,
            f.boundary,
            if f.recovered { "recovered" } else { "gave up" },
            f.detect_us,
            f.restore_us,
            f.replayed_frames
        );
    }
    for e in &run.events {
        eprintln!(
            "qlove_cli: reshard at boundary {} (epoch {}): {:?} — paused {} µs \
             ({} sub-window gap), {} swap frames, {} checkpoint bytes",
            e.boundary,
            e.epoch,
            e.plan,
            e.pause_us,
            e.paused_subwindows,
            e.swap_frames,
            e.checkpoint_bytes
        );
    }
    eprintln!(
        "qlove_cli: merged {} boundaries across {} reshard(s) ({:.1} µs merge overlap/boundary)",
        run.stats.boundaries,
        run.events.len(),
        run.stats.overlap_us_per_boundary()
    );
    print_answers(
        &args.phis,
        args.window,
        args.period,
        &run.answers,
        coordinator.space_variables(),
    )
}

/// `--coordinate EP1,EP2,...`: one logical window over worker
/// processes, dealt over sockets, merged with the pipelined
/// coordinator; answers are bit-identical to a single-process run.
/// With `--max-restarts`/`--heartbeat-ms`, failed workers are
/// reconnected at the same endpoint and replayed from the last
/// acknowledged boundary.
fn run_coordinate_mode(args: &Args) -> Result<(), String> {
    if args.policy != "qlove" {
        return Err("--coordinate is only supported for the qlove policy".into());
    }
    if args.batch > 1 {
        return Err("--coordinate batches internally; drop --batch".into());
    }
    let values = match &args.demo {
        Some(name) => demo_values(name, args.events)?,
        None => read_stdin_values()?,
    };
    let cfg = QloveConfig::new(&args.phis, args.window, args.period).backend(args.backend);
    let mut endpoints = Vec::with_capacity(args.coordinate.len());
    for spec in &args.coordinate {
        endpoints.push(qlove_transport::Endpoint::parse(spec).map_err(|e| e.to_string())?);
    }
    // With resharding, only the initial fleet connects now; the spare
    // endpoints are consumed lazily when a split brings a worker up.
    let resharding = !args.reshard_at.is_empty() || args.reshard_auto > 0;
    let fleet = if !resharding {
        endpoints.len()
    } else if args.shards > 0 {
        args.shards
    } else if args.reshard_auto > 0 {
        return Err(
            "--reshard-auto with --coordinate needs --shards K (initial fleet size; the \
             remaining endpoints are spares for splits)"
                .into(),
        );
    } else {
        let specs: Vec<_> = args
            .reshard_at
            .iter()
            .map(|s| parse_reshard_spec(s))
            .collect::<Result<_, _>>()?;
        match endpoints.len().checked_sub(count_splits(&specs)) {
            Some(fleet) if fleet > 0 => fleet,
            _ => {
                return Err(format!(
                    "the reshard schedule has {} split(s) but --coordinate lists only {} \
                     endpoint(s); each split needs a spare endpoint beyond the initial fleet",
                    count_splits(&specs),
                    endpoints.len()
                ))
            }
        }
    };
    if fleet > endpoints.len() {
        return Err(format!(
            "--shards {fleet} exceeds the {} endpoints in --coordinate",
            endpoints.len()
        ));
    }
    let mut conns = Vec::with_capacity(fleet);
    for endpoint in &endpoints[..fleet] {
        conns.push(
            qlove_transport::Conn::connect_retry(endpoint, std::time::Duration::from_secs(10))
                .map_err(|e| e.to_string())?,
        );
    }
    if resharding {
        return run_coordinate_resharded(args, &cfg, &values, &endpoints, conns);
    }
    let mut coordinator = Qlove::new(cfg.clone());
    // Recovery reconnects to the same endpoint: a worker restarted by
    // an external supervisor (systemd, a shell loop) re-binds it and
    // the coordinator replays the unacknowledged tail.
    let respawn = |shard: usize| {
        qlove_transport::Conn::connect_retry(&endpoints[shard], std::time::Duration::from_secs(5))
    };
    let run = qlove_transport::run_supervised(
        &cfg,
        &mut coordinator,
        conns,
        &values,
        &recovery_policy(args),
        respawn,
    )
    .map_err(|e| e.to_string())?;
    for f in &run.failures {
        eprintln!(
            "qlove_cli: shard {} {:?} at boundary {} ({}): detect {} µs, restore {} µs, \
             replay {} µs over {} frames",
            f.shard,
            f.kind,
            f.boundary,
            if f.recovered { "recovered" } else { "gave up" },
            f.detect_us,
            f.restore_us,
            f.replay_us,
            f.replayed_frames
        );
    }
    eprintln!(
        "qlove_cli: merged {} boundaries from {} workers ({:.1} µs merge overlap/boundary, {:.0}% \
         of merge hidden behind ingest)",
        run.stats.boundaries,
        args.coordinate.len(),
        run.stats.overlap_us_per_boundary(),
        run.stats.merge_hidden_fraction() * 100.0
    );
    print_answers(
        &args.phis,
        args.window,
        args.period,
        &run.answers,
        coordinator.space_variables(),
    )
}

/// `--connect ENDPOINT`: stream the input to one remote full-operator
/// worker and print the answers it sends back. With `--sessions N`,
/// split the input into N independent shard-mode sessions instead and
/// multiplex all of them over the one connection.
fn run_connect_mode(args: &Args, spec: &str) -> Result<(), String> {
    if args.policy != "qlove" {
        return Err("--connect is only supported for the qlove policy".into());
    }
    if args.batch > 1 {
        return Err("--connect batches internally; drop --batch".into());
    }
    let values = match &args.demo {
        Some(name) => demo_values(name, args.events)?,
        None => read_stdin_values()?,
    };
    let cfg = QloveConfig::new(&args.phis, args.window, args.period).backend(args.backend);
    let endpoint = qlove_transport::Endpoint::parse(spec).map_err(|e| e.to_string())?;
    let conn = qlove_transport::Conn::connect_retry(&endpoint, std::time::Duration::from_secs(10))
        .map_err(|e| e.to_string())?;
    if args.sessions > 1 {
        return run_sessions_mode(args, &cfg, endpoint, conn, values);
    }
    // The remote operator holds the full window state, so a crash is
    // unrecoverable; the policy only adds heartbeat-based detection of
    // hung workers instead of blocking forever.
    let answers = qlove_transport::run_remote_operator(&cfg, conn, &values, &recovery_policy(args))
        .map_err(|e| e.to_string())?;
    // The operator state lives in the worker; no local footprint.
    print_answers(&args.phis, args.window, args.period, &answers, 0)
}

/// `--connect --sessions N`: N independent whole windows through one
/// worker process — the input split into N contiguous slices, each its
/// own shard-mode session on the shared connection. With supervision
/// enabled, a dead worker is reconnected at the same endpoint and each
/// unfinished session is restored to its own acknowledged boundary.
fn run_sessions_mode(
    args: &Args,
    cfg: &QloveConfig,
    endpoint: qlove_transport::Endpoint,
    conn: qlove_transport::Conn,
    values: Vec<u64>,
) -> Result<(), String> {
    let n = args.sessions;
    let slice = values.len() / n;
    if slice == 0 {
        return Err(format!("--sessions {n} needs at least {n} input values"));
    }
    let specs: Vec<qlove_transport::SessionSpec> = (0..n)
        .map(|s| qlove_transport::SessionSpec {
            config: cfg.clone(),
            mode: qlove_transport::WorkerMode::Shard,
            values: values[s * slice..(s + 1) * slice].to_vec(),
        })
        .collect();
    let policy = recovery_policy(args);
    let outcomes = if policy.enabled() {
        let respawn =
            || qlove_transport::Conn::connect_retry(&endpoint, std::time::Duration::from_secs(5));
        let run = qlove_transport::run_sessions_supervised(conn, &specs, &policy, respawn)
            .map_err(|e| e.to_string())?;
        for f in &run.failures {
            eprintln!(
                "qlove_cli: session {} {:?} at boundary {} ({}): detect {} µs, restore {} µs, \
                 replay {} µs over {} frames",
                f.shard,
                f.kind,
                f.boundary,
                if f.recovered { "recovered" } else { "gave up" },
                f.detect_us,
                f.restore_us,
                f.replay_us,
                f.replayed_frames
            );
        }
        run.outcomes
    } else {
        qlove_transport::run_sessions(conn, &specs).map_err(|e| e.to_string())?
    };
    for (s, outcome) in outcomes.iter().enumerate() {
        println!("# session {s} ({} boundaries merged)", outcome.boundaries);
        // The merge state lived only for the run; no footprint to report.
        print_answers(&args.phis, args.window, args.period, &outcome.answers, 0)?;
    }
    Ok(())
}

/// One logical window over N ingestion shards: deal, merge, print.
fn run_distributed_mode(args: &Args) -> Result<(), String> {
    if args.policy != "qlove" {
        return Err("--distributed is only supported for the qlove policy".into());
    }
    if args.batch > 1 {
        return Err("--distributed batches internally; drop --batch".into());
    }
    let values = match &args.demo {
        Some(name) => demo_values(name, args.events)?,
        None => read_stdin_values()?,
    };
    let cfg = QloveConfig::new(&args.phis, args.window, args.period).backend(args.backend);
    let mut coordinator = Qlove::new(cfg.clone());
    if !args.reshard_at.is_empty() || args.reshard_auto > 0 {
        let specs = reshard_schedule(args, &values, args.distributed)?;
        let answers = qlove_stream::parallel::run_resharded(
            || QloveShard::new(&cfg),
            &mut coordinator,
            cfg.period,
            &values,
            args.distributed,
            args.span,
            &specs,
        )?;
        eprintln!(
            "qlove_cli: in-process resharded run applied {} reshard(s)",
            specs.len()
        );
        return print_answers(
            &args.phis,
            args.window,
            args.period,
            &answers,
            coordinator.space_variables(),
        );
    }
    let answers = run_distributed(
        || QloveShard::new(&cfg),
        &mut coordinator,
        cfg.period,
        &values,
        args.distributed,
    );
    print_answers(
        &args.phis,
        args.window,
        args.period,
        &answers,
        coordinator.space_variables(),
    )
}

/// Write the process-wide metrics snapshot to `path` — JSON when the
/// path ends in `.json`, Prometheus text exposition otherwise. The
/// whole file is rewritten atomically from the scraper's point of
/// view (single `write` call), so a concurrent reader never sees a
/// half-updated dump.
fn dump_metrics(path: &str) -> Result<(), String> {
    let snapshot = qlove_telemetry::global_metrics().snapshot();
    let body = if path.ends_with(".json") {
        snapshot.to_json()
    } else {
        snapshot.to_prometheus_text()
    };
    std::fs::write(path, body).map_err(|e| format!("--metrics {path}: {e}"))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let socket_modes = usize::from(args.worker.is_some())
        + usize::from(!args.coordinate.is_empty())
        + usize::from(args.connect.is_some());
    if socket_modes > 1 || (socket_modes == 1 && args.distributed > 0) {
        return Err("pick one of --worker, --coordinate, --connect, --distributed".into());
    }
    if (args.max_restarts > 0 || args.heartbeat_ms > 0)
        && args.coordinate.is_empty()
        && args.connect.is_none()
    {
        return Err("--max-restarts/--heartbeat-ms only apply to --coordinate or --connect".into());
    }
    if args.sessions > 1 && args.connect.is_none() {
        return Err("--sessions only applies to --connect".into());
    }
    if (!args.reshard_at.is_empty() || args.reshard_auto > 0)
        && args.coordinate.is_empty()
        && args.distributed == 0
    {
        return Err("--reshard-at/--reshard-auto apply to --coordinate or --distributed".into());
    }
    if args.shards > 0 && args.coordinate.is_empty() {
        return Err("--shards only applies to --coordinate with resharding".into());
    }
    if args.metrics_interval_ms > 0 && args.metrics.is_none() {
        return Err("--metrics-interval-ms needs --metrics PATH".into());
    }
    if let Some(path) = args
        .metrics
        .clone()
        .filter(|_| args.metrics_interval_ms > 0)
    {
        let every = std::time::Duration::from_millis(args.metrics_interval_ms);
        // Detached on purpose: the dumper dies with the process, and
        // each tick rewrites the whole file so the final dump below
        // can only ever be overwritten by a complete snapshot.
        std::thread::spawn(move || loop {
            std::thread::sleep(every);
            if let Err(e) = dump_metrics(&path) {
                eprintln!("qlove_cli: {e}");
            }
        });
    }
    let result = dispatch(&args);
    if let Some(path) = &args.metrics {
        // Dump even when the run failed: partial counters are exactly
        // what a post-mortem wants to look at.
        dump_metrics(path)?;
    }
    result
}

fn dispatch(args: &Args) -> Result<(), String> {
    if let Some(spec) = &args.worker {
        return run_worker_mode(args, spec);
    }
    if !args.coordinate.is_empty() {
        return run_coordinate_mode(args);
    }
    if let Some(spec) = &args.connect {
        return run_connect_mode(args, spec);
    }
    if args.distributed > 0 {
        return run_distributed_mode(args);
    }
    let mut policy = make_policy(args)?;

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let header: Vec<String> = args.phis.iter().map(|p| format!("Q{p}")).collect();
    writeln!(out, "# event\t{}\tspace", header.join("\t")).map_err(|e| e.to_string())?;

    // Evaluation counter for batched mode: every bundled policy follows
    // the window schedule (first answer at `window` elements, then one
    // per `period`), so answer k lands on event `window + k·period`.
    let mut evals = 0usize;
    let print_answer = |out: &mut dyn Write, event: usize, ans: &[u64], space: usize| {
        let cells: Vec<String> = ans.iter().map(u64::to_string).collect();
        let _ = writeln!(out, "{event}\t{}\t{space}", cells.join("\t"));
    };
    let feed = |i: usize, v: u64, policy: &mut Box<dyn QuantilePolicy>, out: &mut dyn Write| {
        if let Some(ans) = policy.push(v) {
            print_answer(out, i + 1, &ans, policy.space_variables());
        }
    };
    let mut feed_batch =
        |chunk: &[u64], policy: &mut Box<dyn QuantilePolicy>, out: &mut dyn Write| {
            for ans in policy.push_batch(chunk) {
                let event = args.window + evals * args.period;
                evals += 1;
                print_answer(out, event, &ans, policy.space_variables());
            }
        };

    match &args.demo {
        Some(name) => {
            let values = demo_values(name, args.events)?;
            if args.batch > 1 {
                for chunk in values.chunks(args.batch) {
                    feed_batch(chunk, &mut policy, &mut out);
                }
            } else {
                for (i, v) in values.into_iter().enumerate() {
                    feed(i, v, &mut policy, &mut out);
                }
            }
        }
        None => {
            let stdin = std::io::stdin();
            let mut buf: Vec<u64> = Vec::with_capacity(args.batch);
            // Event numbers count fed *values*, not input lines, so
            // skipped comment/blank lines leave the schedule (and the
            // agreement with batch mode's window-derived numbering)
            // intact.
            let mut fed = 0usize;
            for (i, line) in stdin.lock().lines().enumerate() {
                let line = line.map_err(|e| e.to_string())?;
                let Some(v) = parse_value(&line, i + 1)? else {
                    continue;
                };
                if args.batch > 1 {
                    buf.push(v);
                    if buf.len() == args.batch {
                        feed_batch(&buf, &mut policy, &mut out);
                        buf.clear();
                    }
                } else {
                    feed(fed, v, &mut policy, &mut out);
                    fed += 1;
                }
            }
            if !buf.is_empty() {
                feed_batch(&buf, &mut policy, &mut out);
            }
        }
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("qlove_cli: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::parse_reshard_spec;
    use qlove_stream::parallel::ReshardPlan;

    #[test]
    fn reshard_specs_parse_and_reject() {
        let split = parse_reshard_spec("4:split:1:700000").unwrap();
        assert_eq!(split.boundary, 4);
        assert_eq!(
            split.plan,
            ReshardPlan::Split {
                slot: 1,
                pivot: 700_000
            }
        );
        let merge = parse_reshard_spec("9:merge:0").unwrap();
        assert_eq!(merge.boundary, 9);
        assert_eq!(merge.plan, ReshardPlan::Merge { left: 0 });
        for bad in [
            "",
            "4",
            "4:split:1",
            "4:merge",
            "4:merge:0:1",
            "x:merge:0",
            "4:split:a:b",
            "4:grow:1:2",
        ] {
            assert!(parse_reshard_spec(bad).is_err(), "{bad:?}");
        }
    }
}
