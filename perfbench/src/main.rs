//! One workload run of the QLOVE benchmark, in its own process.
//!
//! ```text
//! qlove_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! Set-up builds the input from the seed, the sequential reference
//! answers and the exact window quantiles, several times, and reports
//! the median. The timed phase then runs whole passes of the workload
//! through the system's public API, one after another from this thread,
//! until `--seconds` have passed, and checks every answer of every pass
//! bit for bit against the reference. With `--trace 1` each call is
//! recorded as a span and the layers are replayed on the same input
//! after the timed phase.
//!
//! Output is line-oriented JSON on stdout: one `{"event":"setup",...}`
//! line when the timed phase starts, then one result line. `perfbench/
//! run.py` supervises this process and turns the result line into the
//! benchmark's report.

mod layers;
mod passes;
mod sys;
mod trace;
mod workload;

use passes::{run_pass, PassResult};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{failed_answers, value_error_pct, Input, Workload};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Untimed passes before the timed phase, for at least this long.
const WARMUP: Duration = Duration::from_secs(1);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !s.is_finite() || s <= 0.0 {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace is 0 or 1, got {value}")),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        spans,
    })
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.
fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e3
}

/// Answers of one pass that are missing, extra or differ from the
/// reference.
fn check_pass(input: &Input, pass: &PassResult) -> u64 {
    input
        .reference
        .iter()
        .enumerate()
        .map(|(s, want)| {
            let got = pass.answers.get(s).map_or(&[][..], |a| &a[..]);
            failed_answers(got, want)
        })
        .sum()
}

/// Metrics by name, each with its unit.
#[derive(Default)]
struct Metrics(BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (value, unit))) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if value.is_finite() {
                format!("{value}")
            } else {
                "null".into()
            };
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qlove_perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();

    // Set-up, repeated; the last input is kept.
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut input = None;
    for _ in 0..SETUP_REPS {
        drop(input.take());
        let t0 = Instant::now();
        input = Some(Input::build(args.workload, args.seed));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let input = input.expect("at least one set-up");
    let setup_s = median(&mut setup_times);
    let answers_per_pass = input.answers();
    println!(
        "{{\"event\": \"setup\", \"workload\": \"{}\", \"answers_per_pass\": {answers_per_pass}, \"input_digest\": \"{:016x}\"}}",
        args.workload.name(),
        input.digest
    );
    let _ = std::io::stdout().flush();

    // Warm-up: whole passes, checked but not timed, so lazy set-up and
    // the host's CPUs have settled before the timed phase.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut errors = Vec::new();
    let warmup_start = Instant::now();
    while failed == 0 && warmup_start.elapsed() < WARMUP {
        let pass = run_pass(&input, None, 0);
        attempted += answers_per_pass;
        failed += check_pass(&input, &pass);
        errors.extend(pass.error);
    }

    // Timed phase: whole passes until the time is up.
    let mut tracer = args.trace.then(|| Tracer::new(epoch));
    let budget = Duration::from_secs_f64(args.seconds);
    let rss_start = sys::rss_kb();
    let sampler = sys::RssSampler::start();
    let timed_start = Instant::now();
    let mut passes: Vec<PassResult> = Vec::new();
    let mut pass_cpu_ns: Vec<f64> = Vec::new();
    let mut first_answers = None;
    while failed == 0 && (passes.is_empty() || timed_start.elapsed() < budget) {
        let run = passes.len() as u32;
        let cpu_before = sys::process_cpu_ns();
        let mut pass = run_pass(&input, tracer.as_mut(), run);
        pass_cpu_ns.push((sys::process_cpu_ns() - cpu_before) as f64);
        attempted += answers_per_pass;
        failed += check_pass(&input, &pass);
        if let Some(e) = pass.error.take() {
            errors.push(e);
        }
        let answers = std::mem::take(&mut pass.answers);
        first_answers.get_or_insert(answers);
        passes.push(pass);
    }
    let timed_wall_ns = timed_start.elapsed().as_nanos() as f64;
    let cpu_ns: f64 = pass_cpu_ns.iter().sum();
    let rss_peak = sampler.finish();

    let events_per_pass = input.events() as f64;
    let mut m = Metrics::default();
    let mut detail = Metrics::default();
    detail.put("setup_s", setup_s, "s");
    detail.put("passes", passes.len() as f64, "count");
    detail.put("events_per_pass", events_per_pass, "count");
    detail.put("timed_s", timed_wall_ns / 1e9, "s");
    let correct = failed == 0 && errors.is_empty();
    if correct {
        let answers = first_answers.expect("one pass ran");
        let mut rates: Vec<f64> = passes
            .iter()
            .map(|p| events_per_pass / p.wall_ns as f64 * 1e3)
            .collect();
        let mut pass_ms: Vec<f64> = passes.iter().map(|p| p.wall_ns as f64 / 1e6).collect();
        m.put("throughput_melem_s", median(&mut rates), "Melem/s");
        let mut cpu_per_event: Vec<f64> = pass_cpu_ns.iter().map(|c| c / events_per_pass).collect();
        m.put("cpu_ns_per_event", median(&mut cpu_per_event), "ns");
        let mut heap_kb: Vec<f64> = passes
            .iter()
            .map(|p| p.heap_growth as f64 / 1024.0)
            .collect();
        m.put("heap_growth_kb", median(&mut heap_kb), "KiB");
        detail.put(
            "rss_growth_kb",
            rss_peak.saturating_sub(rss_start) as f64,
            "KiB",
        );
        m.put(
            "value_error_q0.99_pct",
            value_error_pct(&answers, &input.exact, 2),
            "%",
        );
        m.put(
            "value_error_q0.999_pct",
            value_error_pct(&answers, &input.exact, 3),
            "%",
        );
        m.put("setup_s", setup_s, "s");
        detail.put("pass_ms_median", median(&mut pass_ms), "ms");
        let mut worker_cpu: Vec<f64> = passes
            .iter()
            .map(|p| p.workers.iter().map(|w| w.run_ns).sum::<u64>() as f64 / events_per_pass)
            .collect();
        detail.put("worker_cpu_ns_per_event", median(&mut worker_cpu), "ns");
        detail.put("error_windows", input.exact.len() as f64, "count");
        let mut lat: Vec<u64> = passes
            .iter()
            .flat_map(|p| p.latencies_ns.iter().copied())
            .collect();
        if !lat.is_empty() {
            lat.sort_unstable();
            detail.put("answer_latency_p50_us", percentile_us(&lat, 0.5), "us");
            detail.put("answer_latency_p99_us", percentile_us(&lat, 0.99), "us");
            detail.put("answer_latency_samples", lat.len() as f64, "count");
        }
    }
    detail.put(
        "failed_answers_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );

    if let (Some(tracer), true) = (tracer.as_mut(), correct) {
        let replay = layers::replay(&input, tracer, passes.len() as u32);
        attempted += replay.attempted;
        failed += replay.failed;
        per_layer(&mut m, tracer, &replay, &passes, &input, cpu_ns);
        if let Some(path) = &args.spans {
            if let Err(e) = std::fs::write(path, tracer.to_tsv()) {
                eprintln!("qlove_perfbench: writing spans to {path}: {e}");
            }
        }
    }
    let correct = failed == 0 && errors.is_empty();
    for e in &errors {
        eprintln!("qlove_perfbench: {e}");
    }
    let pass_ms: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}", p.wall_ns as f64 / 1e6))
        .collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"input_digest\": \"{:016x}\", \"metrics\": {}, \"detail\": {}, \"pass_ms\": [{}], \"spans\": {}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        input.digest,
        m.to_json(),
        detail.to_json(),
        pass_ms.join(", "),
        tracer.as_ref().map_or_else(|| "{}".to_string(), span_table)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Count, total and self time, and work count per span name, as JSON.
fn span_table(tracer: &Tracer) -> String {
    let rows: Vec<String> = tracer
        .totals()
        .iter()
        .map(|(name, t)| {
            format!(
                "\"{name}\": {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}, \"items\": {}}}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.items
            )
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// The per-layer metrics of a traced run, from its spans.
fn per_layer(
    m: &mut Metrics,
    tracer: &Tracer,
    replay: &layers::ReplayOut,
    passes: &[PassResult],
    input: &Input,
    run_cpu_ns: f64,
) {
    let totals = tracer.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_item = |name: &str| {
        let t = get(name);
        t.total_ns as f64 / t.items.max(1) as f64
    };
    let per_call = |name: &str| {
        let t = get(name);
        t.total_ns as f64 / t.count.max(1) as f64
    };
    let local = input.workload == Workload::LocalNetmon;

    // Core: ingest, boundary completion, summaries, merges.
    let ingest_ns = if local {
        per_item("core.ingest_call")
    } else {
        per_item("core.shard_push")
    };
    m.put("core.ingest_ns_per_event", ingest_ns, "ns");
    let boundary = if local {
        "core.boundary_call"
    } else {
        "core.merge"
    };
    let mut calls: Vec<u64> = tracer.durations(boundary);
    calls.sort_unstable();
    m.put(
        "core.boundary_call_p50_us",
        percentile_us(&calls, 0.5),
        "us",
    );
    m.put(
        "core.boundary_call_p99_us",
        percentile_us(&calls, 0.99),
        "us",
    );
    let summarize_ns = per_call("core.summarize");
    m.put("core.summarize_us", summarize_ns / 1e3, "us");
    let merge_ns = per_call("core.merge");
    m.put("core.merge_us_per_boundary", merge_ns / 1e3, "us");

    // Frequency store fold, summary codec, event-frame codec.
    let fold = get("freqstore.fold");
    m.put(
        "freqstore.fold_ns_per_pair",
        per_item("freqstore.fold"),
        "ns",
    );
    m.put(
        "freqstore.pairs_per_summary",
        fold.items as f64 / fold.count.max(1) as f64,
        "count",
    );
    let summaries = get("wire.encode").count.max(1) as f64;
    m.put(
        "wire.summary_bytes",
        replay.summary_bytes as f64 / summaries,
        "B",
    );
    let wire_enc = per_call("wire.encode");
    let wire_dec = per_call("wire.decode");
    m.put("wire.summary_encode_ns", wire_enc, "ns");
    m.put("wire.summary_decode_ns", wire_dec, "ns");
    let framed_events = get("proto.encode").items.max(1) as f64;
    m.put(
        "proto.event_bytes_per_event",
        replay.event_bytes as f64 / framed_events,
        "B",
    );
    let proto_enc = per_item("proto.encode");
    let proto_dec = per_item("proto.decode");
    m.put("proto.event_encode_ns_per_event", proto_enc, "ns");
    m.put("proto.event_decode_ns_per_event", proto_dec, "ns");

    // The run span and the threads that ingest.
    let mut span_ms: Vec<f64> = passes.iter().map(|p| p.wall_ns as f64 / 1e6).collect();
    m.put("run.span_ms", median(&mut span_ms), "ms");
    let per_pass = |f: &dyn Fn(&PassResult) -> f64| {
        let mut v: Vec<f64> = passes.iter().map(f).collect();
        median(&mut v)
    };
    m.put(
        "worker.busy_ms",
        per_pass(&|p| p.workers.iter().map(|w| w.run_ns).sum::<u64>() as f64 / 1e6),
        "ms",
    );
    // A mean, not a median: most passes of a single-thread run never
    // wait, and a median of zeros would hide the ones that do.
    let wait_ns: u64 = passes
        .iter()
        .flat_map(|p| &p.workers)
        .map(|w| w.wait_ns)
        .sum();
    m.put(
        "worker.runq_wait_ms",
        wait_ns as f64 / 1e6 / passes.len().max(1) as f64,
        "ms",
    );
    m.put(
        "worker.busy_frac",
        per_pass(&|p| {
            let busy: u64 = p.workers.iter().map(|w| w.run_ns).sum();
            busy as f64 / (p.wall_ns as f64 * p.workers.len().max(1) as f64)
        }),
        "ratio",
    );
    m.put(
        "worker.events",
        per_pass(&|p| p.workers.iter().map(|w| w.events).sum::<u64>() as f64),
        "count",
    );
    m.put(
        "worker.responses",
        per_pass(&|p| p.workers.iter().map(|w| w.responses).sum::<u64>() as f64),
        "count",
    );

    // The two-shard socket run's coordinator.
    if input.workload == Workload::Uds2Netmon {
        let stats: Vec<_> = passes.iter().filter_map(|p| p.stats).collect();
        let mut hidden: Vec<f64> = stats.iter().map(|s| s.merge_hidden_fraction()).collect();
        let mut overlap: Vec<f64> = stats.iter().map(|s| s.overlap_us_per_boundary()).collect();
        m.put(
            "coordinator.merge_hidden_frac",
            median(&mut hidden),
            "ratio",
        );
        m.put(
            "coordinator.overlap_us_per_boundary",
            median(&mut overlap),
            "us",
        );
        let snapshot = qlove_telemetry::global_metrics().snapshot();
        if let Some((_, h)) = snapshot
            .histograms
            .iter()
            .find(|(name, _)| name == "qlove_answer_merge_us")
        {
            m.put("coordinator.answer_merge_us_p50", h.p50() as f64, "us");
            m.put("coordinator.answer_merge_us_p99", h.p99() as f64, "us");
        }
        let bytes: u64 = snapshot
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("qlove_summary_bytes_total"))
            .map(|(_, v)| v)
            .sum();
        let boundaries: usize = stats.iter().map(|s| s.boundaries).sum();
        m.put(
            "coordinator.summary_bytes",
            bytes as f64 / boundaries.max(1) as f64,
            "B",
        );
    }

    // Reconciliation: the layer costs the run's boundaries and events
    // account for, against the CPU time the run took.
    let attributed_ns = if local {
        (get("core.ingest_call").total_ns + get("core.boundary_call").total_ns) as f64
    } else {
        let events = input.events() as f64;
        let summaries_per_pass =
            (input.events() as usize / input.config.period * input.workload.shards()) as f64;
        let groups_per_pass = (input.events() as usize / input.config.period) as f64;
        let per_pass = events * (ingest_ns + proto_enc + proto_dec)
            + summaries_per_pass * (summarize_ns + wire_enc + wire_dec)
            + groups_per_pass * merge_ns;
        per_pass * passes.len() as f64
    };
    m.put(
        "trace.unattributed_cpu_frac",
        1.0 - attributed_ns / run_cpu_ns,
        "ratio",
    );
}
