//! Telemetry must be observational only.
//!
//! Two halves:
//!
//! * **Differential**: the socket-distributed run with metric
//!   recording globally enabled answers **bit-identically** to the
//!   same run with recording disabled — and both match the sequential
//!   single-instance run — for both Level-1 backends over unix-domain
//!   sockets. The instrumentation sits on the dealer/collector hot paths, so this
//!   is the test that proves it never leaks into answers.
//!
//! * **Round-trip properties**: every metric registered in a registry
//!   survives `to_json()` (parsed back with the perf gate's JSON
//!   reader) and `to_prometheus_text()` with its exact value, exactly
//!   once (no name collisions), and every histogram's bucket counts
//!   sum to its total count in both encodings.
//!
//! The enabled switch is process-global, so every test here serializes
//! on one lock: libtest runs tests on parallel threads, and a disabled
//! window bleeding into a recording test would turn increments into
//! no-ops.

use proptest::prelude::*;
use qlove::core::{Backend, Qlove, QloveAnswer, QloveConfig};
use qlove::telemetry::metrics::{labeled, MetricsRegistry, MetricsSnapshot};
use qlove::workloads::NormalGen;
use qlove_bench::gate::{parse_json, Json};
use std::sync::{Mutex, MutexGuard, OnceLock};

const WINDOW: usize = 8_000;
const PERIOD: usize = 1_000;
const PHIS: [f64; 3] = [0.5, 0.9, 0.999];

/// Serialize every test in this binary that flips — or records under —
/// the process-global enabled switch.
fn enabled_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Restores the enabled switch on drop, so a panicking assertion can't
/// leave the process with telemetry off for later tests.
struct EnabledGuard(bool);

impl EnabledGuard {
    fn set(on: bool) -> Self {
        let prev = qlove::telemetry::enabled();
        qlove::telemetry::set_enabled(on);
        EnabledGuard(prev)
    }
}

impl Drop for EnabledGuard {
    fn drop(&mut self) {
        qlove::telemetry::set_enabled(self.0);
    }
}

fn sequential(cfg: &QloveConfig, data: &[u64]) -> Vec<QloveAnswer> {
    let mut op = Qlove::new(cfg.clone());
    data.iter().filter_map(|&v| op.push_detailed(v)).collect()
}

/// One socket-distributed run against in-process `serve_stream` worker
/// threads over unix-domain socketpairs.
#[cfg(unix)]
fn socket_run(cfg: &QloveConfig, data: &[u64], shards: usize) -> Vec<QloveAnswer> {
    use qlove::transport::{run_over_sockets, serve_stream, Conn};
    std::thread::scope(|scope| {
        let mut conns = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (ours, theirs) = std::os::unix::net::UnixStream::pair().expect("socketpair");
            conns.push(Conn::Unix(ours));
            scope.spawn(move || serve_stream(Conn::Unix(theirs)));
        }
        let mut coordinator = Qlove::new(cfg.clone());
        run_over_sockets(cfg, &mut coordinator, conns, data)
            .expect("socket-distributed run")
            .answers
    })
}

#[cfg(unix)]
#[test]
fn telemetry_on_off_answers_are_bit_identical() {
    let _serial = enabled_lock();
    let data = NormalGen::generate(17, 3 * WINDOW + 4_321);
    for backend in [Backend::Tree, Backend::Dense] {
        let cfg = QloveConfig::new(&PHIS, WINDOW, PERIOD).backend(backend);
        let want = sequential(&cfg, &data);
        assert!(want.len() >= 2, "{backend:?}: too few evaluations");
        let on = {
            let _guard = EnabledGuard::set(true);
            socket_run(&cfg, &data, 3)
        };
        let off = {
            let _guard = EnabledGuard::set(false);
            socket_run(&cfg, &data, 3)
        };
        assert_eq!(on, want, "{backend:?} uds: instrumented run diverged");
        assert_eq!(off, want, "{backend:?} uds: uninstrumented run diverged");
    }
}

#[test]
fn disabling_telemetry_freezes_metrics_but_not_the_journal() {
    let _serial = enabled_lock();
    let reg = MetricsRegistry::new();
    let c = reg.counter("qlove_switch_total");
    let journal = qlove::telemetry::EventJournal::new();
    {
        let _guard = EnabledGuard::set(false);
        c.add(7);
        journal.emit(qlove::telemetry::EventKind::Pause {
            boundary: 1,
            pause_us: 5,
            paused_subwindows: 1,
        });
    }
    // Metrics honor the switch; the journal never does — it backs the
    // `failures`/`events` views that must exist even in lean runs.
    assert_eq!(c.get(), 0);
    assert_eq!(journal.len(), 1);
    let _guard = EnabledGuard::set(true);
    c.add(7);
    assert_eq!(c.get(), 7);
}

// ---- snapshot round-trip properties ---------------------------------------

/// A generated registry worth of metrics: labeled counters, gauges,
/// and histograms with arbitrary observation lists. Values stay in
/// u32 range so sums can't overflow and f64-parsed JSON numbers stay
/// exact (< 2^53).
fn metric_sets() -> impl Strategy<Value = (Vec<u64>, Vec<i64>, Vec<Vec<u64>>)> {
    (
        proptest::collection::vec(0u64..=u32::MAX as u64, 1..5),
        // The shim's range strategies are unsigned; shift to cover
        // negative gauge values.
        proptest::collection::vec((0u64..=2_000_000).prop_map(|v| v as i64 - 1_000_000), 0..4),
        proptest::collection::vec(
            proptest::collection::vec(0u64..=u32::MAX as u64, 0..40),
            0..3,
        ),
    )
}

/// Build a fresh registry from one generated set and return it with
/// its snapshot. Names are unique per series by construction — the
/// property checks the *encodings* keep them collision-free.
fn build_registry(
    counters: &[u64],
    gauges: &[i64],
    histograms: &[Vec<u64>],
) -> (MetricsRegistry, MetricsSnapshot) {
    let reg = MetricsRegistry::new();
    for (i, &v) in counters.iter().enumerate() {
        reg.counter(&labeled("qlove_rt_total", &[("shard", &i.to_string())]))
            .add(v);
    }
    for (i, &v) in gauges.iter().enumerate() {
        reg.gauge(&format!("qlove_rt_gauge_{i}")).set(v);
    }
    for (i, obs) in histograms.iter().enumerate() {
        let h = reg.histogram(&format!("qlove_rt_us_{i}"));
        for &v in obs {
            h.observe(v);
        }
    }
    let snap = reg.snapshot();
    (reg, snap)
}

/// Find the JSON row whose `name` member is `name`, asserting it
/// appears exactly once.
fn json_row<'a>(rows: &'a [Json], name: &str) -> &'a Json {
    let mut hits = rows
        .iter()
        .filter(|r| r.get("name").and_then(Json::as_str) == Some(name));
    let row = hits.next().unwrap_or_else(|| panic!("{name} missing"));
    assert!(hits.next().is_none(), "{name} appears more than once");
    row
}

/// Count whole lines of `text` that start with `prefix` followed by a
/// space (i.e. exposition samples for exactly this series name).
fn sample_lines<'a>(text: &'a str, prefix: &str) -> Vec<&'a str> {
    text.lines()
        .filter(|l| {
            l.strip_prefix(prefix)
                .is_some_and(|rest| rest.starts_with(' '))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn json_round_trips_every_metric(sets in metric_sets()) {
        let _serial = enabled_lock();
        let (counters, gauges, histograms) = sets;
        let (_reg, snap) = build_registry(&counters, &gauges, &histograms);
        let doc = parse_json(&snap.to_json()).expect("snapshot JSON parses");
        let json_counters = doc.get("counters").and_then(Json::as_arr).expect("counters");
        let json_gauges = doc.get("gauges").and_then(Json::as_arr).expect("gauges");
        let json_hists = doc.get("histograms").and_then(Json::as_arr).expect("histograms");
        // Same cardinality both ways: nothing dropped, nothing invented.
        prop_assert_eq!(json_counters.len(), snap.counters.len());
        prop_assert_eq!(json_gauges.len(), snap.gauges.len());
        prop_assert_eq!(json_hists.len(), snap.histograms.len());
        for (name, value) in &snap.counters {
            let row = json_row(json_counters, name);
            prop_assert_eq!(row.get("value").and_then(Json::as_num), Some(*value as f64));
        }
        for (name, value) in &snap.gauges {
            let row = json_row(json_gauges, name);
            prop_assert_eq!(row.get("value").and_then(Json::as_num), Some(*value as f64));
        }
        for (name, h) in &snap.histograms {
            let row = json_row(json_hists, name);
            prop_assert_eq!(row.get("count").and_then(Json::as_num), Some(h.count as f64));
            prop_assert_eq!(row.get("max").and_then(Json::as_num), Some(h.max as f64));
            let buckets = row.get("buckets").and_then(Json::as_arr).expect("buckets");
            let total: f64 = buckets
                .iter()
                .map(|b| b.get("count").and_then(Json::as_num).expect("bucket count"))
                .sum();
            prop_assert_eq!(total, h.count as f64, "{}: bucket counts must sum to count", name);
        }
    }

    #[test]
    fn prometheus_text_round_trips_every_metric(sets in metric_sets()) {
        let _serial = enabled_lock();
        let (counters, gauges, histograms) = sets;
        let (_reg, snap) = build_registry(&counters, &gauges, &histograms);
        let text = snap.to_prometheus_text();
        for (name, value) in &snap.counters {
            let lines = sample_lines(&text, name);
            prop_assert_eq!(lines.len(), 1, "{} must expose exactly one sample", name);
            prop_assert_eq!(lines[0], format!("{name} {value}"));
        }
        for (name, value) in &snap.gauges {
            let lines = sample_lines(&text, name);
            prop_assert_eq!(lines.len(), 1, "{} must expose exactly one sample", name);
            prop_assert_eq!(lines[0], format!("{name} {value}"));
        }
        for (name, h) in &snap.histograms {
            // Bucket series are cumulative; the +Inf bucket and _count
            // both restate the total, and the last finite cumulative
            // count must already equal it (buckets sum to total).
            let count_line = sample_lines(&text, &format!("{name}_count"));
            prop_assert_eq!(count_line.len(), 1);
            prop_assert_eq!(count_line[0], format!("{name}_count {}", h.count));
            let inf = format!("{name}_bucket{{le=\"+Inf\"}}");
            let inf_lines: Vec<&str> = text.lines().filter(|l| l.starts_with(&inf)).collect();
            prop_assert_eq!(inf_lines.len(), 1);
            prop_assert_eq!(inf_lines[0], format!("{inf} {}", h.count));
            let finite_sum: u64 = h.buckets.iter().map(|&(_, n)| n).sum();
            prop_assert_eq!(finite_sum, h.count, "{}: bucket counts must sum to count", name);
            let sum_line = sample_lines(&text, &format!("{name}_sum"));
            prop_assert_eq!(sum_line.len(), 1);
            prop_assert_eq!(sum_line[0], format!("{name}_sum {}", h.sum));
        }
        // No series name may collide with another after histogram
        // expansion: every sample line is unique.
        let mut seen = std::collections::BTreeSet::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let series = line.split(' ').next().expect("series name");
            prop_assert!(seen.insert(series.to_string()), "duplicate series {}", series);
        }
    }
}
