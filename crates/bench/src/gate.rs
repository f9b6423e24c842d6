//! Perf-regression gate: compare a freshly measured `BENCH_*.json`
//! artifact against a committed baseline and fail on regressions.
//!
//! The bench binaries (`bench_ingest`, `bench_merge`) emit hand-rolled
//! JSON artifacts that are committed at the repo root as the perf
//! baseline. The CI `perf-gate` job re-measures with `--smoke` and runs
//! `bench_gate`, which uses this module to:
//!
//! 1. parse both artifacts ([`parse_json`] — a minimal JSON reader,
//!    since the workspace deliberately has no serde);
//! 2. flatten each into named metrics with a regression *direction*
//!    ([`extract_metrics`]): throughput rows regress by **dropping**,
//!    cost rows (`ns_per_boundary`, `us_per_boundary`,
//!    `ns_per_summary`) regress by **rising**;
//! 3. join on metric name and flag any fresh value beyond the
//!    tolerance band ([`compare`], default ±25%).
//!
//! Metrics present in only one artifact are reported but never fail the
//! gate: baselines predate newly added measurements (e.g.
//! `boundary_cost_us` landed after the first committed artifacts), and
//! retired measurements shouldn't wedge CI. The comparison logic lives
//! here — in tested library code — rather than in workflow shell.

use std::fmt;

/// A parsed JSON value (the subset the bench artifacts use).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as f64 — bench metrics are all f64).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse a JSON document. Errors carry a byte offset and a short
/// message — enough to debug a malformed artifact, no more.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", ch as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, b"false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, b"null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &[u8], value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    // Collect raw bytes, validate as UTF-8 once at the end — multi-byte
    // sequences (e.g. "µs" in a future label) survive intact.
    let mut out = Vec::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return String::from_utf8(out).map_err(|_| "invalid UTF-8 in string".into());
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                out.push(match esc {
                    b'"' => b'"',
                    b'\\' => b'\\',
                    b'/' => b'/',
                    b'n' => b'\n',
                    b't' => b'\t',
                    b'r' => b'\r',
                    // The artifacts never emit \b \f \uXXXX; reject
                    // rather than silently mangle.
                    other => return Err(format!("unsupported escape '\\{}'", *other as char)),
                });
                *pos += 1;
            }
            Some(&c) => {
                out.push(c);
                *pos += 1;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        members.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

/// Which way a metric regresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-like: a regression is the fresh value **dropping**
    /// below baseline.
    HigherIsBetter,
    /// Cost-like: a regression is the fresh value **rising** above
    /// baseline.
    LowerIsBetter,
}

/// One gated measurement extracted from an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable join key built from the row's identifying fields, e.g.
    /// `merge/boundary_cost_us/backend=dense/fewk=true`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Regression direction.
    pub direction: Direction,
}

/// Render a row's identifying fields (everything except the measured
/// values) as a stable `key=value` join suffix.
fn row_key(row: &Json, fields: &[&str]) -> String {
    let mut out = String::new();
    for field in fields {
        if let Some(v) = row.get(field) {
            let rendered = match v {
                Json::Str(s) => s.clone(),
                Json::Num(n) => format!("{n}"),
                Json::Bool(b) => format!("{b}"),
                other => format!("{other:?}"),
            };
            out.push_str(&format!("/{field}={rendered}"));
        }
    }
    out
}

/// Flatten an artifact into its gated metrics. Unknown sections are
/// ignored (forward compatibility); known sections contribute:
///
/// * `results[]` → `melems_per_sec` (higher is better), keyed by the
///   row's dataset/backend/mode/batch/shards fields;
/// * `merge_cost_per_boundary[]` → `ns_per_boundary` (lower is better);
/// * `boundary_cost_us[]` → `us_per_boundary` (lower is better);
/// * `transport[]` → `melems_per_sec` (higher is better), keyed by
///   transport family and shard count.
///
/// Derived headline ratios and the codec section are deliberately not
/// gated: they re-derive from the gated rows, and double-counting them
/// would double the flake surface. `fold_ns_per_summary` is recorded
/// in the artifact but not gated either — a sub-2 µs store-level
/// microbenchmark whose run-to-run noise on 1-CPU runners exceeds the
/// tolerance band, and whose work is already inside the gated boundary
/// rows. The transport rows' `overlap_us_per_boundary` is likewise
/// recorded but ungated: overlap only exists with real parallelism, so
/// on the 1-CPU CI runner it reads ~0 µs and gating it would be pure
/// noise (the throughput row of the same run *is* gated). The
/// `recovery` section (supervised-recovery detect/restore/replay
/// costs from an injected worker crash) is report-only by the same
/// design: recovery is off the failure-free hot path, so its timings
/// must never wedge a perf gate that exists to protect that path.
/// The `telemetry_overhead` section (the instrumented vs
/// uninstrumented twin of a transport row) is report-only too: the
/// instrumented run already IS the gated configuration — metrics are
/// on by default in every gated transport row — so gating the twin
/// would double-count the same noise, while the recorded pair still
/// documents that the registry costs nothing measurable.
pub fn extract_metrics(doc: &Json) -> Vec<Metric> {
    let experiment = doc
        .get("experiment")
        .and_then(Json::as_str)
        .unwrap_or("unknown");
    let mut out = Vec::new();
    let sections: [(&str, &str, Direction, &[&str]); 4] = [
        (
            "results",
            "melems_per_sec",
            Direction::HigherIsBetter,
            &["dataset", "backend", "mode", "batch", "shards"],
        ),
        (
            "merge_cost_per_boundary",
            "ns_per_boundary",
            Direction::LowerIsBetter,
            &["backend", "shards"],
        ),
        (
            "boundary_cost_us",
            "us_per_boundary",
            Direction::LowerIsBetter,
            &["backend", "fewk"],
        ),
        (
            "transport",
            "melems_per_sec",
            Direction::HigherIsBetter,
            &["transport", "shards"],
        ),
    ];
    for (section, value_field, direction, key_fields) in sections {
        let Some(rows) = doc.get(section).and_then(Json::as_arr) else {
            continue;
        };
        for row in rows {
            let Some(value) = row.get(value_field).and_then(Json::as_num) else {
                continue;
            };
            out.push(Metric {
                name: format!("{experiment}/{section}{}", row_key(row, key_fields)),
                value,
                direction,
            });
        }
    }
    out
}

/// One compared metric in a [`GateReport`].
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Metric name (join key).
    pub name: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Freshly measured value.
    pub fresh: f64,
    /// `fresh / baseline`.
    pub ratio: f64,
    /// Regression direction of this metric.
    pub direction: Direction,
    /// `true` when the fresh value regressed beyond tolerance.
    pub regressed: bool,
}

/// Outcome of gating one fresh artifact against one baseline.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Metrics present in both artifacts, compared.
    pub compared: Vec<Comparison>,
    /// Metric names only in the baseline (retired measurements).
    pub only_baseline: Vec<String>,
    /// Metric names only in the fresh artifact (new measurements).
    pub only_fresh: Vec<String>,
}

impl GateReport {
    /// `true` when no compared metric regressed beyond tolerance.
    pub fn passed(&self) -> bool {
        self.compared.iter().all(|c| !c.regressed)
    }

    /// Compared metrics that regressed.
    pub fn regressions(&self) -> impl Iterator<Item = &Comparison> {
        self.compared.iter().filter(|c| c.regressed)
    }
}

impl fmt::Display for GateReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.compared {
            let verdict = if c.regressed { "REGRESSED" } else { "ok" };
            writeln!(
                f,
                "{verdict:>9}  {:<72} {:>12.3} -> {:>12.3}  ({:+.1}%)",
                c.name,
                c.baseline,
                c.fresh,
                (c.ratio - 1.0) * 100.0
            )?;
        }
        for name in &self.only_fresh {
            writeln!(f, "      new  {name}")?;
        }
        for name in &self.only_baseline {
            writeln!(f, "  retired  {name}")?;
        }
        Ok(())
    }
}

/// Gate `fresh` against `baseline` at the given relative `tolerance`
/// (0.25 = fail beyond ±25%): throughput metrics fail when they drop
/// more than `tolerance` below baseline, cost metrics fail when they
/// rise more than `tolerance` above it. Improvements never fail.
pub fn compare(baseline: &[Metric], fresh: &[Metric], tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    for b in baseline {
        let Some(f) = fresh.iter().find(|f| f.name == b.name) else {
            report.only_baseline.push(b.name.clone());
            continue;
        };
        // Guard degenerate baselines (0 or NaN would make every ratio
        // meaningless): such rows compare as non-regressed but visible.
        let ratio = if b.value > 0.0 {
            f.value / b.value
        } else {
            1.0
        };
        let regressed = match b.direction {
            Direction::HigherIsBetter => ratio < 1.0 - tolerance,
            Direction::LowerIsBetter => ratio > 1.0 + tolerance,
        };
        report.compared.push(Comparison {
            name: b.name.clone(),
            baseline: b.value,
            fresh: f.value,
            ratio,
            direction: b.direction,
            regressed,
        });
    }
    for f in fresh {
        if !baseline.iter().any(|b| b.name == f.name) {
            report.only_fresh.push(f.name.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
      "experiment": "merge",
      "events": 2000000,
      "results": [
        {"backend": "tree", "mode": "sequential", "shards": 1, "melems_per_sec": 35.754},
        {"backend": "dense", "mode": "distributed", "shards": 4, "melems_per_sec": 61.151, "answers_match_sequential": true}
      ],
      "merge_cost_per_boundary": [
        {"backend": "dense", "shards": 4, "ns_per_boundary": 41886, "ns_per_summary": 10472}
      ],
      "boundary_cost_us": [
        {"backend": "dense", "fewk": true, "us_per_boundary": 52.0},
        {"backend": "dense", "fewk": false, "us_per_boundary": 4.2}
      ],
      "transport": [
        {"transport": "uds", "shards": 4, "melems_per_sec": 18.0, "overlap_us_per_boundary": 0.0, "merge_hidden_pct": 0.0, "answers_match_sequential": true}
      ]
    }"#;

    fn degraded(throughput: f64, boundary: f64) -> String {
        format!(
            r#"{{
              "experiment": "merge",
              "results": [
                {{"backend": "tree", "mode": "sequential", "shards": 1, "melems_per_sec": {throughput}}},
                {{"backend": "dense", "mode": "distributed", "shards": 4, "melems_per_sec": 60.0}}
              ],
              "merge_cost_per_boundary": [
                {{"backend": "dense", "shards": 4, "ns_per_boundary": 42000, "ns_per_summary": 10500}}
              ],
              "boundary_cost_us": [
                {{"backend": "dense", "fewk": true, "us_per_boundary": {boundary}}},
                {{"backend": "dense", "fewk": false, "us_per_boundary": 4.0}}
              ]
            }}"#
        )
    }

    fn gate(baseline: &str, fresh: &str) -> GateReport {
        let b = extract_metrics(&parse_json(baseline).unwrap());
        let f = extract_metrics(&parse_json(fresh).unwrap());
        compare(&b, &f, 0.25)
    }

    #[test]
    fn parser_round_trips_a_real_artifact() {
        let doc = parse_json(BASELINE).unwrap();
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("merge"));
        assert_eq!(doc.get("events").and_then(Json::as_num), Some(2_000_000.0));
        let rows = doc.get("results").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[1].get("answers_match_sequential"),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse_json("").is_err());
        assert!(parse_json("{").is_err());
        assert!(parse_json(r#"{"a": }"#).is_err());
        assert!(parse_json(r#"{"a": 1} trailing"#).is_err());
        assert!(parse_json(r#"{"a": 1e}"#).is_err());
        assert!(parse_json(r#"["unterminated"#).is_err());
    }

    #[test]
    fn parser_preserves_multibyte_utf8_and_escapes() {
        let doc = parse_json(r#"{"unit": "µs/boundary", "esc": "a\tb\n\"c\""}"#).unwrap();
        assert_eq!(doc.get("unit").and_then(Json::as_str), Some("µs/boundary"));
        assert_eq!(doc.get("esc").and_then(Json::as_str), Some("a\tb\n\"c\""));
    }

    #[test]
    fn metrics_carry_names_and_directions() {
        let metrics = extract_metrics(&parse_json(BASELINE).unwrap());
        assert_eq!(metrics.len(), 6);
        let tput = metrics
            .iter()
            .find(|m| m.name == "merge/results/backend=tree/mode=sequential/shards=1")
            .unwrap();
        assert_eq!(tput.direction, Direction::HigherIsBetter);
        assert_eq!(tput.value, 35.754);
        let cost = metrics
            .iter()
            .find(|m| m.name == "merge/boundary_cost_us/backend=dense/fewk=true")
            .unwrap();
        assert_eq!(cost.direction, Direction::LowerIsBetter);
        assert_eq!(cost.value, 52.0);
    }

    #[test]
    fn identical_artifacts_pass() {
        let report = gate(BASELINE, BASELINE);
        assert!(report.passed());
        assert_eq!(report.compared.len(), 6);
        assert!(report.only_fresh.is_empty());
        assert!(report.only_baseline.is_empty());
    }

    #[test]
    fn within_tolerance_drift_passes() {
        // -20% throughput and +20% boundary cost: inside the ±25% band.
        let report = gate(BASELINE, &degraded(28.7, 62.0));
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn throughput_collapse_fails() {
        let report = gate(BASELINE, &degraded(20.0, 52.0));
        assert!(!report.passed());
        let names: Vec<&str> = report.regressions().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            ["merge/results/backend=tree/mode=sequential/shards=1"]
        );
    }

    #[test]
    fn boundary_cost_increase_fails() {
        let report = gate(BASELINE, &degraded(35.0, 70.0));
        assert!(!report.passed());
        assert!(report
            .regressions()
            .any(|c| c.name == "merge/boundary_cost_us/backend=dense/fewk=true"));
    }

    #[test]
    fn improvements_never_fail() {
        // 3× throughput, boundary cost cut 4×: the gate is one-sided.
        let report = gate(BASELINE, &degraded(100.0, 13.0));
        assert!(report.passed(), "{report}");
    }

    #[test]
    fn missing_and_new_metrics_are_reported_not_fatal() {
        // Fresh artifact lacks boundary_cost_us (old binary) and brings
        // a measurement row the baseline predates.
        let fresh = r#"{
          "experiment": "merge",
          "results": [
            {"backend": "tree", "mode": "sequential", "shards": 1, "melems_per_sec": 35.0},
            {"backend": "dense", "mode": "distributed", "shards": 16, "melems_per_sec": 50.0}
          ]
        }"#;
        let report = gate(BASELINE, fresh);
        assert!(report.passed());
        assert_eq!(report.compared.len(), 1);
        assert_eq!(report.only_baseline.len(), 5);
        assert_eq!(
            report.only_fresh,
            ["merge/results/backend=dense/mode=distributed/shards=16"]
        );
    }

    #[test]
    fn fold_rows_are_recorded_but_not_gated() {
        // Store-level fold microbenchmarks are too noisy for the band
        // on 1-CPU runners; they must not appear among gated metrics.
        let with_fold = r#"{
          "experiment": "merge",
          "fold_ns_per_summary": [
            {"dataset": "pareto", "backend": "dense", "ns_per_summary": 1541}
          ],
          "boundary_cost_us": [
            {"backend": "dense", "fewk": true, "us_per_boundary": 16.8}
          ]
        }"#;
        let metrics = extract_metrics(&parse_json(with_fold).unwrap());
        assert_eq!(metrics.len(), 1);
        assert!(metrics[0].name.starts_with("merge/boundary_cost_us"));
    }

    #[test]
    fn recovery_rows_are_recorded_but_not_gated() {
        // Supervised-recovery timings ride in the artifact for
        // observability, but recovery is off the failure-free hot
        // path: the gate must not read the section, so a slow (or
        // fast) recovery can never flip the perf verdict.
        let with_recovery = r#"{
          "experiment": "merge",
          "recovery": [
            {"pass": 0, "detect_us": 120, "restore_us": 800, "replay_us": 300, "replayed_frames": 12, "answers_match_sequential": true}
          ],
          "transport": [
            {"transport": "uds", "shards": 4, "melems_per_sec": 18.0, "answers_match_sequential": true}
          ]
        }"#;
        let metrics = extract_metrics(&parse_json(with_recovery).unwrap());
        assert_eq!(metrics.len(), 1);
        assert!(metrics[0].name.starts_with("merge/transport"));
    }

    #[test]
    fn reshard_rows_are_recorded_but_not_gated() {
        // Live-resharding swap costs ride in the artifact for
        // observability, but a reshard is a one-off control-plane
        // event off the steady-state hot path: the gate must not read
        // the section, so swap-cost jitter can never flip the perf
        // verdict. Steady-state socket throughput stays gated through
        // the transport rows in the same artifact.
        let with_reshard = r#"{
          "experiment": "merge",
          "reshard": [
            {"pass": "split", "pause_us": 410, "paused_subwindows": 1, "swap_frames": 7, "checkpoint_bytes": 1220, "replayed_frames": 0, "answers_match_sequential": true},
            {"pass": "split+kill", "pause_us": 460, "paused_subwindows": 1, "swap_frames": 7, "checkpoint_bytes": 1220, "replayed_frames": 9, "answers_match_sequential": true}
          ],
          "transport": [
            {"transport": "uds", "shards": 4, "melems_per_sec": 18.0, "answers_match_sequential": true}
          ]
        }"#;
        let metrics = extract_metrics(&parse_json(with_reshard).unwrap());
        assert_eq!(metrics.len(), 1);
        assert!(metrics[0].name.starts_with("merge/transport"));
    }

    #[test]
    fn telemetry_overhead_rows_are_recorded_but_not_gated() {
        // The telemetry on/off twin rides in the artifact to document
        // that instrumentation is free, but the gated configuration IS
        // the instrumented one (metrics default on in every transport
        // row), so gating the twin would double-count the same noise.
        // The transport rows of the same artifact must stay gated —
        // they are what holds instrumented throughput to ±25%.
        let with_telemetry = r#"{
          "experiment": "merge",
          "telemetry_overhead": [
            {"enabled": true, "melems_per_sec": 17.8, "answers_match_sequential": true},
            {"enabled": false, "melems_per_sec": 18.1, "answers_match_sequential": true}
          ],
          "transport": [
            {"transport": "uds", "shards": 4, "melems_per_sec": 18.0, "answers_match_sequential": true}
          ]
        }"#;
        let metrics = extract_metrics(&parse_json(with_telemetry).unwrap());
        assert_eq!(metrics.len(), 1);
        assert!(metrics[0].name.starts_with("merge/transport"));
        // And a collapse of the gated transport row still fails even
        // with the telemetry section present.
        let degraded = r#"{
          "experiment": "merge",
          "telemetry_overhead": [
            {"enabled": true, "melems_per_sec": 17.8, "answers_match_sequential": true}
          ],
          "transport": [
            {"transport": "uds", "shards": 4, "melems_per_sec": 9.0, "answers_match_sequential": true}
          ]
        }"#;
        let report = gate(with_telemetry, degraded);
        assert!(!report.passed());
        let names: Vec<&str> = report.regressions().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["merge/transport/transport=uds/shards=4"]);
    }

    #[test]
    fn sessions_rows_are_recorded_but_not_gated() {
        // The sessions/process scaling curve rides in the artifact for
        // observability, but on the 1-CPU CI host it measures scheduler
        // fairness, not speedup — its run-to-run noise must never flip
        // the perf verdict. Single-session socket throughput stays
        // gated through the transport rows in the same artifact.
        let with_sessions = r#"{
          "experiment": "merge",
          "sessions": [
            {"sessions": 1, "melems_per_sec": 11.0, "us_per_session": 55000.0, "answers_match_sequential": true},
            {"sessions": 64, "melems_per_sec": 9.0, "us_per_session": 980.0, "answers_match_sequential": true}
          ],
          "transport": [
            {"transport": "uds", "shards": 4, "melems_per_sec": 18.0, "answers_match_sequential": true}
          ]
        }"#;
        let metrics = extract_metrics(&parse_json(with_sessions).unwrap());
        assert_eq!(metrics.len(), 1);
        assert!(metrics[0].name.starts_with("merge/transport"));
    }

    #[test]
    fn disjoint_metric_names_compare_nothing() {
        // `passed()` is trivially true on zero overlap — callers (the
        // bench_gate binary) must treat an empty `compared` list as a
        // configuration error, not a green gate.
        let b = [Metric {
            name: "merge/results/backend=dense".into(),
            value: 60.0,
            direction: Direction::HigherIsBetter,
        }];
        let f = [Metric {
            name: "merge/results/backend=flat".into(),
            value: 1.0,
            direction: Direction::HigherIsBetter,
        }];
        let report = compare(&b, &f, 0.25);
        assert!(report.compared.is_empty());
        assert_eq!(report.only_baseline.len(), 1);
        assert_eq!(report.only_fresh.len(), 1);
        assert!(
            report.passed(),
            "vacuous pass is the caller's hazard to guard"
        );
    }

    #[test]
    fn zero_baseline_rows_never_divide() {
        let b = [Metric {
            name: "x".into(),
            value: 0.0,
            direction: Direction::HigherIsBetter,
        }];
        let f = [Metric {
            name: "x".into(),
            value: 5.0,
            direction: Direction::HigherIsBetter,
        }];
        let report = compare(&b, &f, 0.25);
        assert!(report.passed());
        assert!(report.compared[0].ratio.is_finite());
    }
}
