//! `bench_ingest` — record batched-vs-per-element ingestion throughput
//! per Level-1 store backend as `BENCH_ingest.json`, so the perf
//! trajectory is tracked across PRs.
//!
//! ```text
//! bench_ingest [--events N] [--out PATH] [--smoke]
//! ```
//!
//! Measures single-thread elements/second for `push` and for
//! `push_batch` at batch sizes 64/1024/4096 over the quantized Normal
//! and Pareto streams (paper-default QLOVE configuration, 100K/10K
//! window), for **both** backends — the sorted-run store (`tree`
//! rows, named for `Backend::Tree`) and the flat dense store the
//! quantized domain enables. Records two headline
//! ratios on the Normal stream: `push_batch(4096) / push` within the
//! dense backend, and dense over tree at `push_batch(4096)` (the
//! backend win the freqstore refactor is accountable for).
//!
//! `--smoke` shrinks the run for CI while keeping every row present in
//! the artifact.

use qlove_bench::{measure_throughput, measure_throughput_batched};
use qlove_core::{Backend, Qlove, QloveConfig};
use qlove_workloads::{NormalGen, ParetoGen};
use std::fmt::Write as _;

const WINDOW: usize = 100_000;
const PERIOD: usize = 10_000;
const PHIS: [f64; 4] = [0.5, 0.9, 0.99, 0.999];
const BATCH_SIZES: [usize; 3] = [64, 1024, 4096];
const BACKENDS: [(Backend, &str); 2] = [(Backend::Tree, "tree"), (Backend::Dense, "dense")];

struct Row {
    dataset: &'static str,
    backend: &'static str,
    mode: &'static str,
    batch: usize,
    melems_per_sec: f64,
}

fn parse_args() -> Result<(usize, String), String> {
    let mut events = 2_000_000usize;
    let mut out = "BENCH_ingest.json".to_string();
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        if matches!(argv[i].as_str(), "--help" | "-h") {
            println!("usage: bench_ingest [--events N] [--out PATH] [--smoke]");
            std::process::exit(0);
        }
        if argv[i] == "--smoke" {
            events = 300_000;
            i += 1;
            continue;
        }
        if !matches!(argv[i].as_str(), "--events" | "--out") {
            return Err(format!("unknown flag {}", argv[i]));
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--events" => events = value.parse().map_err(|e| format!("{e}"))?,
            _ => out = value.clone(),
        }
        i += 2;
    }
    if events < WINDOW + PERIOD {
        return Err(format!("need at least {} events", WINDOW + PERIOD));
    }
    Ok((events, out))
}

fn measure(dataset: &'static str, data: &[u64], rows: &mut Vec<Row>) {
    for (backend, backend_name) in BACKENDS {
        let cfg = QloveConfig::new(&PHIS, WINDOW, PERIOD).backend(backend);
        let mut per_element = Qlove::new(cfg.clone());
        let rate = measure_throughput(&mut per_element, data);
        eprintln!("{dataset:>7} {backend_name:>5} push              {rate:8.2} Melem/s");
        rows.push(Row {
            dataset,
            backend: backend_name,
            mode: "push",
            batch: 1,
            melems_per_sec: rate,
        });
        for &batch in &BATCH_SIZES {
            let mut op = Qlove::new(cfg.clone());
            let rate = measure_throughput_batched(&mut op, data, batch);
            eprintln!("{dataset:>7} {backend_name:>5} push_batch({batch:>4}) {rate:8.2} Melem/s");
            rows.push(Row {
                dataset,
                backend: backend_name,
                mode: "push_batch",
                batch,
                melems_per_sec: rate,
            });
        }
    }
}

fn rate_of(rows: &[Row], dataset: &str, backend: &str, mode: &str, batch: usize) -> f64 {
    rows.iter()
        .find(|r| {
            r.dataset == dataset && r.backend == backend && r.mode == mode && r.batch == batch
        })
        .map(|r| r.melems_per_sec)
        .unwrap_or(f64::NAN)
}

fn main() {
    let (events, out_path) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_ingest: {e}");
            std::process::exit(1);
        }
    };

    let mut rows = Vec::new();
    measure("normal", &NormalGen::generate(7, events), &mut rows);
    measure("pareto", &ParetoGen::generate(7, events), &mut rows);

    let batch_speedup = rate_of(&rows, "normal", "dense", "push_batch", 4096)
        / rate_of(&rows, "normal", "dense", "push", 1);
    let backend_speedup = rate_of(&rows, "normal", "dense", "push_batch", 4096)
        / rate_of(&rows, "normal", "tree", "push_batch", 4096);
    eprintln!("normal dense push_batch(4096) / push speedup:       {batch_speedup:.2}x");
    eprintln!("normal push_batch(4096) dense / tree speedup:       {backend_speedup:.2}x");

    // Hand-rolled JSON: the workspace deliberately has no serde.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"experiment\": \"ingest\",");
    let _ = writeln!(json, "  \"window\": {WINDOW},");
    let _ = writeln!(json, "  \"period\": {PERIOD},");
    let _ = writeln!(json, "  \"events\": {events},");
    let _ = writeln!(
        json,
        "  \"phis\": [{}],",
        PHIS.map(|p| p.to_string()).join(", ")
    );
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"dataset\": \"{}\", \"backend\": \"{}\", \"mode\": \"{}\", \"batch\": {}, \
             \"melems_per_sec\": {:.3}}}{comma}",
            r.dataset, r.backend, r.mode, r.batch, r.melems_per_sec
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"speedup_normal_push_batch_4096_vs_push\": {batch_speedup:.3},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_normal_dense_vs_tree_push_batch_4096\": {backend_speedup:.3}"
    );
    json.push_str("}\n");

    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("bench_ingest: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}
