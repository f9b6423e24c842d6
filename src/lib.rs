//! # qlove — facade crate
//!
//! Re-exports the whole QLOVE workspace behind one dependency so that
//! examples, integration tests, and downstream users can write
//! `use qlove::core::Qlove;` without naming each sub-crate.
//!
//! See the individual crates for the substance:
//!
//! * [`core`] — the QLOVE operator (the paper's contribution, §3–§4).
//! * [`stream`] — the mini streaming engine (incremental evaluation, §2).
//! * [`sketches`] — baseline quantile sketches compared in §5 (Exact,
//!   GK, CMQS, AM, Random, Moment).
//! * [`workloads`] — dataset generators standing in for the paper's
//!   NetMon/Search traces plus the synthetic Normal/Uniform/Pareto/AR(1).
//! * [`stats`] — statistical substrate (normal distribution, Mann-Whitney
//!   U, KDE, Theorem-1 error bound, histograms).
//! * [`freqstore`] — pluggable Level-1 frequency-store backends: the
//!   `FreqStore` trait, the sorted-run `SortedRunStore` for unbounded
//!   domains, the flat `DenseFreqStore` for quantized domains, and
//!   runtime backend dispatch.
//! * [`rbtree`] — the order-statistic frequency red-black tree behind
//!   the sliding-window users (the Exact baseline and the sliding
//!   executors), which remove an element on every push.
//! * [`telemetry`] — the observability plane: lock-free metrics
//!   registry (counters/gauges/log-bucketed histograms), the bounded
//!   structured event journal, and the shared monotonic clock.
//! * [`transport`] — the multi-process distributed runtime: framed
//!   QLVT socket protocol, worker runtime, pipelined coordinator.
//! * [`wire`] — varint primitives and the QLVS summary codec shared by
//!   snapshot IO and the transport.

#![forbid(unsafe_code)]

pub use qlove_core as core;
pub use qlove_freqstore as freqstore;
pub use qlove_rbtree as rbtree;
pub use qlove_sketches as sketches;
pub use qlove_stats as stats;
pub use qlove_stream as stream;
pub use qlove_telemetry as telemetry;
pub use qlove_transport as transport;
pub use qlove_wire as wire;
pub use qlove_workloads as workloads;
