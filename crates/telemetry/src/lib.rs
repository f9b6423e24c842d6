//! # qlove-telemetry — the unified telemetry plane
//!
//! Dependency-free observability substrate for the QLOVE runtime. Two
//! halves, both safe to hammer from the dealer/collector/merger
//! threads concurrently:
//!
//! * [`metrics`] — a lock-free metrics registry: monotonic
//!   [`Counter`]s, [`Gauge`]s, and log-bucketed latency [`Histogram`]s
//!   (p50/p99/max readout), all plain atomics behind `Arc` handles.
//!   Registration takes a short lock once; every update afterwards is
//!   a single atomic RMW. Snapshots render to Prometheus text
//!   exposition format ([`MetricsSnapshot::to_prometheus_text`]) or
//!   JSON ([`MetricsSnapshot::to_json`]).
//! * [`journal`] — a bounded structured **event journal**: a ring of
//!   timestamped [`RuntimeEvent`]s that unifies the runtime's failure,
//!   recovery, reshard, and pause records behind one type, replacing
//!   the bespoke per-run vectors the transport layers used to carry.
//!   Emission is unconditional (the journal is the source of truth
//!   for the compatibility views `DistributedRun::failures` and
//!   `DistributedRun::events`);
//!   only *metric* recording honors the global [`set_enabled`] switch.
//!
//! Every timestamp in the crate comes from one monotonic clock
//! ([`now_us`]): an `Instant` anchored at first use, never wall time,
//! so event ordering is stable across threads and immune to clock
//! steps.
//!
//! The process-wide registry lives behind [`global_metrics`]; code
//! that wants isolation (tests, benches) builds its own
//! [`MetricsRegistry`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod metrics;

pub use journal::{EventJournal, EventKind, RuntimeEvent};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, HISTOGRAM_BUCKETS};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The single monotonic clock anchor for the whole process. Anchored
/// lazily at first use; every telemetry timestamp is microseconds
/// since this anchor — `Instant`-based, never wall clock, so ordering
/// is stable across threads and immune to NTP steps.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Microseconds since the process-wide monotonic anchor. The one clock
/// every journal timestamp and telemetry duration derives from.
pub fn now_us() -> u64 {
    anchor().elapsed().as_micros() as u64
}

/// A started stopwatch on the shared monotonic clock; replaces ad-hoc
/// `Instant::now()`/`elapsed()` pairs so every duration in the runtime
/// comes from the same clock source.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(u64);

impl Stopwatch {
    /// Start now.
    pub fn start() -> Self {
        Stopwatch(now_us())
    }

    /// Microseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_us(&self) -> u64 {
        now_us().saturating_sub(self.0)
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// Global on/off switch for **metric** recording (counters, gauges,
/// histograms). Defaults to on. Journal emission is deliberately not
/// gated: the journal backs the runtime's failure/reshard result
/// views, which must not change shape when metrics are muted.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether metric recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Enable or disable metric recording process-wide. Used by the bench
/// harness to measure instrumented vs uninstrumented throughput; the
/// answers of any run are bit-identical either way (telemetry is
/// observational by construction).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-wide metrics registry: what `qlove_cli --metrics`
/// snapshots and what the runtime layers record into by default.
pub fn global_metrics() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn clock_is_monotonic_across_threads() {
        let t0 = now_us();
        let handles: Vec<_> = (0..4)
            .map(|_| thread::spawn(|| (0..1000).map(|_| now_us()).collect::<Vec<_>>()))
            .collect();
        for handle in handles {
            let samples = handle.join().unwrap();
            assert!(samples.windows(2).all(|w| w[0] <= w[1]));
            assert!(samples[0] >= t0);
        }
    }

    #[test]
    fn stopwatch_measures_on_the_shared_clock() {
        let sw = Stopwatch::start();
        thread::sleep(std::time::Duration::from_millis(2));
        let us = sw.elapsed_us();
        assert!(us >= 1_000, "slept 2ms but measured {us} µs");
    }

    #[test]
    fn enable_switch_round_trips() {
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
    }
}
