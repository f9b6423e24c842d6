//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start and an end on one monotonic clock, the
//! span that caused it, the run (pass) it belongs to, and a count of
//! the work it covered (events, pairs or bytes). Spans are kept in
//! memory while the benchmark runs and written out once at the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span, used as a parent reference.
pub type SpanId = usize;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub run: u32,
    /// Work the span covered, in the unit its layer counts.
    pub items: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals: how many spans, their summed duration, their summed
/// self time (duration minus the part covered by child spans), and the
/// summed work count.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub items: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, run: u32) -> SpanId {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run,
            items: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId, items: u64) {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.items = items;
    }

    /// Record a finished span.
    pub fn record(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Time `f` as a span named `name` under `parent`, counting `items`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        run: u32,
        items: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            run,
            items,
        });
        out
    }

    /// Totals by span name, with self time computed from the children
    /// of each span (children of one parent never overlap: every span
    /// recorded on one thread nests, and spans from worker threads are
    /// recorded without a parent).
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.dur_ns();
            t.self_ns += span.dur_ns().saturating_sub(child_ns[i]);
            t.items += span.items;
        }
        out
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Tab-separated dump: one span per line with its index.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\trun\titems\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.run, s.items
            );
        }
        out
    }
}
