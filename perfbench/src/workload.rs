//! The benchmark's workloads: their inputs, generated from the seed, and
//! the references every answer is checked against.

use qlove_core::{Qlove, QloveAnswer, QloveConfig};
use qlove_transport::{SessionSpec, WorkerMode};
use qlove_workloads::{NetMonGen, SearchGen};

/// The paper's default quantiles.
pub const PHIS: [f64; 4] = [0.5, 0.9, 0.99, 0.999];
/// Events of the NetMon stream. At this size, two-shard dealing over
/// Unix sockets reaches the coordinator deadlock described in the
/// benchmark's README; it must not be lowered to avoid it.
pub const NETMON_EVENTS: usize = 10_000_000;
/// Independent windows multiplexed over one connection.
pub const SESSIONS: usize = 16;
/// Events of each session's contiguous slice.
pub const SESSION_EVENTS: usize = 250_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LocalNetmon,
    Uds2Netmon,
    Sessions16Search,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::LocalNetmon,
        Workload::Uds2Netmon,
        Workload::Sessions16Search,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LocalNetmon => "local-netmon",
            Workload::Uds2Netmon => "uds2-netmon",
            Workload::Sessions16Search => "sessions16-search",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// NetMon: the paper's defaults (window 100K, period 10K, 3-digit
    /// quantization, so the dense backend). Search: window 10K, period
    /// 1K, unquantized, so the tree backend.
    pub fn config(self) -> QloveConfig {
        match self {
            Workload::LocalNetmon | Workload::Uds2Netmon => {
                QloveConfig::new(&PHIS, 100_000, 10_000)
            }
            Workload::Sessions16Search => QloveConfig::new(&PHIS, 10_000, 1_000).quantize(None),
        }
    }

    /// Shards one stream is dealt over when the layers are replayed:
    /// two for the NetMon stream, one per session for Search.
    pub fn shards(self) -> usize {
        match self {
            Workload::LocalNetmon | Workload::Uds2Netmon => 2,
            Workload::Sessions16Search => 1,
        }
    }
}

/// The exact quantiles of one evaluated window.
pub struct ExactWindow {
    pub stream: usize,
    pub answer: usize,
    /// One exact value per entry of [`PHIS`].
    pub values: Vec<u64>,
}

/// Everything a run needs, built before the timed phase.
pub struct Input {
    pub workload: Workload,
    pub config: QloveConfig,
    /// One spec per stream: the single NetMon stream, or one per
    /// session. Transport runs take them as they are.
    pub specs: Vec<SessionSpec>,
    /// Answers of a sequential per-element `Qlove` over each stream.
    pub reference: Vec<Vec<QloveAnswer>>,
    /// Exact quantiles of every window the reference answers.
    pub exact: Vec<ExactWindow>,
    /// FNV-1a digest of every input value, so runs can show which
    /// input they measured.
    pub digest: u64,
}

impl Input {
    pub fn build(workload: Workload, seed: u64) -> Self {
        let config = workload.config();
        let streams = match workload {
            Workload::LocalNetmon | Workload::Uds2Netmon => {
                vec![NetMonGen::generate(seed, NETMON_EVENTS)]
            }
            Workload::Sessions16Search => {
                let all = SearchGen::generate(seed, SESSIONS * SESSION_EVENTS);
                all.chunks(SESSION_EVENTS).map(<[u64]>::to_vec).collect()
            }
        };
        let digest = streams
            .iter()
            .flatten()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, &v| {
                (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
            });
        let reference: Vec<Vec<QloveAnswer>> = streams
            .iter()
            .map(|values| {
                let mut op = Qlove::new(config.clone());
                values.iter().filter_map(|&v| op.push_detailed(v)).collect()
            })
            .collect();
        let exact = exact_windows(&config, &streams, &reference);
        let specs = streams
            .into_iter()
            .map(|values| SessionSpec {
                config: config.clone(),
                mode: WorkerMode::Shard,
                values,
            })
            .collect();
        Self {
            workload,
            config,
            specs,
            reference,
            exact,
            digest,
        }
    }

    pub fn stream(&self, i: usize) -> &[u64] {
        &self.specs[i].values
    }

    pub fn events(&self) -> u64 {
        self.specs.iter().map(|s| s.values.len() as u64).sum()
    }

    pub fn answers(&self) -> u64 {
        self.reference.iter().map(|r| r.len() as u64).sum()
    }
}

/// Exact quantiles, under the `⌈φ·n⌉` rank convention, of every
/// evaluated window of every stream, from a Fenwick tree of value
/// counts slid one sub-window at a time.
fn exact_windows(
    config: &QloveConfig,
    streams: &[Vec<u64>],
    reference: &[Vec<QloveAnswer>],
) -> Vec<ExactWindow> {
    let mut out = Vec::new();
    for (s, values) in streams.iter().enumerate() {
        let answers = reference[s].len();
        if answers == 0 {
            continue;
        }
        let max = values.iter().copied().max().unwrap_or(0) as usize;
        assert!(
            max < 1 << 24,
            "value domain of the generated streams is bounded"
        );
        let mut counts = Fenwick::new(max + 1);
        for &v in &values[..config.window] {
            counts.add(v as usize, 1);
        }
        let n = config.window;
        for answer in 0..answers {
            // Answer k covers elements k·period .. k·period + window.
            if answer > 0 {
                let gone = (answer - 1) * config.period;
                let came = gone + config.window;
                for &v in &values[gone..gone + config.period] {
                    counts.add(v as usize, -1);
                }
                for &v in &values[came..came + config.period] {
                    counts.add(v as usize, 1);
                }
            }
            let values = PHIS
                .iter()
                .map(|&phi| {
                    let rank = ((phi * n as f64).ceil() as usize).clamp(1, n);
                    counts.select(rank as i64) as u64
                })
                .collect();
            out.push(ExactWindow {
                stream: s,
                answer,
                values,
            });
        }
    }
    out
}

/// Counts per value with prefix sums and rank selection in `O(log n)`.
struct Fenwick {
    tree: Vec<i64>,
}

impl Fenwick {
    fn new(len: usize) -> Self {
        Self {
            tree: vec![0; len + 1],
        }
    }

    fn add(&mut self, value: usize, delta: i64) {
        let mut i = value + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Smallest value whose cumulative count reaches `rank` (1-based).
    fn select(&self, mut rank: i64) -> usize {
        let mut pos = 0;
        let mut step = (self.tree.len() - 1).next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] < rank {
                pos = next;
                rank -= self.tree[next];
            }
            step >>= 1;
        }
        pos
    }
}

/// Mean relative value error, in percent, of the answers at quantile
/// `PHIS[phi]` against the exact windows.
pub fn value_error_pct(answers: &[Vec<QloveAnswer>], exact: &[ExactWindow], phi: usize) -> f64 {
    let sum: f64 = exact
        .iter()
        .map(|w| {
            let est = answers[w.stream][w.answer].values[phi] as f64;
            let truth = w.values[phi] as f64;
            (est - truth).abs() / truth * 100.0
        })
        .sum();
    sum / exact.len() as f64
}

/// Bit-for-bit equality of two answers, floats compared by their bits.
pub fn same_answer(a: &QloveAnswer, b: &QloveAnswer) -> bool {
    a.values == b.values
        && a.sources == b.sources
        && a.bursty == b.bursty
        && a.bounds.len() == b.bounds.len()
        && a.bounds.iter().zip(&b.bounds).all(|(x, y)| match (x, y) {
            (None, None) => true,
            (Some(x), Some(y)) => {
                x.half_width.to_bits() == y.half_width.to_bits()
                    && x.confidence.to_bits() == y.confidence.to_bits()
            }
            _ => false,
        })
}

/// Expected answers that are missing or differ, plus unexpected extras.
pub fn failed_answers(got: &[QloveAnswer], want: &[QloveAnswer]) -> u64 {
    let wrong = want
        .iter()
        .enumerate()
        .filter(|(i, w)| !got.get(*i).is_some_and(|g| same_answer(g, w)))
        .count();
    (wrong + got.len().saturating_sub(want.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sliding Fenwick reference agrees with sorting each window.
    #[test]
    fn exact_windows_match_sorting() {
        let config = QloveConfig::new(&PHIS, 2_000, 500);
        let values = NetMonGen::generate(7, 6_000);
        let mut op = Qlove::new(config.clone());
        let reference: Vec<QloveAnswer> =
            values.iter().filter_map(|&v| op.push_detailed(v)).collect();
        let exact = exact_windows(
            &config,
            std::slice::from_ref(&values),
            std::slice::from_ref(&reference),
        );
        assert_eq!(exact.len(), reference.len());
        for w in &exact {
            let start = w.answer * config.period;
            let mut window = values[start..start + config.window].to_vec();
            window.sort_unstable();
            for (phi, &got) in PHIS.iter().zip(&w.values) {
                let rank = ((phi * window.len() as f64).ceil() as usize).max(1);
                assert_eq!(got, window[rank - 1]);
            }
        }
    }
}
