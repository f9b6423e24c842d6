//! Backend ablation: the operator's two Level-1 stores — the sorted-run
//! `SortedRunStore` (`FreqStoreImpl::tree`, what `Backend::Tree` and
//! unquantized `Backend::Auto` run) against the flat `DenseFreqStore` —
//! on the three operations that dominate QLOVE's hot paths: accumulate,
//! multi-quantile evaluation, and multiset merge, at 1K/10K/100K unique
//! quantized keys.
//!
//! Keys are drawn from the 4-significant-digit quantized domain (the
//! widest the Auto backend selection still maps to the dense store), so
//! the 100K-unique case exercises a key universe spanning eleven
//! decades. Accumulation on the sorted-run store is an append per
//! element plus one sort in `seal`, which the insert group times and
//! every filled store has paid; dense accumulation is O(1) array
//! arithmetic. Dense merges are a slice-add and dense quantiles a
//! block-skipping prefix scan, against a linear two-way run merge and
//! binary searches over the sorted runs' cumulative counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qlove_freqstore::{FreqStore, FreqStoreImpl};

const SIG_DIGITS: u32 = 4;
const STREAM: usize = 200_000;
const UNIQUE: [usize; 3] = [1_000, 10_000, 100_000];
const PHIS: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// The first `k` values of the 4-digit quantized domain in value order:
/// 0..10^4 directly, then every `s·10^e`. The domain holds 154K keys,
/// comfortably above the largest benchmark size.
fn key_universe(k: usize) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..10_000u64).collect();
    'outer: for e in 1u32.. {
        for s in 1_000u64..10_000 {
            keys.push(s * 10u64.pow(e));
            if keys.len() >= k {
                break 'outer;
            }
        }
    }
    keys.truncate(k);
    keys
}

/// A deterministic pseudo-random stream cycling over `keys`.
fn stream_over(keys: &[u64], n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| keys[(i.wrapping_mul(2654435761)) % keys.len()])
        .collect()
}

fn backends() -> [(&'static str, FreqStoreImpl); 2] {
    [
        ("tree", FreqStoreImpl::tree(1 << 16)),
        ("dense", FreqStoreImpl::dense(SIG_DIGITS)),
    ]
}

fn filled(proto: &FreqStoreImpl, data: &[u64]) -> FreqStoreImpl {
    let mut s = proto.clone();
    for &v in data {
        s.insert(v, 1);
    }
    s.seal();
    s
}

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("freqstore_insert");
    group.throughput(Throughput::Elements(STREAM as u64));
    group.sample_size(15);
    for unique in UNIQUE {
        let data = stream_over(&key_universe(unique), STREAM);
        for (name, proto) in backends() {
            group.bench_with_input(BenchmarkId::new(name, unique), &data, |b, d| {
                b.iter(|| {
                    let mut s = proto.clone();
                    for &v in d {
                        s.insert(v, 1);
                    }
                    s.seal();
                    s.total()
                });
            });
        }
    }
    group.finish();
}

fn bench_quantiles(c: &mut Criterion) {
    let mut group = c.benchmark_group("freqstore_quantiles");
    group.sample_size(30);
    for unique in UNIQUE {
        let data = stream_over(&key_universe(unique), STREAM);
        for (name, proto) in backends() {
            let store = filled(&proto, &data);
            group.bench_with_input(BenchmarkId::new(name, unique), &store, |b, s| {
                let mut buf = Vec::new();
                b.iter(|| {
                    assert!(s.quantiles_into(&PHIS, &mut buf));
                    buf[0]
                });
            });
        }
    }
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    // Merge two stores built over interleaved halves of the stream —
    // the distributed boundary shape. The timed body clones the target
    // first (both backends clone a flat Vec arena, so the clone cost is
    // comparable and the delta isolates the merge).
    let mut group = c.benchmark_group("freqstore_merge");
    group.sample_size(15);
    for unique in UNIQUE {
        let data = stream_over(&key_universe(unique), STREAM);
        let (left, right): (Vec<u64>, Vec<u64>) = {
            let mut l = Vec::new();
            let mut r = Vec::new();
            for (i, &v) in data.iter().enumerate() {
                if i % 2 == 0 {
                    l.push(v);
                } else {
                    r.push(v);
                }
            }
            (l, r)
        };
        for (name, proto) in backends() {
            let target = filled(&proto, &left);
            let source = filled(&proto, &right);
            group.bench_with_input(
                BenchmarkId::new(name, unique),
                &(target, source),
                |b, (target, source)| {
                    b.iter(|| {
                        let mut t = target.clone();
                        t.merge_from(source);
                        t.total()
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_insert, bench_quantiles, bench_merge);
criterion_main!(benches);
