//! Ablation of ordered frequency multisets: the arena red-black
//! `FreqTree`, `BTreeMap<u64, u64>`, and (for accumulation) the
//! sorted-run `SortedRunStore`.
//!
//! The operator's unquantized Level-1 state is the sorted-run store: a
//! tumbling sub-window is filled, queried once and discarded, so it
//! appends every insert and sorts once in `seal`, where the tree pays a
//! descent per insert to stay ordered. `level1_accumulate` measures
//! that pattern, seal included. The tree remains the structure of the
//! sliding-window users (the Exact baseline, the sliding executors),
//! which remove an element on every push — `sliding_deaccumulate`
//! measures that loop — and `compute_result` compares its rank
//! selection with a `BTreeMap` scan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qlove_freqstore::{FreqStore, SortedRunStore};
use qlove_rbtree::FreqTree;
use qlove_workloads::{transform::quantize_sig_digits, NetMonGen};
use std::collections::BTreeMap;

const N: usize = 100_000;

fn bench_accumulate(c: &mut Criterion) {
    let data: Vec<u64> = NetMonGen::generate(7, N)
        .into_iter()
        .map(|v| quantize_sig_digits(v, 3))
        .collect();
    let mut group = c.benchmark_group("level1_accumulate");
    group.throughput(Throughput::Elements(N as u64));
    group.sample_size(20);

    group.bench_with_input(BenchmarkId::from_parameter("freqtree"), &data, |b, d| {
        b.iter(|| {
            let mut t = FreqTree::new();
            for &v in d {
                t.insert(v, 1);
            }
            t.total()
        });
    });
    group.bench_with_input(BenchmarkId::from_parameter("sorted_runs"), &data, |b, d| {
        b.iter(|| {
            let mut s = SortedRunStore::new();
            for &v in d {
                s.insert(v, 1);
            }
            s.seal();
            s.unique_len()
        });
    });
    group.bench_with_input(BenchmarkId::from_parameter("btreemap"), &data, |b, d| {
        b.iter(|| {
            let mut m: BTreeMap<u64, u64> = BTreeMap::new();
            for &v in d {
                *m.entry(v).or_insert(0) += 1;
            }
            m.len()
        });
    });
    group.finish();
}

fn bench_multi_quantile(c: &mut Criterion) {
    let phis = [0.5, 0.9, 0.99, 0.999];
    let mut tree = FreqTree::new();
    let mut map: BTreeMap<u64, u64> = BTreeMap::new();
    for v in NetMonGen::generate(7, N) {
        let v = quantize_sig_digits(v, 3);
        tree.insert(v, 1);
        *map.entry(v).or_insert(0) += 1;
    }
    let total: u64 = map.values().sum();

    let mut group = c.benchmark_group("compute_result");
    group.sample_size(30);
    group.bench_function("freqtree_single_pass", |b| {
        b.iter(|| tree.quantiles(&phis).unwrap());
    });
    group.bench_function("freqtree_select_per_phi", |b| {
        b.iter(|| -> Vec<u64> { phis.iter().map(|&p| tree.quantile(p).unwrap()).collect() });
    });
    group.bench_function("btreemap_scan", |b| {
        b.iter(|| -> Vec<u64> {
            phis.iter()
                .map(|&phi| {
                    let rank = (phi * total as f64).ceil() as u64;
                    let mut acc = 0;
                    for (&k, &c) in &map {
                        acc += c;
                        if acc >= rank {
                            return k;
                        }
                    }
                    unreachable!()
                })
                .collect()
        });
    });
    group.finish();
}

fn bench_sliding_deaccumulate(c: &mut Criterion) {
    // The Exact baseline's hot loop: insert new + remove expired.
    let data: Vec<u64> = NetMonGen::generate(11, N);
    let window = 20_000;
    let mut group = c.benchmark_group("sliding_deaccumulate");
    group.throughput(Throughput::Elements(N as u64));
    group.sample_size(20);
    group.bench_function("freqtree", |b| {
        b.iter(|| {
            let mut t = FreqTree::new();
            for (i, &v) in data.iter().enumerate() {
                t.insert(v, 1);
                if i >= window {
                    t.remove(data[i - window], 1).unwrap();
                }
            }
            t.total()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_accumulate,
    bench_multi_quantile,
    bench_sliding_deaccumulate
);
criterion_main!(benches);
