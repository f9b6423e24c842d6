//! Wire codec stages on their own: `EventBatch` frame encode/decode
//! (QLVT v7, bit-packed values) and QLVS v2 summary encode/decode, on
//! Search- and NetMon-calibrated values. These are the stages
//! perfbench's traced replay reports as `proto.event_*_ns_per_event`
//! and `wire.summary_*_ns`, measured here without the rest of the
//! pipeline.
//!
//! * `wire_event_{encode,decode}/<stream>` — one iteration is one
//!   `EventBatch` of `BATCH` (4,096) values, rotating over the stream's
//!   batches; `Melem/s` is values per µs, so ns per value is
//!   `1000 / Melem/s`. Encode is `FrameWriter::write_frame` (header and
//!   payload) into a discarding sink; decode is `proto::decode_frame`
//!   on the payload.
//! * `wire_summary_{encode,decode}/<stream>` — one iteration is one
//!   sub-window summary, rotating over the stream's summaries, so the
//!   time per iteration is the time per summary. Summaries come from
//!   `QloveShard::take_summary` under the perfbench configs: Search
//!   unquantized with a 1K period (≈ 990 pairs each), NetMon 3-digit
//!   quantized with a 10K period.
//!
//! Run with `cargo bench -p qlove-bench --bench wire`; the summary and
//! byte sizes are printed before the timings.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use qlove_core::{QloveConfig, QloveShard, QloveSummary};
use qlove_stream::parallel::BATCH;
use qlove_transport::proto::decode_frame;
use qlove_transport::{Frame, FrameWriter};
use qlove_workloads::{NetMonGen, SearchGen};
use std::io;

const PHIS: [f64; 4] = [0.5, 0.9, 0.99, 0.999];
const SEED: u64 = 2;
/// Values per stream: 61 full batches, and 244 Search or 24 NetMon
/// summaries.
const VALUES: usize = 250_000;
/// `EventBatch` type byte, for [`decode_frame`].
const EVENT_BATCH: u8 = 3;

struct Stream {
    name: &'static str,
    values: Vec<u64>,
    config: QloveConfig,
}

fn streams() -> [Stream; 2] {
    [
        Stream {
            name: "search",
            values: SearchGen::generate(SEED, VALUES),
            config: QloveConfig::new(&PHIS, 10_000, 1_000).quantize(None),
        },
        Stream {
            name: "netmon",
            values: NetMonGen::generate(SEED, VALUES),
            config: QloveConfig::new(&PHIS, 100_000, 10_000),
        },
    ]
}

fn batches(stream: &Stream) -> Vec<Frame> {
    stream
        .values
        .chunks_exact(BATCH)
        .map(|chunk| Frame::EventBatch {
            session: 0,
            values: chunk.to_vec(),
        })
        .collect()
}

fn summaries(stream: &Stream) -> Vec<QloveSummary> {
    let mut shard = QloveShard::new(&stream.config);
    stream
        .values
        .chunks_exact(stream.config.period)
        .map(|sub| {
            shard.push_batch(sub);
            shard.take_summary()
        })
        .collect()
}

/// The payload of `frame` as it goes on the wire (the 5-byte header
/// stripped).
fn payload(frame: &Frame) -> Vec<u8> {
    let mut bytes = Vec::new();
    FrameWriter::new(&mut bytes).write_frame(frame).unwrap();
    bytes.split_off(5)
}

fn bench_events(c: &mut Criterion) {
    let streams = streams();
    for stream in &streams {
        let frames = batches(stream);
        let payloads: Vec<Vec<u8>> = frames.iter().map(payload).collect();
        let bytes: usize = payloads.iter().map(|p| p.len() + 5).sum();
        println!(
            "events/{}: {} batches, {:.2} B/value",
            stream.name,
            frames.len(),
            bytes as f64 / (frames.len() * BATCH) as f64
        );
        let mut group = c.benchmark_group("wire_event_encode");
        group.throughput(Throughput::Elements(BATCH as u64));
        group.sample_size(2_000);
        group.bench_function(BenchmarkId::from_parameter(stream.name), |b| {
            let mut writer = FrameWriter::new(io::sink());
            let mut next = 0;
            b.iter(|| {
                next = (next + 1) % frames.len();
                writer.write_frame(&frames[next]).unwrap();
            });
        });
        group.finish();
        let mut group = c.benchmark_group("wire_event_decode");
        group.throughput(Throughput::Elements(BATCH as u64));
        group.sample_size(2_000);
        group.bench_function(BenchmarkId::from_parameter(stream.name), |b| {
            let mut next = 0;
            b.iter(|| {
                next = (next + 1) % payloads.len();
                decode_frame(EVENT_BATCH, &payloads[next]).unwrap()
            });
        });
        group.finish();
    }
}

fn bench_summaries(c: &mut Criterion) {
    let streams = streams();
    for stream in &streams {
        let summaries = summaries(stream);
        let encoded: Vec<Vec<u8>> = summaries.iter().map(QloveSummary::to_bytes).collect();
        let pairs: usize = summaries.iter().map(|s| s.counts().len()).sum();
        let bytes: usize = encoded.iter().map(Vec::len).sum();
        println!(
            "summaries/{}: {} summaries, {:.0} pairs and {:.0} B each",
            stream.name,
            summaries.len(),
            pairs as f64 / summaries.len() as f64,
            bytes as f64 / summaries.len() as f64
        );
        let mut group = c.benchmark_group("wire_summary_encode");
        group.sample_size(2_000);
        group.bench_function(BenchmarkId::from_parameter(stream.name), |b| {
            let mut next = 0;
            b.iter(|| {
                next = (next + 1) % summaries.len();
                summaries[next].to_bytes()
            });
        });
        group.finish();
        let mut group = c.benchmark_group("wire_summary_decode");
        group.sample_size(2_000);
        group.bench_function(BenchmarkId::from_parameter(stream.name), |b| {
            let mut next = 0;
            b.iter(|| {
                next = (next + 1) % encoded.len();
                QloveSummary::from_bytes(&encoded[next]).unwrap()
            });
        });
        group.finish();
    }
}

criterion_group!(benches, bench_events, bench_summaries);
criterion_main!(benches);
