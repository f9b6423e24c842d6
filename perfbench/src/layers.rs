//! The traced layer replay: the workload's own input, dealt the way its
//! dealer deals it, pushed through each layer's public call with a span
//! around every call.
//!
//! For each stream the replay deals sub-windows over the workload's
//! shards (element `i` to shard `i % shards`, batches of at most
//! `BATCH` that never cross a sub-window end), and at every sub-window
//! end it runs what a worker and the coordinator run:
//!
//! * `proto.encode` / `proto.decode` — `FrameWriter::write_frame` and
//!   `FrameReader::read_frame` on each `EventBatch` frame;
//! * `core.shard_push` — `QloveShard::push_batch` on each batch;
//! * `core.summarize` — `QloveShard::take_summary` per shard;
//! * `wire.encode` / `wire.decode` — `QloveSummary::to_bytes` and
//!   `from_bytes` per summary;
//! * `freqstore.fold` — `FreqStoreImpl::merge_sorted_counts` of each
//!   summary into a store of the workload's backend;
//! * `core.merge` — `Qlove::merge` of the boundary's summary group,
//!   whose answers are checked against the sequential reference.

use crate::trace::Tracer;
use crate::workload::{failed_answers, Input};
use qlove_core::{Backend, Qlove, QloveShard, QloveSummary};
use qlove_freqstore::{FreqStore, FreqStoreImpl};
use qlove_stream::parallel::BATCH;
use qlove_transport::{Frame, FrameReader, FrameWriter};

/// Sub-windows replayed per stream (at most).
const REPLAY_SUBWINDOWS: usize = 300;

/// The replay's answer check and the byte counts its spans do not carry.
#[derive(Debug, Default)]
pub struct ReplayOut {
    /// Answers the replay's merges produced, checked against the
    /// sequential reference.
    pub attempted: u64,
    pub failed: u64,
    pub event_bytes: u64,
    pub summary_bytes: u64,
}

pub fn replay(input: &Input, tracer: &mut Tracer, run: u32) -> ReplayOut {
    let config = &input.config;
    let period = config.period;
    let shards = input.workload.shards();
    let root_id = tracer.open("replay", None, run);
    let root = Some(root_id);
    let mut out = ReplayOut::default();
    let mut store = match config.resolved_backend() {
        Backend::Dense => FreqStoreImpl::dense(config.sig_digits.expect("dense is quantized")),
        _ => FreqStoreImpl::tree(period),
    };
    let mut frames = Vec::new();
    let mut bufs: Vec<Vec<u64>> = vec![Vec::with_capacity(BATCH); shards];
    for s in 0..input.specs.len() {
        let values = input.stream(s);
        let mut shard_ops: Vec<QloveShard> = (0..shards).map(|_| QloveShard::new(config)).collect();
        let mut coordinator = Qlove::new(config.clone());
        let mut answers = Vec::new();
        let subwindows = (values.len() / period).min(REPLAY_SUBWINDOWS);
        for (b, sub) in values.chunks_exact(period).take(subwindows).enumerate() {
            // Deal the sub-window into per-shard batches.
            let mut batches: Vec<(usize, Vec<u64>)> = Vec::new();
            for (i, &v) in sub.iter().enumerate() {
                let shard = (b * period + i) % shards;
                bufs[shard].push(v);
                if bufs[shard].len() == BATCH {
                    batches.push((shard, std::mem::take(&mut bufs[shard])));
                }
            }
            for (shard, buf) in bufs.iter_mut().enumerate() {
                if !buf.is_empty() {
                    batches.push((shard, std::mem::take(buf)));
                }
            }
            // Event frames through the protocol codec.
            let batch_frames: Vec<Frame> = batches
                .iter()
                .map(|(shard, values)| Frame::EventBatch {
                    session: *shard as u64,
                    values: values.clone(),
                })
                .collect();
            frames.clear();
            {
                let mut writer = FrameWriter::new(&mut frames);
                for ((_, values), frame) in batches.iter().zip(&batch_frames) {
                    tracer.time("proto.encode", root, run, values.len() as u64, || {
                        writer.write_frame(frame).expect("encode to memory")
                    });
                }
            }
            let mut reader = FrameReader::new(&frames[..]);
            for ((_, values), frame) in batches.iter().zip(&batch_frames) {
                let decoded = tracer.time("proto.decode", root, run, values.len() as u64, || {
                    reader.read_frame().expect("decode own frame")
                });
                assert!(decoded == *frame, "event frame round trip");
            }
            out.event_bytes += frames.len() as u64;
            // Shard ingest and boundary summaries.
            for (shard, values) in &batches {
                let op = &mut shard_ops[*shard];
                tracer.time("core.shard_push", root, run, values.len() as u64, || {
                    op.push_batch(values)
                });
            }
            let mut group: Vec<QloveSummary> = Vec::with_capacity(shards);
            for op in &mut shard_ops {
                let summary = tracer.time("core.summarize", root, run, 1, || op.take_summary());
                let bytes = tracer.time("wire.encode", root, run, 1, || summary.to_bytes());
                out.summary_bytes += bytes.len() as u64;
                let decoded = tracer.time("wire.decode", root, run, 1, || {
                    QloveSummary::from_bytes(&bytes).expect("decode own summary")
                });
                assert!(decoded == summary, "summary round trip");
                let pairs = summary.counts().len() as u64;
                tracer.time("freqstore.fold", root, run, pairs, || {
                    store.merge_sorted_counts(summary.counts())
                });
                store.clear();
                group.push(summary);
            }
            tracer.time("core.merge", root, run, group.len() as u64, || {
                for summary in &group {
                    if let Some(answer) = coordinator.merge(summary) {
                        answers.push(answer);
                    }
                }
            });
        }
        // The window fills after `subwindows()` sub-windows; every
        // later sub-window end yields one answer.
        let expected = (subwindows + 1).saturating_sub(config.subwindows());
        let want = &input.reference[s];
        let want = &want[..expected.min(want.len())];
        out.attempted += want.len() as u64;
        out.failed += failed_answers(&answers, want);
    }
    tracer.close(root_id, 0);
    out
}
