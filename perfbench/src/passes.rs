//! One pass of a workload: the whole input through the system once, by
//! its public API, from a fresh operator or fresh connections.

use crate::sys::{heap_live, heap_peak, reset_heap_peak, thread_schedstat};
use crate::trace::{Span, Tracer};
use crate::workload::{Input, Workload};
use qlove_core::{Qlove, QloveAnswer};
use qlove_stream::parallel::BATCH;
use qlove_stream::PipelineStats;
use qlove_transport::{run_over_sockets, run_sessions, serve_stream, Conn, ServeReport};
use std::io;
use std::os::unix::net::UnixStream;
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// What the thread doing a workload's ingest did during one pass: the
/// `serve_stream` threads of a transport run, or the caller's own
/// thread for the local run.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerSample {
    pub run_ns: u64,
    pub wait_ns: u64,
    pub events: u64,
    pub responses: u64,
}

pub struct PassResult {
    /// Answers per stream.
    pub answers: Vec<Vec<QloveAnswer>>,
    pub wall_ns: u64,
    /// Peak live heap during the system's call(s) minus the live heap
    /// just before them, in bytes.
    pub heap_growth: usize,
    /// Local run only: time of each call that returned an answer.
    pub latencies_ns: Vec<u64>,
    pub workers: Vec<WorkerSample>,
    /// Two-shard socket run only: the coordinator's pipeline timing.
    pub stats: Option<PipelineStats>,
    pub error: Option<String>,
}

pub fn run_pass(input: &Input, tracer: Option<&mut Tracer>, run: u32) -> PassResult {
    match input.workload {
        Workload::LocalNetmon => local_pass(input, tracer, run),
        Workload::Uds2Netmon | Workload::Sessions16Search => socket_pass(input, tracer, run),
    }
}

/// Feed the stream through `push_batch_into` in batches of at most
/// `BATCH` that never cross a sub-window end, timing each call that
/// hands in a sub-window's last event.
fn local_pass(input: &Input, mut tracer: Option<&mut Tracer>, run: u32) -> PassResult {
    let values = input.stream(0);
    let period = input.config.period;
    let mut latencies_ns = Vec::with_capacity(values.len() / period);
    let (run0, wait0) = thread_schedstat();
    let heap_start = heap_live();
    reset_heap_peak();
    let start = Instant::now();
    let pass_span = tracer.as_mut().map(|t| t.open("run.local", None, run));
    let mut op = Qlove::new(input.config.clone());
    let mut out = Vec::with_capacity(input.reference[0].len());
    for sub in values.chunks(period) {
        let last = sub.len().saturating_sub(1) / BATCH;
        for (i, batch) in sub.chunks(BATCH).enumerate() {
            let completes = i == last && sub.len() == period;
            if !completes && tracer.is_none() {
                op.push_batch_into(batch, &mut out);
                continue;
            }
            let before = out.len();
            let t0 = Instant::now();
            op.push_batch_into(batch, &mut out);
            let t1 = Instant::now();
            if out.len() > before {
                latencies_ns.push((t1 - t0).as_nanos() as u64);
            }
            if let Some(t) = tracer.as_mut() {
                let name = if completes {
                    "core.boundary_call"
                } else {
                    "core.ingest_call"
                };
                let span = Span {
                    name,
                    start_ns: t.at(t0),
                    end_ns: t.at(t1),
                    parent: pass_span,
                    run,
                    items: batch.len() as u64,
                };
                t.record(span);
            }
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let heap_growth = heap_peak().saturating_sub(heap_start);
    if let (Some(t), Some(id)) = (tracer, pass_span) {
        t.close(id, values.len() as u64);
    }
    let (run1, wait1) = thread_schedstat();
    let worker = WorkerSample {
        run_ns: run1 - run0,
        wait_ns: wait1 - wait0,
        events: values.len() as u64,
        responses: out.len() as u64,
    };
    PassResult {
        answers: vec![out],
        wall_ns,
        heap_growth,
        latencies_ns,
        workers: vec![worker],
        stats: None,
        error: None,
    }
}

struct WorkerEnd {
    report: io::Result<ServeReport>,
    start: Instant,
    end: Instant,
    run_ns: u64,
    wait_ns: u64,
}

/// Spawn a `serve_stream` worker thread on one end of a fresh Unix
/// socketpair and return the other end.
fn spawn_worker() -> io::Result<(Conn, JoinHandle<WorkerEnd>)> {
    let (ours, theirs) = UnixStream::pair()?;
    let handle = thread::spawn(move || {
        let start = Instant::now();
        let report = serve_stream(Conn::Unix(theirs));
        let end = Instant::now();
        let (run_ns, wait_ns) = thread_schedstat();
        WorkerEnd {
            report,
            start,
            end,
            run_ns,
            wait_ns,
        }
    });
    Ok((Conn::Unix(ours), handle))
}

/// Two-shard `run_over_sockets`, or 16 sessions over one connection
/// with `run_sessions`, against benchmark-owned worker threads.
fn socket_pass(input: &Input, mut tracer: Option<&mut Tracer>, run: u32) -> PassResult {
    let workers = match input.workload {
        Workload::Uds2Netmon => 2,
        _ => 1,
    };
    let heap_start = heap_live();
    reset_heap_peak();
    let mut conns = Vec::with_capacity(workers);
    let mut handles = Vec::with_capacity(workers);
    let mut error = None;
    for _ in 0..workers {
        match spawn_worker() {
            Ok((conn, handle)) => {
                conns.push(conn);
                handles.push(handle);
            }
            Err(e) => error = Some(format!("socketpair: {e}")),
        }
    }
    let start = Instant::now();
    let span_name = match input.workload {
        Workload::Uds2Netmon => "transport.run_over_sockets",
        _ => "transport.run_sessions",
    };
    let pass_span = tracer.as_mut().map(|t| t.open(span_name, None, run));
    let mut stats = None;
    let answers = if error.is_some() {
        Vec::new()
    } else if input.workload == Workload::Uds2Netmon {
        let mut coordinator = Qlove::new(input.config.clone());
        match run_over_sockets(&input.config, &mut coordinator, conns, input.stream(0)) {
            Ok(result) => {
                stats = Some(result.stats);
                vec![result.answers]
            }
            Err(e) => {
                error = Some(format!("run_over_sockets: {e}"));
                Vec::new()
            }
        }
    } else {
        let conn = conns.pop().expect("one connection");
        match run_sessions(conn, &input.specs) {
            Ok(outcomes) => outcomes.into_iter().map(|o| o.answers).collect(),
            Err(e) => {
                error = Some(format!("run_sessions: {e}"));
                Vec::new()
            }
        }
    };
    let wall_ns = start.elapsed().as_nanos() as u64;
    if let (Some(t), Some(id)) = (tracer.as_mut(), pass_span) {
        t.close(id, input.events());
    }
    let mut samples = Vec::with_capacity(workers);
    let mut ends = Vec::with_capacity(workers);
    for handle in handles {
        ends.push(handle.join());
    }
    let heap_growth = heap_peak().saturating_sub(heap_start);
    for end in ends {
        let end = match end {
            Ok(end) => end,
            Err(_) => {
                error.get_or_insert_with(|| "worker thread panicked".into());
                continue;
            }
        };
        let (events, responses) = match &end.report {
            Ok(report) => (report.events(), report.responses()),
            Err(e) => {
                error.get_or_insert_with(|| format!("serve_stream: {e}"));
                (0, 0)
            }
        };
        if let Some(t) = tracer.as_mut() {
            let span = Span {
                name: "worker.serve_stream",
                start_ns: t.at(end.start),
                end_ns: t.at(end.end),
                parent: None,
                run,
                items: events,
            };
            t.record(span);
        }
        samples.push(WorkerSample {
            run_ns: end.run_ns,
            wait_ns: end.wait_ns,
            events,
            responses,
        });
    }
    PassResult {
        answers,
        wall_ns,
        heap_growth,
        latencies_ns: Vec::new(),
        workers: samples,
        stats,
        error,
    }
}
