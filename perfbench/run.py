#!/usr/bin/env python3
"""Run one workload of the QLOVE benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the benchmark binary
from source (``perfbench/Cargo.toml``; target directory
``$CARGO_TARGET_DIR``, default ``.bench_build``), prints one JSON line
describing the host, runs the workload in a child process of its own and
prints the result as the last line of standard output:

    {"correct": true, "attempted": 18829, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the
workload twice, untraced and then traced, each for half the time, and
reports the per-layer metrics of the traced run plus the tracing
overhead. A child whose CPU clock stops advancing is hung: it is killed
and every answer it owed counts as failed. A run with any failed answer
exits with status 1; a run that could not start (bad arguments, failed
build) exits with status 2 and prints no result.

The full report of each run, with host, child details and spans, is
written under ``.perfbench_out/``. See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

# Workloads the benchmark knows, with why each was chosen.
WORKLOADS = {
    "local-netmon": "one Qlove on NetMon values via push_batch_into: ingest and boundary "
    "completion on the dense store, no transport",
    "uds2-netmon": "the same stream dealt over 2 UDS shards by run_over_sockets: event "
    "frames and the pipelined coordinator (deadlocks at this commit)",
    "sessions16-search": "16 Search windows multiplexed over one UDS connection by "
    "run_sessions: small frames, a summary per 1K events, tree store",
}

# End-to-end metrics (``--trace 0``), every workload. The wall-clock
# rate and answer latency stay in the report file: on a shared 2-CPU
# host the two-thread socket workloads' wall rate moves by up to 40%
# between runs of the same code, while CPU per event stays within 10%.
END_TO_END = {
    "cpu_ns_per_event": "ns",
    "heap_growth_kb": "KiB",
    "value_error_q0.99_pct": "%",
    "value_error_q0.999_pct": "%",
    "setup_s": "s",
}

# Per-layer metrics (``--trace 1``), every workload.
PER_LAYER = {
    "core.ingest_ns_per_event": "ns",
    "core.boundary_call_p50_us": "us",
    "core.boundary_call_p99_us": "us",
    "core.summarize_us": "us",
    "core.merge_us_per_boundary": "us",
    "freqstore.fold_ns_per_pair": "ns",
    "freqstore.pairs_per_summary": "count",
    "wire.summary_bytes": "B",
    "wire.summary_encode_ns": "ns",
    "wire.summary_decode_ns": "ns",
    "proto.event_bytes_per_event": "B",
    "proto.event_encode_ns_per_event": "ns",
    "proto.event_decode_ns_per_event": "ns",
    "run.span_ms": "ms",
    "worker.busy_ms": "ms",
    "worker.runq_wait_ms": "ms",
    "worker.busy_frac": "ratio",
    "worker.events": "count",
    "worker.responses": "count",
    "trace.overhead_pct": "%",
    "trace.unattributed_cpu_frac": "ratio",
}

# Per-layer metrics only the two-shard socket run has.
COORDINATOR = {
    "coordinator.merge_hidden_frac": "ratio",
    "coordinator.overlap_us_per_boundary": "us",
    "coordinator.answer_merge_us_p50": "us",
    "coordinator.answer_merge_us_p99": "us",
    "coordinator.summary_bytes": "B",
}


def metric_set(workload, trace):
    """Names and units a successful run of ``workload`` reports."""
    if not trace:
        return dict(END_TO_END)
    names = dict(PER_LAYER)
    if workload == "uds2-netmon":
        names.update(COORDINATOR)
    return names


# A child is hung when its CPU clock advances by less than
# STALL_CPU_S over STALL_WINDOW_S of wall time (10% of one CPU). A
# working child keeps at least one thread busy; a deadlocked one uses
# about 0.5% (its memory sampler and the workers' idle polling).
STALL_WINDOW_S = 5.0
STALL_CPU_S = 0.5
# Hard limit on one child, hung or not.
CHILD_DEADLINE_S = 170.0
POLL_S = 0.25


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Build the benchmark binary; return its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        fail(f"build failed with status {proc.returncode}")
    return os.path.join(target, "release", "qlove_perfbench")


def host_info():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        usable = os.cpu_count()
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": usable,
        "cpu_model": model,
        "kernel": platform.release(),
        "loadavg": list(os.getloadavg()),
    }


def cpu_seconds(pid):
    """CPU time of process ``pid`` (all threads), or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return None
    fields = stat[stat.rfind(")") + 1:].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def thread_states(pid):
    """``state wchan`` of every thread of ``pid``, e.g. ``S futex_do_wait``."""
    states = []
    try:
        tids = sorted(os.listdir(f"/proc/{pid}/task"), key=int)
    except OSError:
        return states
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
            with open(f"/proc/{pid}/task/{tid}/wchan") as f:
                wchan = f.read().strip() or "-"
        except OSError:
            continue
        states.append(f"{state} {wchan}")
    return states


def supervise(cmd, stall_window=STALL_WINDOW_S, deadline=CHILD_DEADLINE_S):
    """Run ``cmd``, killing it if it hangs or overruns.

    Returns ``(status, lines, returncode, threads)``: status is
    ``"exited"``, ``"hung"`` or ``"timeout"``, lines are the JSON objects
    the child printed on stdout, in order, and threads are the states of
    the child's threads when it was killed.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = []

    def read():
        for line in proc.stdout:
            try:
                lines.append(json.loads(line))
            except ValueError:
                print(line, end="", file=sys.stderr)

    reader = threading.Thread(target=read)
    reader.start()
    status = "exited"
    threads = []
    try:
        start = time.monotonic()
        mark_t, mark_cpu = start, cpu_seconds(proc.pid) or 0.0
        while proc.poll() is None:
            time.sleep(POLL_S)
            now = time.monotonic()
            cpu = cpu_seconds(proc.pid)
            if cpu is not None and cpu - mark_cpu >= STALL_CPU_S:
                mark_t, mark_cpu = now, cpu
            elif now - mark_t >= stall_window:
                status = "hung"
                break
            if now - start >= deadline:
                status = "timeout"
                break
    finally:
        if proc.poll() is None:
            threads = thread_states(proc.pid)
            proc.kill()
        proc.wait()
        reader.join()
        proc.stdout.close()
    return status, lines, proc.returncode, threads


def run_child(binary, workload, seed, seconds, trace, spans=None):
    """One workload run in its own process; returns its record."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", "1" if trace else "0"]
    if spans:
        cmd += ["--spans", spans]
    return child_record(workload, seed, *supervise(cmd))


def child_record(workload, seed, status, lines, code, threads):
    """Normalize what a child left behind. A child that hung, crashed or
    printed no result lost every answer of its pass."""
    setup = next((l for l in lines if l.get("event") == "setup"), None)
    result = next((l for l in reversed(lines) if "correct" in l), None)
    if status == "exited" and result is not None:
        return {"status": "exited" if code == 0 else f"exit {code}", "setup": setup, **result}
    owed = setup["answers_per_pass"] if setup else 1
    if status == "exited":
        status = f"exit {code} without a result"
    print(f"run.py: {workload} seed {seed}: {status}; {owed} answers lost; "
          f"threads: {', '.join(threads) or 'none'}", file=sys.stderr)
    return {"status": status, "setup": setup, "threads": threads, "correct": False,
            "attempted": owed, "failed": owed, "metrics": {}, "detail": {}}


def check_metrics(record, expected):
    """The metric set a correct child must report, with units."""
    got = record["metrics"]
    missing = sorted(set(expected) - set(got))
    wrong = sorted(n for n in expected if n in got and got[n]["unit"] != expected[n])
    if missing or wrong:
        raise SystemExit(f"run.py: child metrics missing {missing}, wrong units {wrong}")
    return {n: got[n] for n in expected}


def run(workload, seed, seconds, trace, binary, host):
    """Run one benchmark invocation and write its full report; returns
    ``(result, report)``."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    if not trace:
        children = [run_child(binary, workload, seed, seconds, False)]
    else:
        spans = os.path.join(OUT_DIR, f"{tag}.spans.tsv")
        children = [run_child(binary, workload, seed, seconds / 2, False),
                    run_child(binary, workload, seed, seconds / 2, True, spans)]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    correct = all(c["correct"] for c in children) and failed == 0
    if correct:
        last = children[-1]
        if trace:
            traced_ms = last["metrics"]["run.span_ms"]["value"]
            untraced_ms = children[0]["detail"]["pass_ms_median"]["value"]
            last["metrics"]["trace.overhead_pct"] = {
                "value": (traced_ms / untraced_ms - 1.0) * 100.0, "unit": "%"}
        metrics = check_metrics(last, metric_set(workload, trace))
    else:
        metrics = {"failed_answers_frac": {
            "value": failed / max(attempted, 1), "unit": "ratio"}}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = {"workload": workload, "why": WORKLOADS[workload], "seed": seed,
              "seconds": seconds, "trace": int(trace), "host": host,
              "children": children, "result": result}
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as f:
        json.dump(report, f, indent=1)
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        fail("seed must be >= 0 and seconds > 0")
    binary = build()
    host = host_info()
    print(json.dumps({"host": host}), flush=True)
    result, _ = run(args.workload, args.seed, args.seconds, bool(args.trace), binary, host)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
