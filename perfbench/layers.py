"""The per-layer metrics: what each one means, what it should move, and
how it is derived from a traced run.

A traced session records in two phases: set-up (store construction and
input load) and the operations.  SSSP's initial solve, verification and
teardown are not recorded.  Operation-phase counts and seconds are
totals over the traced operations divided by their number, so they read
"per job" or "per update"; the ``setup.*`` metrics are set-up totals
divided by the number of traced sessions, so they read "per set-up",
next to ``setup_s``.  Percentiles are over every sample of the phase.
Spans of asynchronous calls (``put_many_async``, ``delete_many_async``)
time the call until it returns, not until the write lands.
"""

from __future__ import annotations

import bisect
import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: (name, unit, better, what it should move).  "moves" names the
#: end-to-end metric and workload the layer metric should move; on every
#: other workload the prediction is no change.
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("engine.supersteps", "count", "lower", "none (shape of the job)"),
    ("engine.step_ms.p50", "ms", "lower", "job_ms.p50 on pagerank; update_ms.p50 on sssp_updates"),
    ("engine.step_ms.p90", "ms", "lower", "job_ms.p50 on pagerank; update_ms.p90 on sssp_updates"),
    ("engine.w_s", "s", "lower", "job_ms.p50 on pagerank"),
    ("engine.l_s", "s", "lower", "update_ms.p50 on sssp_updates"),
    ("engine.h_records", "count", "lower", "job_ms.p50 on pagerank"),
    ("engine.job_overhead_ms.p50", "ms", "lower", "update_ms.p50 on sssp_updates"),
    ("engine.part_steps_run", "count", "lower", "update_ms.p50 on sssp_updates"),
    ("engine.parts_skipped", "count", "higher", "update_ms.p50 on sssp_updates"),
    ("engine.active_ratio", "ratio", "lower", "update_ms.p50 on sssp_updates"),
    ("engine.messages_sent", "count", "lower", "job_ms.p50 on pagerank"),
    ("transport.add_calls", "count", "lower", "job_ms.p50 on pagerank"),
    ("transport.add_s", "s", "lower", "job_ms.p50 on pagerank"),
    ("transport.flush_s", "s", "lower", "job_ms.p50 on pagerank"),
    ("transport.collect_s", "s", "lower", "job_ms.p50 on pagerank"),
    ("transport.spills_written", "count", "lower", "job_ms.p50 on pagerank"),
    ("transport.batches", "count", "lower", "job_ms.p50 on pagerank"),
    ("serde.marshalled_bytes", "bytes", "lower", "job_ms.p50 on pagerank and on summa_nosync"),
    ("serde.bytes_per_message", "bytes", "lower", "job_ms.p50 on pagerank and on summa_nosync"),
    ("serde.codec_s", "s", "lower", "job_ms.p50 on pagerank and on summa_nosync"),
    ("kvstore.put_many_calls", "count", "lower", "update_ms.p50 on sssp_updates; job_ms.p50 on pagerank"),
    ("kvstore.put_many_records", "count", "lower", "update_ms.p50 on sssp_updates; job_ms.p50 on pagerank"),
    ("kvstore.put_many_s", "s", "lower", "update_ms.p50 on sssp_updates; job_ms.p50 on pagerank"),
    ("kvstore.get_many_s", "s", "lower", "update_ms.p50 on sssp_updates"),
    ("kvstore.delete_many_s", "s", "lower", "update_ms.p50 on sssp_updates"),
    ("kvstore.point_ops", "count", "lower", "update_ms.p50 on sssp_updates"),
    ("kvstore.point_s", "s", "lower", "update_ms.p50 on sssp_updates"),
    ("kvstore.enumerate_s", "s", "lower", "update_ms.p50 on sssp_updates"),
    ("runtime.tasks", "count", "lower", "job_ms.p50 on pagerank; update_ms.p90 on sssp_updates"),
    ("runtime.busy_s", "s", "lower", "job_ms.p50 on pagerank"),
    ("runtime.queue_wait_s", "s", "lower", "job_ms.p50 on pagerank; update_ms.p90 on sssp_updates"),
    ("runtime.queue_wait_ms.p90", "ms", "lower", "update_ms.p90 on sssp_updates"),
    ("runtime.max_queue_depth", "count", "lower", "job_ms.p50 on pagerank"),
    ("process.tasks", "count", "lower", "job_ms.p50 and peak_rss_mb on pagerank_process"),
    ("process.task_ms.p50", "ms", "lower", "job_ms.p50 on pagerank_process"),
    ("process.hop_s", "s", "lower", "job_ms.p50 on pagerank_process"),
    ("process.respawns", "count", "lower", "none (0 on a healthy run)"),
    ("messaging.puts", "count", "lower", "job_ms.p50 and job_ms.p90 on summa_nosync"),
    ("messaging.put_s", "s", "lower", "job_ms.p50 on summa_nosync"),
    ("messaging.reads", "count", "lower", "job_ms.p50 on summa_nosync"),
    ("messaging.empty_reads", "count", "lower", "job_ms.p90 on summa_nosync"),
    ("messaging.read_useful_ratio", "ratio", "higher", "job_ms.p50 on summa_nosync"),
    ("messaging.read_wait_s", "s", "lower", "job_ms.p50 and job_ms.p90 on summa_nosync"),
    ("aggregate.calls", "count", "lower", "job_ms.p50 on pagerank"),
    ("aggregate.s", "s", "lower", "job_ms.p50 on pagerank"),
    ("sssp.apply_ms.p50", "ms", "lower", "update_ms.p50 on sssp_updates"),
    ("sssp.job_ms.p50", "ms", "lower", "update_ms.p50 on sssp_updates"),
    ("summa.load_ms.p50", "ms", "lower", "setup_s on summa_nosync"),
    ("summa.assemble_ms.p50", "ms", "lower", "job_ms.p50 on summa_nosync"),
    # set-up layers, per traced session: store construction and input load
    ("setup.kvstore.put_many_calls", "count", "lower", "setup_s on pagerank and sssp_updates"),
    ("setup.kvstore.put_many_records", "count", "lower", "setup_s on pagerank and sssp_updates"),
    ("setup.kvstore.put_many_s", "s", "lower", "setup_s on pagerank and sssp_updates"),
    ("setup.kvstore.point_ops", "count", "lower", "setup_s on summa_nosync"),
    ("setup.kvstore.point_s", "s", "lower", "setup_s on summa_nosync"),
    ("setup.serde.codec_s", "s", "lower", "setup_s on pagerank and sssp_updates"),
    ("setup.runtime.tasks", "count", "lower", "setup_s on pagerank and sssp_updates"),
    ("setup.process.tasks", "count", "lower", "setup_s on pagerank_process"),
    ("setup.process.task_ms.p50", "ms", "lower", "setup_s on pagerank_process"),
    ("bench.trace_overhead", "ratio", "lower", "none (keeps the traced numbers honest)"),
]

#: The layer metrics also reported for the set-up phase, as ``setup.<name>``.
SETUP_LAYERS = tuple(name[len("setup."):] for name, _, _, _ in PER_LAYER if name.startswith("setup."))

UNITS = {name: unit for name, unit, _, _ in PER_LAYER}

#: Wrapper self-check: per workload, the metrics that must read non-zero
#: because the workload loads that layer.  A renamed public method then
#: fails the traced run instead of reading 0.
EXPECT_NONZERO: Dict[str, Sequence[str]] = {
    "pagerank": (
        "engine.supersteps", "engine.w_s", "engine.h_records", "engine.part_steps_run",
        "engine.messages_sent", "transport.add_calls", "transport.add_s", "transport.flush_s",
        "transport.collect_s", "transport.spills_written", "transport.batches",
        "serde.marshalled_bytes", "serde.codec_s", "kvstore.put_many_calls",
        "kvstore.put_many_s", "kvstore.enumerate_s", "runtime.tasks", "runtime.busy_s",
        "aggregate.calls", "setup.kvstore.put_many_calls", "setup.kvstore.put_many_s",
    ),
    "pagerank_process": (
        "engine.supersteps", "engine.w_s", "process.tasks", "process.task_ms.p50",
        "kvstore.put_many_calls", "serde.marshalled_bytes", "setup.process.tasks",
    ),
    "sssp_updates": (
        "engine.supersteps", "engine.l_s", "engine.part_steps_run", "engine.parts_skipped",
        "kvstore.point_ops", "kvstore.point_s", "runtime.tasks", "sssp.apply_ms.p50",
        "sssp.job_ms.p50", "setup.kvstore.put_many_calls", "setup.kvstore.put_many_s",
    ),
    "summa_nosync": (
        "engine.messages_sent", "messaging.puts", "messaging.put_s", "messaging.reads",
        "messaging.read_wait_s", "summa.load_ms.p50", "summa.assemble_ms.p50",
        "setup.kvstore.point_ops",
    ),
}

#: ...and the metrics that must read zero: no worker processes exist on
#: the threaded workloads.
EXPECT_ZERO: Dict[str, Sequence[str]] = {
    name: ("process.tasks", "process.task_ms.p50", "process.hop_s", "setup.process.tasks")
    for name in ("pagerank", "sssp_updates", "summa_nosync")
}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (*q* in 0..100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of *intervals*."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def split_phases(rec: Any) -> Dict[str, Tuple[List[tuple], List[Any]]]:
    """The spans and job records of each recording phase.

    A span belongs to the phase whose window its root span (the call the
    client thread made) started in, so a task that starts or ends after
    the window closed still counts with the call that submitted it.
    """
    windows = sorted((a, b, phase) for phase, ws in rec.windows.items() for a, b in ws)
    starts = [w[0] for w in windows]
    by_id = {span[0]: span for span in rec.spans}
    root_start: Dict[int, float] = {}

    def phase_of(span: tuple) -> Optional[str]:
        chain = []
        while span[0] not in root_start and span[4] in by_id:
            chain.append(span[0])
            span = by_id[span[4]]
        t = root_start.get(span[0], span[2])
        for sid in chain + [span[0]]:
            root_start[sid] = t
        i = bisect.bisect_right(starts, t) - 1
        return windows[i][2] if i >= 0 and t <= windows[i][1] else None

    out: Dict[str, Tuple[List[tuple], List[Any]]] = {phase: ([], []) for phase in rec.windows}
    for span in rec.spans:
        phase = phase_of(span)
        if phase is not None:
            out[phase][0].append(span)
    for job in rec.jobs:
        phase = phase_of(by_id[job.jid])
        if phase is not None:
            out[phase][1].append(job)
    return out


def derive(rec: Any, phases: Dict[str, List[float]]) -> Dict[str, float]:
    """Every per-layer metric except ``bench.trace_overhead``.

    Operation-phase layers are per operation; set-up layers
    (``SETUP_LAYERS``, prefixed ``setup.``) are per traced session.
    """
    split = split_phases(rec)
    spans, jobs = split.get("op", ([], []))
    op_windows = rec.windows.get("op", [])
    m = _layer_metrics(spans, jobs, rec.hot_by_phase.get("op", {}), max(1, len(op_windows)))
    setup_spans, setup_jobs = split.get("setup", ([], []))
    sessions = max(1, len(rec.windows.get("setup", ())))
    setup = _layer_metrics(setup_spans, setup_jobs, rec.hot_by_phase.get("setup", {}), sessions)
    for name in SETUP_LAYERS:
        m["setup." + name] = setup[name]

    applies = sorted(s[2:4] for s in spans if s[1] == "sssp.apply")
    apply_ms: List[float] = []
    rest_ms: List[float] = []
    i = 0
    for t0, t1 in sorted(op_windows):
        while i < len(applies) and applies[i][0] < t0:
            i += 1
        if i < len(applies) and applies[i][0] <= t1:
            a = applies[i][1] - applies[i][0]
            apply_ms.append(a * 1000.0)
            rest_ms.append((t1 - t0 - a) * 1000.0)
    m["sssp.apply_ms.p50"] = median(apply_ms)
    m["sssp.job_ms.p50"] = median(rest_ms)
    m["summa.load_ms.p50"] = median(phases.get("summa.load", [])) * 1000.0
    m["summa.assemble_ms.p50"] = median(phases.get("summa.assemble", [])) * 1000.0
    return m


def _layer_metrics(spans: List[tuple], jobs: List[Any], hot: Dict[str, List[float]], n: int) -> Dict[str, float]:
    """Engine-to-aggregator metrics of one phase; totals are divided by *n*."""
    by_name: Dict[str, List[tuple]] = {}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
        if span[4]:
            children.setdefault(span[4], []).append((span[2], span[3]))

    def total(name: str) -> float:
        return sum(s[3] - s[2] for s in by_name.get(name, ()))

    def self_time(name: str) -> float:
        return sum(
            (s[3] - s[2]) - _covered(children.get(s[0], []), s[2], s[3])
            for s in by_name.get(name, ())
        )

    tasks = by_name.get("runtime.task", [])
    ptasks = by_name.get("process.task", [])
    # spans carry the job id their thread ran under, so each job's
    # part-step tasks and SpillWriter flushes are found without a scan
    by_job: Dict[int, List[tuple]] = {}
    for span in tasks + ptasks + by_name.get("transport.flush", []):
        by_job.setdefault(span[6], []).append(span)

    # -- engine: per step w (slowest part-step task), l (the rest) --------
    m: Dict[str, float] = {}
    step_ms: List[float] = []
    overhead_ms: List[float] = []
    h_per_job: List[float] = []
    w_sum = l_sum = 0.0
    steps = run = skipped = sent = spills = batches = marshalled = 0
    max_depth = 0
    respawns = 0
    child_busy = 0.0
    for job in jobs:
        result = job.result
        if result is None:
            continue
        steps += result.steps
        run += result.part_steps_run
        skipped += result.counters.get("parts_skipped", 0)
        sent += result.messages_sent
        spills += result.spills_written
        batches += result.transport_batches
        marshalled += result.marshalled_bytes
        stats = result.worker_stats or {}
        respawns += stats.get("respawns", 0)
        for worker in stats.get("workers", []):
            max_depth = max(max_depth, worker.get("max_queue_depth", 0))
        mine = by_job.get(job.jid, [])
        step_total = 0.0
        step_tasks = [
            s for s in mine if s[1] != "transport.flush" and s[7]["submitter"] == job.thread
        ]
        flushes = [s for s in mine if s[1] == "transport.flush"]
        h = 0
        for t_end, metrics in job.steps:
            duration = metrics.duration_seconds
            t_start = t_end - duration
            step_total += duration
            step_ms.append(duration * 1000.0)
            w = 0.0
            for span in step_tasks:
                if t_start <= span[7]["submit"] <= t_end:
                    w = max(w, span[3] - span[2])
            w_sum += w
            l_sum += max(0.0, duration - w)
            # part-step writers only: the loader's writer flushes before step 0
            for span in flushes:
                if t_start <= span[2] <= t_end:
                    h = max(h, span[7]["records"])
        overhead_ms.append((job.end - job.start - step_total) * 1000.0)
        h_per_job.append(h)
        if stats.get("runtime") == "process":
            parent_busy = sum(
                s[3] - s[2] for s in mine
                if s[1] == "runtime.task" and s[7]["kind"] == "process"
            )
            child_busy += stats.get("busy_seconds", 0.0) - parent_busy

    m["engine.supersteps"] = steps / n
    m["engine.step_ms.p50"] = percentile(step_ms, 50)
    m["engine.step_ms.p90"] = percentile(step_ms, 90)
    m["engine.w_s"] = w_sum / n
    m["engine.l_s"] = l_sum / n
    m["engine.h_records"] = float(median(h_per_job))
    m["engine.job_overhead_ms.p50"] = median(overhead_ms)
    m["engine.part_steps_run"] = run / n
    m["engine.parts_skipped"] = skipped / n
    m["engine.active_ratio"] = run / (run + skipped) if run + skipped else 0.0
    m["engine.messages_sent"] = sent / n

    add_calls, add_s = hot.get("transport.add", (0, 0.0))
    m["transport.add_calls"] = add_calls / n
    m["transport.add_s"] = add_s / n
    m["transport.flush_s"] = total("transport.flush") / n
    m["transport.collect_s"] = total("transport.collect") / n
    m["transport.spills_written"] = spills / n
    m["transport.batches"] = batches / n

    m["serde.marshalled_bytes"] = marshalled / n
    m["serde.bytes_per_message"] = marshalled / sent if sent else 0.0
    m["serde.codec_s"] = total("serde.codec") / n

    puts = by_name.get("kvstore.put_many", [])
    m["kvstore.put_many_calls"] = len(puts) / n
    m["kvstore.put_many_records"] = sum(s[7]["records"] for s in puts) / n
    m["kvstore.put_many_s"] = total("kvstore.put_many") / n
    m["kvstore.get_many_s"] = total("kvstore.get_many") / n
    m["kvstore.delete_many_s"] = total("kvstore.delete_many") / n
    m["kvstore.point_ops"] = len(by_name.get("kvstore.point", [])) / n
    m["kvstore.point_s"] = total("kvstore.point") / n
    m["kvstore.enumerate_s"] = self_time("kvstore.enumerate") / n

    m["runtime.tasks"] = len(tasks) / n
    m["runtime.busy_s"] = sum(s[3] - s[2] for s in tasks) / n
    waits = [s[2] - s[7]["submit"] for s in tasks]
    m["runtime.queue_wait_s"] = sum(waits) / n
    m["runtime.queue_wait_ms.p90"] = percentile([w * 1000.0 for w in waits], 90)
    m["runtime.max_queue_depth"] = float(max_depth)

    in_jobs = [s for s in ptasks if s[6]]
    m["process.tasks"] = len(ptasks) / n
    m["process.task_ms.p50"] = percentile([(s[3] - s[2]) * 1000.0 for s in ptasks], 50)
    m["process.hop_s"] = (sum(s[3] - s[2] for s in in_jobs) - child_busy) / n if in_jobs else 0.0
    m["process.respawns"] = respawns / n

    reads = by_name.get("messaging.read", [])
    empty = sum(1 for s in reads if s[7]["empty"])
    m["messaging.puts"] = len(by_name.get("messaging.put", [])) / n
    m["messaging.put_s"] = total("messaging.put") / n
    m["messaging.reads"] = len(reads) / n
    m["messaging.empty_reads"] = empty / n
    m["messaging.read_useful_ratio"] = (len(reads) - empty) / len(reads) if reads else 0.0
    m["messaging.read_wait_s"] = total("messaging.read") / n

    agg_calls, agg_s = hot.get("aggregate", (0, 0.0))
    m["aggregate.calls"] = agg_calls / n
    m["aggregate.s"] = agg_s / n

    return m


def self_check(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Violations of the wrapper self-check (empty when it passes)."""
    problems = []
    for name in EXPECT_NONZERO.get(workload, ()):
        if not metrics.get(name):
            problems.append(f"{name} reads 0 on {workload}, which loads that layer")
    for name in EXPECT_ZERO.get(workload, ()):
        if metrics.get(name):
            problems.append(f"{name} reads {metrics[name]} on {workload}, which has no worker processes")
    return problems
