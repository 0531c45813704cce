"""Ablation — activity-proportional supersteps (§II-A selective enablement).

The seed engine enumerated every part of the reference table each
superstep, even when the active frontier touched a handful of keys —
each idle part cost a dispatched task, an empty transport scan, and a
progress-table write.  Active-part scheduling dispatches part-step
tasks only for parts with pending spilled records; skipped parts
contribute identity aggregator partials and a bulk progress entry.

The workload that isolates this is the paper's own §V-C scenario run
over many parts: sparse incremental SSSP updates on a 64-part table,
where each change batch ripples through a few parts while ~60 sit
idle.  Baseline (``active_scheduling=False``) and active modes must
produce byte-identical distances; the active mode must dispatch
strictly fewer part-step tasks, skip >50 % of them, and be no slower.

Writes a ``BENCH_active_parts.json`` artifact (path override:
``RIPPLE_BENCH_OUT``) with per-mode timings and task counts.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import pytest

from repro.apps.sssp import SelectiveSSSP
from repro.bench.experiments import sssp_workload
from repro.kvstore.partitioned import PartitionedKVStore

from benchmarks.conftest import bench_rounds

N_PARTS = 64
_RESULTS: dict = {}


@pytest.fixture(scope="module")
def workload(scale):
    return sssp_workload(scale)


def _distance_digest(distances: dict) -> str:
    """Canonical fingerprint of the solved distances, for byte-identical
    cross-mode comparison without shipping the full map into the
    artifact."""
    payload = repr(sorted(distances.items())).encode()
    return hashlib.sha256(payload).hexdigest()


def _run_sssp(workload, active: bool, trace: bool = False) -> dict:
    store = PartitionedKVStore(n_partitions=6, default_n_parts=N_PARTS)
    try:
        solver = SelectiveSSSP(store, workload.source)
        solver.load({v: set(ns) for v, ns in workload.initial_adjacency.items()})
        # initial solve is untimed setup (the paper's protocol); the
        # ablation measures the sparse update batches
        solver.initial_solve(active_scheduling=active)
        part_steps_run = 0
        parts_skipped = 0
        steps = 0
        started = time.perf_counter()
        for batch in workload.change_batches:
            solver.update(batch, active_scheduling=active, trace=trace)
            result = solver.last_result
            part_steps_run += result.part_steps_run
            parts_skipped += result.parts_skipped
            steps += result.steps
        elapsed = time.perf_counter() - started
        out = {
            "elapsed_seconds": elapsed,
            "steps": steps,
            "part_steps_run": part_steps_run,
            "parts_skipped": parts_skipped,
            "distance_digest": _distance_digest(solver.distances()),
        }
        if trace:
            # last batch's trace — representative of a sparse update
            out["trace"] = solver.last_result.trace
        return out
    finally:
        store.close()


def _export_trace(trace_dir, name: str, measurement: dict) -> None:
    """Write a traced run's Perfetto document into the ``--trace-dir``."""
    trace = measurement.get("trace")
    if not trace_dir or trace is None:
        return
    with open(os.path.join(trace_dir, f"{name}.trace.json"), "w") as fh:
        json.dump(trace, fh)


def _write_artifact() -> None:
    path = os.environ.get("RIPPLE_BENCH_OUT", "BENCH_active_parts.json")
    with open(path, "w") as fh:
        json.dump(
            {"config": {"n_parts": N_PARTS, "rounds": bench_rounds()}, "modes": _RESULTS},
            fh,
            indent=2,
        )


@pytest.mark.parametrize("mode", ["baseline", "active"])
def test_active_part_scheduling(benchmark, workload, mode, trace_dir):
    rounds: list = []

    def once():
        measurement = _run_sssp(workload, active=(mode == "active"))
        rounds.append(measurement)
        return measurement

    benchmark.pedantic(once, rounds=bench_rounds(), iterations=1)
    if trace_dir:
        # one extra traced run, outside the timed rounds
        _export_trace(
            trace_dir,
            f"sssp_{mode}",
            _run_sssp(workload, active=(mode == "active"), trace=True),
        )
    best = min(rounds, key=lambda r: r["elapsed_seconds"])
    _RESULTS[mode] = {"best": best, "rounds": rounds}

    if mode == "active" and "baseline" in _RESULTS:
        _write_artifact()
        baseline = _RESULTS["baseline"]["best"]
        # correctness first: skipping idle parts must not change anything
        assert best["distance_digest"] == baseline["distance_digest"], (
            "active-part scheduling changed the solved distances"
        )
        assert best["steps"] == baseline["steps"]
        # strictly fewer dispatched part-step tasks, and most skipped:
        # the frontier of a sparse update touches a few of the 64 parts
        assert best["part_steps_run"] < baseline["part_steps_run"], (
            f"active mode dispatched {best['part_steps_run']} part-steps, "
            f"baseline {baseline['part_steps_run']}"
        )
        total = best["part_steps_run"] + best["parts_skipped"]
        skip_ratio = best["parts_skipped"] / total
        assert skip_ratio > 0.5, (
            f"sparse updates should skip most of the {N_PARTS} parts "
            f"(skipped {best['parts_skipped']}/{total} = {skip_ratio:.0%})"
        )
        assert baseline["parts_skipped"] == 0
        # the whole point: superstep cost proportional to activity
        assert best["elapsed_seconds"] < baseline["elapsed_seconds"], (
            "active-part scheduling should be no slower than enumerating "
            f"all parts ({best['elapsed_seconds']:.3f}s vs "
            f"{baseline['elapsed_seconds']:.3f}s)"
        )

