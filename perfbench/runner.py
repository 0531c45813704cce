"""One run of one workload: sessions in a closed loop, checks, leak check,
peak memory, and the metrics it reports.

Load model: one client, the calling thread.  It sends each job or batch
only after the previous one returned and its result was checked.  No
load-generator threads or processes exist besides it.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
import platform
import resource
import sys
import threading
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import layers
from spans import Recorder, Tracing
from workloads import Workload

_now = time.perf_counter

#: How long leftover threads and processes get to finish after the last
#: teardown before they count as leaked.
LEAK_GRACE_SECONDS = 2.0


def _private_kb(pid: int) -> int:
    """Resident memory of a live child that it shares with no other
    process (``Private_Clean`` + ``Private_Dirty``), in KiB; 0 if unknown.

    A forked worker shares the parent's pages until it writes them, so
    its own peak RSS would count the parent's heap once more per worker.
    """
    total = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup") as rollup:
            for line in rollup:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return 0
    return total


def _git_sha(root: str) -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as head:
            ref = head.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(git, name)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as packed:
            for line in packed:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _tree_sha(src: str) -> str:
    """SHA-256 over every ``.py`` file under *src* (path and bytes)."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def environment(root: str, workload: Workload, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "src_sha256": _tree_sha(os.path.join(root, "src")),
        "runtime": workload.runtime,
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ripple_env": {k: v for k, v in os.environ.items() if k.startswith("RIPPLE_")},
    }


class Run:
    """Drives one workload for a fixed time and collects its samples."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.setup_s: List[float] = []
        self.op_s: List[float] = []
        self.traced_op_s: List[float] = []
        self.traced_phases: Dict[str, List[float]] = {}
        self.untraced_phases: Dict[str, List[float]] = {}
        self.children_kb = 0
        self.rec = Recorder()
        self.index = 0

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)
        print(f"FAIL {self.w.name}: {what}", file=sys.stderr)

    def _recording(self, traced: bool, phase: str) -> Any:
        return self.rec.recording(phase) if traced else contextlib.nullcontext()

    def _session(self, inp: Any, traced: bool, deadline: Optional[float], timed: bool) -> None:
        w = self.w
        w.phases = {}
        tracing = Tracing(self.rec) if traced else contextlib.nullcontext()
        with tracing:
            try:
                with self._recording(traced, "setup"):
                    t0 = _now()
                    state = w.setup(inp)
                    t1 = _now()
            except Exception:
                self.attempted += 1
                self._fail("set-up raised:\n" + traceback.format_exc())
                return
            try:
                failure = w.start(state, inp)
                if failure is not None:
                    self.attempted += 1
                    self._fail(failure)
                    return
                if timed:
                    self.setup_s.append(t1 - t0)
                while True:
                    index = self.index
                    self.index += 1
                    self.attempted += 1
                    try:
                        with self._recording(traced, "op"):
                            t0 = _now()
                            out = w.op(state, inp, index)
                            t1 = _now()
                    except Exception:
                        self._fail(f"operation {index} raised:\n" + traceback.format_exc())
                        return
                    failure = w.check(state, inp, index, out)
                    if failure is not None:
                        self._fail(f"operation {index}: {failure}")
                    elif timed:
                        (self.traced_op_s if traced else self.op_s).append(t1 - t0)
                    if deadline is None or _now() >= deadline:
                        break
            finally:
                self.children_kb = max(
                    self.children_kb,
                    sum(_private_kb(p.pid) for p in multiprocessing.active_children()),
                )
                w.teardown(state)
                if timed:
                    phases = self.traced_phases if traced else self.untraced_phases
                    for name, values in w.phases.items():
                        phases.setdefault(name, []).extend(values)

    def execute(self) -> None:
        inp = self.w.inputs(self.seed)
        threads_before = {t.ident for t in threading.enumerate()}
        children_before = {p.pid for p in multiprocessing.active_children()}

        # warm-up: imports, allocator and lazy set-up settle before timing
        self._session(inp, traced=False, deadline=None, timed=False)
        self.index = 0

        begin = _now()
        sessions = self.w.sessions
        k = 0
        while True:
            traced = self.trace and k % 2 == 1
            if sessions:
                if k >= sessions:
                    break
                deadline: Optional[float] = begin + self.seconds * (k + 1) / sessions
            else:
                least = 2 if self.trace else 1
                if k >= least and _now() - begin >= self.seconds:
                    break
                deadline = None
            self._session(inp, traced, deadline, timed=True)
            k += 1
            if self.failed >= 3 and not (self.op_s or self.traced_op_s):
                break  # nothing works: stop instead of looping on errors
        self._leak_check(threads_before, children_before)

    def _leak_check(self, threads_before: set, children_before: set) -> None:
        deadline = _now() + LEAK_GRACE_SECONDS
        while True:
            threads = [t for t in threading.enumerate() if t.ident not in threads_before and t.is_alive()]
            children = [p for p in multiprocessing.active_children() if p.pid not in children_before]
            if not (threads or children) or _now() >= deadline:
                break
            time.sleep(0.05)
        for t in threads:
            self._fail(f"thread {t.name!r} still alive after the workload")
        for p in children:
            self._fail(f"child process {p.pid} still alive after the workload")

    # -- reports ----------------------------------------------------------
    def peak_rss_mb(self) -> float:
        """Peak RSS of this process plus the largest sum, over sessions,
        of its worker processes' private memory at the session's end."""
        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return (self_kb + self.children_kb) / 1024.0

    def end_to_end(self) -> Dict[str, Tuple[float, str, int]]:
        """Every end-to-end metric this workload has: name -> (value, unit, samples)."""
        ops_ms = [s * 1000.0 for s in self.op_s]
        op = self.w.op_metric
        m: Dict[str, Tuple[float, str, int]] = {
            "setup_s": (layers.median(self.setup_s), "s", len(self.setup_s)),
            f"{op}.p50": (layers.median(ops_ms), "ms", len(ops_ms)),
        }
        p90 = layers.percentile(ops_ms, 90)
        if sum(1 for v in ops_ms if v > p90) >= 10:
            m[f"{op}.p90"] = (p90, "ms", len(ops_ms))
        solve = self.untraced_phases.get("solve")
        if solve:
            m["solve_s"] = (layers.median(solve), "s", len(solve))
        m["peak_rss_mb"] = (self.peak_rss_mb(), "MB", 1)
        m["fail_ratio"] = (self.failed / max(1, self.attempted), "ratio", self.attempted)
        return m

    def per_layer(self) -> Dict[str, float]:
        m = layers.derive(self.rec, self.traced_phases)
        untraced = layers.median(self.op_s)
        m["bench.trace_overhead"] = layers.median(self.traced_op_s) / untraced if untraced else 0.0
        return m
