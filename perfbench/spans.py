"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``.  For a traced session it replaces the
public entry points of each layer with timing wrappers, and puts the
originals back when the session ends:

- engine:    ``run_job`` (every module that imported it) plus an
             ``on_step`` hook passed through it;
- transport: ``SpillWriter.add*``/``flush_all`` and the module functions
             ``collect_step_columns``, ``group_step_columns``,
             ``step_spills``, ``collect_step_records``;
- serde:     ``Codec.dumps``/``loads``/``roundtrip``;
- kvstore:   the ``Table`` SPI on every concrete ``Table`` subclass;
- runtime:   ``submit``/``submit_long``/``submit_to_worker`` on
             ``ThreadedRuntime`` (threads) and ``ProcessRuntime``
             (worker processes), and ``run_tasks`` for context only;
- messaging: ``QueueSet.put`` and ``QueueWorkerContext.read``/``put``;
- aggregate: the ``Aggregator`` methods;
- apps:      ``SelectiveSSSP.apply_changes``.

Each wrapped call becomes a span: (id, name, start, end, parent span,
thread, job id, extra).  Spans stay in memory and are written out when
the run ends.  The two per-record entry points (``SpillWriter.add`` and
the ``Aggregator`` folds) would make millions of spans, so they only add
to a per-thread count and time.  A call into a layer made while the same
thread is already inside that layer is not counted again.

Inside worker processes nothing is recorded: a forked child stops
recording at once, so the process runtime's child-side layers show only
through ``JobResult``/``worker_stats`` counters and the parent-observed
time from submit to result.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import sys
import threading
import time
from collections.abc import Sized
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_now = time.perf_counter

#: True inside a process forked from the benchmark; wrappers inherited
#: through fork then call straight through.
_in_child = False


def _mark_child() -> None:
    global _in_child
    _in_child = True


os.register_at_fork(after_in_child=_mark_child)


class JobRecord:
    """One ``run_job`` call seen by the engine wrapper."""

    __slots__ = ("jid", "start", "end", "thread", "steps", "result")

    def __init__(self, jid: int, start: float, thread: int):
        self.jid = jid
        self.start = start
        self.end = start
        self.thread = thread
        #: (perf_counter at on_step, StepMetrics)
        self.steps: List[Tuple[float, Any]] = []
        self.result: Any = None


class Recorder:
    """Spans, per-thread hot counters and job records of one run."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.jobs: List[JobRecord] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._hot_tables: List[Dict[str, List[float]]] = []
        #: Wrappers record only while this is set; otherwise they call
        #: straight through.  :meth:`recording` sets it.
        self.enabled = False
        #: phase -> (start, end) of each recording window of that phase
        self.windows: Dict[str, List[Tuple[float, float]]] = {}
        #: phase -> hot counter name -> [count, seconds] inside its windows
        self.hot_by_phase: Dict[str, Dict[str, List[float]]] = {}

    # -- thread context ---------------------------------------------------
    def _ctx(self) -> Any:
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.job = 0
            tls.depth = {}
            tls.hot = {}
            self._hot_tables.append(tls.hot)
        return tls

    def current(self) -> Tuple[int, int]:
        """(parent span id, job id) of the calling thread."""
        tls = self._ctx()
        return (tls.stack[-1] if tls.stack else 0), tls.job

    def new_id(self) -> int:
        return next(self._ids)

    def hot_totals(self) -> Dict[str, List[float]]:
        totals: Dict[str, List[float]] = {}
        for table in list(self._hot_tables):
            for name, (count, seconds) in list(table.items()):
                entry = totals.setdefault(name, [0, 0.0])
                entry[0] += count
                entry[1] += seconds
        return totals

    @contextlib.contextmanager
    def recording(self, phase: str) -> Iterator[None]:
        """Record while the block runs, as one window of *phase*.

        Spans and jobs are told apart by the window their start falls in;
        hot counters, which keep no times, by their totals before and
        after the window.
        """
        before = self.hot_totals()
        self.enabled = True
        t0 = _now()
        try:
            yield
        finally:
            t1 = _now()
            self.enabled = False
            self.windows.setdefault(phase, []).append((t0, t1))
            hot = self.hot_by_phase.setdefault(phase, {})
            for name, (count, seconds) in self.hot_totals().items():
                count0, seconds0 = before.get(name, (0, 0.0))
                entry = hot.setdefault(name, [0, 0.0])
                entry[0] += count - count0
                entry[1] += seconds - seconds0

    def write(self, path: str) -> None:
        """Write every span, then every job record, as JSON lines.

        The first line names the fields of the span lines that follow.
        """
        with open(path, "w") as out:
            out.write(json.dumps({"span_fields": ["id", "name", "start", "end", "parent",
                                                  "thread", "job", "extra"]}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
            for job in self.jobs:
                out.write(json.dumps({
                    "job": job.jid, "start": job.start, "end": job.end,
                    "steps": [[t, m.duration_seconds] for t, m in job.steps],
                }) + "\n")

    # -- wrapper factories -------------------------------------------------
    def span_wrapper(self, orig: Callable, name: str, layer: str, extra: Optional[Callable] = None) -> Callable:
        """Time *orig* as a span; *extra(args, kwargs, result)* annotates it."""
        rec = self

        @functools.wraps(orig)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if _in_child or not rec.enabled:
                return orig(*args, **kwargs)
            tls = rec._ctx()
            if tls.depth.get(layer):
                return orig(*args, **kwargs)
            sid = next(rec._ids)
            parent = tls.stack[-1] if tls.stack else 0
            tls.depth[layer] = 1
            tls.stack.append(sid)
            t0 = _now()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = _now()
                tls.stack.pop()
                tls.depth[layer] = 0
            rec.spans.append((sid, name, t0, t1, parent, threading.get_ident(), tls.job,
                              extra(args, kwargs, result) if extra is not None else None))
            return result

        return wrapper

    def hot_wrapper(self, orig: Callable, name: str, layer: str) -> Callable:
        """Count and time *orig* without a span (per-record entry points)."""
        rec = self

        @functools.wraps(orig)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if _in_child or not rec.enabled:
                return orig(*args, **kwargs)
            tls = rec._ctx()
            if tls.depth.get(layer):
                return orig(*args, **kwargs)
            tls.depth[layer] = 1
            t0 = _now()
            try:
                return orig(*args, **kwargs)
            finally:
                elapsed = _now() - t0
                tls.depth[layer] = 0
                entry = tls.hot.get(name)
                if entry is None:
                    tls.hot[name] = [1, elapsed]
                else:
                    entry[0] += 1
                    entry[1] += elapsed

        return wrapper

    def in_context(self, fn: Callable, sid: int, parent: int, job: int, name: str, extra: Dict[str, Any]) -> Callable:
        """*fn* run as span *sid* under *parent*, on whatever thread runs it."""
        rec = self

        def task(*args: Any, **kwargs: Any) -> Any:
            tls = rec._ctx()
            saved = (tls.stack, tls.job, tls.depth)
            tls.stack, tls.job, tls.depth = [sid], job, {}
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                tls.stack, tls.job, tls.depth = saved
                rec.spans.append((sid, name, t0, t1, parent, threading.get_ident(), job, extra))

        return task


# -- the patch set ------------------------------------------------------------


def _records_arg(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    pairs = args[1] if len(args) > 1 else kwargs.get("pairs", ())
    return {"records": len(pairs) if isinstance(pairs, Sized) else 0}


def _listify_pairs(rec: Recorder, orig: Callable) -> Callable:
    """Materialize a generator argument so its length can be recorded."""

    @functools.wraps(orig)
    def call(self: Any, pairs: Any, *args: Any, **kwargs: Any) -> Any:
        if rec.enabled and not isinstance(pairs, Sized):
            pairs = list(pairs)
        return orig(self, pairs, *args, **kwargs)

    return call


def _read_extra(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"empty": result is None}


def _flush_extra(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    writer = args[0]
    return {"records": writer.records_written}


def _require(cls: type, *attrs: str) -> None:
    """Fail loudly when a public entry point the wrappers need is gone."""
    missing = [attr for attr in attrs if not callable(getattr(cls, attr, None))]
    if missing:
        raise AttributeError(
            f"{cls.__module__}.{cls.__qualname__} has no {', '.join(missing)}: "
            "the benchmark traces these public entry points"
        )


def _all_subclasses(cls: type) -> List[type]:
    seen: List[type] = []
    todo = [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


class Tracing:
    """Installs and removes the wrappers around one :class:`Recorder`."""

    def __init__(self, recorder: Recorder) -> None:
        self.rec = recorder
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    # -- patch helpers ----------------------------------------------------
    def _set(self, owner: Any, attr: str, value: Any) -> None:
        own = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def _method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap *attr* where *cls* itself defines it (not inherited)."""
        orig = vars(cls).get(attr)
        if orig is None or not callable(orig):
            return
        self._set(cls, attr, make(orig))

    def _module_function(self, orig: Callable, wrapped: Callable) -> None:
        """Replace *orig* in every loaded ``repro`` module that bound it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._set(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value, own = self._saved.pop()
            if own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Tracing":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- the layers -------------------------------------------------------
    def install(self) -> None:
        try:
            self._install_engine()
            self._install_transport()
            self._install_serde()
            self._install_kvstore()
            self._install_runtime()
            self._install_messaging()
            self._install_aggregators()
            self._install_apps()
        except BaseException:
            self.uninstall()
            raise

    def _install_engine(self) -> None:
        from repro.ebsp import runner

        rec = self.rec
        orig = runner.run_job

        @functools.wraps(orig)
        def run_job(store: Any, job: Any, **kwargs: Any) -> Any:
            if _in_child or not rec.enabled:
                return orig(store, job, **kwargs)
            tls = rec._ctx()
            saved_job = tls.job
            parent = tls.stack[-1] if tls.stack else 0
            record = JobRecord(rec.new_id(), _now(), threading.get_ident())
            user_hook = kwargs.pop("on_step", None)

            def on_step(metrics: Any) -> None:
                record.steps.append((_now(), metrics))
                if user_hook is not None:
                    user_hook(metrics)

            tls.job = record.jid
            tls.stack.append(record.jid)
            try:
                record.result = orig(store, job, on_step=on_step, **kwargs)
            finally:
                record.end = _now()
                tls.stack.pop()
                tls.job = saved_job
                rec.jobs.append(record)
                rec.spans.append((record.jid, "engine.run_job", record.start, record.end, parent,
                                  record.thread, record.jid, None))
            return record.result

        self._module_function(orig, run_job)

    def _install_transport(self) -> None:
        from repro.ebsp import transport

        rec = self.rec
        _require(transport.SpillWriter, "add", "add_message_batch", "add_continue_batch", "flush_all")
        for attr in ("add", "add_message_batch", "add_continue_batch"):
            self._method(transport.SpillWriter, attr,
                         lambda f: rec.hot_wrapper(f, "transport.add", "transport.add"))
        self._method(transport.SpillWriter, "flush_all",
                     lambda f: rec.span_wrapper(f, "transport.flush", "transport", _flush_extra))
        for attr in ("collect_step_columns", "group_step_columns", "step_spills", "collect_step_records"):
            orig = getattr(transport, attr)
            self._module_function(orig, rec.span_wrapper(orig, "transport.collect", "transport"))

    def _install_serde(self) -> None:
        from repro.serde import Codec

        _require(Codec, "dumps", "loads", "roundtrip")
        for attr in ("dumps", "loads", "roundtrip"):
            self._method(Codec, attr, lambda f: self.rec.span_wrapper(f, "serde.codec", "serde"))

    def _install_kvstore(self) -> None:
        from repro.kvstore.api import Table

        rec = self.rec
        groups = {
            "kvstore.put_many": ("put_many", "put_many_async"),
            "kvstore.get_many": ("get_many",),
            "kvstore.delete_many": ("delete_many", "delete_many_async"),
            "kvstore.point": ("get", "put", "delete", "contains", "put_async", "delete_async"),
            "kvstore.enumerate": ("enumerate_parts", "enumerate_pairs", "items", "range_scan"),
        }
        for attrs in groups.values():
            _require(Table, *attrs)
        for cls in _all_subclasses(Table):
            for name, attrs in groups.items():
                for attr in attrs:
                    if name == "kvstore.put_many":
                        self._method(cls, attr, lambda f, n=name: _listify_pairs(
                            rec, rec.span_wrapper(f, n, "kvstore", _records_arg)))
                    else:
                        self._method(cls, attr, lambda f, n=name: rec.span_wrapper(f, n, "kvstore"))

    def _install_runtime(self) -> None:
        from repro.runtime import ProcessRuntime, ThreadedRuntime, is_shippable

        rec = self.rec

        def threaded(orig: Callable) -> Callable:
            @functools.wraps(orig)
            def submit(runtime: Any, where: int, fn: Callable, *args: Any) -> Any:
                if _in_child or not rec.enabled:
                    return orig(runtime, where, fn, *args)
                parent, job = rec.current()
                extra = {"submit": _now(), "submitter": threading.get_ident(), "kind": runtime.kind}
                return orig(runtime, where, rec.in_context(fn, rec.new_id(), parent, job, "runtime.task", extra), *args)

            return submit

        def process(orig: Callable) -> Callable:
            @functools.wraps(orig)
            def submit(runtime: Any, where: int, fn: Callable, *args: Any) -> Any:
                if _in_child or not rec.enabled or not is_shippable(fn):
                    # unshippable callables fall back to parent threads,
                    # which the ThreadedRuntime wrapper counts
                    return orig(runtime, where, fn, *args)
                parent, job = rec.current()
                sid = rec.new_id()
                submitter = threading.get_ident()
                t0 = _now()
                future = orig(runtime, where, fn, *args)

                def done(_: Any) -> None:
                    rec.spans.append((sid, "process.task", t0, _now(), parent, submitter, job,
                                      {"submit": t0, "submitter": submitter}))

                future.add_done_callback(done)
                return future

            return submit

        for cls in (ThreadedRuntime, ProcessRuntime):
            _require(cls, "submit", "submit_long", "submit_to_worker", "run_tasks")
        for attr in ("submit", "submit_long", "submit_to_worker"):
            self._method(ThreadedRuntime, attr, threaded)
            self._method(ProcessRuntime, attr, process)

        from repro.runtime.api import WorkerRuntime

        orig_gang = vars(WorkerRuntime)["run_tasks"]

        @functools.wraps(orig_gang)
        def run_tasks(runtime: Any, fns: Any, *args: Any, **kwargs: Any) -> Any:
            if _in_child or not rec.enabled:
                return orig_gang(runtime, fns, *args, **kwargs)
            parent, job = rec.current()
            wrapped = [rec.in_context(fn, rec.new_id(), parent, job, "runtime.gang", None) for fn in fns]
            return orig_gang(runtime, wrapped, *args, **kwargs)

        self._set(WorkerRuntime, "run_tasks", run_tasks)

    def _install_messaging(self) -> None:
        from repro.messaging.api import QueueSet, QueueWorkerContext

        rec = self.rec
        _require(QueueSet, "put")
        _require(QueueWorkerContext, "put", "read")
        for cls in _all_subclasses(QueueSet):
            self._method(cls, "put", lambda f: rec.span_wrapper(f, "messaging.put", "messaging"))
        for cls in _all_subclasses(QueueWorkerContext):
            self._method(cls, "put", lambda f: rec.span_wrapper(f, "messaging.put", "messaging"))
            self._method(cls, "read", lambda f: rec.span_wrapper(f, "messaging.read", "messaging", _read_extra))

    def _install_aggregators(self) -> None:
        from repro.ebsp.aggregators import Aggregator

        _require(Aggregator, "add", "add_many", "merge", "finish")
        for cls in [Aggregator] + _all_subclasses(Aggregator):
            for attr in ("add", "add_many", "merge", "finish"):
                if not getattr(vars(cls).get(attr), "__isabstractmethod__", False):
                    self._method(cls, attr, lambda f: self.rec.hot_wrapper(f, "aggregate", "aggregate"))

    def _install_apps(self) -> None:
        from repro.apps.sssp import SelectiveSSSP

        _require(SelectiveSSSP, "apply_changes")
        self._method(SelectiveSSSP, "apply_changes",
                     lambda f: self.rec.span_wrapper(f, "sssp.apply", "apps"))
