"""Scheduler lifecycle under shutdown/cancellation with work in flight.

Pins the contract of the runtime-backed scheduler: queued jobs are
cancelled at shutdown, running jobs drain to completion, no worker
threads are orphaned, and the whole scheduler works under the inline
runtime for deterministic debugging.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import JobError
from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.scheduler import JobScheduler, JobState
from repro.kvstore.local import LocalKVStore

from tests.ebsp.jobs import TestJob


@pytest.fixture
def store():
    instance = LocalKVStore(default_n_parts=4)
    yield instance
    instance.close()


def _job(table: str, fn=None):
    if fn is None:
        def fn(ctx):  # noqa: E306
            ctx.write_state(0, "done")
            return False

    return TestJob(fn, state_tables=[table], loaders=[MessageListLoader([(0, 1)])])


def _gated_job(table: str, started: threading.Event, gate: threading.Event):
    def slow(ctx):
        started.set()
        if not gate.wait(10):
            raise AssertionError("gate never released")
        return False

    return _job(table, slow)


def test_shutdown_with_queued_and_running_jobs(store):
    """Running job completes, queued job is cancelled, states are final."""
    started, gate = threading.Event(), threading.Event()
    scheduler = JobScheduler(store, max_concurrent=1)
    running = scheduler.submit(_gated_job("s1", started, gate))
    queued = scheduler.submit(_job("s2"))
    assert started.wait(10)
    assert running.state is JobState.RUNNING
    assert queued.state is JobState.QUEUED

    finished = threading.Event()

    def do_shutdown():
        scheduler.shutdown(wait=True)
        finished.set()

    shutter = threading.Thread(target=do_shutdown)
    shutter.start()
    # the queued job is cancelled immediately, before the drain completes
    assert queued.wait(10)
    assert queued.state is JobState.CANCELLED
    assert not finished.is_set() or running.done
    gate.set()
    shutter.join(10)
    assert finished.is_set()
    assert running.state is JobState.SUCCEEDED
    assert running.result is not None


def test_submit_after_shutdown_raises(store):
    scheduler = JobScheduler(store)
    scheduler.shutdown(wait=True)
    with pytest.raises(JobError):
        scheduler.submit(_job("t"))


def test_shutdown_is_idempotent(store):
    scheduler = JobScheduler(store)
    handle = scheduler.submit(_job("t"))
    scheduler.shutdown(wait=True)
    scheduler.shutdown(wait=True)
    assert handle.done


def test_shutdown_leaves_no_worker_threads(store):
    baseline = threading.active_count()
    scheduler = JobScheduler(store, max_concurrent=3)
    handles = [scheduler.submit(_job(f"t{i}")) for i in range(6)]
    assert scheduler.wait_all(timeout=60)
    scheduler.shutdown(wait=True)
    assert all(h.state is JobState.SUCCEEDED for h in handles)
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline and threading.active_count() > baseline:
        time.sleep(0.01)
    assert threading.active_count() <= baseline, [
        t.name for t in threading.enumerate()
    ]


def test_cancel_queued_frees_nothing_but_queue(store):
    """Cancelling a queued job must not consume a slot or block peers."""
    started, gate = threading.Event(), threading.Event()
    with JobScheduler(store, max_concurrent=1) as scheduler:
        running = scheduler.submit(_gated_job("s1", started, gate))
        queued = scheduler.submit(_job("s1"))  # conflicts: stays queued
        assert started.wait(10)
        assert scheduler.cancel(queued.job_id) is True
        assert queued.state is JobState.CANCELLED
        follow_up = scheduler.submit(_job("s2"))  # disjoint: may run now
        gate.set()
        assert scheduler.wait_all(timeout=30)
        assert running.state is JobState.SUCCEEDED
        assert follow_up.state is JobState.SUCCEEDED


def test_slots_are_reused_across_many_jobs(store):
    with JobScheduler(store, max_concurrent=2) as scheduler:
        handles = [scheduler.submit(_job(f"t{i}")) for i in range(10)]
        assert scheduler.wait_all(timeout=60)
        stats = scheduler.runtime_stats()
    assert all(h.state is JobState.SUCCEEDED for h in handles)
    assert stats["n_workers"] == 2
    assert stats["tasks"] == 10  # one runtime task per job


def test_forget_drops_only_finished_handles(store):
    """forget() retires terminal handles so a long-lived scheduler does
    not grow per-job state; live jobs are refused."""
    started, gate = threading.Event(), threading.Event()
    with JobScheduler(store, max_concurrent=1) as scheduler:
        running = scheduler.submit(_gated_job("f1", started, gate))
        assert started.wait(10)
        assert scheduler.forget(running.job_id) is False  # still running
        gate.set()
        assert running.wait(10)
        assert running.state is JobState.SUCCEEDED
        assert scheduler.forget(running.job_id) is True
        with pytest.raises(JobError):
            scheduler.handle(running.job_id)
        assert scheduler.forget(running.job_id) is False  # already gone
        assert scheduler.jobs() == []
        assert scheduler._engine_kwargs == {}  # no kwargs leak either


def test_inline_runtime_runs_jobs_synchronously(store):
    """runtime="inline" turns the scheduler into a deterministic,
    single-threaded debugging harness: submit() returns with the job
    already finished."""
    scheduler = JobScheduler(store, max_concurrent=2, runtime="inline")
    handle = scheduler.submit(_job("t"))
    assert handle.state is JobState.SUCCEEDED
    assert handle.result is not None
    stats = scheduler.runtime_stats()
    assert stats["runtime"] == "inline"
    assert stats["tasks"] == 1
    scheduler.shutdown(wait=True)
