"""Scheduler corners: timeouts, shutdown modes, many queued jobs."""

from __future__ import annotations

import threading
import time

import pytest

from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.scheduler import JobScheduler, JobState
from repro.kvstore.local import LocalKVStore

from tests.ebsp.jobs import TestJob


@pytest.fixture
def store():
    instance = LocalKVStore(default_n_parts=4)
    yield instance
    instance.close()


def quick_job(table: str):
    def fn(ctx):
        ctx.write_state(0, "done")
        return False

    return TestJob(fn, state_tables=[table], loaders=[MessageListLoader([(0, 1)])])


def test_wait_all_timeout_returns_false(store):
    gate = threading.Event()

    def slow(ctx):
        if not gate.wait(10):
            raise AssertionError("gate never released")
        return False

    with JobScheduler(store) as scheduler:
        handle = scheduler.submit(
            TestJob(slow, state_tables=["s"], loaders=[MessageListLoader([(0, 1)])])
        )
        assert scheduler.wait_all(timeout=0.05) is False
        gate.set()
        assert scheduler.wait_all(timeout=30) is True
    assert handle.state is JobState.SUCCEEDED


def test_shutdown_cancels_queue(store):
    gate = threading.Event()

    def slow(ctx):
        if not gate.wait(10):
            raise AssertionError("gate never released")
        return False

    scheduler = JobScheduler(store, max_concurrent=1)
    running = scheduler.submit(
        TestJob(slow, state_tables=["s1"], loaders=[MessageListLoader([(0, 1)])])
    )
    queued = scheduler.submit(quick_job("s2"))
    gate.set()
    scheduler.shutdown(wait=True)
    assert queued.state is JobState.CANCELLED
    assert running.state is JobState.SUCCEEDED


def test_many_serialized_jobs_all_run(store):
    """Twenty conflicting jobs on one table: all run, one at a time."""
    counter = {"concurrent": 0, "max_seen": 0}
    lock = threading.Lock()

    def tracked(ctx):
        with lock:
            counter["concurrent"] += 1
            counter["max_seen"] = max(counter["max_seen"], counter["concurrent"])
        time.sleep(0.002)
        with lock:
            counter["concurrent"] -= 1
        return False

    with JobScheduler(store, max_concurrent=4) as scheduler:
        handles = [
            scheduler.submit(
                TestJob(
                    tracked, state_tables=["shared"], loaders=[MessageListLoader([(0, 1)])]
                )
            )
            for _ in range(20)
        ]
        assert scheduler.wait_all(timeout=60)
    assert all(h.state is JobState.SUCCEEDED for h in handles)
    assert counter["max_seen"] == 1  # write conflicts fully serialized


def test_handles_report_durations(store):
    with JobScheduler(store) as scheduler:
        handle = scheduler.submit(quick_job("t"))
        handle.wait(30)
    assert handle.finished_at is not None
    assert handle.finished_at >= handle.submitted_at
    assert handle.done
