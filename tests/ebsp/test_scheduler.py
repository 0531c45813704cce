"""The concurrent-job scheduler (§VII future work)."""

from __future__ import annotations

import threading
import time
from typing import Dict

import pytest

from repro.errors import JobError
from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.scheduler import JobScheduler, JobState
from repro.kvstore.partitioned import PartitionedKVStore

from tests.ebsp.jobs import TestJob


class _BarrierRegistry:
    """Named barriers that the computes of concurrent jobs meet at.

    A barrier is made on first use; asking for it again with a
    different party count is an error rather than a silent mismatch.
    """

    def __init__(self) -> None:
        self._barriers: Dict[str, threading.Barrier] = {}
        self._lock = threading.Lock()

    def get(self, name: str, parties: int) -> threading.Barrier:
        with self._lock:
            barrier = self._barriers.get(name)
            if barrier is None:
                barrier = self._barriers[name] = threading.Barrier(parties)
            elif barrier.parties != parties:
                raise ValueError(
                    f"barrier {name!r} has {barrier.parties} parties, not {parties}"
                )
            return barrier


@pytest.fixture
def store():
    instance = PartitionedKVStore(n_partitions=4)
    yield instance
    instance.close()


def chain_job(table: str, length: int, extra_tables=(), on_step=None):
    def fn(ctx):
        for value in ctx.input_messages():
            if on_step is not None:
                on_step(ctx.step_num)
            ctx.write_state(0, value)
            if value < length:
                ctx.output_message(ctx.key, value + 1)
        return False

    return TestJob(
        fn,
        state_tables=[table, *extra_tables],
        loaders=[MessageListLoader([(0, 1)])],
    )


class TestLifecycle:
    def test_submit_and_wait(self, store):
        with JobScheduler(store) as scheduler:
            handle = scheduler.submit(chain_job("a", 5))
            assert handle.wait(timeout=30)
            assert handle.state is JobState.SUCCEEDED
            assert handle.result.steps == 5
        assert store.get_table("a").get(0) == 5

    def test_failure_recorded_not_raised(self, store):
        def boom(ctx):
            raise RuntimeError("bad job")

        with JobScheduler(store) as scheduler:
            handle = scheduler.submit(
                TestJob(boom, state_tables=["x"], loaders=[MessageListLoader([(0, 1)])])
            )
            assert handle.wait(timeout=30)
            assert handle.state is JobState.FAILED
            assert handle.error is not None
            assert handle.result is None

    def test_cancel_queued(self, store):
        gate = threading.Event()

        def slow(ctx):
            if not gate.wait(10):
                raise AssertionError("gate never released")
            return False

        with JobScheduler(store, max_concurrent=1) as scheduler:
            running = scheduler.submit(
                TestJob(slow, state_tables=["s1"], loaders=[MessageListLoader([(0, 1)])])
            )
            queued = scheduler.submit(chain_job("s2", 3))
            assert scheduler.cancel(queued.job_id)
            assert queued.state is JobState.CANCELLED
            gate.set()
            assert running.wait(timeout=30)
            assert running.state is JobState.SUCCEEDED

    def test_cancel_running_refused(self, store):
        gate = threading.Event()

        def slow(ctx):
            if not gate.wait(10):
                raise AssertionError("gate never released")
            return False

        with JobScheduler(store) as scheduler:
            handle = scheduler.submit(
                TestJob(slow, state_tables=["s"], loaders=[MessageListLoader([(0, 1)])])
            )
            time.sleep(0.1)
            assert not scheduler.cancel(handle.job_id)
            gate.set()
            assert handle.wait(timeout=30)
            assert handle.state is JobState.SUCCEEDED

    def test_submit_after_shutdown(self, store):
        scheduler = JobScheduler(store)
        scheduler.shutdown()
        with pytest.raises(JobError):
            scheduler.submit(chain_job("a", 2))

    def test_unknown_handle(self, store):
        with JobScheduler(store) as scheduler:
            with pytest.raises(JobError):
                scheduler.handle("nope")

    def test_engine_kwargs_forwarded(self, store):
        with JobScheduler(store) as scheduler:
            handle = scheduler.submit(chain_job("a", 100), max_steps=3)
            assert handle.wait(timeout=30)
            assert handle.result.steps == 3


class TestConflictRules:
    def test_disjoint_jobs_run_in_parallel(self, store):
        both_running = threading.Event()
        active = {"count": 0}
        lock = threading.Lock()

        def tracked(table, key):
            # distinct keys → distinct parts → distinct partition threads,
            # so the two jobs' computes can genuinely overlap
            def fn(ctx):
                with lock:
                    active["count"] += 1
                    if active["count"] == 2:
                        both_running.set()
                both_running.wait(5)  # hold until the other arrives
                with lock:
                    active["count"] -= 1
                return False

            return TestJob(
                fn, state_tables=[table], loaders=[MessageListLoader([(key, 1)])]
            )

        with JobScheduler(store, max_concurrent=2) as scheduler:
            h1 = scheduler.submit(tracked("left", 0))
            h2 = scheduler.submit(tracked("right", 1))
            assert scheduler.wait_all(timeout=30)
            assert both_running.is_set(), "disjoint jobs should have overlapped"
            assert h1.state is h2.state is JobState.SUCCEEDED

    def test_write_conflicts_serialize(self, store):
        order = []
        lock = threading.Lock()

        def logged(tag):
            def fn(ctx):
                with lock:
                    order.append((tag, "start"))
                time.sleep(0.05)
                with lock:
                    order.append((tag, "end"))
                return False

            return TestJob(
                fn, state_tables=["shared"], loaders=[MessageListLoader([(0, 1)])]
            )

        with JobScheduler(store, max_concurrent=2) as scheduler:
            scheduler.submit(logged("one"))
            scheduler.submit(logged("two"))
            assert scheduler.wait_all(timeout=30)
        # no interleaving: each job's start/end pair is contiguous
        tags = [tag for tag, _ in order]
        assert tags in (["one", "one", "two", "two"], ["two", "two", "one", "one"])

    def test_read_sharing_allowed(self, store):
        """Two jobs that only read a shared table run at the same time.

        Each reader's compute waits at one two-party barrier, so a
        scheduler that ran them one after the other breaks the barrier
        and fails both jobs instead of passing after a timeout.
        """
        from repro.kvstore.api import TableSpec

        store.create_table(TableSpec(name="reference", n_parts=4))
        reference = store.get_table("reference")
        reference.put(0, "shared-data")
        reference.put(1, "shared-data")
        barriers = _BarrierRegistry()

        def reader(out_table, key):
            def fn(ctx):
                barriers.get("readers", parties=2).wait(timeout=10)
                ctx.write_state(0, ctx.read_state(1))
                return False

            return TestJob(
                fn,
                state_tables=[out_table, "reference"],
                loaders=[MessageListLoader([(key, 1)])],
            )

        with JobScheduler(store, max_concurrent=2) as scheduler:
            # keys 0 and 1 live on different parts of the 4-part store, so
            # the two computes run on different lanes and can overlap
            h1 = scheduler.submit(reader("out1", 0), read_only=["reference"])
            h2 = scheduler.submit(reader("out2", 1), read_only=["reference"])
            assert scheduler.wait_all(timeout=30)
        assert h1.state is JobState.SUCCEEDED, h1.error
        assert h2.state is JobState.SUCCEEDED, h2.error
        assert store.get_table("out1").get(0) == "shared-data"
        assert store.get_table("out2").get(1) == "shared-data"
        assert h1.reads == frozenset({"reference"})

    def test_reader_blocks_writer(self, store):
        """A job writing a table another job is reading must wait."""
        from repro.kvstore.api import TableSpec

        store.create_table(TableSpec(name="data", n_parts=4))
        order = []
        lock = threading.Lock()

        def make(tag, tables, read_only=None, delay=0.0):
            def fn(ctx):
                with lock:
                    order.append((tag, "start"))
                time.sleep(delay)
                with lock:
                    order.append((tag, "end"))
                return False

            return TestJob(
                fn, state_tables=tables, loaders=[MessageListLoader([(0, 1)])]
            ), read_only

        with JobScheduler(store, max_concurrent=2) as scheduler:
            reader_job, ro = make("reader", ["out", "data"], delay=0.1)
            scheduler.submit(reader_job, read_only=["data"])
            time.sleep(0.02)
            writer_job, _ = make("writer", ["data"])
            scheduler.submit(writer_job)
            assert scheduler.wait_all(timeout=30)
        assert order.index(("reader", "end")) < order.index(("writer", "start"))

    def test_bad_concurrency(self, store):
        with pytest.raises(ValueError):
            JobScheduler(store, max_concurrent=0)
