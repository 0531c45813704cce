"""Scheduler under concurrent submission, plus graceful close and the
start/done callbacks — across all three worker runtimes."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import JobError
from repro.ebsp.loaders import MessageListLoader
from repro.ebsp.scheduler import JobScheduler, JobState
from repro.kvstore.partitioned import PartitionedKVStore

from tests.ebsp.jobs import TestJob

RUNTIMES = ["inline", "threaded", "process"]


@pytest.fixture
def store():
    instance = PartitionedKVStore(n_partitions=4)
    yield instance
    instance.close()


def chain_job(table: str, length: int):
    def fn(ctx):
        for value in ctx.input_messages():
            ctx.write_state(0, value)
            if value < length:
                ctx.output_message(ctx.key, value + 1)
        return False

    return TestJob(
        fn, state_tables=[table], loaders=[MessageListLoader([(0, 1)])]
    )


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestConcurrentSubmission:
    def test_many_jobs_from_many_threads(self, store, runtime):
        """N jobs race in from M submitter threads; every completion is
        observed, every counter is right, teardown is clean."""
        n_threads, jobs_per_thread, length = 4, 3, 4
        scheduler = JobScheduler(store, max_concurrent=3, runtime=runtime)
        handles, errors = [], []
        handles_lock = threading.Lock()
        done_ids = set()
        done_lock = threading.Lock()

        def on_done(handle):
            with done_lock:
                done_ids.add(handle.job_id)

        def submitter(thread_idx):
            try:
                for i in range(jobs_per_thread):
                    handle = scheduler.submit(
                        chain_job(f"t{thread_idx}_{i}", length), on_done=on_done
                    )
                    with handles_lock:
                        handles.append(handle)
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=submitter, args=(t,)) for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        assert scheduler.wait_all(timeout=120)
        assert len(handles) == n_threads * jobs_per_thread
        for handle in handles:
            assert handle.state is JobState.SUCCEEDED, handle.error
            # stable JobResult counters: the chain runs exactly `length`
            # steps and each step touches one part
            assert handle.result.steps == length
            assert handle.result.part_steps_run == length
        # no lost completions
        assert done_ids == {handle.job_id for handle in handles}
        # every state table holds the final chain value
        for t in range(n_threads):
            for i in range(jobs_per_thread):
                assert store.get_table(f"t{t}_{i}").get(0) == length
        assert scheduler.close(timeout=30) is True

    def test_results_identical_across_concurrency(self, store, runtime):
        """The same job run solo and run amid contention produces the
        same counters (scheduling never changes semantics)."""
        solo = JobScheduler(store, max_concurrent=1, runtime=runtime)
        baseline = solo.submit(chain_job("solo", 5))
        assert baseline.wait(60)
        solo.close()

        crowd = JobScheduler(store, max_concurrent=3, runtime=runtime)
        handles = [crowd.submit(chain_job(f"crowd_{i}", 5)) for i in range(6)]
        assert crowd.wait_all(timeout=120)
        crowd.close()
        for handle in handles:
            assert handle.state is JobState.SUCCEEDED
            assert handle.result.steps == baseline.result.steps
            assert handle.result.part_steps_run == baseline.result.part_steps_run


class TestGracefulClose:
    def test_close_cancels_queued_and_waits_running(self, store):
        gate = threading.Event()

        def slow(ctx):
            if not gate.wait(15):
                raise AssertionError("gate never released")
            ctx.write_state(0, "ran")
            return False

        scheduler = JobScheduler(store, max_concurrent=1)
        running = scheduler.submit(
            TestJob(slow, state_tables=["gc1"], loaders=[MessageListLoader([(0, 1)])])
        )
        queued = scheduler.submit(chain_job("gc2", 3))
        done_states = []
        closer = threading.Thread(
            target=lambda: done_states.append(scheduler.close(timeout=30))
        )
        closer.start()
        # close() must cancel the queued job promptly, not wait on it
        assert queued.wait(5)
        assert queued.state is JobState.CANCELLED
        gate.set()
        closer.join(30)
        assert done_states == [True]
        assert running.state is JobState.SUCCEEDED

    def test_close_deadline_returns_false_without_killing(self, store):
        gate = threading.Event()

        def slow(ctx):
            if not gate.wait(15):
                raise AssertionError("gate never released")
            ctx.write_state(0, "survived")
            return False

        scheduler = JobScheduler(store)
        handle = scheduler.submit(
            TestJob(slow, state_tables=["gc3"], loaders=[MessageListLoader([(0, 1)])])
        )
        start = time.monotonic()
        assert scheduler.close(timeout=0.2) is False
        assert time.monotonic() - start < 5
        # the job was not killed mid-flight; it completes after release
        gate.set()
        assert handle.wait(30)
        assert handle.state is JobState.SUCCEEDED
        assert store.get_table("gc3").get(0) == "survived"

    def test_close_is_idempotent_and_blocks_submission(self, store):
        scheduler = JobScheduler(store)
        assert scheduler.close() is True
        assert scheduler.close() is True
        with pytest.raises(JobError, match="shut down"):
            scheduler.submit(chain_job("nope", 2))

    def test_shutdown_alias(self, store):
        scheduler = JobScheduler(store)
        handle = scheduler.submit(chain_job("alias", 3))
        scheduler.shutdown(wait=True)
        assert handle.state is JobState.SUCCEEDED


class TestCallbacks:
    def test_on_start_and_on_done_fire_in_order(self, store):
        order = []
        with JobScheduler(store) as scheduler:
            handle = scheduler.submit(
                chain_job("cb1", 3),
                on_start=lambda h: order.append(("start", h.state)),
                on_done=lambda h: order.append(("done", h.state)),
            )
            assert handle.wait(30)
        assert [kind for kind, _ in order] == ["start", "done"]
        assert order[1][1] is JobState.SUCCEEDED

    def test_on_done_fires_for_cancelled_jobs(self, store):
        gate = threading.Event()

        def slow(ctx):
            if not gate.wait(10):
                raise AssertionError("gate never released")
            return False

        seen = []
        with JobScheduler(store, max_concurrent=1) as scheduler:
            running = scheduler.submit(
                TestJob(slow, state_tables=["cb2"], loaders=[MessageListLoader([(0, 1)])])
            )
            queued = scheduler.submit(chain_job("cb3", 2), on_done=lambda h: seen.append(h.state))
            assert scheduler.cancel(queued.job_id)
            gate.set()
        assert seen == [JobState.CANCELLED]
        assert running.state is JobState.SUCCEEDED

    def test_callback_exceptions_are_swallowed(self, store):
        def explode(handle):
            raise RuntimeError("listener bug")

        with JobScheduler(store) as scheduler:
            handle = scheduler.submit(
                chain_job("cb4", 3), on_start=explode, on_done=explode
            )
            assert handle.wait(30)
            assert handle.state is JobState.SUCCEEDED
