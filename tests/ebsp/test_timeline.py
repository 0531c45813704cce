"""Per-step execution timeline in JobResult."""

from __future__ import annotations

from repro.ebsp.loaders import EnableKeysLoader, MessageListLoader
from repro.ebsp.results import StepMetrics
from repro.ebsp.runner import run_job

from tests.ebsp.jobs import TestJob


def test_timeline_one_entry_per_step(local_store):
    def fn(ctx):
        for value in ctx.input_messages():
            if value < 4:
                ctx.output_message(ctx.key, value + 1)
        return False

    job = TestJob(fn, loaders=[MessageListLoader([(0, 1)])])
    result = run_job(local_store, job)
    assert len(result.timeline) == result.steps
    assert [m.step for m in result.timeline] == list(range(result.steps))
    assert all(isinstance(m, StepMetrics) for m in result.timeline)
    assert all(m.duration_seconds >= 0 for m in result.timeline)


def test_timeline_tracks_invocations_and_fanout(local_store):
    def fn(ctx):
        if ctx.step_num == 0:
            for target in range(10):
                ctx.output_message(100 + target, 1)
        return False

    job = TestJob(fn, loaders=[EnableKeysLoader([0])])
    result = run_job(local_store, job)
    assert result.timeline[0].invocations == 1
    assert result.timeline[0].records_out == 10
    assert result.timeline[1].invocations == 10
    assert result.timeline[1].records_out == 0


def test_raising_on_step_hook_is_counted(local_store):
    """A failing progress hook does not fail the job, and is not silent:
    each raise shows up in the job's counters."""

    def fn(ctx):
        for value in ctx.input_messages():
            ctx.write_state(0, value)
            if value < 4:
                ctx.output_message(ctx.key, value + 1)
        return False

    def job():
        return TestJob(fn, loaders=[MessageListLoader([(0, 1)])])

    def hook(metrics):
        raise RuntimeError(f"monitor down at step {metrics.step}")

    clean = run_job(local_store, job())
    clean_state = dict(local_store.get_table("state").items())
    local_store.drop_table("state")
    result = run_job(local_store, job(), on_step=hook)
    assert result.counters["on_step_errors"] == result.steps == clean.steps
    assert "on_step_errors" not in clean.counters
    assert dict(local_store.get_table("state").items()) == clean_state == {0: 4}


def test_async_runs_have_empty_timeline(local_store):
    from repro.ebsp.properties import JobProperties

    job = TestJob(
        lambda ctx: False,
        properties=JobProperties(incremental=True, no_continue=True),
        loaders=[MessageListLoader([(0, 1)])],
    )
    result = run_job(local_store, job, synchronize=False)
    assert result.timeline == []  # there are no steps without barriers
