"""EBSP sharing the runtime with an OLTP-style workload (§VII).

The paper's closing future-work item: "the issues that arise when EBSP
shares a runtime with some other workload (such as OLTP)."  These
tests pin the basic safety story on the current architecture: point
get/put traffic hammering one table while an analytics job runs over
others, on the same store — both must complete, both must be correct,
and the short-op/long-op thread split of the parallel debugging store
means point operations are never queued behind a long enumeration.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.apps.pagerank import (
    PageRankConfig,
    build_pagerank_table,
    pagerank_direct,
    read_ranks,
    reference_pagerank,
)
from repro.graph.generators import power_law_directed_graph
from repro.kvstore.api import TableSpec
from repro.kvstore.partitioned import PartitionedKVStore


@pytest.fixture
def store():
    instance = PartitionedKVStore(n_partitions=4)
    yield instance
    instance.close()


class TestOltpAlongsideAnalytics:
    def test_both_complete_correctly(self, store):
        adjacency = power_law_directed_graph(200, 800, seed=13)
        config = PageRankConfig(iterations=5)
        n = build_pagerank_table(store, "graph", adjacency)
        oltp = store.create_table(TableSpec(name="accounts"))
        oltp.put_many((i, {"balance": 100}) for i in range(50))

        stop = threading.Event()
        oltp_ops = {"count": 0}
        errors: list = []

        def oltp_worker():
            try:
                i = 0
                while not stop.is_set():
                    key = i % 50
                    row = oltp.get(key)
                    oltp.put(key, {"balance": row["balance"] + 1})
                    oltp_ops["count"] += 1
                    i += 1
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        thread = threading.Thread(target=oltp_worker)
        thread.start()
        try:
            pagerank_direct(store, "graph", n, config)
        finally:
            stop.set()
            thread.join(timeout=10)

        assert errors == []
        assert oltp_ops["count"] > 0, "OLTP traffic should have progressed"
        # OLTP data consistent: every increment applied
        total = sum(row["balance"] for _, row in oltp.items())
        assert total == 50 * 100 + oltp_ops["count"]
        # analytics correct despite the concurrent traffic
        reference = reference_pagerank(adjacency, config)
        ranks = read_ranks(store, "graph")
        for v, expected in reference.items():
            assert ranks[v] == pytest.approx(expected, abs=1e-12)

    def test_point_ops_not_starved_by_enumeration(self, store):
        """The two-thread partition design: a long-running enumeration
        must not block short request-response operations."""
        table = store.create_table(TableSpec(name="t", n_parts=4))
        table.put_many((i, i) for i in range(40))
        slow_started = threading.Event()
        release = threading.Event()

        from repro.kvstore.api import FnPartConsumer

        scan_errors = []

        def slow_scan():
            def process(part, view):
                if part == 0:
                    slow_started.set()
                    if not release.wait(10):
                        raise AssertionError("scan never released")
                return 0

            try:
                table.enumerate_parts(FnPartConsumer(process, lambda a, b: 0))
            except Exception as exc:  # surfaced by the test thread
                scan_errors.append(exc)

        scanner = threading.Thread(target=slow_scan)
        scanner.start()
        try:
            assert slow_started.wait(5)
            # part 0's long-op thread is stuck; a get against part 0 goes
            # through the short-op thread and must return promptly
            start = time.monotonic()
            assert table.get(0) == 0  # key 0 lives in part 0
            assert time.monotonic() - start < 1.0
        finally:
            release.set()
            scanner.join(timeout=10)
        assert not scanner.is_alive()
        assert scan_errors == []
