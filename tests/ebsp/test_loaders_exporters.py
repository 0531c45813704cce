"""Loaders and exporters as standalone pieces."""

from __future__ import annotations

import pickle
import threading
import time

import pytest

from repro.ebsp.aggregators import SumAggregator
from repro.ebsp.exporters import (
    CallbackExporter,
    CollectingExporter,
    ListExporter,
    TableExporter,
)
from repro.ebsp.loaders import (
    DictStateLoader,
    EnableKeysLoader,
    FunctionLoader,
    LoaderContext,
    MessageListLoader,
    TableScanLoader,
)
from repro.kvstore.api import TableSpec
from repro.kvstore.local import LocalKVStore
from repro.ebsp.runner import run_job
from repro.ebsp.transport import SpillWriter
from repro.kvstore.partitioned import PartitionedKVStore

from tests.ebsp.jobs import TestJob


class FakeLoaderContext(LoaderContext):
    """Records every call; ``enable_many`` is the base class's loop."""

    def __init__(self):
        self.states = []
        self.messages = []
        self.enabled = []
        self.aggregated = []

    def put_state(self, tab_idx, key, state):
        self.states.append((tab_idx, key, state))

    def send_message(self, key, message):
        self.messages.append((key, message))

    def enable(self, key):
        self.enabled.append(key)

    def aggregate_value(self, name, value):
        self.aggregated.append((name, value))


class TestLoaders:
    def test_dict_state_loader(self):
        ctx = FakeLoaderContext()
        DictStateLoader(1, {"a": 1, "b": 2}).load(ctx)
        assert sorted(ctx.states) == [(1, "a", 1), (1, "b", 2)]
        assert ctx.enabled == []

    def test_dict_state_loader_with_enable(self):
        ctx = FakeLoaderContext()
        DictStateLoader(0, {"a": 1}, enable=True).load(ctx)
        assert ctx.enabled == ["a"]

    def test_message_list_loader(self):
        ctx = FakeLoaderContext()
        MessageListLoader([(1, "x"), (2, "y")]).load(ctx)
        assert ctx.messages == [(1, "x"), (2, "y")]

    def test_enable_keys_loader(self):
        ctx = FakeLoaderContext()
        EnableKeysLoader([3, 4]).load(ctx)
        assert ctx.enabled == [3, 4]

    def test_function_loader(self):
        ctx = FakeLoaderContext()
        FunctionLoader(lambda c: c.aggregate_value("a", 1)).load(ctx)
        assert ctx.aggregated == [("a", 1)]

    def test_table_scan_loader_default_enables_all(self):
        store = LocalKVStore(default_n_parts=2)
        table = store.create_table(TableSpec(name="t"))
        table.put_many([(1, "a"), (2, "b")])
        ctx = FakeLoaderContext()
        TableScanLoader(table).load(ctx)
        assert sorted(ctx.enabled) == [1, 2]

    def test_table_scan_loader_custom_fn(self):
        store = LocalKVStore(default_n_parts=2)
        table = store.create_table(TableSpec(name="t"))
        table.put(5, "payload")
        ctx = FakeLoaderContext()
        TableScanLoader(table, lambda c, k, v: c.send_message(k, v)).load(ctx)
        assert ctx.messages == [(5, "payload")]


class TestKeysOnlyScan:
    """The default ``TableScanLoader`` reads keys where the parts live."""

    def test_enables_every_key_once_in_part_order(self):
        with PartitionedKVStore(n_partitions=3) as store:
            table = store.create_table(TableSpec(name="t", n_parts=3))
            table.put_many((k, str(k)) for k in range(20))
            ctx = FakeLoaderContext()
            TableScanLoader(table).load(ctx)
            by_part = [[k for k, _ in table.items() if table.part_of(k) == p] for p in range(3)]
            assert ctx.enabled == by_part[0] + by_part[1] + by_part[2]

    def test_pagerank_loader_moves_no_vertex_to_the_parent(self, monkeypatch):
        from repro.apps.pagerank import (
            PageRankConfig,
            build_pagerank_table,
            pagerank_batch,
            read_rank_table,
        )
        from repro.apps.pagerank.common import Vertex
        from repro.bench.experiments import table1_workloads
        from repro.graph.generators import power_law_directed_graph

        n_vertices, n_edges = table1_workloads(1.0)[2]
        adjacency = power_law_directed_graph(n_vertices, n_edges, seed=7)
        config = PageRankConfig(iterations=3)

        def ranks(runtime, count_unpickles):
            with PartitionedKVStore(n_partitions=2, runtime=runtime) as store:
                n = build_pagerank_table(store, "g", adjacency)
                unpickled = []
                if count_unpickles:
                    original = Vertex.__setstate__

                    def counting(vertex, state):
                        unpickled.append(1)
                        original(vertex, state)

                    monkeypatch.setattr(Vertex, "__setstate__", counting)
                pagerank_batch(store, "g", n, config)
                monkeypatch.undo()
                return read_rank_table(store, "g_ranks"), len(unpickled)

        process_ranks, unpickled = ranks("process", count_unpickles=True)
        threaded_ranks, _ = ranks("threaded", count_unpickles=False)
        # the parent unpickles no Vertex (edge arrays included) to start the job
        assert unpickled == 0
        assert len(process_ranks) == n_vertices
        assert pickle.dumps(process_ranks) == pickle.dumps(threaded_ranks)


class TestConcurrentScanThroughEngine:
    """A ``fn`` table scan runs on every part's enumeration thread at
    once, all feeding the engine's one loader context."""

    def test_every_component_receives_its_own_payload(self, monkeypatch):
        n_keys = 2000
        received = []
        loaded = []
        overlapping = []
        guards = {}
        add = SpillWriter.add

        def exclusive_add(writer, record):
            # a writer serves one producer at a time; yield the GIL
            # inside each call so a concurrent caller would show up
            guard = guards.setdefault(id(writer), threading.Lock())
            if not guard.acquire(blocking=False):
                overlapping.append(record)
                return add(writer, record)
            try:
                time.sleep(0)
                return add(writer, record)
            finally:
                guard.release()

        monkeypatch.setattr(SpillWriter, "add", exclusive_add)

        def fn(ctx):
            if ctx.step_num == 0:
                loaded.append(ctx.get_aggregate_value("loaded"))
            for message in ctx.input_messages():
                received.append((ctx.key, message))
            return False

        def load(ctx, key, value):
            ctx.send_message(key, (key, value))
            ctx.enable(key)
            ctx.aggregate_value("loaded", 1)

        with PartitionedKVStore(n_partitions=4, runtime="threaded") as store:
            table = store.create_table(TableSpec(name="src", n_parts=4))
            table.put_many((k, -k) for k in range(n_keys))
            job = TestJob(
                fn,
                loaders=[TableScanLoader(table, load)],
                aggregators={"loaded": SumAggregator()},
            )
            result = run_job(store, job, synchronize=True, spill_batch=7)
        assert overlapping == []
        assert sorted(received) == [(k, (k, -k)) for k in range(n_keys)]
        assert set(loaded) == {n_keys}
        assert result.counters["records_spilled"] == 2 * n_keys


class TestExporters:
    def test_collecting(self):
        exporter = CollectingExporter()
        exporter.begin()
        exporter.export("k", "v")
        exporter.end()
        assert exporter.pairs == {"k": "v"}
        assert exporter.began and exporter.ended

    def test_callback(self):
        out = []
        CallbackExporter(lambda k, v: out.append((k, v))).export(1, 2)
        assert out == [(1, 2)]

    def test_table_exporter(self):
        store = LocalKVStore(default_n_parts=2)
        table = store.create_table(TableSpec(name="sink"))
        exporter = TableExporter(table)
        exporter.export("k", 9)
        assert table.get("k") == 9

    def test_list_exporter_keeps_duplicates(self):
        exporter = ListExporter()
        exporter.export("k", 1)
        exporter.export("k", 2)
        assert exporter.pairs == [("k", 1), ("k", 2)]
