"""Loaders and exporters as standalone pieces."""

from __future__ import annotations

import pickle

import pytest

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
from repro.kvstore.partitioned import PartitionedKVStore


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
