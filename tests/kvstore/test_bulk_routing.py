"""Bulk operations route every key to ``part_of(key)`` (property tests).

``put_many``/``get_many``/``delete_many`` group their keys per part in
one routing pass that hashes exact ints inline and everything else
through ``stable_hash``.  Whatever the key mix — negative ints, ints
past int64, bools, numpy ints, strings, tuples, floats — each key must
land in the part :meth:`Table.part_of` names, ``get_many`` must read
back what was put, and on a crash-tolerant process store each parent
mirror must equal its resident part, insertion order included.  The
same holds when the operations run inside a shipped task, where the
table is a worker-side ``_ChildTable``.
"""

from __future__ import annotations

import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.api import PartConsumer, TableSpec
from repro.kvstore.partitioned import PartitionedKVStore
from repro.runtime import shippable

N_PARTS = 5

keys = st.one_of(
    st.integers(-(2**40), -1),
    st.integers(0, 1000),
    st.integers(2**63, 2**70),
    st.booleans(),
    st.integers(-1000, 1000).map(np.int64),
    st.text(max_size=4),
    st.tuples(st.integers(0, 9), st.text(max_size=2)),
    st.floats(allow_nan=False, allow_infinity=False),
)

# distinct under Python equality: True == 1 == 1.0 == np.int64(1) would
# collide in a part's dict while routing to different parts
key_lists = st.lists(keys, max_size=40).map(lambda ks: list(dict.fromkeys(ks)))

_names = itertools.count()


class _PartItems(PartConsumer):
    """``[(part, items)]`` for every part, in part order."""

    def process_part(self, part_index, part):
        return [(part_index, list(part.items()))]

    def combine(self, a, b):
        return a + b


@shippable
def _bulk_ops(table, pairs, doomed):
    table.put_many(pairs)
    got = table.get_many([key for key, _ in pairs])
    table.delete_many(doomed)
    return got


@pytest.fixture(scope="module", params=["threaded", "process", "process-crash-tolerant"])
def store(request):
    runtime = "threaded" if request.param == "threaded" else "process"
    with PartitionedKVStore(
        n_partitions=2,
        runtime=runtime,
        crash_tolerance=request.param == "process-crash-tolerant",
    ) as store:
        yield store


def _check_bulk(store, key_list, in_worker):
    table = store.create_table(TableSpec(name=f"t{next(_names)}", n_parts=N_PARTS))
    try:
        pairs = [(key, index) for index, key in enumerate(key_list)]
        doomed = key_list[::3]
        if in_worker:
            got = store.runtime.submit(0, _bulk_ops, table, pairs, doomed).result()
        else:
            got = _bulk_ops(table, pairs, doomed)
        assert got == dict(pairs)

        gone = set(doomed)
        kept = [(key, value) for key, value in pairs if key not in gone]
        expected = {part: [] for part in range(N_PARTS)}
        for key, value in kept:
            expected[table.part_of(key)].append((key, value))
        resident = dict(table.enumerate_parts(_PartItems()))
        assert resident == expected
        for part, items in resident.items():
            assert [type(k) for k, _ in items] == [type(k) for k, _ in expected[part]]

        assert table.get_many(key_list) == {
            key: (None if key in gone else value) for key, value in pairs
        }
        if store.crash_tolerance:
            for part in range(N_PARTS):
                mirror = store._mirrors.get((table._uid, part), {})
                assert list(mirror.items()) == resident[part]
    finally:
        store.drop_table(table.name)


@settings(max_examples=25, deadline=None)
@given(key_lists)
def test_bulk_ops_route_by_part_of_and_round_trip(store, key_list):
    _check_bulk(store, key_list, in_worker=False)


@pytest.mark.parametrize("store", ["process", "process-crash-tolerant"], indirect=True)
@settings(max_examples=25, deadline=None)
@given(key_lists)
def test_bulk_ops_inside_a_shipped_task(store, key_list):
    _check_bulk(store, key_list, in_worker=True)


def test_batches_and_collocated_writers_lose_no_write():
    """Short-lane batches and long-lane point writes share each part's lock."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with PartitionedKVStore(n_partitions=2) as store:
            table = store.create_table(TableSpec(name="t", n_parts=N_PARTS))

            def batch_writer(base):
                for start in range(0, 400, 40):
                    table.put_many((base + i, i) for i in range(start, start + 40))

            def collocated_writer(part):
                def write(part_index, view):
                    for i in range(400):  # keys that route to part_index
                        view.put(part_index + N_PARTS * (100_000 + i), i)

                table.run_collocated(part, write)

            threads = [
                threading.Thread(target=batch_writer, args=(b * 10_000,)) for b in range(6)
            ] + [threading.Thread(target=collocated_writer, args=(p,)) for p in range(N_PARTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert table.size() == 6 * 400 + N_PARTS * 400
            assert table.get_many([b * 10_000 + 399 for b in range(6)]) == {
                b * 10_000 + 399: 399 for b in range(6)
            }
    finally:
        sys.setswitchinterval(interval)
