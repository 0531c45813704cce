"""Spill transport through the transport table (paper §IV-A)."""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ebsp.transport import (
    CLIENT_SRC,
    CONT,
    CREATE,
    MSG,
    CombiningBundle,
    SpillWriter,
    collect_step_records,
    create_transport_table,
    spill_record_count,
)
from repro.kvstore.local import LocalKVStore
from repro.kvstore.partitioned import PartitionedKVStore
from repro.util.hashing import part_for_key


@pytest.fixture
def setup():
    store = LocalKVStore(default_n_parts=4)
    transport = create_transport_table(store, "xport", 4)
    yield store, transport
    store.close()


def part_of(key):
    return part_for_key(key, 4)


def records_of(value):
    """A sealed spill's records as tuples, messages first."""
    msg_keys, msg_payloads, cont_keys, creates = value
    return (
        [(MSG, k, p) for k, p in zip(msg_keys, msg_payloads)]
        + [(CONT, k) for k in cont_keys]
        + [(CREATE, k, tab_idx, state) for k, tab_idx, state in creates]
    )


class TestSpillWriter:
    def test_spill_lands_in_destination_part(self, setup):
        store, transport = setup
        writer = SpillWriter(transport, src_part=0, step=1, n_parts=4, part_of=part_of)
        writer.add((MSG, 3, "hello"))  # int key 3 → part 3
        writer.flush_all()
        keys = [k for k, _ in transport.items()]
        assert len(keys) == 1
        dest_part, step, src_part, seq = keys[0]
        assert dest_part == 3 and step == 1 and src_part == 0
        assert transport.part_of(keys[0]) == 3

    def test_batching_by_size(self, setup):
        store, transport = setup
        writer = SpillWriter(
            transport,
            src_part=0,
            step=0,
            n_parts=4,
            part_of=part_of,
            batch_size=3,
            spills_per_batch=1,
        )
        for i in range(7):
            writer.add((MSG, 4, i))  # all to part 0
        # two full batches spilled eagerly, one partial still buffered
        assert len(transport.items()) == 2
        writer.flush_all()
        assert len(transport.items()) == 3
        assert writer.records_written == 7

    def test_hold_defers_everything(self, setup):
        store, transport = setup
        writer = SpillWriter(
            transport, src_part=0, step=0, n_parts=4, part_of=part_of, batch_size=1, hold=True
        )
        for i in range(5):
            writer.add((MSG, 0, i))
        assert transport.items() == []
        writer.flush_all()
        assert writer.records_written == 5

    def test_discard_drops_buffers(self, setup):
        store, transport = setup
        writer = SpillWriter(
            transport, src_part=0, step=0, n_parts=4, part_of=part_of, hold=True
        )
        writer.add((MSG, 0, "gone"))
        writer.discard()
        writer.flush_all()
        assert transport.items() == []
        assert writer.records_written == 0

    def test_kind_counts(self, setup):
        store, transport = setup
        writer = SpillWriter(transport, src_part=0, step=0, n_parts=4, part_of=part_of)
        writer.add((MSG, 0, "m"))
        writer.add((MSG, 1, "m"))
        writer.add((CONT, 2))
        writer.flush_all()
        assert writer.messages_added == 2
        assert writer.continues_added == 1

    def test_on_spill_callback(self, setup):
        store, transport = setup
        spilled = []
        writer = SpillWriter(
            transport,
            src_part=1,
            step=2,
            n_parts=4,
            part_of=part_of,
            on_spill=lambda part, n: spilled.append((part, n)),
        )
        writer.add((MSG, 0, "x"))
        writer.add((MSG, 0, "y"))
        writer.flush_all()
        assert spilled == [(0, 2)]


class TestPipelinedTransport:
    """The asynchronous, batched spill path added for pipelined transport."""

    def test_combining_stops_at_spill_boundary(self, setup):
        store, transport = setup
        writer = SpillWriter(
            transport,
            src_part=0,
            step=0,
            n_parts=4,
            part_of=part_of,
            batch_size=2,
            combiner=lambda a, b: a + b,
        )
        writer.add((MSG, 4, 1))
        writer.add((MSG, 4, 2))  # combines in place; buffer stays at 1
        writer.add((MSG, 8, 3))  # fills the buffer → sealed
        writer.add((MSG, 4, 10))  # fresh buffer: must NOT merge into the sealed spill
        writer.flush_all()
        spills = sorted(transport.items(), key=lambda kv: kv[0][3])
        assert [records_of(value) for _, value in spills] == [
            [(MSG, 4, 3), (MSG, 8, 3)],
            [(MSG, 4, 10)],
        ]
        assert writer.messages_combined == 1

    def test_hold_leaks_nothing_before_flush(self, tmp_path):
        store = PartitionedKVStore(n_partitions=4)
        try:
            transport = create_transport_table(store, "xport", 4)
            writer = SpillWriter(
                transport,
                src_part=0,
                step=0,
                n_parts=4,
                part_of=part_of,
                batch_size=1,
                hold=True,
                spills_per_batch=4,
            )
            for i in range(12):
                writer.add((MSG, i, "payload"))
            assert transport.items() == []  # nothing before the commit point
            writer.flush_all()
            # held buffers seal once per destination part at the commit point
            assert len(transport.items()) == 4
            assert sum(spill_record_count(v) for _, v in transport.items()) == 12
            assert writer.records_written == 12
        finally:
            store.close()

    def test_discard_after_partial_spills(self, setup):
        store, transport = setup
        writer = SpillWriter(
            transport,
            src_part=0,
            step=0,
            n_parts=4,
            part_of=part_of,
            batch_size=2,
            spills_per_batch=1,
        )
        writer.add((MSG, 4, "a"))
        writer.add((MSG, 4, "b"))  # sealed and dispatched (spills_per_batch=1)
        writer.add((MSG, 4, "c"))  # still buffered
        writer.discard()
        # the dispatched spill is already out — matching the eager
        # pre-pipeline semantics — but the buffered record is gone
        assert [records_of(value) for _, value in transport.items()] == [
            [(MSG, 4, "a"), (MSG, 4, "b")]
        ]
        assert writer.records_written == 2
        writer.flush_all()
        assert len(transport.items()) == 1

    def test_discard_drops_sealed_but_undispatched(self, setup):
        store, transport = setup
        writer = SpillWriter(
            transport,
            src_part=0,
            step=0,
            n_parts=4,
            part_of=part_of,
            batch_size=1,
            spills_per_batch=8,
        )
        writer.add((MSG, 4, "x"))  # sealed into the ready batch, not dispatched
        writer.add((MSG, 4, "y"))
        writer.discard()
        assert transport.items() == []
        assert writer.records_written == 0
        assert writer.spills_sealed == 0

    def test_fifo_per_src_dest_on_partitioned_store(self, tmp_path):
        store = PartitionedKVStore(n_partitions=4)
        try:
            transport = create_transport_table(store, "xport", 4)
            writer = SpillWriter(
                transport,
                src_part=2,
                step=1,
                n_parts=4,
                part_of=part_of,
                batch_size=1,
                max_in_flight=3,
                spills_per_batch=2,
            )
            for i in range(40):
                writer.add((MSG, 4, i))  # every record → part 0, one spill each
            writer.flush_all()
            spills = sorted(transport.items(), key=lambda kv: kv[0][3])
            # contiguous sequence numbers, records in add() order
            assert [key[3] for key, _ in spills] == list(range(40))
            assert [records_of(value)[0][2] for _, value in spills] == list(range(40))
        finally:
            store.close()

    def test_coalescing_reduces_dispatches(self, setup):
        store, transport = setup
        writer = SpillWriter(
            transport,
            src_part=0,
            step=0,
            n_parts=4,
            part_of=part_of,
            batch_size=1,
            spills_per_batch=4,
        )
        for i in range(16):
            writer.add((MSG, 4, i))
        writer.flush_all()
        assert writer.spills_sealed == 16
        assert writer.batches_dispatched == 4  # 4 spills per marshalled request
        assert len(transport.items()) == 16

    def test_in_flight_window_is_bounded(self):
        """With a slow table the writer must block once the window fills."""

        class _SlowTable:
            def __init__(self):
                self.data = {}
                self.pending = []
                self.max_pending = 0
                self._lock = threading.Lock()
                self._stop = False
                self._thread = threading.Thread(target=self._drain, daemon=True)
                self._thread.start()

            def put_many_async(self, pairs):
                futures = []
                with self._lock:
                    for key, records in pairs:
                        future = Future()
                        self.pending.append((key, records, future))
                        futures.append(future)
                    self.max_pending = max(self.max_pending, len(self.pending))
                return futures

            def _drain(self):
                while not self._stop:
                    with self._lock:
                        item = self.pending.pop(0) if self.pending else None
                        self.max_pending = max(self.max_pending, len(self.pending) + (1 if item else 0))
                    if item is None:
                        time.sleep(0.001)
                        continue
                    time.sleep(0.002)  # simulate transport latency
                    key, records, future = item
                    self.data[key] = records
                    future.set_result(None)

            def stop(self):
                self._stop = True
                self._thread.join()

        table = _SlowTable()
        try:
            writer = SpillWriter(
                table,  # type: ignore[arg-type]
                src_part=0,
                step=0,
                n_parts=4,
                part_of=part_of,
                batch_size=1,
                max_in_flight=3,
                spills_per_batch=1,
            )
            for i in range(20):
                writer.add((MSG, 4, i))
            writer.flush_all()
        finally:
            table.stop()
        assert len(table.data) == 20
        # window of 3 plus the one batch just dispatched
        assert writer.in_flight_hwm <= 4
        assert table.max_pending <= 4


def _collect_all(transport, combiner):
    """Every part's bundles for step 0, merged (parts hold disjoint keys)."""
    bundles = {}
    for part in range(4):
        found, _ = collect_step_records(transport._parts[part], 0, combiner)
        bundles.update(found)
    return {
        key: (b.messages, b.enabled, b.created) for key, b in bundles.items()
    }


_record = st.one_of(
    st.tuples(st.just(MSG), st.integers(0, 11), st.integers(-50, 50)),
    st.tuples(st.just(CONT), st.integers(0, 11)),
    st.tuples(
        st.just(CREATE), st.integers(0, 11), st.integers(0, 1), st.integers(0, 9)
    ),
)


def _add(a, b):
    return a + b


class TestCompactCodec:
    """The compact (struct-of-arrays) spill, the one spill format:
    ``(msg_keys, msg_payloads, cont_keys, creates)`` columns, filled by
    ``SpillWriter.add`` as records arrive."""

    @settings(max_examples=60, deadline=None)
    @given(
        records=st.lists(_record, max_size=40),
        batch_size=st.integers(1, 6),
        combine=st.booleans(),
    )
    def test_roundtrip_preserves_records(self, records, batch_size, combine):
        """Random record sequences, sealed at random boundaries and
        optionally combined sender-side, collect to the same bundles and
        per-destination message order as the records sent one by one."""
        combiner = _add if combine else None
        expected = {}
        for record in records:
            messages, enabled, created = expected.setdefault(
                record[1], ([], False, [])
            )
            if record[0] == MSG:
                messages.append(record[2])
            elif record[0] == CREATE:
                created.append((record[2], record[3]))
            if record[0] != CREATE:
                expected[record[1]] = (messages, True, created)
        if combine:
            expected = {
                key: ([sum(messages)] if messages else [], enabled, created)
                for key, (messages, enabled, created) in expected.items()
            }
        for size in (batch_size, 1):
            with LocalKVStore(default_n_parts=4) as store:
                transport = create_transport_table(store, "xport", 4)
                writer = SpillWriter(
                    transport,
                    src_part=0,
                    step=0,
                    n_parts=4,
                    part_of=part_of,
                    batch_size=size,
                    combiner=combiner,
                )
                for record in records:
                    writer.add(record)
                writer.flush_all()
                sealed = sum(spill_record_count(v) for _, v in transport.items())
                assert sealed == writer.records_written
                assert sealed == len(records) - writer.messages_combined
                assert _collect_all(transport, combiner) == expected

    def test_unknown_kind_rejected(self, setup):
        store, transport = setup
        writer = SpillWriter(transport, src_part=0, step=0, n_parts=4, part_of=part_of)
        with pytest.raises(ValueError, match="unknown transport record kind"):
            writer.add(("?", 0))
        writer.flush_all()
        assert transport.items() == []
        assert writer.records_written == 0

    def test_compact_writer_spills_are_collectable(self, setup):
        store, transport = setup
        writer = SpillWriter(transport, src_part=0, step=0, n_parts=4, part_of=part_of)
        writer.add((MSG, 0, "m"))
        writer.add((CONT, 4))
        writer.add((CREATE, 8, 0, "state"))
        writer.flush_all()
        ((_, value),) = transport.items()  # keys 0, 4, 8 all live in part 0
        assert value == ([0], ["m"], [4], [(8, 0, "state")])
        view = transport._parts[0]
        bundles, _ = collect_step_records(view, 0, None)
        assert bundles[0].messages == ["m"] and bundles[0].enabled
        assert bundles[4].enabled and bundles[4].messages == []
        assert bundles[8].created == [(0, "state")]

    def test_discard_accounts_sealed_spills(self, setup):
        store, transport = setup
        writer = SpillWriter(
            transport,
            src_part=0,
            step=0,
            n_parts=4,
            part_of=part_of,
            batch_size=2,
            spills_per_batch=8,
        )
        writer.add((MSG, 4, "x"))
        writer.add((CONT, 4))  # seals a two-record spill, not dispatched
        writer.add_message_batch(np.asarray([0, 8]), np.asarray([1.0, 2.0]))
        writer.add((CREATE, 12, 0, "s"))  # still buffered
        assert writer.spills_sealed == 2 and writer.records_written == 4
        writer.discard()
        assert transport.items() == []
        assert writer.records_written == 0
        assert writer.spills_sealed == 0
        writer.flush_all()
        assert transport.items() == []


class TestCollect:
    def _write(self, transport, step, records, src=0):
        writer = SpillWriter(transport, src_part=src, step=step, n_parts=4, part_of=part_of)
        for record in records:
            writer.add(record)
        writer.flush_all()

    def test_only_requested_step_collected(self, setup):
        store, transport = setup
        self._write(transport, 1, [(MSG, 0, "now")])
        self._write(transport, 2, [(MSG, 0, "later")])
        view = transport._parts[0]  # LocalTable internals are fine in tests
        bundles, consumed = collect_step_records(view, 1, None)
        assert list(bundles[0].messages) == ["now"]
        assert len(consumed) == 1

    def test_messages_enable_continue_enables(self, setup):
        store, transport = setup
        self._write(transport, 0, [(MSG, 0, "m"), (CONT, 4)])
        view = transport._parts[0]
        bundles, _ = collect_step_records(view, 0, None)
        assert bundles[0].enabled
        assert bundles[4].enabled and bundles[4].messages == []

    def test_creations_do_not_enable(self, setup):
        store, transport = setup
        self._write(transport, 0, [(CREATE, 0, 0, "state")])
        view = transport._parts[0]
        bundles, _ = collect_step_records(view, 0, None)
        assert not bundles[0].enabled
        assert bundles[0].created == [(0, "state")]


class TestCombiningBundle:
    def test_combiner_applied_pairwise(self):
        bundle = CombiningBundle()
        for value in [1, 2, 3]:
            bundle.add_message(value, lambda a, b: a + b)
        assert bundle.messages == [6]

    def test_decline_keeps_both(self):
        bundle = CombiningBundle()
        bundle.add_message("a", lambda a, b: None)
        bundle.add_message("b", lambda a, b: None)
        assert bundle.messages == ["a", "b"]

    def test_partial_decline(self):
        # combine only equal-parity ints
        def combiner(a, b):
            return a + b if (a % 2) == (b % 2) else None

        bundle = CombiningBundle()
        for value in [2, 4, 3]:
            bundle.add_message(value, combiner)
        assert bundle.messages == [6, 3]

    def test_no_combiner(self):
        bundle = CombiningBundle()
        bundle.add_message(1, None)
        bundle.add_message(2, None)
        assert bundle.messages == [1, 2]
