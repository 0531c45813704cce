"""BSP message transport through a *transport table* (paper Section IV-A).

    "BSP messages are transported in batches called spills.  Our
    prototype implementation uses a table, called the transport table,
    to move the spills between parts.  Each spill from part S to part D
    is written to the transport table with a new unique key that is
    constructed to be located in part D."

A spill key is ``(dest_part, step, src_part, seq)``; the transport
table's ``key_hash`` is the first element, so the store physically
places the spill at its destination.  A spill carries three kinds of
record:

*messages* (kind ``"m"``)
    an application message for a destination key;
*continues* (kind ``"c"``)
    a continue/enable signal — "the implementation of the continue
    signal transforms a positive one into a special kind of BSP
    message" — which enables a destination key without carrying data;
*creations* (kind ``"n"``)
    a created-state request ``(key, tab_idx, state)`` for a new
    component.

A spill's value is struct-of-arrays: ``(msg_keys, msg_payloads,
cont_keys, creates)``.  Message keys and payloads are two aligned
columns (a homogeneous numpy payload column packs into one typed
array), continue keys are one column, and creations are a list of
triples — no per-record tuple or kind tag reaches the pickle stream.
Columns written by the batch data plane stay typed numpy arrays.
Message order per destination is preserved (messages stay in send
order relative to each other), which is all the delivery contract
requires; continue and creation records carry no ordering semantics.

Spill transport is *pipelined*: a full buffer does not turn into a
blocking cross-partition put.  Completed buffers accumulate into
per-destination-part batches, each batch is dispatched asynchronously
(one marshalled request per touched part) behind a bounded in-flight
window, and :meth:`SpillWriter.flush_all` is the gather point that
joins every outstanding future — so the engine overlaps compute with
transport inside a part-step and still owns a durable commit point.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.kvstore.api import KVStore, Table, TableSpec
from repro.serde import (
    pack_payload_column,
    payload_column_array,
    unpack_payload_column,
)

MSG = "m"
CONT = "c"
CREATE = "n"

#: Source-part id used for records originating at the client (loaders).
CLIENT_SRC = -1


def is_spill(value: Any) -> bool:
    """Whether *value* has the spill format.  Older versions wrote a
    tagged 5-tuple or a list of record tuples; checkpoints may hold them."""
    return type(value) is tuple and len(value) == 4


def spill_record_count(value: tuple) -> int:
    """Number of records in a spill value."""
    msg_keys, _, cont_keys, creates = value
    return len(msg_keys) + len(cont_keys) + len(creates)


def _scalar_keys(keys: Any) -> Any:
    """A spill's key column with typed arrays lowered to Python scalars,
    so per-record readers see the key identity per-key writers use."""
    return keys.tolist() if isinstance(keys, np.ndarray) else keys


#: Integer columns spanning fewer values than this sort as ``uint16``.
_RADIX_SPAN = 1 << 16


def stable_order(column: np.ndarray) -> np.ndarray:
    """``np.argsort(column, kind="stable")``, on numpy's radix path
    when it can be.

    numpy's stable sort is a radix sort for integer dtypes of at most
    16 bits.  A wider integer column whose ``max - min`` fits in that
    span (part ids, PageRank group indices, the vertex ids of one part)
    is rebased to ``uint16`` first; rebasing preserves order, so the
    permutation is the one the plain stable argsort would give.
    """
    dtype = column.dtype
    if dtype.kind in "iu" and dtype.itemsize > 2 and len(column):
        lo = column.min()
        if int(column.max()) - int(lo) < _RADIX_SPAN:
            return np.argsort((column - lo).astype(np.uint16), kind="stable")
    return np.argsort(column, kind="stable")


def _spill_dest_part(key: tuple) -> int:
    """Transport-table key hash: a spill lives at its destination part.

    Module-level (not a lambda) so a transport table can be referenced
    from worker processes — the spec must pickle.
    """
    return key[0]


def create_transport_table(store: KVStore, name: str, n_parts: int) -> Table:
    """Create the private transport table for one job execution."""
    return store.create_table(
        TableSpec(name=name, n_parts=n_parts, key_hash=_spill_dest_part)
    )


def step_spills(view: Any, step: int) -> List[Tuple[tuple, Any]]:
    """One part's spills for *step*, in deterministic key order.

    A part's spills arrive concurrently from many source parts, so the
    view's insertion order — and with it per-destination message fold
    order — varies run to run.  Sorting the consumed keys (all-int
    ``(dest_part, step, src_part, seq)`` tuples, so the order is
    ``(src_part, seq)`` ascending) makes every collect path consume the
    same spills in the same order on every run, which is what lets the
    fault-recovery ablation demand byte-identical results across
    crash-free and crash-riddled executions.
    """
    matched = [(key, value) for key, value in view.items() if key[1] == step]
    matched.sort(key=lambda pair: pair[0])
    return matched


class _RecordBuffer:
    """One destination's per-record traffic, buffered as spill columns.

    Records land straight in the columns the sealed spill carries, so
    sealing is a pack of the payload column, not a pass over tuples.
    *combine_at* maps a destination key to the index of its buffered
    message payload, for sender-side combining.
    """

    __slots__ = ("msg_keys", "msg_payloads", "cont_keys", "creates", "combine_at", "count")

    def __init__(self) -> None:
        self.msg_keys: List[Any] = []
        self.msg_payloads: List[Any] = []
        self.cont_keys: List[Any] = []
        self.creates: List[Tuple[Any, int, Any]] = []
        self.combine_at: Dict[Any, int] = {}
        self.count = 0


#: Transport pipeline shape: at most this many spill dispatches in
#: flight per writer ...
SPILL_WINDOW = 8
#: ... each carrying up to this many sealed spills for one destination.
SPILL_COALESCE = 4


class SpillWriter:
    """Accumulates outgoing records per destination part and spills them.

    One SpillWriter serves one source part for one step.  Records are
    buffered per destination part; a buffer reaching *batch_size* is
    *sealed* into a spill — a unique transport key plus its columns.

    Sealed spills are not written with blocking puts.  They accumulate
    into per-destination batches of up to *spills_per_batch*, and each
    batch is dispatched with one asynchronous, once-marshalled request
    (``put_many_async``) while the producing computation keeps running.
    At most *max_in_flight* dispatches may be outstanding — the bounded
    window that keeps memory and queue depth in check — and
    :meth:`flush_all` is the gather point that seals, dispatches, and
    joins everything.

    When *hold* is set (fault-tolerant execution), nothing reaches the
    transport table until :meth:`flush_all` — the part-step's commit
    point — so a failed part-step leaks no messages; flush_all still
    dispatches the held batches concurrently, it just does all of the
    transport at the commit point.

    Per-(src, dest) FIFO: spills destined for one part are sealed with
    increasing ``seq`` and dispatched in seal order from one thread, and
    the partitioned store applies submissions to one part in submission
    order, so a concurrent reader never observes spill *k+1* without
    spill *k*.
    """

    def __init__(
        self,
        transport: Table,
        src_part: int,
        step: int,
        n_parts: int,
        part_of: Callable[[Any], int],
        batch_size: int = 512,
        hold: bool = False,
        on_spill: Optional[Callable[[int, int], None]] = None,
        combiner: Optional[Callable[[Any, Any], Any]] = None,
        max_in_flight: int = SPILL_WINDOW,
        spills_per_batch: int = SPILL_COALESCE,
        tracer: Any = None,
        part_of_many: Optional[Callable[[Any], Any]] = None,
        vector_combiner: Optional[Callable[[Any, Any], tuple]] = None,
    ):
        from repro.obs.trace import NULL_TRACER

        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._transport = transport
        self._src_part = src_part
        self._step = step
        self._n_parts = n_parts
        self._part_of = part_of
        self._part_of_many = part_of_many
        self._vector_combiner = vector_combiner
        self._batch_size = max(1, batch_size)
        self._hold = hold
        self._on_spill = on_spill
        self._combiner = combiner
        self._max_in_flight = max(1, max_in_flight)
        self._spills_per_batch = max(1, spills_per_batch)
        self._buffers: Dict[int, _RecordBuffer] = {}
        # columnar buffers (batch data plane): dest_part -> list of
        # (keys_array, payloads_array | None-for-continues) chunks
        self._col_buffers: Dict[int, List[tuple]] = {}
        self._col_counts: Dict[int, int] = {}
        # dest_key -> dest_part; destinations repeat heavily within a
        # part-step, and the hash behind part_of is the routing hot path
        self._dest_part_cache: Dict[Any, int] = {}
        # sealed spills awaiting dispatch: dest_part -> [(key, value)]
        self._ready: Dict[int, List[tuple]] = {}
        self._in_flight: Deque[Future] = deque()
        # The add methods serve one producer at a time: a caller feeding
        # one writer from several threads (the engine's loader context)
        # serializes its calls.  The lock guards seq assignment, the
        # ready batches and the in-flight window against flush/discard.
        self._lock = threading.Lock()
        self._seq = 0
        self.records_written = 0
        self.messages_added = 0
        self.continues_added = 0
        self.messages_combined = 0
        self.spills_sealed = 0
        self.batches_dispatched = 0
        self.in_flight_hwm = 0

    def add(self, record: tuple) -> None:
        """Buffer one ``(MSG, key, payload)``, ``(CONT, key)`` or
        ``(CREATE, key, tab_idx, state)`` record for its destination."""
        kind = record[0]
        if kind not in (MSG, CONT, CREATE):
            raise ValueError(f"unknown transport record kind {kind!r}")
        dest_key = record[1]
        dest_part = self._dest_part_cache.get(dest_key)
        if dest_part is None:
            dest_part = self._part_of(dest_key)
            self._dest_part_cache[dest_key] = dest_part
        buffer = self._buffers.get(dest_part)
        if buffer is None:
            buffer = self._buffers[dest_part] = _RecordBuffer()
        if kind == MSG:
            self.messages_added += 1
            payload = record[2]
            if self._combiner is not None:
                # sender-side combining: merge with the still-buffered
                # message for the same destination, when the combiner accepts
                at = buffer.combine_at.get(dest_key)
                if at is not None:
                    combined = self._combiner(buffer.msg_payloads[at], payload)
                    if combined is not None:
                        buffer.msg_payloads[at] = combined
                        self.messages_combined += 1
                        return
                buffer.combine_at[dest_key] = len(buffer.msg_payloads)
            buffer.msg_keys.append(dest_key)
            buffer.msg_payloads.append(payload)
        elif kind == CONT:
            self.continues_added += 1
            buffer.cont_keys.append(dest_key)
        else:
            buffer.creates.append((dest_key, record[2], record[3]))
        buffer.count += 1
        if not self._hold and buffer.count >= self._batch_size:
            with self._lock:
                self._seal(dest_part)
                self._dispatch_when_full(dest_part)

    # -- columnar (batch data plane) ------------------------------------

    def _route_parts(self, dest_keys: Any) -> "np.ndarray":
        """Destination part per key, vectorized when the table allows it."""
        if self._part_of_many is not None:
            return np.asarray(self._part_of_many(dest_keys), dtype=np.int64)
        part_of = self._part_of
        return np.fromiter(
            (part_of(k) for k in dest_keys), dtype=np.int64, count=len(dest_keys)
        )

    def add_message_batch(self, dest_keys: Any, payloads: Any) -> None:
        """Add one message per ``dest_keys[i]`` with payload ``payloads[i]``.

        Columns are routed to destination parts in one vectorized pass
        and buffered as array chunks; they seal directly into spills
        without ever materializing per-record tuples.  When a
        *vector_combiner* is installed, the column is pre-combined per
        destination key before routing (the batch analogue of
        sender-side combining).
        """
        dest_keys = np.asarray(dest_keys)
        n = len(dest_keys)
        if n == 0:
            return
        self.messages_added += n
        if self._vector_combiner is not None:
            dest_keys, payloads = self._vector_combiner(dest_keys, payloads)
            dest_keys = np.asarray(dest_keys)
            self.messages_combined += n - len(dest_keys)
        if not isinstance(payloads, np.ndarray):
            try:
                arr = np.asarray(payloads)
            except ValueError:  # ragged sequences refuse to stack
                arr = None
            if arr is None or arr.ndim != 1:
                # tuple/ragged payloads: keep element identity in an
                # object column instead of letting numpy reshape them
                arr = np.empty(len(payloads), dtype=object)
                arr[:] = payloads
            payloads = arr
        parts = self._route_parts(dest_keys)
        order = stable_order(parts)
        parts = parts[order]
        dest_keys = dest_keys[order]
        payloads = payloads[order]
        boundaries = np.flatnonzero(parts[1:] != parts[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(parts)]))
        for lo, hi in zip(starts, ends):
            self._add_column_chunk(
                int(parts[lo]), dest_keys[lo:hi], payloads[lo:hi]
            )

    def add_continue_batch(self, dest_keys: Any) -> None:
        """Add a continue/enable signal for every key in *dest_keys*."""
        dest_keys = np.asarray(dest_keys)
        n = len(dest_keys)
        if n == 0:
            return
        self.continues_added += n
        parts = self._route_parts(dest_keys)
        order = stable_order(parts)
        parts = parts[order]
        dest_keys = dest_keys[order]
        boundaries = np.flatnonzero(parts[1:] != parts[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(parts)]))
        for lo, hi in zip(starts, ends):
            self._add_column_chunk(int(parts[lo]), dest_keys[lo:hi], None)

    def _add_column_chunk(
        self, dest_part: int, keys: "np.ndarray", payloads: Optional[Any]
    ) -> None:
        self._col_buffers.setdefault(dest_part, []).append((keys, payloads))
        count = self._col_counts.get(dest_part, 0) + len(keys)
        self._col_counts[dest_part] = count
        if not self._hold and count >= self._batch_size:
            with self._lock:
                self._seal_columns(dest_part)
                self._dispatch_when_full(dest_part)

    def _seal_columns(self, dest_part: int) -> None:
        """Seal the columnar buffer for *dest_part* into a spill whose key
        and payload columns stay typed numpy arrays — readers lift them
        into batches directly (:func:`collect_step_columns`)."""
        chunks = self._col_buffers.pop(dest_part, None)
        count = self._col_counts.pop(dest_part, 0)
        if not chunks:
            return
        msg_key_chunks = [k for k, p in chunks if p is not None]
        payload_chunks = [p for _, p in chunks if p is not None]
        cont_chunks = [k for k, p in chunks if p is None]
        msg_keys: Any = (
            np.concatenate(msg_key_chunks) if msg_key_chunks else []
        )
        msg_payloads: Any = (
            np.concatenate(payload_chunks) if payload_chunks else []
        )
        cont_keys: Any = np.concatenate(cont_chunks) if cont_chunks else []
        if self._tracer.enabled:
            self._tracer.instant(
                "spill.seal_columns", cat="transport", dest=dest_part, records=count
            )
        self._stage_spill(dest_part, (msg_keys, msg_payloads, cont_keys, []), count)

    def _seal(self, dest_part: int) -> None:
        """Turn a record buffer into a spill ready for dispatch.

        Sealing retires the buffer's combiner index with the buffer:
        later messages for the same destinations start a fresh buffer
        and must not reach back into records already on their way out.
        """
        buffer = self._buffers.pop(dest_part, None)
        if buffer is None or not buffer.count:
            return
        if self._tracer.enabled:
            self._tracer.instant(
                "spill.seal", cat="transport", dest=dest_part, records=buffer.count
            )
        value = (
            buffer.msg_keys,
            pack_payload_column(buffer.msg_payloads),
            buffer.cont_keys,
            buffer.creates,
        )
        self._stage_spill(dest_part, value, buffer.count)

    def _stage_spill(self, dest_part: int, value: tuple, count: int) -> None:
        """Give a sealed spill its transport key and queue it for dispatch."""
        key = (dest_part, self._step, self._src_part, self._seq)
        self._seq += 1
        self._ready.setdefault(dest_part, []).append((key, value))
        self.spills_sealed += 1
        self.records_written += count
        if self._on_spill is not None:
            self._on_spill(dest_part, count)

    def _dispatch_when_full(self, dest_part: int) -> None:
        if len(self._ready.get(dest_part, ())) >= self._spills_per_batch:
            self._dispatch(dest_part)

    def _dispatch(self, dest_part: int) -> None:
        """Send one destination's sealed spills as a single batched request."""
        batch = self._ready.pop(dest_part, None)
        if not batch:
            return
        if self._tracer.enabled:
            self._tracer.instant(
                "spill.dispatch", cat="transport", dest=dest_part, spills=len(batch)
            )
        self.batches_dispatched += 1
        self._in_flight.extend(self._transport.put_many_async(batch))
        depth = len(self._in_flight)
        if depth > self.in_flight_hwm:
            self.in_flight_hwm = depth
        while len(self._in_flight) > self._max_in_flight:
            self._in_flight.popleft().result()

    def flush_all(self) -> None:
        """Seal and dispatch every remaining buffer, then join all
        outstanding transport futures (the commit point under *hold*)."""
        with self._tracer.span("spill.flush", cat="transport", src=self._src_part):
            with self._lock:
                for dest_part in list(self._buffers):
                    self._seal(dest_part)
                for dest_part in list(self._col_buffers):
                    self._seal_columns(dest_part)
                for dest_part in list(self._ready):
                    self._dispatch(dest_part)
                while self._in_flight:
                    self._in_flight.popleft().result()

    def discard(self) -> None:
        """Drop all buffered and sealed-but-undispatched records (failed
        part-step under *hold*); joins any spills already in flight."""
        with self._lock:
            self._buffers.clear()
            self._col_buffers.clear()
            self._col_counts.clear()
            for batch in self._ready.values():
                for _, value in batch:
                    self.records_written -= spill_record_count(value)
                    self.spills_sealed -= 1
            self._ready.clear()
            while self._in_flight:
                self._in_flight.popleft().result()


class CombiningBundle:
    """Messages destined for one component in one step.

    Applies the job's pairwise combiner opportunistically as messages
    accumulate ("the platform may combine some of them by one or more
    invocations at arbitrary times and places"): each arriving message
    is offered to the combiner against the most recent kept message; a
    ``None`` result declines the combine and keeps both.
    """

    __slots__ = ("messages", "enabled", "created")

    def __init__(self) -> None:
        self.messages: List[Any] = []
        self.enabled = False
        self.created: List[Tuple[int, Any]] = []

    def add_message(
        self, message: Any, combiner: Optional[Callable[[Any, Any], Any]]
    ) -> None:
        if combiner is not None and self.messages:
            combined = combiner(self.messages[-1], message)
            if combined is not None:
                self.messages[-1] = combined
                return
        self.messages.append(message)


#: Sentinel delivery payload for an enable without a message (a loader
#: may enable components even in a no-continue job).
NO_MESSAGE = object()


def scan_step_records_no_collect(
    view: Any, step: int
) -> Tuple[List[Tuple[Any, Any]], List[Tuple[Any, int, Any]], List[tuple]]:
    """The no-collect special case (one-msg ∧ no-continue, §II-A).

    With at most one message per destination and step and no continue
    signals, "Ripple does not collect together multiple messages for
    delivery" — no per-destination value lists are constructed; the
    records drive compute directly.  Returns (deliveries, creations,
    consumed transport keys), where deliveries is a list of
    (dest_key, message); the message is :data:`NO_MESSAGE` for a bare
    enable (only loaders produce those — compute cannot continue).
    """
    deliveries: List[Tuple[Any, Any]] = []
    creations: List[Tuple[Any, int, Any]] = []
    consumed: List[tuple] = []
    for key, (msg_keys, msg_payloads, cont_keys, creates) in step_spills(view, step):
        consumed.append(key)
        deliveries.extend(zip(_scalar_keys(msg_keys), msg_payloads))
        deliveries.extend((dest_key, NO_MESSAGE) for dest_key in _scalar_keys(cont_keys))
        creations.extend(creates)
    return deliveries, creations, consumed


class StepColumns:
    """One part's incoming traffic for a step, kept as columns.

    The batch collect path never explodes spills into per-record
    tuples: each spill contributes its key/payload columns as chunks.
    Creation records are rare (mutating jobs only) and stay a plain
    triple list.
    """

    __slots__ = (
        "msg_key_chunks",
        "msg_payload_chunks",
        "cont_key_chunks",
        "creates",
        "consumed",
    )

    def __init__(self) -> None:
        self.msg_key_chunks: List[np.ndarray] = []
        self.msg_payload_chunks: List[np.ndarray] = []
        self.cont_key_chunks: List[np.ndarray] = []
        self.creates: List[Tuple[Any, int, Any]] = []
        self.consumed: List[tuple] = []

    @property
    def n_messages(self) -> int:
        return sum(len(c) for c in self.msg_key_chunks)


def _object_column(values: Any) -> np.ndarray:
    """A 1-D object array preserving element identity exactly."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    arr = np.empty(len(values), dtype=object)
    arr[:] = values
    return arr


def _key_chunk_array(keys: Any) -> np.ndarray:
    """Lift a spill's key column to an array without changing identity.

    Typed arrays (written by the batch plane) pass through.  A key list
    of exact Python ``int`` values that fit in int64 (what loaders and
    per-key writers produce for integer keys) becomes an ``int64``
    column, so grouping sorts machine integers.  Anything else — bools,
    floats, numpy scalars, strings, tuples, out-of-range ints, or a mix
    — becomes an *object* array: letting numpy guess a dtype could
    silently promote mixed int/float keys and change how they hash for
    part routing.
    """
    if isinstance(keys, np.ndarray):
        if keys.dtype != object:
            return keys
        keys = keys.tolist()
    if all(type(k) is int for k in keys):
        try:
            return np.array(keys, dtype=np.int64)
        except OverflowError:
            pass
    return _object_column(keys)


def _concat_columns(chunks: List[np.ndarray]) -> np.ndarray:
    """Concatenate column chunks; mixed dtypes degrade to object.

    Empty chunks carry no keys, so their dtype does not count: an empty
    message column must not turn a step's int64 continue keys into
    objects.
    """
    chunks = [c for c in chunks if len(c)]
    if not chunks:
        return np.empty(0, dtype=object)
    if len(chunks) == 1:
        return chunks[0]
    first_dtype = chunks[0].dtype
    if first_dtype != object and all(c.dtype == first_dtype for c in chunks):
        return np.concatenate(chunks)
    return np.concatenate([_object_column(c) for c in chunks])


def collect_step_columns(view: Any, step: int) -> StepColumns:
    """Scan a transport-table part for *step*, keeping spills columnar.

    The batch analogue of :func:`collect_step_records`: no bundles, no
    per-record combiner offers — grouping and folding happen later in
    vectorized form (:func:`group_step_columns`).
    """
    cols = StepColumns()
    for key, (msg_keys, msg_payloads, cont_keys, creates) in step_spills(view, step):
        cols.consumed.append(key)
        if len(msg_keys):
            cols.msg_key_chunks.append(_key_chunk_array(msg_keys))
            arr = payload_column_array(msg_payloads)
            if arr is None:
                arr = _object_column(unpack_payload_column(msg_payloads))
            cols.msg_payload_chunks.append(arr)
        if len(cont_keys):
            cols.cont_key_chunks.append(_key_chunk_array(cont_keys))
        cols.creates.extend(creates)
    return cols


class MessageBatch:
    """The messages delivered to a batch of components, as columns.

    All payloads live in one array; component *i* of the batch owns
    ``payloads[offsets[i]:offsets[i+1]]``.  Batch computes consume the
    columns directly; ``__getitem__`` gives the per-component view for
    generic code and tests.
    """

    __slots__ = ("payloads", "offsets")

    def __init__(self, payloads: np.ndarray, offsets: np.ndarray):
        self.payloads = payloads
        self.offsets = offsets

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def counts(self) -> np.ndarray:
        """Messages per component (vectorized ``len`` of each slice)."""
        return np.diff(self.offsets)

    def payload_array(self) -> Optional[np.ndarray]:
        """The whole payload column when it is typed, else ``None``."""
        if self.payloads.dtype != object:
            return self.payloads
        return None

    def group_index(self) -> np.ndarray:
        """Component index per payload — ``payloads[j]`` belongs to
        component ``group_index()[j]`` of the batch."""
        return np.repeat(np.arange(len(self), dtype=np.int64), self.counts)

    def __getitem__(self, i: int) -> list:
        lo, hi = self.offsets[i], self.offsets[i + 1]
        return list(self.payloads[lo:hi])

    def __iter__(self) -> Iterator[list]:
        for i in range(len(self)):
            yield self[i]

    def slice(self, lo: int, hi: int) -> "MessageBatch":
        """The sub-batch covering components ``lo:hi``."""
        p_lo, p_hi = self.offsets[lo], self.offsets[hi]
        return MessageBatch(
            self.payloads[p_lo:p_hi], self.offsets[lo : hi + 1] - p_lo
        )


def group_step_columns(cols: StepColumns) -> Tuple[np.ndarray, MessageBatch]:
    """Group collected columns by destination key, ascending.

    Returns ``(keys, batch)``: *keys* holds each enabled destination
    key once, in ascending order, and *batch* is the aligned
    :class:`MessageBatch` (a zero-length slice for keys enabled only by
    a continue signal).  Message payloads keep arrival order within a
    destination.  Raises ``TypeError`` when keys are not mutually
    orderable — callers fall back to the per-key path.
    """
    msg_keys = _concat_columns(cols.msg_key_chunks)
    payloads = _concat_columns(cols.msg_payload_chunks)
    cont_keys = _concat_columns(cols.cont_key_chunks)
    n_msg = len(msg_keys)
    all_keys = (
        _concat_columns([msg_keys, cont_keys]) if len(cont_keys) else msg_keys
    )
    if len(all_keys) == 0:
        return (
            np.empty(0, dtype=object),
            MessageBatch(payloads, np.zeros(1, dtype=np.int64)),
        )
    order = stable_order(all_keys)
    sorted_keys = all_keys[order]
    starts = np.concatenate(
        ([0], np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1)
    )
    group_keys = sorted_keys[starts]
    is_msg = order < n_msg
    counts = np.add.reduceat(is_msg.astype(np.int64), starts)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    grouped_payloads = payloads[order[is_msg]]
    return group_keys, MessageBatch(grouped_payloads, offsets)


def collect_step_records(
    view: Any,
    step: int,
    combiner: Optional[Callable[[Any, Any], Any]],
) -> Tuple[Dict[Any, CombiningBundle], List[tuple]]:
    """Scan a transport-table part for records of *step*.

    Returns the per-destination bundles plus the list of consumed
    transport keys (deleted later, at the part-step commit point, so a
    failed part-step can be re-driven from the same spills).
    """
    bundles: Dict[Any, CombiningBundle] = {}
    consumed: List[tuple] = []

    def bundle_of(dest_key: Any) -> CombiningBundle:
        bundle = bundles.get(dest_key)
        if bundle is None:
            bundle = bundles[dest_key] = CombiningBundle()
        return bundle

    for key, (msg_keys, msg_payloads, cont_keys, creates) in step_spills(view, step):
        consumed.append(key)
        for dest_key, payload in zip(_scalar_keys(msg_keys), msg_payloads):
            bundle = bundles.get(dest_key)
            if bundle is None:
                bundle = bundles[dest_key] = CombiningBundle()
            bundle.add_message(payload, combiner)
            bundle.enabled = True
        for dest_key in _scalar_keys(cont_keys):
            bundle_of(dest_key).enabled = True
        for dest_key, tab_idx, state in creates:
            bundle_of(dest_key).created.append((tab_idx, state))
    return bundles, consumed
