"""The key/value store SPI (System Programming Interface).

This is the narrow lower-layer interface from Section III-A of the
paper.  The K/V EBSP engine — and everything above it — is written
against these abstract classes only, which is what makes Ripple
portable across store implementations.

Concepts
--------

Tables
    Key/value data are organized into *tables*.  Each table is
    partitioned into *parts*, identified by successive integers starting
    at 0.  A table may be *ordered* (its per-part enumerations visit
    keys in sorted order) and/or *ubiquitous* (quick to read, limited
    size, expected to be fully replicated everywhere).

Co-partitioning
    A table can be created "like" another table, guaranteeing the two
    share a part count and key→part mapping, so that a computation
    touching both finds corresponding entries collocated.

Enumeration with consumers
    When enumerating parts, the client supplies a
    :class:`PartConsumer` whose results are pairwise combined; when
    enumerating pairs, a :class:`PairConsumer` with per-part setup and
    finalize hooks and an early-stop signal.  This inversion lets the
    store run the client code *where the data lives*.

Collocated compute ("mobile code")
    ``Table.run_collocated(part, fn)`` executes ``fn`` at the location
    holding that part.  Ripple moves placement of computation into the
    storage layer; this is the hook it uses.
"""

from __future__ import annotations

import abc
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, List, Optional

from repro.errors import BadTableSpecError
from repro.util.hashing import part_for_key


def completed_future(result: Any = None, exception: Optional[BaseException] = None) -> Future:
    """An already-resolved :class:`Future` (the synchronous-store default)."""
    future: Future = Future()
    if exception is not None:
        future.set_exception(exception)
    else:
        future.set_result(result)
    return future


@dataclass(frozen=True)
class TableSpec:
    """Description of a table to create.

    Parameters
    ----------
    name:
        Unique table name within the store.
    n_parts:
        Number of parts.  ``None`` asks the store to use its default.
        Must be ``None`` when ``like`` is given (the part count is
        inherited) and is forced to 1 for ubiquitous tables.
    ordered:
        If true, per-part enumeration visits keys in ascending order.
        Keys of an ordered table must be mutually comparable.
    ubiquitous:
        Declares the ubiquitous-table contract: small and quick to
        read from anywhere.  Implementations may bound the size
        (``ubiquity_limit``) and replicate the content everywhere.
    like:
        Name of an existing table this one must be partitioned
        consistently with (same part count, same key→part mapping).
    replication:
        Number of replicas per part *in addition to* the primary.
        Only stores that implement replication honor values > 0.
    key_hash:
        Optional override of the key→part hash, the client's lever for
        controlling placement.  Must be deterministic.
    ubiquity_limit:
        Maximum number of entries a ubiquitous table may hold.
    """

    name: str
    n_parts: Optional[int] = None
    ordered: bool = False
    ubiquitous: bool = False
    like: Optional[str] = None
    replication: int = 0
    key_hash: Optional[Callable[[Any], int]] = field(default=None, compare=False)
    ubiquity_limit: int = 100_000

    def validate(self) -> None:
        if not self.name:
            raise BadTableSpecError("table name must be non-empty")
        if self.n_parts is not None and self.n_parts <= 0:
            raise BadTableSpecError(f"n_parts must be positive, got {self.n_parts}")
        if self.like is not None and self.n_parts is not None:
            raise BadTableSpecError("give either n_parts or like=, not both")
        if self.ubiquitous and self.like is not None:
            raise BadTableSpecError("a ubiquitous table cannot be co-partitioned")
        if self.replication < 0:
            raise BadTableSpecError(f"replication must be >= 0, got {self.replication}")
        if self.ubiquity_limit <= 0:
            raise BadTableSpecError("ubiquity_limit must be positive")


class PartConsumer(abc.ABC):
    """Callback object for part enumeration (paper Section III-A).

    ``process_part`` runs once per part — collocated with the part when
    the store supports that — and ``combine`` merges two results.  The
    overall enumeration result is the combine-fold of all per-part
    results (``None`` if the table has no parts, which cannot happen
    for a valid table).
    """

    @abc.abstractmethod
    def process_part(self, part_index: int, part: "PartView") -> Any:
        """Process one part; return a partial result."""

    @abc.abstractmethod
    def combine(self, a: Any, b: Any) -> Any:
        """Combine two partial results; must be associative."""


class PairConsumer(abc.ABC):
    """Callback object for key/value pair enumeration.

    For each part the store calls ``setup_part`` once, then ``consume``
    for each pair (stopping that part early when it returns ``True``),
    then ``finish_part``, whose results are merged pairwise with
    ``combine``.
    """

    def setup_part(self, part_index: int) -> None:
        """Called once before the pairs of a part are consumed."""

    @abc.abstractmethod
    def consume(self, key: Any, value: Any) -> bool:
        """Consume one pair.  Return ``True`` to stop this part's enumeration."""

    def finish_part(self, part_index: int) -> Any:
        """Called once after a part's pairs; returns this part's result."""
        return None

    def combine(self, a: Any, b: Any) -> Any:
        """Combine two per-part results; must be associative."""
        if a is None:
            return b
        if b is None:
            return a
        raise NotImplementedError(
            "PairConsumer.combine must be overridden when finish_part returns results"
        )


class FnPartConsumer(PartConsumer):
    """Adapter building a :class:`PartConsumer` from two functions."""

    def __init__(self, process: Callable[[int, "PartView"], Any], combine: Callable[[Any, Any], Any]):
        self._process = process
        self._combine = combine

    def process_part(self, part_index: int, part: "PartView") -> Any:
        return self._process(part_index, part)

    def combine(self, a: Any, b: Any) -> Any:
        return self._combine(a, b)


class FnPairConsumer(PairConsumer):
    """Adapter building a :class:`PairConsumer` from a consume function.

    The supplied function may return ``None`` (meaning "continue"),
    which is friendlier than requiring an explicit ``False``.
    """

    def __init__(
        self,
        consume: Callable[[Any, Any], Any],
        setup: Optional[Callable[[int], None]] = None,
        finish: Optional[Callable[[int], Any]] = None,
        combine: Optional[Callable[[Any, Any], Any]] = None,
    ):
        self._consume = consume
        self._setup = setup
        self._finish = finish
        self._combine = combine

    def setup_part(self, part_index: int) -> None:
        if self._setup is not None:
            self._setup(part_index)

    def consume(self, key: Any, value: Any) -> bool:
        return bool(self._consume(key, value))

    def finish_part(self, part_index: int) -> Any:
        if self._finish is not None:
            return self._finish(part_index)
        return None

    def combine(self, a: Any, b: Any) -> Any:
        if self._combine is not None:
            return self._combine(a, b)
        return super().combine(a, b)


class PartView(abc.ABC):
    """Read/write access to a single part, handed to collocated code.

    A :class:`PartView` is only valid inside the callback it was handed
    to; stores are free to invalidate it afterwards.
    """

    @abc.abstractmethod
    def get(self, key: Any) -> Any:
        ...

    @abc.abstractmethod
    def put(self, key: Any, value: Any) -> None:
        ...

    @abc.abstractmethod
    def delete(self, key: Any) -> bool:
        ...

    @abc.abstractmethod
    def items(self) -> Iterator[tuple]:
        """Iterate (key, value) pairs; sorted by key iff the table is ordered."""

    @abc.abstractmethod
    def __len__(self) -> int:
        ...

    def keys(self) -> Iterator[Any]:
        for key, _ in self.items():
            yield key

    # Batch operations: a store applies one routed batch per part
    # through these.  The defaults loop over the point operations;
    # parts override them to hold a lock once or to bulk-update.
    def put_many(self, pairs: Iterable[tuple]) -> None:
        """Store every ``(key, value)`` pair, in order."""
        put = self.put
        for key, value in pairs:
            put(key, value)

    def delete_many(self, keys: Iterable[Any]) -> None:
        """Remove every key, in order."""
        delete = self.delete
        for key in keys:
            delete(key)

    def get_many(self, keys: Iterable[Any]) -> list:
        """The value (or ``None``) of every key, aligned with *keys*."""
        get = self.get
        return [get(key) for key in keys]

    def range_items(self, lo: Optional[Any] = None, hi: Optional[Any] = None) -> Iterator[tuple]:
        """Pairs with ``lo <= key < hi``; sorted iff the part is ordered.

        The default filters a full scan; ordered parts override with an
        index seek.
        """
        for key, value in self.items():
            if lo is not None and key < lo:
                continue
            if hi is not None and key >= hi:
                continue
            yield key, value


def _int_key_column(keys: Any) -> Any:
    """*keys* as an integer array when they route as plain ints, else ``None``.

    Only typed integer arrays and lists of exact ``int`` values that fit
    in int64 qualify: ``np.asarray`` would turn a mixed bool/int list
    into int64 and route ``True`` like ``1``.
    """
    import numpy as np

    if isinstance(keys, np.ndarray):
        return keys if keys.dtype.kind in "iu" else None
    if not all(type(key) is int for key in keys):
        return None
    try:
        return np.array(keys, dtype=np.int64)
    except OverflowError:
        return None


class Table(abc.ABC):
    """A partitioned key/value table (paper Section III-A).

    Keys and values are general objects.  ``get`` returns ``None`` for
    absent keys (``None`` is not a storable value, matching the paper's
    Java heritage); ``delete`` returns whether the key was present.
    """

    def __init__(self, spec: TableSpec, n_parts: int):
        self._spec = spec
        self._n_parts = n_parts
        self._mutation_epoch = 0

    @property
    def spec(self) -> TableSpec:
        return self._spec

    # -- mutation epochs ---------------------------------------------------
    #
    # Every store bumps the epoch from its table-level mutation entry
    # points (put/delete/clear and the bulk/async variants).  The
    # counter is deliberately coarse: it answers "has this table
    # possibly changed since epoch E?" — which is all the service
    # layer's result cache needs for invalidation — not "how many
    # records changed".  Increments are best-effort under concurrency
    # (a racing pair may collapse into one bump); what is guaranteed is
    # that a quiescent table's epoch is stable and any mutation between
    # two quiescent reads changes it.
    @property
    def mutation_epoch(self) -> int:
        """Monotone counter distinguishing table versions for caching."""
        return self._mutation_epoch

    def note_mutation(self) -> None:
        """Advance the mutation epoch (stores call this on write paths)."""
        self._mutation_epoch += 1

    @property
    def name(self) -> str:
        return self._spec.name

    @property
    def n_parts(self) -> int:
        return self._n_parts

    @property
    def ordered(self) -> bool:
        return self._spec.ordered

    @property
    def ubiquitous(self) -> bool:
        return self._spec.ubiquitous

    def part_of(self, key: Any) -> int:
        """Return the index of the part holding *key*."""
        if self._spec.key_hash is not None:
            return int(self._spec.key_hash(key)) % self._n_parts
        return part_for_key(key, self._n_parts)

    def part_of_many(self, keys: Any) -> "Any":
        """Part index per key, as an int64 array aligned with *keys*.

        The batch data plane routes whole key columns at once.  Typed
        integer arrays, and lists of exact ``int`` keys that fit in
        int64, vectorize under the default hash (the stable hash of an
        int is its low 32 bits); everything else — bools and numpy
        scalars included, which hash differently from ints — falls back
        to a per-key loop with identical results.
        """
        import numpy as np

        n = len(keys)
        if self._n_parts == 1:
            return np.zeros(n, dtype=np.int64)
        if self._spec.key_hash is None:
            arr = _int_key_column(keys)
            if arr is not None:
                hashes = arr.astype(np.uint64) & np.uint64(0xFFFFFFFF)
                return (hashes % np.uint64(self._n_parts)).astype(np.int64)
        part_of = self.part_of
        return np.fromiter((part_of(k) for k in keys), dtype=np.int64, count=n)

    # -- point operations ------------------------------------------------
    @abc.abstractmethod
    def get(self, key: Any) -> Any:
        """Return the value for *key*, or ``None`` when absent."""

    @abc.abstractmethod
    def put(self, key: Any, value: Any) -> None:
        """Associate *value* (not ``None``) with *key*."""

    @abc.abstractmethod
    def delete(self, key: Any) -> bool:
        """Remove *key*; return whether it was present."""

    def contains(self, key: Any) -> bool:
        return self.get(key) is not None

    # -- non-blocking point operations -------------------------------------
    #
    # The async variants return a :class:`concurrent.futures.Future` so
    # clients (notably the EBSP spill transport) can overlap computation
    # with cross-partition I/O and gather at a barrier.  Stores without a
    # concurrent substrate fall back to executing inline and returning an
    # already-resolved future — same semantics, no pipelining.
    def put_async(self, key: Any, value: Any) -> Future:
        """Non-blocking :meth:`put`; resolves to ``None`` when durable."""
        try:
            self.put(key, value)
        except BaseException as exc:
            return completed_future(exception=exc)
        return completed_future(None)

    def delete_async(self, key: Any) -> Future:
        """Non-blocking :meth:`delete`; resolves to the presence bool."""
        try:
            return completed_future(self.delete(key))
        except BaseException as exc:
            return completed_future(exception=exc)

    def _batch_span(self, op: str, items: Any) -> tuple:
        """``(items, span)`` for one batched RPC.

        When tracing is active the items are materialized (to count
        them) and a ``cat="store"`` span is returned for the caller to
        enter around the batch; when tracing is off the items pass
        through untouched and the span is the shared no-op.
        """
        from repro.obs.trace import NULL_SPAN, get_tracer

        tracer = get_tracer()
        if not tracer.enabled:
            return items, NULL_SPAN
        if not isinstance(items, (list, tuple)):
            items = list(items)
        return items, tracer.span(op, cat="store", table=self.name, records=len(items))

    # -- bulk operations (overridable for efficiency) ----------------------
    #
    # Stores that pay a per-operation routing or marshalling cost override
    # these to issue *one request per touched part*, dispatched
    # concurrently.  The contract: ``put_many(pairs)`` is equivalent to
    # (but may be much cheaper than) calling ``put`` per pair; partial
    # failure leaves a prefix-undefined state, exactly like a loop would.
    def put_many(self, pairs: Iterable[tuple]) -> None:
        """Store every (key, value) pair; batched per part where possible."""
        for future in self.put_many_async(pairs):
            future.result()

    def put_many_async(self, pairs: Iterable[tuple]) -> List[Future]:
        """Dispatch all puts without waiting; returns the futures to gather.

        Stores with per-part request routing override this to marshal each
        per-part batch once and dispatch all batches concurrently.
        """
        return [self.put_async(key, value) for key, value in pairs]

    def get_many(self, keys: Iterable[Any]) -> dict:
        """Look up many keys at once; one request per touched part when
        the store routes requests.  Absent keys map to ``None``."""
        return {key: self.get(key) for key in keys}

    def delete_many(self, keys: Iterable[Any]) -> None:
        """Remove every key; batched per part where possible."""
        for future in self.delete_many_async(keys):
            future.result()

    def delete_many_async(self, keys: Iterable[Any]) -> List[Future]:
        """Dispatch all deletes without waiting; returns the futures to
        gather.  Stores with per-part request routing override this to
        marshal each per-part batch once."""
        return [self.delete_async(key) for key in keys]

    # -- enumeration -------------------------------------------------------
    @abc.abstractmethod
    def enumerate_parts(self, consumer: PartConsumer, parts: Optional[Iterable[int]] = None) -> Any:
        """Run *consumer* over each part (or the given subset) and fold results."""

    @abc.abstractmethod
    def enumerate_pairs(self, consumer: PairConsumer, parts: Optional[Iterable[int]] = None) -> Any:
        """Run *consumer* over every pair of each part and fold per-part results."""

    # -- collocated compute -------------------------------------------------
    @abc.abstractmethod
    def run_collocated(self, part_index: int, fn: Callable[[int, PartView], Any]) -> Any:
        """Run mobile code *fn(part_index, part_view)* at *part_index*'s location."""

    def range_scan(self, lo: Optional[Any] = None, hi: Optional[Any] = None) -> list:
        """All (key, value) pairs with ``lo <= key < hi``, globally sorted.

        Requires an *ordered* table.  Each part seeks its sorted index
        (keys are hash-spread, so every part contributes a slice) and
        the per-part runs are merged client-side — the finer-grained
        access path the paper's key/value data model enables, versus a
        complete file scan.
        """
        import heapq

        from repro.errors import StoreError

        if not self.ordered:
            raise StoreError(
                f"range_scan requires an ordered table; {self.name!r} is not "
                "(create it with TableSpec(ordered=True))"
            )

        class _Range(PartConsumer):
            def process_part(self, part_index: int, part: "PartView") -> Any:
                return [list(part.range_items(lo, hi))]

            def combine(self, a: Any, b: Any) -> Any:
                return a + b

        runs = self.enumerate_parts(_Range()) or []
        return list(heapq.merge(*runs))

    # -- whole-table helpers -------------------------------------------------
    @abc.abstractmethod
    def size(self) -> int:
        """Total number of entries across all parts."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Remove all entries."""

    def items(self) -> list:
        """Materialize all (key, value) pairs.  Convenience for tests/tools."""
        out: list = []

        class _Collect(PairConsumer):
            def consume(self, key: Any, value: Any) -> bool:
                out.append((key, value))
                return False

        self.enumerate_pairs(_Collect())
        return out


class KVStore(abc.ABC):
    """A key/value store: a namespace of tables plus a compute substrate.

    Every implementation exposes its execution substrate as
    ``store.runtime`` (a :class:`~repro.runtime.WorkerRuntime`) and
    releases it in :meth:`close`.  Stores are context managers::

        with PartitionedKVStore(n_partitions=4) as store:
            ...

    so tests and benchmarks cannot leak worker threads.
    """

    @abc.abstractmethod
    def create_table(self, spec: TableSpec) -> Table:
        """Create a table; raises :class:`TableExistsError` on name clash."""

    @abc.abstractmethod
    def drop_table(self, name: str) -> None:
        """Drop a table; raises :class:`NoSuchTableError` when unknown."""

    @abc.abstractmethod
    def get_table(self, name: str) -> Table:
        """Look up an existing table by name."""

    @abc.abstractmethod
    def list_tables(self) -> list:
        """Names of all existing tables, sorted."""

    @property
    @abc.abstractmethod
    def default_n_parts(self) -> int:
        """Part count used when a :class:`TableSpec` does not give one."""

    def has_table(self, name: str) -> bool:
        return name in self.list_tables()

    def create_table_like(self, name: str, like: str, **kwargs: Any) -> Table:
        """Create a table consistently partitioned with table *like*."""
        return self.create_table(TableSpec(name=name, like=like, **kwargs))

    def get_or_create_table(self, spec: TableSpec) -> Table:
        if self.has_table(spec.name):
            return self.get_table(spec.name)
        return self.create_table(spec)

    def close(self) -> None:
        """Release resources (threads, files), draining pending work.
        Idempotent."""

    def __enter__(self) -> "KVStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
