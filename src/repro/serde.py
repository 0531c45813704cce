"""Serialization ("marshalling") used to model cross-partition traffic.

The paper's parallel debugging store emulates a distributed key/value
store inside one process: "Communication between emulated partitions
involves marshalling and un-marshalling, while local operations do not"
(Section V-A).  This module provides that marshalling, plus counters so
benchmarks and tests can observe how many bytes crossed partition
boundaries.
"""

from __future__ import annotations

import pickle
from typing import Any, Optional, Union

import numpy as np

from repro.obs.metrics import MetricsRegistry


class SerdeStats:
    """Counters for marshalling activity, safe to read concurrently.

    A facade over a :class:`~repro.obs.MetricsRegistry`: the five
    historical fields stay readable as properties and ``snapshot()``
    keeps its exact key set, while the underlying counters live in the
    registry under ``serde.*`` names (with units) alongside everything
    else the store records.
    """

    __slots__ = (
        "registry",
        "_marshalled_objects",
        "_marshalled_bytes",
        "_unmarshalled_objects",
        "_batched_requests",
        "_batched_records",
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._marshalled_objects = self.registry.counter("serde.marshalled_objects")
        self._marshalled_bytes = self.registry.counter(
            "serde.marshalled_bytes", unit="bytes"
        )
        self._unmarshalled_objects = self.registry.counter("serde.unmarshalled_objects")
        # Cross-partition requests that carried a whole per-part batch
        # (put_many / get_many / pipelined spill flushes) and the records
        # they amortized — one marshalled request covering many operations.
        self._batched_requests = self.registry.counter("serde.batched_requests")
        self._batched_records = self.registry.counter("serde.batched_records")

    @property
    def marshalled_objects(self) -> int:
        return self._marshalled_objects.value()

    @property
    def marshalled_bytes(self) -> int:
        return self._marshalled_bytes.value()

    @property
    def unmarshalled_objects(self) -> int:
        return self._unmarshalled_objects.value()

    @property
    def batched_requests(self) -> int:
        return self._batched_requests.value()

    @property
    def batched_records(self) -> int:
        return self._batched_records.value()

    def record_marshal(self, nbytes: int) -> None:
        self._marshalled_objects.add(1)
        self._marshalled_bytes.add(nbytes)

    def record_unmarshal(self) -> None:
        self._unmarshalled_objects.add(1)

    def record_batch(self, n_records: int) -> None:
        self._batched_requests.add(1)
        self._batched_records.add(n_records)

    def reset(self) -> None:
        self._marshalled_objects.reset()
        self._marshalled_bytes.reset()
        self._unmarshalled_objects.reset()
        self._batched_requests.reset()
        self._batched_records.reset()

    def snapshot(self) -> dict:
        return {
            "marshalled_objects": self._marshalled_objects.value(),
            "marshalled_bytes": self._marshalled_bytes.value(),
            "unmarshalled_objects": self._unmarshalled_objects.value(),
            "batched_requests": self._batched_requests.value(),
            "batched_records": self._batched_records.value(),
        }


class Codec:
    """A pickle-based codec with optional statistics collection.

    Stores use one codec per store so that benchmarks can attribute
    marshalling costs to a particular store instance.
    """

    def __init__(self, stats: SerdeStats | None = None, protocol: int = pickle.HIGHEST_PROTOCOL):
        self.stats = stats if stats is not None else SerdeStats()
        self._protocol = protocol

    def dumps(self, obj: Any) -> bytes:
        data = pickle.dumps(obj, protocol=self._protocol)
        self.stats.record_marshal(len(data))
        return data

    def loads(self, data: bytes) -> Any:
        obj = pickle.loads(data)
        self.stats.record_unmarshal()
        return obj

    def roundtrip(self, obj: Any) -> Any:
        """Marshal and immediately unmarshal *obj*.

        This is what a cross-partition operation does to its arguments
        and results: the object that arrives on the far side is a copy,
        never an alias, exactly as it would be over a real network.
        """
        return self.loads(self.dumps(obj))


# -- columnar message payloads -------------------------------------------------
#
# A spill stores its message payloads as one column.  When every
# payload is a numpy scalar (or every payload is a numpy array of one
# dtype and shape), the column packs into a single typed ndarray — one
# pickle opcode stream for the whole column instead of one ~60-byte
# reduce record per element — and unpacking restores the original
# numpy types exactly.  Python objects (arbitrary ints, tuples,
# strings, ...) never pack: a Python int can exceed int64, so packing
# it would be silently lossy.


def pack_payload_column(payloads: Union[list, "np.ndarray"]) -> Any:
    """Pack a message-payload column for marshalling.

    Returns a typed ``ndarray`` (1-D for scalar payloads, 2-D with one
    row per array payload) when the column is homogeneous numpy data,
    else the input unchanged.  ``unpack_payload_column`` inverts this,
    preserving dtypes.
    """
    if isinstance(payloads, np.ndarray):
        return payloads
    if not payloads:
        return payloads
    first = payloads[0]
    if isinstance(first, np.generic) and not isinstance(first, np.object_):
        dtype = first.dtype
        if all(
            isinstance(p, np.generic) and p.dtype == dtype for p in payloads
        ):
            return np.asarray(payloads, dtype=dtype)
        return payloads
    if isinstance(first, np.ndarray) and first.dtype != object:
        dtype, shape = first.dtype, first.shape
        if len(shape) == 1 and all(
            isinstance(p, np.ndarray) and p.dtype == dtype and p.shape == shape
            for p in payloads
        ):
            return np.stack(payloads)
        return payloads
    return payloads


def unpack_payload_column(packed: Any) -> list:
    """Invert :func:`pack_payload_column` to per-record payloads.

    A 1-D array yields its numpy scalars; a 2-D array yields its rows
    (each an ``ndarray`` of the packed dtype); a list passes through.
    """
    return list(packed)


def payload_column_array(packed: Any) -> Optional["np.ndarray"]:
    """The packed column as a 1-D scalar ndarray, or ``None``.

    The batch data plane uses this to lift a spill's payloads straight
    into vectorized compute without touching individual elements.
    """
    if isinstance(packed, np.ndarray) and packed.ndim == 1 and packed.dtype != object:
        return packed
    return None


#: A shared codec for callers that do not care about attribution.
DEFAULT_CODEC = Codec()


def deep_copy_via_marshal(obj: Any) -> Any:
    """Copy *obj* the way the network would: by marshalling it."""
    return DEFAULT_CODEC.roundtrip(obj)
