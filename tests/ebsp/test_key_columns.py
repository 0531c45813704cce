"""Key lowering and routing on the columnar plane (property tests).

A spill's Python key list enters the batch plane as an ``int64`` column
only when every key is an exact ``int`` that fits in int64; anything
else stays an ``object`` column with element identity intact.  A
lowered column — or any key list, bools mixed with ints included — must
route to the same parts as its keys one by one, and
:func:`stable_order` must give exactly the permutation of
``np.argsort(kind="stable")`` whichever branch it takes.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ebsp.transport import _key_chunk_array, stable_order
from repro.kvstore.api import TableSpec
from repro.kvstore.local import LocalKVStore

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# the whole int64 range, with its edges and small values drawn often
int64_values = st.one_of(
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX]),
    st.integers(-1000, 1000),
)

# keys that must keep a list on the object path
non_int64_keys = st.one_of(
    st.sampled_from([True, False, 1.0, np.int64(1), np.uint64(1), "1", (1,)]),
    st.integers(min_value=2**63, max_value=2**70),
    st.integers(min_value=-(2**70), max_value=INT64_MIN - 1),
    st.floats(allow_nan=False),
    st.text(max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(int64_values, min_size=1, max_size=64), st.integers(1, 9))
def test_exact_int_keys_lower_to_int64_and_route_like_part_of(keys, n_parts):
    column = _key_chunk_array(keys)
    assert column.dtype == np.int64
    assert column.tolist() == keys
    with LocalKVStore() as store:
        table = store.create_table(TableSpec(name="t", n_parts=n_parts))
        assert table.part_of_many(column).tolist() == [table.part_of(k) for k in keys]


# keys numpy would coerce to one integer dtype although they route apart
bool_or_int_keys = st.one_of(
    st.booleans(),
    st.sampled_from([np.True_, np.False_]),
    int64_values,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(bool_or_int_keys, min_size=1, max_size=32), st.integers(1, 9))
def test_part_of_many_routes_mixed_bool_int_lists_like_part_of(keys, n_parts):
    # np.asarray([True, 2]) is an int64 array; True must still route as a bool
    with LocalKVStore() as store:
        table = store.create_table(TableSpec(name="t", n_parts=n_parts))
        assert table.part_of_many(keys).tolist() == [table.part_of(k) for k in keys]


def test_part_of_many_keeps_bools_apart_from_ints():
    with LocalKVStore() as store:
        table = store.create_table(TableSpec(name="t", n_parts=6))
        for keys in ([True, 2], [np.True_, 3], [False, True, 0, 1]):
            assert table.part_of_many(keys).tolist() == [table.part_of(k) for k in keys]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(int64_values, max_size=16),
    non_int64_keys,
    st.integers(min_value=0),
)
def test_lists_with_a_non_int64_key_stay_object(ints, odd, at):
    # a 1 sits beside the odd key, so True/1.0/np.int64(1) meet an equal int
    keys = [1, *ints]
    keys.insert(at % (len(keys) + 1), odd)
    column = _key_chunk_array(keys)
    assert column.dtype == object
    lowered = column.tolist()
    assert [type(k) for k in lowered] == [type(k) for k in keys]
    assert all(a is b for a, b in zip(lowered, keys))


def test_typed_columns_pass_through_unchanged():
    for column in (
        np.arange(4, dtype=np.int64),
        np.arange(4, dtype=np.uint64),
        np.linspace(0.0, 1.0, 4),
    ):
        assert _key_chunk_array(column) is column


# (dtype, lowest value, highest value) of the column's values
_BOUNDS = {
    np.int64: (INT64_MIN, INT64_MAX),
    np.uint64: (0, 2**64 - 1),
    np.int32: (-(2**31), 2**31 - 1),
}
# spans on both sides of the 65536-value radix cut-off
_SPANS = [0, 1, 255, 65_535, 65_536, 1 << 20, 1 << 40, None]


@st.composite
def integer_columns(draw):
    dtype = draw(st.sampled_from(sorted(_BOUNDS, key=lambda d: d.__name__)))
    lowest, highest = _BOUNDS[dtype]
    span = draw(st.sampled_from(_SPANS))
    if span is None or span >= highest - lowest:
        base, top = lowest, highest
    else:
        base = draw(st.integers(lowest, highest - span))
        top = base + span
    values = st.one_of(st.integers(base, top), st.sampled_from([base, top]))
    return draw(arrays(dtype, st.integers(0, 300), elements=values))


@settings(max_examples=300, deadline=None)
@given(integer_columns())
def test_stable_order_equals_stable_argsort(column):
    expected = np.argsort(column, kind="stable")
    assert np.array_equal(stable_order(column), expected)


def test_stable_order_takes_both_branches_on_negative_int64():
    radix = np.asarray([-5, -60_000, -5, -59_999, -60_000], dtype=np.int64)
    just_wide = np.asarray([-5, -65_541, -5, -65_540, -65_541], dtype=np.int64)
    full = np.asarray([3, INT64_MIN, 3, INT64_MAX, -1], dtype=np.int64)
    for column in (radix, just_wide, full):
        assert np.array_equal(
            stable_order(column), np.argsort(column, kind="stable")
        )
