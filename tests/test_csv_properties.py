"""Property: a CSV float column is the per-value ``repr`` (``NA`` for NaN) of
every cell, whatever the bit patterns and however often they repeat."""

import math

import numpy as np
import pytest

from pompkit import dataio

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PROPERTY = hypothesis.settings(max_examples=200, deadline=None, database=None)

# +0.0 and -0.0, infinities, quiet, signalling and negative NaNs with payloads,
# subnormals and the smallest normal
SPECIAL_BITS = [0x0, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
                0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                0x7FF4000000000000, 0xFFFFFFFFFFFFFFFF, 0x7FF8DEADBEEF0001,
                0x0000000000000001, 0x000FFFFFFFFFFFFF, 0x800FFFFFFFFFFFFF,
                0x0010000000000000]
BITS = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1))
SIGNED_ZEROS = [0x0, 0x8000000000000000]
COLUMNS = st.one_of(
    st.lists(BITS, max_size=60),
    # heavy repeats: long columns drawn from a few patterns
    st.lists(BITS, min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=400)),
).flatmap(lambda bits: st.permutations(bits + SIGNED_ZEROS))  # +0.0 and -0.0 together


def _reference(col):
    return ["NA" if math.isnan(v) else repr(v) for v in col.tolist()]


@PROPERTY
@hypothesis.given(COLUMNS)
def test_float_column_is_formatted_per_value(bits):
    col = np.array(bits, dtype=np.uint64).view(np.float64)
    expected = _reference(col)
    assert dataio._fmt_column(col) == expected
    # a column of a row-major table, as the writers take them, is strided
    table = np.column_stack([col, col[::-1]])
    assert dataio._fmt_column(table.T[0]) == expected
