"""Differential test: selection ``percentile`` vs the sort-based formula.

``_sorted_percentile`` is the percentile as it was written before the
selection, kept in test code as the executable specification: sort a
copy of every value, then interpolate linearly between the two order
statistics around the rank. For a rank near the top ``percentile``
selects only those two with a heap. The property
test feeds both the same finite values -- ties, signed zeros and single
values included, as lists, as ``array('d')`` and as the stream report's
no-copy join of several columns -- and requires bit-identical results.
"""

import struct
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ProfilingError
from repro.serve import percentile
from repro.stream.report import _Joined


def _sorted_percentile(values, q):
    """The percentile as it was computed with a full sort."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def _bits(value: float) -> bytes:
    return struct.pack("d", value)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: A small pool makes ties (and -0.0 next to 0.0) common.
_POOL = st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.25])
#: Short lists, and lists of 32 or more values: the heap selection
#: keeps at most a sixteenth of the values, so only those take it at
#: ranks next to the top (the rest sort).
_VALUES = st.one_of(
    st.lists(_POOL, min_size=1, max_size=100),
    st.lists(st.one_of(_POOL, _FINITE), min_size=1, max_size=20),
    st.lists(st.one_of(_POOL, _FINITE), min_size=32, max_size=100))
_Q = st.one_of(st.sampled_from([0, 1, 50, 99, 100]),
               st.floats(min_value=0.0, max_value=100.0))


#: Equal zeros of both signs at the top: a stable sort puts the last
#: one highest, which ``nlargest`` over the values forwards gets wrong.
_SIGNED_ZEROS = [-0.0] * 20 + [0.0] * 20


@given(_VALUES, _Q)
@example(_SIGNED_ZEROS, 99)
@example(_SIGNED_ZEROS, 100)
@example(_SIGNED_ZEROS[::-1], 1)
@settings(max_examples=400, derandomize=True, deadline=None)
def test_selection_matches_the_sorted_formula(values, q):
    expected = _bits(_sorted_percentile(values, q))
    assert _bits(percentile(values, q)) == expected
    assert _bits(percentile(array("d", values), q)) == expected


@given(_VALUES, st.lists(st.integers(0, 100), max_size=4), _Q)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_joined_columns_read_as_their_concatenation(values, cuts, q):
    bounds = [0, *sorted(min(cut, len(values)) for cut in cuts),
              len(values)]
    columns = [array("d", values[start:stop])
               for start, stop in zip(bounds, bounds[1:])]
    joined = _Joined(columns)
    assert len(joined) == len(values)
    assert list(joined) == values
    assert list(reversed(joined)) == values[::-1]
    assert _bits(percentile(joined, q)) \
        == _bits(_sorted_percentile(values, q))


@given(st.one_of(st.floats(max_value=-1e-9), st.floats(min_value=100.0001),
                 st.just(float("nan"))))
@settings(max_examples=50, derandomize=True, deadline=None)
def test_out_of_range_q_still_raises(q):
    with pytest.raises(ProfilingError, match="out of range"):
        percentile([1.0, 2.0], q)


@pytest.mark.parametrize("empty", [[], array("d"), _Joined([array("d")])])
def test_an_empty_input_still_raises(empty):
    with pytest.raises(ProfilingError, match="empty"):
        percentile(empty, 50)
