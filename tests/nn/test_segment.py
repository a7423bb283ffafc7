"""The segment-reduction kernel against ``ufunc.at`` oracles on generated inputs.

Inputs cover duplicate ids, empty segments, ``num_segments > max(id) + 1``,
zero rows, 1-D values and ``(E, H, O)`` values, on both sides of the
kernel's small-input switch.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.segment import scatter_sum, segment_max, segment_softmax

FINITE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)
# (E, H, O) tails large enough that some draws exceed the kernel's
# small-input size and take the sparse incidence product.
TAILS = st.sampled_from([(), (1,), (3,), (2, 5), (8, 16), (8, 64)])


@st.composite
def segments(draw, max_rows: int = 300):
    """``(values, segment_ids, num_segments)`` with padding segments."""
    num_rows = draw(st.integers(min_value=0, max_value=max_rows))
    num_ids = draw(st.integers(min_value=1, max_value=12))
    ids = draw(hnp.arrays(np.int64, num_rows,
                          elements=st.integers(min_value=0, max_value=num_ids - 1)))
    num_segments = num_ids + draw(st.integers(min_value=0, max_value=3))
    tail = draw(TAILS)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    values = np.random.default_rng(seed).normal(
        scale=draw(st.sampled_from([1e-3, 1.0, 1e3])), size=(num_rows,) + tail)
    if num_rows and draw(st.booleans()):
        # Exact duplicates and hand-picked extremes inside the rows.
        values.reshape(num_rows, -1)[:, 0] = draw(
            hnp.arrays(np.float64, num_rows, elements=FINITE))
    return values, ids, num_segments


def add_at(values, ids, num_segments):
    out = np.zeros((num_segments,) + values.shape[1:])
    np.add.at(out, ids, values)
    return out


@settings(max_examples=150, deadline=None)
@given(segments())
def test_scatter_sum_bitwise_equals_add_at(case):
    values, ids, num_segments = case
    result = scatter_sum(values, ids, num_segments)
    expected = add_at(values, ids, num_segments)
    assert result.shape == expected.shape
    # Same additions in the same order: equal bit for bit, signed zeros too.
    assert result.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(segments())
def test_segment_max_equals_maximum_at(case):
    values, ids, num_segments = case
    expected = np.full((num_segments,) + values.shape[1:], -np.inf)
    np.maximum.at(expected, ids, values)
    np.testing.assert_array_equal(segment_max(values, ids, num_segments), expected)


@settings(max_examples=100, deadline=None)
@given(segments())
def test_segment_softmax_normalizes_each_segment(case):
    values, ids, num_segments = case
    alpha = segment_softmax(values, ids, num_segments)
    assert alpha.shape == values.shape
    assert np.all((alpha >= 0.0) & (alpha <= 1.0))
    totals = add_at(alpha, ids, num_segments)
    present = np.bincount(ids, minlength=num_segments) > 0
    np.testing.assert_allclose(totals[present], 1.0, rtol=0.0, atol=1e-12)
    assert np.all(totals[~present] == 0.0)


def test_segment_softmax_all_masked_segment_is_zero():
    scores = np.array([-np.inf, -np.inf, 0.5, 1.5])
    alpha = segment_softmax(scores, np.array([0, 0, 1, 1]), 2)
    np.testing.assert_array_equal(alpha[:2], 0.0)
    np.testing.assert_allclose(alpha[2:].sum(), 1.0)
