"""Segment reductions over numpy arrays: the one scatter/softmax kernel.

A *segment* is the set of rows sharing one id in ``segment_ids`` (for GAT,
the incoming edges of one destination node).  Every segment reduction in
the package goes through this module: the autodiff ``Tensor.gather_rows``
backward and ``Tensor.scatter_add_rows`` forward,
:func:`repro.nn.functional.segment_softmax`, the GAT layer-wise inference
step, and the K-Means centroid sums.

Summation order
---------------
:func:`scatter_sum` adds the rows of each segment in row order, starting
from zero, exactly as ``np.add.at`` does, so its result is bitwise equal to
``np.add.at`` (tested in ``tests/nn/test_segment.py``).  Multi-column
inputs are summed as the product ``M @ values`` with the incidence matrix
``M[segment_ids[e], e] = 1`` stored column-compressed: column ``e`` holds
only row ``e``'s segment, so the product walks the rows in order and adds
``1.0 * values[e] == values[e]`` into its segment — the same additions, an
order of magnitude faster.  Building ``M`` costs a fixed ~50-60 µs, so
single-column inputs and inputs below :data:`_SPARSE_MIN_SIZE` elements use
``np.add.at`` on a flattened index, numpy's fast one-dimensional path,
which is faster there (2-core x86 host, numpy 2.4, scipy 1.17).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

__all__ = ["scatter_sum", "segment_max", "segment_softmax", "segment_shift"]

#: Element count from which :func:`scatter_sum` uses the incidence product.
_SPARSE_MIN_SIZE = 16384


def _flat_rows(values: np.ndarray, segment_ids: np.ndarray,
               num_segments: int) -> tuple:
    """``(ids, rows, out_shape)``: values as ``(len(ids), width)`` rows."""
    ids = np.asarray(segment_ids, dtype=np.int64).reshape(-1)
    values = np.asarray(values, dtype=np.float64)
    tail = values.shape[np.ndim(segment_ids):]
    rows = values.reshape(ids.shape[0], math.prod(tail))
    return ids, rows, (num_segments,) + tail


def _flat_index(ids: np.ndarray, width: int) -> np.ndarray:
    """Element index of every ``rows`` entry in a flattened segment table."""
    if width == 1:
        return ids
    return (ids[:, None] * width + np.arange(width)).reshape(-1)


def scatter_sum(values: np.ndarray, segment_ids: np.ndarray,
                num_segments: int) -> np.ndarray:
    """Per-segment sums: ``out[segment_ids[i]] += values[i]``, in row order.

    ``values`` has shape ``segment_ids.shape + tail``; the result has shape
    ``(num_segments,) + tail`` and is zero on empty segments.
    """
    ids, rows, out_shape = _flat_rows(values, segment_ids, num_segments)
    width = rows.shape[1]
    if width == 1 or rows.size < _SPARSE_MIN_SIZE:
        out = np.zeros(num_segments * width, dtype=np.float64)
        np.add.at(out, _flat_index(ids, width), rows.reshape(-1))
        return out.reshape(out_shape)
    incidence = sp.csc_matrix(
        (np.ones(ids.shape[0]), ids, np.arange(ids.shape[0] + 1)),
        shape=(num_segments, ids.shape[0]))
    return np.asarray(incidence @ rows).reshape(out_shape)


def segment_max(values: np.ndarray, segment_ids: np.ndarray,
                num_segments: int) -> np.ndarray:
    """Per-segment elementwise maximum; ``-inf`` on empty segments."""
    ids, rows, out_shape = _flat_rows(values, segment_ids, num_segments)
    width = rows.shape[1]
    out = np.full(num_segments * width, -np.inf)
    # A maximum does not depend on the order of its operands, and the
    # one-dimensional ``ufunc.at`` path is several times faster than the
    # row-wise one.
    np.maximum.at(out, _flat_index(ids, width), rows.reshape(-1))
    return out.reshape(out_shape)


def segment_shift(scores: np.ndarray, segment_ids: np.ndarray,
                  num_segments: int) -> np.ndarray:
    """Per-row softmax shift: the maximum of the row's segment.

    A segment whose maximum is not finite (every score ``-inf``) is shifted
    by 0 instead, so its rows softmax to 0 rather than NaN.
    """
    seg_max = segment_max(scores, segment_ids, num_segments)
    seg_max[~np.isfinite(seg_max)] = 0.0
    return seg_max[np.asarray(segment_ids, dtype=np.int64)]


def segment_softmax(scores: np.ndarray, segment_ids: np.ndarray,
                    num_segments: int) -> np.ndarray:
    """Softmax of ``scores`` within each segment (per column for 2-D+).

    The same arithmetic, operation for operation, as the differentiable
    :func:`repro.nn.functional.segment_softmax`.
    """
    exp = np.exp(scores - segment_shift(scores, segment_ids, num_segments))
    denom = scatter_sum(exp, segment_ids, num_segments)
    return exp / (denom[np.asarray(segment_ids, dtype=np.int64)] + 1e-16)
