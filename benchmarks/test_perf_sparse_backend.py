"""Sparse GCN propagation benchmark: wall-clock and peak memory at scale.

One GCN forward+backward pass is measured on synthetic random graphs of 1k /
10k / 50k nodes (avg degree 8, 32 features).  The propagation matrix stays a
CSR constant end to end.  Timing is best-of-``REPEATS`` warm passes
(propagation cache built); peak memory is the tracemalloc high-water mark
of a cold pass, which includes building the propagation matrix.

Gates: at 50k nodes the peak stays under 5% of what the N x N float64
matrix alone would take, and the peak grows at most twice as fast as the
node count (a quadratic term would grow with its square).  The 50k cells are
named ``large``.

Results are written to ``benchmarks/results/perf_sparse_backend.txt``.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest
from conftest import save_report

from repro.gnn.gcn import GCNEncoder
from repro.graphs.graph import Graph
from repro.graphs.utils import symmetrize_edges

AVG_DEGREE = 8
NUM_FEATURES = 32
HIDDEN_DIM = 32
OUT_DIM = 16
REPEATS = 3

_measurements: dict = {}
_report_lines: list = []


def synthetic_graph(num_nodes: int, seed: int = 0) -> Graph:
    rng = np.random.default_rng(seed)
    num_edges = num_nodes * AVG_DEGREE // 2
    src = rng.integers(num_nodes, size=num_edges)
    dst = rng.integers(num_nodes, size=num_edges)
    return Graph(
        features=rng.normal(size=(num_nodes, NUM_FEATURES)),
        edge_index=symmetrize_edges(np.vstack([src, dst])),
        name=f"perf-{num_nodes}",
    )


def _forward_backward(encoder: GCNEncoder, graph: Graph) -> None:
    encoder.zero_grad()
    out = encoder(graph)
    (out * out).sum().backward()


def measure(num_nodes: int) -> dict:
    """Best-of-N warm pass time and cold-pass peak memory."""
    if num_nodes in _measurements:
        return _measurements[num_nodes]
    graph = synthetic_graph(num_nodes)
    encoder = GCNEncoder(NUM_FEATURES, hidden_dim=HIDDEN_DIM, out_dim=OUT_DIM,
                         dropout=0.0, rng=np.random.default_rng(0))
    encoder.train()

    tracemalloc.start()
    _forward_backward(encoder, graph)  # cold: includes propagation build
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _forward_backward(encoder, graph)
        times.append(time.perf_counter() - start)

    result = {"time": min(times), "peak_bytes": peak}
    _measurements[num_nodes] = result
    _report_lines.append(
        f"n={num_nodes:>6}  pass={result['time'] * 1e3:9.2f} ms  "
        f"peak={peak / 1e6:10.1f} MB"
    )
    save_report("perf_sparse_backend", "\n".join(_report_lines))
    return result


@pytest.mark.parametrize("small, large", [
    (1_000, 10_000),
    pytest.param(10_000, 50_000, id="large-10000-50000"),
])
def test_peak_memory_grows_linearly(small, large):
    growth = measure(large)["peak_bytes"] / measure(small)["peak_bytes"]
    _report_lines.append(f"peak growth {small} -> {large} nodes: {growth:.1f}x")
    save_report("perf_sparse_backend", "\n".join(_report_lines))
    assert growth <= 2 * (large / small)


def test_large_50k_sparse_is_subquadratic():
    """The 50k-node headline: a small fraction of the N^2 matrix alone."""
    dense_matrix_bytes = 50_000 * 50_000 * 8
    assert measure(50_000)["peak_bytes"] < 0.05 * dense_matrix_bytes
