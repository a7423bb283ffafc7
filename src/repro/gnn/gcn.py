"""Graph Convolutional Network (GCN) encoder with a sparse fast path.

The paper's experiments use GAT, but the method is encoder-agnostic; GCN is
provided as a lighter alternative used in tests, ablations, and the fast
benchmark profiles.  The propagation matrix ``D^{-1/2}(A+I)D^{-1/2}`` is
precomputed with scipy sparse and treated as a constant; only the layer
weights receive gradients.

Backends
--------
The encoder supports two propagation backends selected by the ``backend``
constructor argument (also reachable through
:class:`repro.core.config.EncoderConfig` and :func:`repro.gnn.build_encoder`):

``"sparse"`` (default)
    The propagation matrix stays a ``scipy.sparse.csr_matrix`` end-to-end and
    is applied with :func:`repro.nn.tensor.sparse_matmul`.  One
    forward+backward pass costs O(nnz * d) FLOPs and O(N * d + nnz) memory,
    where ``nnz`` is the number of edges incl. self loops and ``d`` the layer
    width.  For sparse graphs (nnz ~ N * avg_degree) this is linear in N.

``"dense"``
    The propagation matrix is densified once and applied with ordinary
    matmul: O(N^2 * d) FLOPs and O(N^2) memory.  Kept as a reference
    implementation for parity testing and for tiny graphs where BLAS on the
    dense matrix can win; infeasible beyond a few 10^4 nodes.

Both backends compute the same function; the test suite checks forward and
gradient agreement to 1e-8 (``tests/gnn/test_backend_parity.py``).  The
backend selects the training forward only: :meth:`GCNEncoder.embed` runs the
sparse layer-wise plan on both.
"""

from __future__ import annotations

import weakref
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from ..graphs.graph import Graph
from ..nn.layers import Dropout, Linear, Module
from ..nn.tensor import Tensor, sparse_matmul
from .backends import GNNEncoder, check_backend

Propagation = Union[np.ndarray, sp.spmatrix]


class GCNLayer(Module):
    """One graph convolution: ``\\hat{A} X W`` (activation applied by caller)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.linear = Linear(in_features, out_features, rng=rng)

    def forward(self, x: Tensor, propagation: Propagation) -> Tensor:
        projected = self.linear(x)
        if sp.issparse(propagation):
            return sparse_matmul(propagation, projected)
        # Dense reference path: the propagation matrix is a constant, so it
        # participates in the graph as a non-gradient tensor.
        return Tensor(propagation).matmul(projected)


class GCNEncoder(GNNEncoder):
    """Two-layer GCN encoder with dropout, mirroring :class:`GATEncoder`'s API."""

    def __init__(
        self,
        in_features: int,
        hidden_dim: int = 128,
        out_dim: int = 64,
        dropout: float = 0.5,
        backend: str = "sparse",
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.layer1 = GCNLayer(in_features, hidden_dim, rng=rng)
        self.layer2 = GCNLayer(hidden_dim, out_dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)
        self.out_dim = out_dim
        #: Message-passing depth == receptive-field hops a node's output needs
        #: (checked against ``sampling.num_hops`` by exact khop training).
        self.num_message_passing_layers = 2
        self.backend = check_backend(backend)
        self._cached_propagation: Optional[Propagation] = None
        # Weak reference to the graph whose densified matrix is cached: a
        # weakref cannot pin a large graph alive, and (unlike keying by
        # id()) it can never mistake a fresh graph at a recycled address
        # for the cached one.  The graph's cache_version is compared too, so
        # the documented in-place mutation path (reassign fields +
        # invalidate_caches()) drops this cache as well.
        self._cached_graph: Optional[weakref.ref] = None
        self._cached_graph_version = -1

    def _propagation(self, graph: Graph) -> Propagation:
        if self.backend == "sparse":
            # Already memoized per graph; no encoder-level state needed.
            self._cached_propagation = graph.propagation()
            return self._cached_propagation
        cached = self._cached_graph() if self._cached_graph is not None else None
        if cached is not graph or self._cached_graph_version != graph.cache_version:
            self._cached_propagation = graph.propagation().toarray()
            self._cached_graph = weakref.ref(graph)
            self._cached_graph_version = graph.cache_version
        return self._cached_propagation

    def forward(self, graph: Graph) -> Tensor:
        propagation = self._propagation(graph)
        x = self.dropout(Tensor(graph.features))
        hidden = self.layer1(x, propagation).relu()
        hidden = self.dropout(hidden)
        return self.layer2(hidden, propagation)

    # -- layer-wise inference interface ---------------------------------
    def layerwise_plan(self, graph: Graph) -> list:
        """Per-layer numpy steps of :meth:`embed`, one chunk of rows at a time.

        Consumed by :class:`repro.inference.LayerwiseInference` on both
        backends, always with the sparse propagation matrix (the dense
        backend computes the same function).  Each step computes one
        layer's output rows from the full previous-layer activations, so
        only two layer activations (plus a chunk-sized temporary) are alive
        and no autodiff graph is built.  Dropout is off by construction.
        """
        propagation = graph.propagation()
        return [
            _GCNLayerStep(self.layer1, propagation, relu=True),
            _GCNLayerStep(self.layer2, propagation, relu=False),
        ]


class _GCNLayerStep:
    """One GCN layer as a chunked numpy computation.

    Output rows ``[start, stop)`` are ``P[start:stop] @ (h W + b)``, in the
    cheaper association for the layer's widths.  A layer that narrows
    (``in > out``) projects every node first, exactly as the training
    forward does, and hands the projection to ``compute`` in place of
    ``h``.  A layer that widens propagates first, ``(P[start:stop] @ h) @ W
    + (P 1) b``, so its only temporary is ``chunk x in_features``; matrix
    associativity makes this equal to the forward up to float rounding
    (parity is tested at 1e-8).  The forward adds the bias *before*
    propagation, so here it is scaled by the propagation row sums.
    """

    def __init__(self, layer: GCNLayer, propagation: Propagation, relu: bool):
        self.layer = layer
        self.propagation = propagation
        self.relu = relu
        self.out_dim = layer.linear.out_features
        self.project_first = layer.linear.in_features > layer.linear.out_features
        self._row_sums: Optional[np.ndarray] = None

    def prepare(self, h: np.ndarray) -> np.ndarray:
        linear = self.layer.linear
        if self.project_first:
            projected = h @ linear.weight.data
            if linear.bias is not None:
                projected += linear.bias.data
            return projected
        if linear.bias is not None:
            self._row_sums = np.asarray(self.propagation.sum(axis=1)).reshape(-1, 1)
        return h

    def compute(self, source: np.ndarray, start: int, stop: int) -> np.ndarray:
        out = self.propagation[start:stop] @ source
        if not self.project_first:
            out = out @ self.layer.linear.weight.data
            if self.layer.linear.bias is not None:
                out = out + self._row_sums[start:stop] * self.layer.linear.bias.data
        if self.relu:
            out = out * (out > 0)
        return out

    def finish(self) -> None:
        self._row_sums = None
