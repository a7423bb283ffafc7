"""Graph Convolutional Network (GCN) encoder with a sparse fast path.

The paper's experiments use GAT, but the method is encoder-agnostic; GCN is
provided as a lighter alternative used in tests, ablations, and the fast
benchmark profiles.  The propagation matrix ``D^{-1/2}(A+I)D^{-1/2}``
(:meth:`repro.graphs.graph.Graph.propagation`, memoized per graph) stays a
``scipy.sparse.csr_matrix`` end-to-end and is applied as a constant with
:func:`repro.nn.tensor.sparse_matmul`; only the layer weights receive
gradients.  One forward+backward pass costs O(nnz * d) FLOPs and O(N * d +
nnz) memory, where ``nnz`` is the number of edges incl. self loops and ``d``
the layer width.  The tests check forward and gradient agreement to 1e-8
against a densified-propagation reference (``tests/oracle.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp

from ..graphs.graph import Graph
from ..nn.layers import Dropout, Linear, Module
from ..nn.tensor import Tensor, sparse_matmul
from .encoder import GNNEncoder


class GCNLayer(Module):
    """One graph convolution: ``\\hat{A} X W`` (activation applied by caller)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.linear = Linear(in_features, out_features, rng=rng)

    def forward(self, x: Tensor, propagation: sp.spmatrix) -> Tensor:
        return sparse_matmul(propagation, self.linear(x))


class GCNEncoder(GNNEncoder):
    """Two-layer GCN encoder with dropout, mirroring :class:`GATEncoder`'s API."""

    def __init__(
        self,
        in_features: int,
        hidden_dim: int = 128,
        out_dim: int = 64,
        dropout: float = 0.5,
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

    def forward(self, graph: Graph) -> Tensor:
        propagation = graph.propagation()
        x = self.dropout(Tensor(graph.features))
        hidden = self.layer1(x, propagation).relu()
        hidden = self.dropout(hidden)
        return self.layer2(hidden, propagation)

    # -- layer-wise inference interface ---------------------------------
    def layerwise_plan(self, graph: Graph) -> list:
        """Per-layer numpy steps of :meth:`embed`, one chunk of rows at a time.

        Consumed by :class:`repro.inference.LayerwiseInference`.  Each step
        computes one layer's output rows from the full previous-layer
        activations, so only two layer activations (plus a chunk-sized
        temporary) are alive and no autodiff graph is built.  Dropout is off
        by construction.
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

    def __init__(self, layer: GCNLayer, propagation: sp.spmatrix, relu: bool):
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
