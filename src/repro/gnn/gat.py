"""Graph Attention Network (GAT) encoder.

The paper uses a 2-layer GAT with 8 attention heads, hidden dimension 128 and
dropout 0.5 as the feature encoder for every method.  This implementation
follows the original GAT formulation (Velickovic et al., ICLR 2018) on an
edge-index representation:

1. Project node features per head: ``h_i = x_i W_k``.
2. Per edge (i -> j), compute ``e_ij = LeakyReLU(a_src . h_i + a_dst . h_j)``.
3. Normalize with a softmax over the incoming edges of each target node.
4. Aggregate ``z_j = sum_i alpha_ij h_i`` and apply ELU; heads are
   concatenated (hidden layers) or averaged (output layer).

Attention is evaluated on the edge list with segment gather/scatter
primitives, vectorized across all heads in a single batched projection:
O(E * H * d) time and memory, where ``E`` is the number of edges (incl. self
loops), ``H`` the head count, and ``d`` the per-head width.  The training
forward is an autodiff composition; :meth:`GATEncoder.embed` runs the
edge-list layer-wise plan, which computes the same function to 1e-8.  The
tests' reference is a per-head masked N x N attention (``tests/oracle.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graphs.graph import Graph
from ..graphs.utils import add_self_loops
from ..nn import functional as F
from ..nn.init import glorot_uniform
from ..nn.layers import Dropout, Module, Parameter
from ..nn.segment import scatter_sum, segment_softmax
from ..nn.tensor import Tensor
from .encoder import GNNEncoder


class GATLayer(Module):
    """Single multi-head graph attention layer."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        num_heads: int = 8,
        concat_heads: bool = True,
        dropout: float = 0.5,
        negative_slope: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.num_heads = num_heads
        self.concat_heads = concat_heads
        self.negative_slope = negative_slope
        # One projection and one attention vector pair per head, stored as a
        # single parameter tensor for efficiency.
        self.weight = Parameter(
            glorot_uniform((num_heads, in_features, out_features), rng), name="weight"
        )
        self.att_src = Parameter(glorot_uniform((num_heads, out_features), rng), name="att_src")
        self.att_dst = Parameter(glorot_uniform((num_heads, out_features), rng), name="att_dst")
        self.feat_dropout = Dropout(dropout, rng=rng)
        self.att_dropout = Dropout(dropout, rng=rng)

    @property
    def output_dim(self) -> int:
        if self.concat_heads:
            return self.num_heads * self.out_features
        return self.out_features

    def forward(self, x: Tensor, edge_index: np.ndarray, num_nodes: int) -> Tensor:
        """Edge-list attention, vectorized over every head at once."""
        x = self.feat_dropout(x)
        src, dst = edge_index

        # (N, F) @ (H, F, O) -> (H, N, O) -> (N, H, O): one batched matmul
        # instead of a Python loop over heads.
        projected = x.matmul(self.weight).transpose((1, 0, 2))
        score_src = (projected * self.att_src).sum(axis=-1)  # (N, H)
        score_dst = (projected * self.att_dst).sum(axis=-1)  # (N, H)

        edge_scores = (
            score_src.gather_rows(src) + score_dst.gather_rows(dst)
        ).leaky_relu(self.negative_slope)  # (E, H)
        alpha = F.segment_softmax(edge_scores, dst, num_nodes)
        alpha = self.att_dropout(alpha)

        messages = projected.gather_rows(src) * alpha.reshape(-1, self.num_heads, 1)
        aggregated = messages.scatter_add_rows(dst, num_nodes)  # (N, H, O)

        if self.concat_heads:
            return aggregated.reshape(num_nodes, self.num_heads * self.out_features)
        return aggregated.mean(axis=1)


class GATEncoder(GNNEncoder):
    """Two-layer GAT encoder producing node representations.

    The first layer concatenates its heads and applies ELU; the second layer
    averages its heads, matching the paper's configuration (2 layers, 8
    heads, hidden dim 128, dropout 0.5).
    """

    def __init__(
        self,
        in_features: int,
        hidden_dim: int = 128,
        out_dim: int = 64,
        num_heads: int = 8,
        dropout: float = 0.5,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        per_head_hidden = max(1, hidden_dim // num_heads)
        self.layer1 = GATLayer(
            in_features,
            per_head_hidden,
            num_heads=num_heads,
            concat_heads=True,
            dropout=dropout,
            rng=rng,
        )
        self.layer2 = GATLayer(
            self.layer1.output_dim,
            out_dim,
            num_heads=num_heads,
            concat_heads=False,
            dropout=dropout,
            rng=rng,
        )
        self.out_dim = out_dim
        #: Message-passing depth == receptive-field hops a node's output needs
        #: (checked against ``sampling.num_hops`` by exact khop training).
        self.num_message_passing_layers = 2

    def forward(self, graph: Graph) -> Tensor:
        edge_index = add_self_loops(graph.edge_index, graph.num_nodes)
        x = Tensor(graph.features)
        hidden = self.layer1(x, edge_index, graph.num_nodes).elu()
        return self.layer2(hidden, edge_index, graph.num_nodes)

    # -- layer-wise inference interface ---------------------------------
    def layerwise_plan(self, graph: Graph) -> list:
        """Per-layer numpy steps of :meth:`embed`, one chunk of targets at a time.

        Consumed by :class:`repro.inference.LayerwiseInference`.  The edge
        list (with self loops) is grouped by destination once; each chunk then
        softmaxes and aggregates only its own incoming edges, so the per-edge
        ``E x heads x width`` message tensor is never built for the whole
        graph.  Dropout is off by construction.
        """
        from ..graphs.sampling import build_edge_csr

        num_nodes = graph.num_nodes
        edge_index = add_self_loops(graph.edge_index, num_nodes)
        # Group by destination = group the reversed edge list by source.  The
        # CSR keeps each destination's edges in their original order, so
        # every segment sums in the same order as the forward's scatter.
        indptr, src = build_edge_csr(edge_index[::-1], num_nodes)
        dst = np.repeat(np.arange(num_nodes, dtype=np.int64), np.diff(indptr))
        return [
            _GATLayerStep(self.layer1, indptr, src, dst, elu=True),
            _GATLayerStep(self.layer2, indptr, src, dst, elu=False),
        ]


def _leaky_relu_np(x: np.ndarray, negative_slope: float) -> np.ndarray:
    return x * np.where(x > 0, 1.0, negative_slope)


def _elu_np(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    return np.where(x > 0, x, alpha * (np.exp(np.minimum(x, 0.0)) - 1.0))


class _GATLayerStep:
    """One GAT layer as a chunked numpy computation.

    ``prepare`` projects every node once, as the forward does, keeps the
    per-node attention scores and hands the projection (``N x heads x
    width``) to ``compute`` in place of ``h``; ``compute`` softmaxes and
    aggregates the incoming edges of one chunk of target nodes.
    """

    def __init__(self, layer: GATLayer, indptr: np.ndarray, src: np.ndarray,
                 dst: np.ndarray, elu: bool):
        self.layer = layer
        self.indptr = indptr
        self.src = src
        self.dst = dst
        self.elu = elu
        self.out_dim = layer.output_dim
        self._score_src: Optional[np.ndarray] = None
        self._score_dst: Optional[np.ndarray] = None

    def prepare(self, h: np.ndarray) -> np.ndarray:
        layer = self.layer
        # One (N, F) @ (F, H * O) product, viewed as (N, H, O): the
        # forward's per-head projection, laid out for row gathers.
        weight = layer.weight.data.transpose(1, 0, 2).reshape(layer.in_features, -1)
        projected = (h @ weight).reshape(h.shape[0], layer.num_heads, layer.out_features)
        self._score_src = (projected * layer.att_src.data).sum(axis=-1)
        self._score_dst = (projected * layer.att_dst.data).sum(axis=-1)
        return projected

    def compute(self, projected: np.ndarray, start: int, stop: int) -> np.ndarray:
        layer = self.layer
        lo, hi = self.indptr[start], self.indptr[stop]
        src, dst = self.src[lo:hi], self.dst[lo:hi]
        targets, num_targets = dst - start, stop - start
        scores = _leaky_relu_np(self._score_src[src] + self._score_dst[dst],
                                layer.negative_slope)
        alpha = segment_softmax(scores, targets, num_targets)
        messages = projected[src] * alpha[:, :, None]
        aggregated = scatter_sum(messages, targets, num_targets)
        if layer.concat_heads:
            out = aggregated.reshape(num_targets, layer.num_heads * layer.out_features)
        else:
            out = aggregated.sum(axis=1) * (1.0 / layer.num_heads)
        return _elu_np(out) if self.elu else out

    def finish(self) -> None:
        self._score_src = None
        self._score_dst = None
