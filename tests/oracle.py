"""The tests' references for fused or layer-wise production code.

* ``encoder.embed`` runs the layer-wise plan; the reference is the autodiff
  ``forward`` — the training path — evaluated in ``eval()`` (dropout off)
  under ``no_grad`` (:func:`forward_embed`).
* ``supervised_contrastive_loss`` is one fused op with a closed-form
  gradient; the reference composes it from generic autodiff ops over an
  explicit 2N x 2N positive mask (:func:`supcon_reference`).
* The encoders pass messages over the edge list (GAT) or a sparse
  propagation matrix (GCN); the references are O(N^2) dense autodiff
  compositions over the same parameters (:func:`dense_gat_layer`,
  :func:`dense_gat_forward`, :func:`dense_gcn_forward`, and
  :func:`dense_embed` for the no-grad embeddings), so forward and gradient
  parity stay checkable.  They apply no dropout.
"""

from __future__ import annotations

import numpy as np

from repro.gnn import GATEncoder, GCNEncoder
from repro.graphs.utils import add_self_loops
from repro.nn import functional as F
from repro.nn.tensor import Tensor, cat, no_grad


def forward_embed(encoder, graph) -> np.ndarray:
    """All-node embeddings from the autodiff forward, training mode restored."""
    was_training = encoder.training
    encoder.eval()
    try:
        with no_grad():
            output = encoder(graph)
    finally:
        encoder.train(was_training)
    return output.numpy()


def positive_mask(group_ids: np.ndarray) -> np.ndarray:
    """Positive-pair mask for a batch of 2N augmented points.

    ``group_ids`` has length 2N; the two views of node ``i`` occupy rows
    ``i`` and ``i + N``.  Two rows are positives if they share a non-negative
    group id, or if they are the two views of the same node (always).  The
    diagonal is excluded.
    """
    group_ids = np.asarray(group_ids, dtype=np.int64)
    total = group_ids.shape[0]
    if total % 2 != 0:
        raise ValueError("expected an even number of augmented samples (2N)")
    half = total // 2
    same_group = (group_ids[:, None] == group_ids[None, :]) & (group_ids[:, None] >= 0)
    # The two dropout views of the same node are always positives (SimCSE).
    view_pair = np.zeros((total, total), dtype=bool)
    idx = np.arange(half)
    view_pair[idx, idx + half] = True
    view_pair[idx + half, idx] = True
    mask = same_group | view_pair
    np.fill_diagonal(mask, False)
    return mask


def supcon_reference(features: Tensor, group_ids: np.ndarray,
                     temperature: float = 0.7) -> Tensor:
    """``supervised_contrastive_loss`` from generic autodiff ops and a mask."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    total = features.shape[0]
    mask = positive_mask(group_ids)
    positive_counts = mask.sum(axis=1)
    if (positive_counts == 0).any():
        raise RuntimeError("every sample must have at least one positive (its other view)")

    similarities = features.matmul(features.transpose()) * (1.0 / temperature)
    # Exclude self-similarity from the softmax denominator.
    diag_mask = np.zeros((total, total))
    np.fill_diagonal(diag_mask, -1e9)
    logits = similarities + Tensor(diag_mask)
    log_prob = F.log_softmax(logits, axis=1)

    positives = (log_prob * Tensor(mask.astype(np.float64))).sum(axis=1)
    per_sample = positives * Tensor(1.0 / positive_counts)
    return -per_sample.mean()


def dense_gcn_forward(encoder: GCNEncoder, graph) -> Tensor:
    """``encoder``'s forward with the propagation matrix densified per call."""
    propagation = Tensor(graph.propagation().toarray())
    hidden = propagation.matmul(encoder.layer1.linear(Tensor(graph.features))).relu()
    return propagation.matmul(encoder.layer2.linear(hidden))


def dense_attention_mask(edge_index: np.ndarray, num_nodes: int) -> tuple:
    """Additive N x N attention mask and row gate for :func:`dense_gat_layer`.

    The mask is log(multiplicity): 0 on single edges, -inf on non-edges, so
    the row softmax over sources matches the segment softmax over incoming
    edges — a duplicated directed edge carries its attention mass once per
    copy, exactly like the edge list.  Rows of nodes with no incoming edges
    would softmax to 0/0 = NaN; they are left unmasked and zeroed through
    the row gate instead, matching the all-zero rows of a scatter-add.
    """
    src, dst = edge_index
    multiplicity = np.zeros((num_nodes, num_nodes))
    np.add.at(multiplicity, (dst, src), 1.0)
    with np.errstate(divide="ignore"):
        mask = np.log(multiplicity)
    has_incoming = np.zeros(num_nodes, dtype=bool)
    has_incoming[dst] = True
    mask[~has_incoming] = 0.0
    return mask, has_incoming.astype(np.float64).reshape(-1, 1)


def dense_gat_layer(layer, x: Tensor, edge_index: np.ndarray, num_nodes: int) -> Tensor:
    """``GATLayer`` forward as per-head masked N x N attention."""
    mask, row_gate = dense_attention_mask(edge_index, num_nodes)
    head_outputs = []
    for head in range(layer.num_heads):
        projected = x.matmul(layer.weight[head])  # (N, O)
        score_src = projected.matmul(layer.att_src[head].reshape(-1, 1)).reshape(1, -1)
        score_dst = projected.matmul(layer.att_dst[head].reshape(-1, 1)).reshape(-1, 1)
        # logits[j, i] = LeakyReLU(a_src . h_i + a_dst . h_j)
        logits = (score_src + score_dst).leaky_relu(layer.negative_slope)
        alpha = F.softmax(logits + Tensor(mask), axis=-1) * Tensor(row_gate)
        head_outputs.append(alpha.matmul(projected))
    if layer.concat_heads:
        return cat(head_outputs, axis=1)
    total = head_outputs[0]
    for other in head_outputs[1:]:
        total = total + other
    return total * (1.0 / layer.num_heads)


def dense_gat_forward(encoder: GATEncoder, graph) -> Tensor:
    """``encoder``'s forward with every layer as :func:`dense_gat_layer`."""
    edge_index = add_self_loops(graph.edge_index, graph.num_nodes)
    hidden = dense_gat_layer(encoder.layer1, Tensor(graph.features), edge_index,
                             graph.num_nodes).elu()
    return dense_gat_layer(encoder.layer2, hidden, edge_index, graph.num_nodes)


def dense_forward(encoder, graph) -> Tensor:
    """The dense reference forward for a GCN or GAT encoder."""
    if isinstance(encoder, GCNEncoder):
        return dense_gcn_forward(encoder, graph)
    if isinstance(encoder, GATEncoder):
        return dense_gat_forward(encoder, graph)
    raise TypeError(f"no dense reference for {type(encoder).__name__}")


def dense_embed(encoder, graph) -> np.ndarray:
    """All-node embeddings from :func:`dense_forward` under ``no_grad``."""
    with no_grad():
        return dense_forward(encoder, graph).numpy()
