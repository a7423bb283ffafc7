"""The tests' references for fused or layer-wise production code.

* ``encoder.embed`` runs the layer-wise plan; the reference is the autodiff
  ``forward`` — the training path — evaluated in ``eval()`` (dropout off)
  under ``no_grad`` (:func:`forward_embed`).
* ``supervised_contrastive_loss`` is one fused op with a closed-form
  gradient; the reference composes it from generic autodiff ops over an
  explicit 2N x 2N positive mask (:func:`supcon_reference`).
"""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad


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
