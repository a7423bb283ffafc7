"""The tests' reference for deterministic embeddings.

``encoder.embed`` runs the layer-wise plan; the reference is the autodiff
``forward`` — the training path — evaluated in ``eval()`` (dropout off)
under ``no_grad``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import no_grad


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
