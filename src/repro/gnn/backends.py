"""Message-passing backend registry and the encoder base shared by every GNN."""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..nn.layers import Module

#: Valid values for the encoder ``backend`` argument: ``"sparse"`` runs the
#: edge-list / CSR propagation fast path, ``"dense"`` the O(N^2) reference.
BACKENDS = ("sparse", "dense")


def check_backend(backend: str) -> str:
    """Validate a backend name, returning it unchanged."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    return backend


class GNNEncoder(Module):
    """Base of the GNN encoders: an autodiff forward and one no-grad forward.

    Subclasses implement ``forward(graph)`` — the training path, and in
    ``eval()`` under ``no_grad`` the tests' reference — and
    ``layerwise_plan(graph)``, the numpy steps behind :meth:`embed`.
    """

    def embed(self, graph: Graph) -> np.ndarray:
        """Deterministic all-node embeddings (dropout off) as a numpy array.

        Runs :class:`repro.inference.LayerwiseInference` over
        :meth:`layerwise_plan` on both backends; the training mode is left
        unchanged.
        """
        # Imported here: repro.inference imports repro.core, which imports
        # this package.
        from ..inference.layerwise import LayerwiseInference

        return LayerwiseInference().run(self, graph)
