"""The encoder base shared by every GNN."""

from __future__ import annotations

import numpy as np

from ..graphs.graph import Graph
from ..nn.layers import Module


class GNNEncoder(Module):
    """Base of the GNN encoders: an autodiff forward and one no-grad forward.

    Subclasses implement ``forward(graph)`` — the training path, and in
    ``eval()`` under ``no_grad`` the tests' reference — and
    ``layerwise_plan(graph)``, the numpy steps behind :meth:`embed`.
    """

    def embed(self, graph: Graph) -> np.ndarray:
        """Deterministic all-node embeddings (dropout off) as a numpy array.

        Runs :class:`repro.inference.LayerwiseInference` over
        :meth:`layerwise_plan`; the training mode is left unchanged.
        """
        # Imported here: repro.inference imports repro.core, which imports
        # this package.
        from ..inference.layerwise import LayerwiseInference

        return LayerwiseInference().run(self, graph)
