"""The inference facade: the layer-wise forward + versioned embedding cache.

:class:`InferenceEngine` is the single entry point for deterministic
all-node embeddings.  It owns

* the :class:`~repro.inference.layerwise.LayerwiseInference` pass, chunked
  by :class:`repro.core.config.InferenceConfig` ``chunk_size`` — the one
  no-grad forward, run on the whole graph and, for partial refreshes, on a
  delta's receptive-field subgraph — and
* the :class:`~repro.inference.cache.EmbeddingCache`, so every consumer of
  the same parameter state — pseudo-label refresh, ``EvaluationCallback``,
  ``validation_accuracy``, ``predict`` — shares one embedding pass instead
  of recomputing 2-4x per epoch.

``forward_count`` counts *actual* encoder passes (cache hits excluded),
which is what the one-forward-per-evaluation-epoch tests assert on.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..graphs.graph import Graph
from ..nn.layers import Module
from ..obs import REGISTRY, span
from .cache import EmbeddingCache
from .layerwise import LayerwiseInference

_FORWARD_SECONDS = REGISTRY.histogram(
    "repro_inference_forward_seconds",
    "Wall time of one all-node embedding pass.")
_REFRESHES = REGISTRY.counter(
    "repro_inference_refreshes_total",
    "Delta refreshes served, by kind (partial patch vs full recompute).",
    labelnames=("kind",))

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import InferenceConfig
    from ..streaming.dynamic import DeltaReport


class InferenceEngine:
    """Compute (or reuse) deterministic all-node embeddings for an encoder."""

    def __init__(self, config: Optional["InferenceConfig"] = None):
        if config is None:
            # Imported lazily: repro.core.trainer imports this module, so a
            # module-level import of repro.core.config would be circular.
            from ..core.config import InferenceConfig

            config = InferenceConfig()
        self.config = config
        self.cache: Optional[EmbeddingCache] = (
            EmbeddingCache() if self.config.cache else None
        )
        self._layerwise = LayerwiseInference(chunk_size=self.config.chunk_size)
        #: Number of embedding passes actually computed (cache hits excluded).
        self.forward_count = 0
        #: Deltas served by patching the cached array (no full pass).
        self.partial_refresh_count = 0
        #: Deltas that fell back to a full recompute (threshold/stale base).
        self.full_refresh_count = 0

    # ------------------------------------------------------------------
    # Embeddings
    # ------------------------------------------------------------------
    def embeddings(self, encoder: Module, graph: Graph) -> np.ndarray:
        """All-node embeddings of ``encoder`` on ``graph``, cached by version.

        The returned array is marked read-only when it comes from the cache
        layer; callers that need to mutate it must copy.
        """
        if self.cache is not None:
            cached = self.cache.lookup(encoder, graph)
            if cached is not None:
                return cached
        embeddings = self._compute(encoder, graph)
        if self.cache is not None:
            # The freshly computed array has no other live reference, so the
            # cache may freeze it in place instead of copying.
            return self.cache.store(encoder, graph, embeddings, copy=False)
        return embeddings

    def _compute(self, encoder: Module, graph: Graph) -> np.ndarray:
        self.forward_count += 1
        with _FORWARD_SECONDS.time(), \
                span("inference.compute", nodes=graph.num_nodes):
            return self._layerwise.run(encoder, graph)

    # ------------------------------------------------------------------
    # Incremental refresh (streaming deltas)
    # ------------------------------------------------------------------
    def refresh_after_delta(self, encoder: Module, graph: Graph,
                            report: "DeltaReport") -> np.ndarray:
        """Embeddings for ``graph`` after the delta described by ``report``.

        When the cache still holds the pre-delta embeddings, only the
        delta's affected receptive field is recomputed: the report's
        pre-extracted subgraph batch (or a fresh ``khop_subgraph`` over the
        affected set) is run through the layer-wise forward, the affected
        rows are patched into a copy of the cached array, and the result is
        stored under the graph's *new* ``cache_version``.  Unaffected rows
        are bit-identical to a full recompute — their propagation rows and
        receptive fields did not change — and the affected rows match to
        float tolerance because the subgraph propagation is the sliced
        full-graph matrix (see :mod:`repro.graphs.sampling`).

        Readers are never broken mid-patch: the patch builds a fresh array
        and publishes it with one atomic cache store, so a thread holding
        the previous (frozen) array keeps a consistent pre-delta view.

        Falls back to a full recompute when partial refresh is disabled,
        no usable pre-delta entry exists, the encoder is deeper than the
        report's ``num_hops`` bound, or the affected set exceeds
        ``config.partial_threshold`` of the graph (at that size one full
        pass is cheaper than subgraph extraction + patch).
        """
        depth = getattr(encoder, "num_message_passing_layers", None)
        if depth is not None and depth > report.num_hops:
            raise ValueError(
                f"delta report covers {report.num_hops} hops but the encoder "
                f"has {depth} message-passing layers; build the DynamicGraph "
                f"with num_hops >= {depth}")
        if self.cache is None or not self.config.partial_refresh:
            return self.embeddings(encoder, graph)
        if (graph.cache_version != report.new_cache_version
                or graph.num_nodes != report.new_num_nodes):
            # The graph moved again after this report was taken; the report's
            # affected set no longer bounds the difference.
            self.full_refresh_count += 1
            _REFRESHES.inc(kind="full")
            return self.embeddings(encoder, graph)
        stale = self.cache.stale_entry(encoder, graph)
        if (stale is None
                or stale[1] != report.old_cache_version
                or stale[0].shape[0] != report.old_num_nodes):
            self.full_refresh_count += 1
            _REFRESHES.inc(kind="full")
            return self.embeddings(encoder, graph)
        old_embeddings = stale[0]
        if report.num_affected == 0:
            # Topology-neutral delta (version bump only): re-key the cached
            # array under the new graph version without recomputing.
            self.partial_refresh_count += 1
            _REFRESHES.inc(kind="partial")
            return self.cache.store(encoder, graph, old_embeddings, copy=False)
        if report.num_affected > self.config.partial_threshold * graph.num_nodes:
            self.full_refresh_count += 1
            _REFRESHES.inc(kind="full")
            return self.embeddings(encoder, graph)

        with span("inference.partial_refresh",
                  affected=report.num_affected):
            batch = report.batch
            if batch is None:
                from ..graphs.sampling import khop_subgraph

                batch = khop_subgraph(graph, report.affected, report.num_hops)
            sub_embeddings = self._layerwise.run(encoder, batch.graph)
            patched = np.empty((graph.num_nodes, sub_embeddings.shape[1]),
                               dtype=sub_embeddings.dtype)
            patched[:report.old_num_nodes] = old_embeddings
            patched[batch.node_ids[batch.seed_local]] = sub_embeddings[batch.seed_local]
            self.partial_refresh_count += 1
            _REFRESHES.inc(kind="partial")
            return self.cache.store(encoder, graph, patched, copy=False)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop any cached embeddings (e.g. after mutating a graph in place)."""
        if self.cache is not None:
            self.cache.invalidate()

    @property
    def cache_hits(self) -> int:
        return 0 if self.cache is None else self.cache.hits

    @property
    def cache_misses(self) -> int:
        return 0 if self.cache is None else self.cache.misses

    def stats(self) -> dict:
        """Counters for logging/diagnostics."""
        return {
            "forwards": self.forward_count,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "partial_refreshes": self.partial_refresh_count,
            "full_refreshes": self.full_refresh_count,
        }

    def __repr__(self) -> str:
        return (
            f"InferenceEngine(chunk_size={self.config.chunk_size}, "
            f"cache={self.config.cache}, "
            f"forwards={self.forward_count})"
        )
