"""Graph deltas: batched node/edge arrivals applied to a live :class:`Graph`.

A :class:`GraphDelta` is the unit of change in the streaming protocol
(:mod:`repro.streaming`): a set of new nodes (feature rows, optional labels)
plus a set of new directed edges.  Applying one through
:meth:`Graph.apply_delta` appends the rows/columns and bumps the graph's
``cache_version``, so every version-keyed consumer
(:class:`repro.inference.EmbeddingCache`, serving snapshots) sees the
mutation.  The incremental bookkeeping needed to refresh *only* the affected
receptive field lives in :class:`repro.streaming.DynamicGraph`, which wraps
the same primitive.

Edge conventions match the rest of the repository: undirected graphs store
both directions explicitly, so a delta targeting an undirected graph must
contain both ``(u, w)`` and ``(w, u)`` — build one with
:meth:`GraphDelta.undirected` to get the symmetrization (and deduplication)
for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class GraphDelta:
    """A batch of node and edge arrivals.

    Attributes
    ----------
    add_features:
        Feature rows of the arriving nodes, shape ``(num_new_nodes, F)``.
        The new nodes take the next ``num_new_nodes`` ids of the target
        graph, in row order.  May be empty (edge-only delta).
    add_edges:
        Directed edges, shape ``(2, num_new_edges)``.  Endpoints may refer
        to existing nodes or to the arriving nodes' (future) ids.
    add_labels:
        Optional ground-truth labels of the arriving nodes (``-1`` marks an
        unknown label).  Whether a label is *revealed* to a learner is a
        protocol-level decision (see :mod:`repro.streaming.scenario`); the
        graph itself just stores them.
    """

    add_features: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    add_edges: np.ndarray = field(default_factory=lambda: np.zeros((2, 0), dtype=np.int64))
    add_labels: Optional[np.ndarray] = None

    def __post_init__(self):
        features = np.asarray(self.add_features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError("add_features must be 2-D (num_new_nodes, F)")
        edges = np.asarray(self.add_edges, dtype=np.int64)
        if edges.ndim != 2 or edges.shape[0] != 2:
            raise ValueError("add_edges must have shape (2, num_new_edges)")
        if edges.size and edges.min() < 0:
            raise ValueError("add_edges contains negative node ids")
        object.__setattr__(self, "add_features", features)
        object.__setattr__(self, "add_edges", edges)
        if self.add_labels is not None:
            labels = np.asarray(self.add_labels, dtype=np.int64)
            if labels.shape != (features.shape[0],):
                raise ValueError(
                    f"add_labels must have one entry per new node: got "
                    f"{labels.shape} for {features.shape[0]} nodes")
            object.__setattr__(self, "add_labels", labels)

    @classmethod
    def undirected(cls, add_features=None, add_edges=None,
                   add_labels=None) -> "GraphDelta":
        """Build a delta whose edges carry both directions (deduplicated).

        ``add_edges`` lists each undirected edge once; the stored delta
        contains both orientations, matching the repository convention that
        undirected graphs store both directed edges.
        """
        from .utils import symmetrize_edges

        features = (np.zeros((0, 0)) if add_features is None
                    else np.asarray(add_features, dtype=np.float64))
        edges = (np.zeros((2, 0), dtype=np.int64) if add_edges is None
                 else np.asarray(add_edges, dtype=np.int64))
        if edges.size:
            edges = symmetrize_edges(edges)
        return cls(add_features=features, add_edges=edges, add_labels=add_labels)

    @property
    def num_new_nodes(self) -> int:
        return int(self.add_features.shape[0])

    @property
    def num_new_edges(self) -> int:
        return int(self.add_edges.shape[1])

    @property
    def is_empty(self) -> bool:
        return self.num_new_nodes == 0 and self.num_new_edges == 0

    def touched_nodes(self, old_num_nodes: int) -> np.ndarray:
        """Sorted unique node ids directly modified by this delta.

        The union of the arriving node ids (``old_num_nodes`` onward) and
        every delta-edge endpoint — the seed set of the affected-region
        expansion in :class:`repro.streaming.DynamicGraph`.
        """
        new_ids = np.arange(old_num_nodes, old_num_nodes + self.num_new_nodes,
                            dtype=np.int64)
        return np.unique(np.concatenate([new_ids, self.add_edges.ravel()]))

    def validate_for(self, graph) -> None:
        """Check this delta is applicable to ``graph`` (ids and shapes)."""
        new_total = graph.num_nodes + self.num_new_nodes
        if self.num_new_nodes:
            if graph.num_nodes and self.add_features.shape[1] != graph.num_features:
                raise ValueError(
                    f"add_features has {self.add_features.shape[1]} columns, "
                    f"graph has {graph.num_features} features")
            if self.add_labels is not None and graph.labels is None:
                raise ValueError(
                    "delta carries labels but the graph is unlabeled")
        if self.add_edges.size and self.add_edges.max() >= new_total:
            raise ValueError(
                f"add_edges refers to node {int(self.add_edges.max())}, but "
                f"the graph will only have {new_total} nodes")

    def __repr__(self) -> str:
        return (f"GraphDelta(new_nodes={self.num_new_nodes}, "
                f"new_edges={self.num_new_edges})")
