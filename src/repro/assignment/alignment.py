"""Cluster-to-class alignment and open-world clustering accuracy.

Two alignments are used in the paper:

* **Training-time alignment** (Eq. 5): align clusters with seen classes using
  only the labeled nodes.  Clusters that do not match any seen class keep an
  "unaligned" novel id; pseudo labels of such clusters are usable only by the
  contrastive losses (class ids unordered).
* **Evaluation alignment**: the standard clustering-accuracy protocol — run
  the Hungarian algorithm once across all classes on the test nodes, then
  report accuracy overall and on seen/novel subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .hungarian import max_profit_assignment


def contingency_matrix(cluster_labels: np.ndarray, class_labels: np.ndarray,
                       num_clusters: Optional[int] = None,
                       num_classes: Optional[int] = None) -> np.ndarray:
    """Count matrix C[cluster, class] of co-occurrences."""
    cluster_labels = np.asarray(cluster_labels, dtype=np.int64)
    class_labels = np.asarray(class_labels, dtype=np.int64)
    if cluster_labels.shape != class_labels.shape:
        raise ValueError("cluster and class label arrays must have identical shape")
    k = num_clusters if num_clusters is not None else int(cluster_labels.max()) + 1
    c = num_classes if num_classes is not None else int(class_labels.max()) + 1
    for labels, bound in ((cluster_labels, k), (class_labels, c)):
        if labels.size and not 0 <= labels.min() <= labels.max() < bound:
            raise ValueError(f"labels must lie in [0, {bound})")
    return np.bincount(cluster_labels * c + class_labels,
                       minlength=k * c).reshape(k, c)


@dataclass
class ClusterAlignment:
    """Mapping from cluster ids to class ids.

    ``mapping[cluster]`` gives the class id assigned to that cluster.
    Clusters not matched to any seen class receive synthetic novel ids
    (>= ``num_known_classes``) so that every cluster maps to a distinct
    "class" for prediction purposes.
    """

    mapping: Dict[int, int]
    matched_clusters: np.ndarray
    unmatched_clusters: np.ndarray

    def apply(self, cluster_labels: np.ndarray) -> np.ndarray:
        """Translate cluster ids into class ids."""
        cluster_labels = np.asarray(cluster_labels, dtype=np.int64)
        return np.array([self.mapping[int(c)] for c in cluster_labels], dtype=np.int64)


def align_clusters_to_classes(
    cluster_labels: np.ndarray,
    class_labels: np.ndarray,
    num_clusters: int,
    known_classes: np.ndarray,
    total_num_classes: Optional[int] = None,
) -> ClusterAlignment:
    """Hungarian alignment of clusters to *seen* classes on labeled nodes (Eq. 5).

    Parameters
    ----------
    cluster_labels:
        Predicted cluster of every labeled node.
    class_labels:
        Ground-truth (seen) class of every labeled node.
    num_clusters:
        Total number of clusters (>= number of seen classes).
    known_classes:
        The seen class ids that can be matched.
    total_num_classes:
        Used to pick fresh ids for unmatched clusters; defaults to
        ``max(known_classes) + 1``.
    """
    known_classes = np.asarray(known_classes, dtype=np.int64)
    class_index = {cls: i for i, cls in enumerate(known_classes)}
    compact_classes = np.array([class_index[c] for c in class_labels], dtype=np.int64)
    counts = contingency_matrix(
        cluster_labels, compact_classes, num_clusters=num_clusters,
        num_classes=known_classes.shape[0],
    )
    rows, cols = max_profit_assignment(counts.astype(np.float64))
    mapping: Dict[int, int] = {}
    matched = []
    for cluster, class_pos in zip(rows, cols, strict=True):
        mapping[int(cluster)] = int(known_classes[class_pos])
        matched.append(int(cluster))
    matched = np.asarray(sorted(matched), dtype=np.int64)
    unmatched = np.setdiff1d(np.arange(num_clusters), matched)
    next_id = int(total_num_classes if total_num_classes is not None else known_classes.max() + 1)
    for cluster in unmatched:
        mapping[int(cluster)] = next_id
        next_id += 1
    return ClusterAlignment(mapping=mapping, matched_clusters=matched, unmatched_clusters=unmatched)


def hungarian_accuracy_mapping(predictions: np.ndarray, targets: np.ndarray) -> Dict[int, int]:
    """Best prediction-id -> target-id mapping for clustering accuracy."""
    predictions = np.asarray(predictions, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    pred_ids = np.unique(predictions)
    target_ids = np.unique(targets)
    pred_index = {p: i for i, p in enumerate(pred_ids)}
    target_index = {t: i for i, t in enumerate(target_ids)}
    counts = np.zeros((pred_ids.shape[0], target_ids.shape[0]), dtype=np.float64)
    for p, t in zip(predictions, targets, strict=True):
        counts[pred_index[p], target_index[t]] += 1
    rows, cols = max_profit_assignment(counts)
    return {int(pred_ids[r]): int(target_ids[c]) for r, c in zip(rows, cols, strict=True)}


def clustering_accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Standard clustering accuracy: best Hungarian matching, then accuracy."""
    mapping = hungarian_accuracy_mapping(predictions, targets)
    remapped = np.array([mapping.get(int(p), -1) for p in predictions], dtype=np.int64)
    return float((remapped == targets).mean())
