"""Versioned trainer checkpoints: npz weights + JSON manifest.

A checkpoint is a directory with two files:

* ``manifest.json`` — format version, method name, full method config,
  label-space, dataset loader arguments, epochs trained, optimizer step
  count, training history, and the trainer's RNG state.
* ``weights.npz`` — every encoder/head parameter (dotted names prefixed
  with ``encoder.`` / ``head.``), the optimizer moment buffers
  (``optim.<name>.<index>``), any method-specific extra arrays
  (``extra.<name>``), and the clustering engine's carried centroids /
  online counts (``clustering.<name>``).

Loading rebuilds the dataset from the recorded loader arguments (or uses a
caller-provided dataset), reconstructs the trainer through the unified
method registry, and restores weights, optimizer state, RNG state, and
method extras — so ``fit`` after ``load`` continues *identically* to an
uninterrupted run, and ``predict`` is bitwise-identical to the saved model.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from ..core.registry import METHODS
from ..core.trainer import GraphTrainer, TrainingHistory
from ..datasets.splits import OpenWorldDataset
from ..datasets.synthetic import load_open_world_dataset

#: Bump when the on-disk layout changes incompatibly.
CHECKPOINT_FORMAT_VERSION = 1

MANIFEST_FILE = "manifest.json"
WEIGHTS_FILE = "weights.npz"


class CheckpointError(RuntimeError):
    """Raised when a checkpoint is malformed or incompatible."""


def _method_key(trainer: GraphTrainer) -> str:
    """Registry key for a trainer, even if it was constructed by hand."""
    key = getattr(trainer, "_method_key", None)
    if key is not None:
        return key
    for spec in METHODS.specs():
        if type(trainer) is spec.trainer_cls:
            return spec.name
    raise CheckpointError(
        f"trainer class {type(trainer).__name__} is not in the method registry; "
        "construct it via repro.core.registry.build_method to make it checkpointable"
    )


def _dataset_spec(dataset: OpenWorldDataset) -> dict:
    loader_args = dataset.metadata.get("loader_args")
    if loader_args is not None:
        return {"source": "registry", "loader_args": dict(loader_args)}
    return {"source": "external", "name": dataset.name,
            "split_seed": int(dataset.split.seed)}


def save_trainer_checkpoint(trainer: GraphTrainer, path) -> Path:
    """Write a resumable checkpoint for ``trainer`` into directory ``path``."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    method = _method_key(trainer)
    spec = METHODS.get(method)
    config = trainer.full_config

    arrays = {}
    for name, value in trainer.encoder.state_dict().items():
        arrays[f"encoder.{name}"] = value
    for name, value in trainer.head.state_dict().items():
        arrays[f"head.{name}"] = value
    optimizer_state = trainer.optimizer.state_dict()
    optimizer_meta = {}
    for name, value in optimizer_state.items():
        if isinstance(value, (list, tuple)):
            for index, buffer in enumerate(value):
                arrays[f"optim.{name}.{index}"] = np.asarray(buffer)
        else:
            optimizer_meta[name] = int(value)
    for name, value in trainer.extra_state().items():
        arrays[f"extra.{name}"] = np.asarray(value)
    clustering_meta, clustering_arrays = trainer.clustering_state()
    for name, value in clustering_arrays.items():
        arrays[f"clustering.{name}"] = np.asarray(value)
    np.savez(path / WEIGHTS_FILE, **arrays)

    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "method": method,
        "display_name": spec.display_name,
        "config_class": type(config).__name__,
        "config": config.to_dict(),
        "method_kwargs": dict(getattr(trainer, "_method_kwargs", {})),
        "num_novel_classes": int(trainer.label_space.num_novel),
        "label_space": {
            "seen_classes": [int(c) for c in trainer.label_space.seen_classes],
            "num_novel": int(trainer.label_space.num_novel),
        },
        "dataset": _dataset_spec(trainer.dataset),
        "epochs_trained": int(trainer.epochs_trained),
        "optimizer": optimizer_meta,
        "rng_state": trainer.rng_state(),
        # Clustering-engine state (warm-start centroids live in weights.npz
        # under clustering.*): RNG, refresh counters, and the last-fit
        # parameter version relative to the encoder's current counter.
        "clustering_state": clustering_meta,
        "history": {
            # Non-finite losses (diverged runs) become null so the manifest
            # stays strict JSON; the loader maps null back to NaN.
            "losses": [float(v) if math.isfinite(v) else None
                       for v in trainer.history.losses],
            "evaluations": list(trainer.history.evaluations),
        },
    }
    (path / MANIFEST_FILE).write_text(
        json.dumps(manifest, indent=2, allow_nan=False) + "\n")
    return path


def read_manifest(path) -> dict:
    """Read and validate a checkpoint manifest."""
    manifest_path = Path(path) / MANIFEST_FILE
    if not manifest_path.exists():
        raise CheckpointError(f"no checkpoint manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    version = manifest.get("format_version")
    try:
        version_ok = version is not None and int(version) <= CHECKPOINT_FORMAT_VERSION
    except (TypeError, ValueError):
        version_ok = False
    if not version_ok:
        raise CheckpointError(
            f"checkpoint at {path} has format version {version!r}; this build "
            f"supports versions <= {CHECKPOINT_FORMAT_VERSION}"
        )
    return manifest


def _rebuild_dataset(manifest: dict, path) -> OpenWorldDataset:
    spec = manifest.get("dataset") or {}
    if spec.get("source") != "registry":
        raise CheckpointError(
            f"checkpoint at {path} was trained on an external dataset "
            f"({spec.get('name', '?')!r}); pass the dataset explicitly to load()"
        )
    args = dict(spec["loader_args"])
    return load_open_world_dataset(**args)


def _drop_retired_config_keys(config: dict) -> dict:
    """``config`` without the trainer section's retired keys.

    Checkpoints written before the multi-core execution layer was removed
    carry ``parallel`` settings in their trainer config, those written
    before the layer-wise forward became the only inference pass carry
    ``inference.mode`` and ``inference.auto_threshold``, and those written
    before the edge-list message passing became the only one carry
    ``encoder.backend`` (top level for baselines, under ``trainer`` for
    OpenIMA).  None of them changes results, so they are dropped here and
    ``from_dict`` stays strict for every other field.
    """
    trainer = config.get("trainer", config)
    trainer.pop("parallel", None)
    inference = trainer.get("inference")
    if isinstance(inference, dict):
        for key in ("mode", "auto_threshold"):
            inference.pop(key, None)
    encoder = trainer.get("encoder")
    if isinstance(encoder, dict):
        encoder.pop("backend", None)
    return config


def load_trainer_checkpoint(
    path,
    dataset: Optional[OpenWorldDataset] = None,
) -> Tuple[GraphTrainer, dict]:
    """Restore a trainer (and its manifest) from a checkpoint directory.

    If ``dataset`` is ``None`` it is regenerated from the loader arguments
    recorded in the manifest.  The restored label space is verified against
    the manifest so a drifted dataset fails loudly instead of mis-mapping
    classes.
    """
    path = Path(path)
    manifest = read_manifest(path)

    if dataset is None:
        dataset = _rebuild_dataset(manifest, path)

    method = manifest["method"]
    spec = METHODS.get(method)
    config = spec.config_cls.from_dict(
        _drop_retired_config_keys(manifest["config"]))
    # Methods with a custom builder carry num_novel_classes inside their own
    # config; passing it again would mutate the config away from what was
    # saved.  The label-space check below still catches dataset drift.
    num_novel = None if spec.builder is not None else manifest["num_novel_classes"]
    trainer = METHODS.build(
        method,
        dataset,
        config=config,
        num_novel_classes=num_novel,
        **manifest.get("method_kwargs", {}),
    )

    saved_seen = [int(c) for c in manifest["label_space"]["seen_classes"]]
    actual_seen = [int(c) for c in trainer.label_space.seen_classes]
    saved_novel = int(manifest["label_space"]["num_novel"])
    if saved_seen != actual_seen or saved_novel != trainer.label_space.num_novel:
        raise CheckpointError(
            f"label-space mismatch: checkpoint (seen={saved_seen}, "
            f"num_novel={saved_novel}) vs dataset "
            f"(seen={actual_seen}, num_novel={trainer.label_space.num_novel}); "
            "the dataset does not match the one the checkpoint was trained on"
        )

    with np.load(path / WEIGHTS_FILE) as bundle:
        arrays = {name: bundle[name] for name in bundle.files}

    def take(prefix: str) -> dict:
        plen = len(prefix)
        return {name[plen:]: value for name, value in arrays.items()
                if name.startswith(prefix)}

    trainer.encoder.load_state_dict(take("encoder."), strict=True)
    trainer.head.load_state_dict(take("head."), strict=True)

    optimizer_state: dict = dict(manifest.get("optimizer", {}))
    buffers: dict = {}
    for name, value in take("optim.").items():
        buffer_name, _, index = name.rpartition(".")
        buffers.setdefault(buffer_name, {})[int(index)] = value
    for buffer_name, indexed in buffers.items():
        optimizer_state[buffer_name] = [indexed[i] for i in sorted(indexed)]
    if optimizer_state:
        trainer.optimizer.load_state_dict(optimizer_state)

    trainer.load_extra_state(take("extra."))
    clustering_meta = manifest.get("clustering_state")
    if clustering_meta is not None:
        # After the weights are loaded, so the relative last-fit parameter
        # version anchors to the final counter.  Legacy manifests (without
        # the section) predate the engine and start from a fresh one, which
        # matches their training history (exact strategy, no carried state).
        trainer.load_clustering_state(clustering_meta, take("clustering."))
    trainer.set_rng_state(manifest["rng_state"])
    trainer.epochs_trained = int(manifest["epochs_trained"])
    history = manifest.get("history", {})
    trainer.history = TrainingHistory(
        losses=[float("nan") if v is None else float(v)
                for v in history.get("losses", [])],
        evaluations=list(history.get("evaluations", [])),
    )
    return trainer, manifest
