"""Estimator-style facade over the method registry.

:class:`OpenWorldClassifier` gives every registered method (OpenIMA and all
eleven baselines) the same scikit-learn-shaped surface::

    from repro.api import OpenWorldClassifier

    clf = OpenWorldClassifier("openima", config={"trainer": {"max_epochs": 10}})
    clf.fit("citeseer", scale=0.5)
    predictions = clf.predict()
    print(clf.evaluate())
    clf.save("runs/openima-citeseer")

    restored = OpenWorldClassifier.load("runs/openima-citeseer")
    assert (restored.predict() == predictions).all()

``fit`` after :meth:`load` *continues* training from the checkpointed epoch
with the exact optimizer/RNG state, so a resumed run matches an
uninterrupted same-seed run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping, Optional, Union

import numpy as np

from ..clustering.engine import ClusteringEngine
from ..core.callbacks import Callback
from ..core.config import (
    ClusteringConfig,
    InferenceConfig,
    SerializableConfig,
    TrainerConfig,
)
from ..core.inference import InferenceResult
from ..core.registry import METHODS, MethodSpec
from ..core.trainer import GraphTrainer, TrainingHistory
from ..inference import InferenceEngine
from ..datasets.splits import OpenWorldDataset
from ..datasets.synthetic import load_open_world_dataset
from ..metrics.accuracy import OpenWorldAccuracy
from .checkpoint import load_trainer_checkpoint, save_trainer_checkpoint

DatasetLike = Union[str, OpenWorldDataset]


class NotFittedError(RuntimeError):
    """Raised when predict/evaluate/save is called before fit/load."""


class OpenWorldClassifier:
    """Train, evaluate, persist, and resume any registered method.

    Parameters
    ----------
    method:
        Registry name (see ``repro.core.registry.available_methods()``).
    config:
        ``None`` (method defaults), the method's config object
        (:class:`TrainerConfig`, or :class:`OpenIMAConfig` for OpenIMA), or
        a plain dict deserialized through the config's strict ``from_dict``.
    num_novel_classes:
        Override for the number of novel classes (paper Table VI setting).
    method_params:
        Method-specific keyword overrides that are not part of the shared
        trainer config (e.g. ``margin_scale`` for ORCA, ``eta`` for OpenIMA).
    """

    def __init__(
        self,
        method: str = "openima",
        config: Union[SerializableConfig, Mapping, None] = None,
        *,
        num_novel_classes: Optional[int] = None,
        method_params: Optional[Mapping] = None,
    ):
        self._spec: MethodSpec = METHODS.get(method)
        self.method = self._spec.name
        if isinstance(config, Mapping):
            config = self._spec.config_cls.from_dict(config)
        self.config = config
        self.num_novel_classes = num_novel_classes
        self.method_params = dict(method_params or {})
        self.trainer_: Optional[GraphTrainer] = None
        self.dataset_: Optional[OpenWorldDataset] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _trainer_config(self) -> TrainerConfig:
        """The shared trainer-loop config, whatever the method's config is."""
        config = self.config if self.config is not None else self._spec.config_cls()
        if isinstance(config, TrainerConfig):
            return config
        return config.trainer

    def _resolve_dataset(self, dataset: DatasetLike, options: dict) -> OpenWorldDataset:
        if isinstance(dataset, OpenWorldDataset):
            if options:
                raise TypeError(
                    f"dataset options {sorted(options)} are only valid when "
                    "the dataset is given by name"
                )
            return dataset
        options.setdefault("seed", self._trainer_config().seed)
        return load_open_world_dataset(dataset, **options)

    def _require_fitted(self) -> GraphTrainer:
        if self.trainer_ is None:
            raise NotFittedError(
                "this OpenWorldClassifier has no trained model yet; "
                "call fit() or OpenWorldClassifier.load() first"
            )
        return self.trainer_

    # ------------------------------------------------------------------
    # Estimator surface
    # ------------------------------------------------------------------
    def fit(
        self,
        dataset: Optional[DatasetLike] = None,
        *,
        callbacks: Optional[Iterable[Callback]] = None,
        max_epochs: Optional[int] = None,
        **dataset_options,
    ) -> "OpenWorldClassifier":
        """Train (or continue training) on ``dataset``.

        ``dataset`` is a registry name (with optional loader keyword
        arguments such as ``scale=0.5``) or an
        :class:`~repro.datasets.splits.OpenWorldDataset`.  It may be omitted
        when a model is already attached (resume).  ``max_epochs`` overrides
        the config's total epoch target for this call.
        """
        if self.trainer_ is None:
            if dataset is None:
                raise ValueError("fit() needs a dataset for the first call")
            self.dataset_ = self._resolve_dataset(dataset, dataset_options)
            self.trainer_ = METHODS.build(
                self.method,
                self.dataset_,
                config=self.config,
                num_novel_classes=self.num_novel_classes,
                **self.method_params,
            )
            # Normalize: after construction the trainer's config is the
            # source of truth (includes builder-applied defaults).
            self.config = self.trainer_.full_config
        elif dataset is not None or dataset_options:
            raise ValueError(
                "this classifier already has a trained model; fit() continues "
                "training and does not accept a new dataset"
            )
        self.trainer_.fit(callbacks=callbacks, max_epochs=max_epochs)
        return self

    def predict(self) -> np.ndarray:
        """Predicted class id for every node (original label ids)."""
        return self.predict_full().predictions

    def predict_full(self) -> InferenceResult:
        """The full inference result (predictions, clustering, alignment)."""
        return self._require_fitted().predict()

    def evaluate(self) -> OpenWorldAccuracy:
        """Open-world accuracy (overall / seen / novel) on the test nodes."""
        return self._require_fitted().evaluate()

    def embed(self) -> np.ndarray:
        """Deterministic (dropout-free) node embeddings.

        Served by the trainer's :class:`~repro.inference.InferenceEngine`:
        one layer-wise pass, chunked by ``inference.chunk_size`` (see
        :meth:`configure_inference`), reused by repeated calls against
        unchanged parameters.  The returned array is read-only when cached;
        copy before mutating.
        """
        return self._require_fitted().node_embeddings()

    def configure_inference(
        self, inference: Union[InferenceConfig, Mapping]
    ) -> "OpenWorldClassifier":
        """Swap the fitted model's inference settings (chunking/cache/refresh).

        Accepts an :class:`~repro.core.config.InferenceConfig` or a plain
        dict (strict keys), e.g. ``{"chunk_size": 8192}``.  The change is
        recorded in the config, so subsequent :meth:`save` calls persist it.
        """
        if isinstance(inference, Mapping):
            inference = InferenceConfig.from_dict(inference)
        trainer = self._require_fitted()
        trainer.configure_inference(inference)
        self.config = trainer.full_config
        return self

    @property
    def inference_engine(self) -> InferenceEngine:
        """The fitted trainer's inference engine (forward/cache counters)."""
        return self._require_fitted().inference_engine

    def configure_clustering(
        self, clustering: Union[ClusteringConfig, Mapping]
    ) -> "OpenWorldClassifier":
        """Swap the fitted model's clustering settings (strategy/sampling).

        Accepts a :class:`~repro.core.config.ClusteringConfig` or a plain
        dict (strict keys), e.g. ``{"strategy": "minibatch", "sample_size":
        4096}``.  Rebuilding the engine drops any warm-start state; the new
        section is recorded in the config, so subsequent :meth:`save` calls
        persist it.
        """
        if isinstance(clustering, Mapping):
            clustering = ClusteringConfig.from_dict(clustering)
        trainer = self._require_fitted()
        trainer.configure_clustering(clustering)
        self.config = trainer.full_config
        return self

    @property
    def clustering_engine(self) -> ClusteringEngine:
        """The fitted trainer's clustering engine (refresh/refit counters)."""
        return self._require_fitted().clustering_engine

    def as_service(self):
        """A :class:`repro.serve.PredictionService` owning this fitted model.

        The service is the single writer of model state for online serving:
        it publishes immutable per-version prediction snapshots that many
        request threads read concurrently (see :mod:`repro.serve`).
        """
        # Imported lazily: repro.serve builds on this module.
        from ..serve import PredictionService

        self._require_fitted()
        return PredictionService(self)

    @property
    def history(self) -> TrainingHistory:
        return self._require_fitted().history

    @property
    def epochs_trained(self) -> int:
        return 0 if self.trainer_ is None else self.trainer_.epochs_trained

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> Path:
        """Write a versioned, resumable checkpoint directory to ``path``."""
        return save_trainer_checkpoint(self._require_fitted(), path)

    @classmethod
    def load(cls, path, dataset: Optional[OpenWorldDataset] = None) -> "OpenWorldClassifier":
        """Restore a classifier saved with :meth:`save`.

        The dataset is regenerated from the checkpoint manifest unless an
        explicit ``dataset`` is given (required for external datasets).
        """
        trainer, manifest = load_trainer_checkpoint(path, dataset=dataset)
        classifier = cls(
            manifest["method"],
            trainer.full_config,
            num_novel_classes=manifest.get("num_novel_classes"),
            method_params=manifest.get("method_kwargs", {}),
        )
        classifier.trainer_ = trainer
        classifier.dataset_ = trainer.dataset
        return classifier

    def __repr__(self) -> str:
        state = f"epochs_trained={self.epochs_trained}" if self.trainer_ else "unfitted"
        return f"OpenWorldClassifier(method={self.method!r}, {state})"
