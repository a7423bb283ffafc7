"""Shared training-loop infrastructure for OpenIMA and every baseline.

:class:`GraphTrainer` owns the GNN encoder, the classification head, the Adam
optimizer, mini-batch sampling, and the evaluation helpers.  Subclasses only
implement :meth:`compute_loss`, which receives the two augmented views of the
current batch (dropout applied twice to the same input, the SimCSE recipe the
paper follows) and returns a scalar loss tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from ..clustering.engine import ClusteringEngine
from ..datasets.splits import OpenWorldDataset
from ..gnn import ClassificationHead, build_encoder
from ..graphs.sampling import NeighborSampler
from ..inference import InferenceEngine
from ..metrics.accuracy import OpenWorldAccuracy, open_world_accuracy
from ..nn import functional as F
from ..nn.optim import Adam
from ..nn.tensor import Tensor, no_grad
from ..obs import span as _obs_span
from .callbacks import Callback, CallbackList, EvaluationCallback
from .config import (
    ClusteringConfig,
    InferenceConfig,
    SerializableConfig,
    TrainerConfig,
)
from .inference import InferenceResult, two_stage_predict
from .labels import LabelSpace


@dataclass
class TrainingHistory:
    """Per-epoch loss values and optional evaluation snapshots."""

    losses: List[float] = field(default_factory=list)
    evaluations: List[dict] = field(default_factory=list)

    def record_loss(self, value: float) -> None:
        self.losses.append(float(value))

    def record_evaluation(self, epoch: int, accuracy: OpenWorldAccuracy) -> None:
        self.evaluations.append({"epoch": epoch, **accuracy.as_dict()})

    @property
    def final_loss(self) -> Optional[float]:
        return self.losses[-1] if self.losses else None


class GraphTrainer:
    """Base class handling the encoder/head/optimizer and the epoch loop."""

    #: Human-readable method name, overridden by subclasses (used in tables).
    method_name = "base"

    def __init__(self, dataset: OpenWorldDataset, config: TrainerConfig,
                 num_novel_classes: Optional[int] = None):
        self.dataset = dataset
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        split = dataset.split
        num_novel = split.num_novel if num_novel_classes is None else int(num_novel_classes)
        self.label_space = LabelSpace(seen_classes=split.seen_classes, num_novel=num_novel)

        self.encoder = build_encoder(
            config.encoder.kind,
            in_features=dataset.graph.num_features,
            hidden_dim=config.encoder.hidden_dim,
            out_dim=config.encoder.out_dim,
            dropout=config.encoder.dropout,
            num_heads=config.encoder.num_heads,
            rng=self.rng,
        )
        self.head = ClassificationHead(
            config.encoder.out_dim, self.label_space.num_total, rng=self.rng
        )
        self.optimizer = Adam(
            self.encoder.parameters() + self.head.parameters(),
            lr=config.optimizer.learning_rate,
            weight_decay=config.optimizer.weight_decay,
        )
        # Neighborhood sampling: in "khop"/"sampled" mode each training step
        # runs the encoder on the batch's receptive-field subgraph instead of
        # the full graph (see SamplingConfig and repro.graphs.sampling).
        sampling = config.sampling
        self._sampling_rng: Optional[np.random.Generator] = (
            None if sampling.seed is None else np.random.default_rng(sampling.seed)
        )
        self._sampler: Optional[NeighborSampler] = None
        if sampling.mode != "full":
            depth = getattr(self.encoder, "num_message_passing_layers", None)
            if sampling.mode == "khop" and depth is not None and sampling.num_hops < depth:
                raise ValueError(
                    f"sampling.num_hops={sampling.num_hops} does not cover the "
                    f"encoder's {depth} message-passing layers; khop mode would "
                    "silently train on truncated receptive fields — raise "
                    "num_hops or use mode='sampled' for approximate expansion"
                )
            self._sampler = NeighborSampler(
                dataset.graph,
                num_hops=sampling.num_hops,
                fanouts=sampling.fanouts if sampling.mode == "sampled" else None,
                rng=self._sampling_rng if self._sampling_rng is not None else self.rng,
            )

        #: Deterministic all-node inference: the layer-wise forward plus the
        #: parameter-version-keyed embedding cache, so pseudo-label refresh,
        #: evaluation, and prediction against unchanged parameters share a
        #: single encoder pass (see repro.inference).
        self.inference_engine = InferenceEngine(config.inference)

        #: Strategy-based clustering (see repro.clustering.engine): the
        #: pseudo-label refresh runs through its stateful path (warm-started
        #: centroids, parameter-version refresh tolerance) and two-stage
        #: prediction through its stateless one.
        self.clustering_engine = self._build_clustering_engine(config.clustering)

        self.history = TrainingHistory()
        #: Number of completed training epochs (advanced by :meth:`fit`,
        #: restored by the checkpoint loader so ``fit`` resumes seamlessly).
        self.epochs_trained = 0
        #: Callbacks set this to end training at the current epoch boundary.
        self.stop_training = False

        # Internal-label lookup for the labeled training nodes.
        self._train_internal = self.label_space.to_internal(
            dataset.labels[split.train_nodes]
        )
        self._train_label_lookup = -np.ones(dataset.graph.num_nodes, dtype=np.int64)
        self._train_label_lookup[split.train_nodes] = self._train_internal

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def compute_loss(self, view1: Tensor, view2: Tensor, batch_nodes: np.ndarray) -> Tensor:
        """Return the scalar training loss for one batch (subclass hook)."""
        raise NotImplementedError

    def on_epoch_start(self, epoch: int) -> None:
        """Called before each epoch (pseudo-label refresh lives here)."""

    # ------------------------------------------------------------------
    # Persistence hooks
    # ------------------------------------------------------------------
    @property
    def full_config(self) -> SerializableConfig:
        """The complete config this trainer was built from.

        Subclasses with a richer config (OpenIMA) override this so
        checkpoints capture every hyper-parameter.
        """
        return self.config

    def extra_state(self) -> Dict[str, np.ndarray]:
        """Method-specific arrays that must survive a checkpoint/resume.

        Subclasses with cross-epoch state (pseudo-label lookups, EMA
        prototypes, ...) override this together with
        :meth:`load_extra_state`.
        """
        return {}

    def load_extra_state(self, state: Dict[str, np.ndarray]) -> None:
        """Restore arrays produced by :meth:`extra_state`."""

    def rng_state(self) -> dict:
        """JSON-serializable state of the trainer's random generators.

        Returns ``{"trainer": <state>}`` plus a ``"sampling"`` entry when a
        dedicated fanout-sampling generator exists (``sampling.seed`` set).
        """
        state = {"trainer": self.rng.bit_generator.state}
        if self._sampling_rng is not None:
            state["sampling"] = self._sampling_rng.bit_generator.state
        return state

    def set_rng_state(self, state: dict) -> None:
        """Restore the generator state captured by :meth:`rng_state`.

        Encoder dropout layers (and, unless ``sampling.seed`` is set, the
        neighborhood sampler) share the trainer generator, so restoring it
        makes a resumed run draw the exact noise an uninterrupted run would
        have drawn.  Accepts both the current ``{"trainer": ...}`` layout
        and the bare numpy state stored by pre-sampling checkpoints.
        """
        if "trainer" in state:
            self.rng.bit_generator.state = state["trainer"]
            sampling_state = state.get("sampling")
            if sampling_state is not None and self._sampling_rng is not None:
                self._sampling_rng.bit_generator.state = sampling_state
        else:
            self.rng.bit_generator.state = state

    def clustering_state(self) -> tuple:
        """Checkpointable clustering-engine state ``(meta, arrays)``.

        ``meta`` is JSON-serializable (RNG state, counters, and the last-fit
        parameter version expressed *relative* to the encoder's current
        version, since absolute version counters restart on load);
        ``arrays`` holds the carried centroids / online counts.
        """
        return self.clustering_engine.state_dict(self.encoder.parameter_version())

    def load_clustering_state(self, meta: dict, arrays: Optional[dict] = None) -> None:
        """Restore the state captured by :meth:`clustering_state`.

        Must be called after the encoder weights are loaded, so the relative
        parameter version anchors to the final counter value.
        """
        self.clustering_engine.load_state_dict(
            meta, arrays, self.encoder.parameter_version())

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def _iterate_batches(self) -> Iterator[np.ndarray]:
        num_nodes = self.dataset.graph.num_nodes
        if num_nodes < 2:
            # A lone node cannot form a dropout-contrastive pair.
            return
        order = self.rng.permutation(num_nodes)
        batch_size = max(2, min(self.config.batch_size, num_nodes))
        start = 0
        while start < num_nodes:
            end = start + batch_size
            if num_nodes - end < 2:
                # Fold a trailing remainder that is too small to stand alone
                # into this batch, so every node gets gradient signal every
                # epoch (a lone leftover node used to be dropped silently).
                end = num_nodes
            yield order[start:end]
            start = end

    def fit(self, callbacks: Optional[Iterable[Callback]] = None,
            max_epochs: Optional[int] = None) -> TrainingHistory:
        """Train up to ``max_epochs`` total epochs and return the history.

        Training continues from ``self.epochs_trained``, so calling ``fit``
        on a trainer restored from a checkpoint resumes exactly where it
        left off.  ``max_epochs`` overrides ``config.max_epochs`` as the
        *total* epoch target (useful for "train 3 epochs, checkpoint, resume
        to 10").  ``callbacks`` receive the epoch hooks documented in
        :mod:`repro.core.callbacks`; a positive ``config.eval_every``
        installs an :class:`EvaluationCallback` automatically.
        """
        target_epochs = self.config.max_epochs if max_epochs is None else int(max_epochs)
        callback_stack = list(callbacks or [])
        if self.config.eval_every:
            # Dispatch order is list order: run the evaluation first so its
            # logs["accuracy"] extension is visible to user callbacks (e.g.
            # EarlyStopping(monitor="accuracy")).
            callback_stack.insert(0, EvaluationCallback(self.config.eval_every))
        dispatcher = CallbackList(callback_stack)

        self.encoder.train()
        self.head.train()
        self.stop_training = False
        dispatcher.on_fit_start(self)
        with _obs_span("train.fit", method=self.method_name):
            for epoch in range(self.epochs_trained, target_epochs):
                with _obs_span("train.epoch", epoch=epoch):
                    self.on_epoch_start(epoch)
                    dispatcher.on_epoch_start(self, epoch)
                    epoch_losses = []
                    for batch_nodes in self._iterate_batches():
                        loss = self._train_step(batch_nodes)
                        epoch_losses.append(loss)
                    mean_loss = (float(np.mean(epoch_losses))
                                 if epoch_losses else float("nan"))
                    if epoch_losses:
                        self.history.record_loss(mean_loss)
                    self.epochs_trained = epoch + 1
                    logs = {"epoch": epoch, "loss": mean_loss}
                    dispatcher.on_epoch_end(self, epoch, logs)
                if self.stop_training:
                    break
        dispatcher.on_fit_end(self, self.history)
        return self.history

    def _train_step(self, batch_nodes: np.ndarray) -> float:
        with _obs_span("train.step", batch=len(batch_nodes)):
            self.optimizer.zero_grad()
            with _obs_span("train.forward"):
                view1, view2 = self._batch_views(batch_nodes)
            with _obs_span("train.loss"):
                loss = self.compute_loss(view1, view2, batch_nodes)
            with _obs_span("train.backward"):
                loss.backward()
            with _obs_span("train.optimizer"):
                self.optimizer.step()
            return float(loss.data)

    def _batch_views(self, batch_nodes: np.ndarray) -> tuple:
        """Two stochastic encoder views of the batch rows.

        The two dropout-noised forward passes provide the positive pairs
        (SimCSE / paper Section IV-C).  In ``"full"`` sampling mode both
        passes cover the whole graph; in ``"khop"``/``"sampled"`` mode the
        encoder runs on the batch's receptive-field subgraph and the batch
        rows are gathered through the local node-id mapping.  Either way
        ``compute_loss`` receives rows aligned with the *global*
        ``batch_nodes`` ids, so subclass label/pseudo-label lookups are
        sampling-agnostic.
        """
        if self._sampler is None:
            full_view1 = self.encoder(self.dataset.graph)
            full_view2 = self.encoder(self.dataset.graph)
            return (full_view1.gather_rows(batch_nodes),
                    full_view2.gather_rows(batch_nodes))
        batch = self._sampler.sample(batch_nodes)
        sub_view1 = self.encoder(batch.graph)
        sub_view2 = self.encoder(batch.graph)
        return (sub_view1.gather_rows(batch.seed_local),
                sub_view2.gather_rows(batch.seed_local))

    # ------------------------------------------------------------------
    # Evaluation helpers
    # ------------------------------------------------------------------
    def node_embeddings(self) -> np.ndarray:
        """Deterministic (dropout-free) embeddings of every node.

        Served by the :class:`~repro.inference.InferenceEngine`: one
        layer-wise pass (the encoder's ``embed``, chunked by
        ``inference.chunk_size``), and the parameter-version-keyed cache
        returns the same (read-only) array to every caller until the next
        parameter update.  Copy before mutating.
        """
        return self.inference_engine.embeddings(self.encoder, self.dataset.graph)

    def head_logits(self, embeddings: Optional[np.ndarray] = None) -> np.ndarray:
        """Head logits for all nodes, computed without recording gradients."""
        if embeddings is None:
            embeddings = self.node_embeddings()
        with no_grad():
            logits = self.head(Tensor(embeddings))
        return logits.numpy()

    def configure_inference(self, inference: InferenceConfig) -> None:
        """Swap the inference settings (chunk size, caching, refresh) in place.

        Rebuilds the engine (dropping any cached embeddings) and records the
        new section in ``self.config`` so subsequent checkpoints persist it.
        """
        self.config = self.config.with_updates(inference=inference)
        self.inference_engine = InferenceEngine(inference)

    def _build_clustering_engine(self, clustering: ClusteringConfig) -> ClusteringEngine:
        """One engine-wiring site for construction and reconfiguration.

        The legacy mini_batch_kmeans/kmeans_batch_size flags keep the
        "exact" strategy bit-identical to the pre-engine behavior.
        """
        return ClusteringEngine(
            clustering,
            seed=self.config.seed,
            mini_batch=self.config.mini_batch_kmeans,
            batch_size=self.config.kmeans_batch_size,
        )

    def configure_clustering(self, clustering: ClusteringConfig) -> None:
        """Swap the clustering settings (strategy, sampling, warm start).

        Rebuilds the engine — dropping any warm-start state — and records
        the new section in ``self.config`` so subsequent checkpoints
        persist it.
        """
        self.config = self.config.with_updates(clustering=clustering)
        self.clustering_engine = self._build_clustering_engine(clustering)

    def predict(self, num_novel_classes: Optional[int] = None,
                seed: Optional[int] = None,
                embeddings: Optional[np.ndarray] = None) -> InferenceResult:
        """Two-stage prediction over the current (or provided) embeddings."""
        if embeddings is None:
            embeddings = self.node_embeddings()
        return two_stage_predict(
            embeddings,
            self.dataset,
            num_novel_classes=(
                num_novel_classes if num_novel_classes is not None else self.label_space.num_novel
            ),
            seed=self.config.seed if seed is None else seed,
            engine=self.clustering_engine,
        )

    def accuracy_of(self, result: InferenceResult) -> OpenWorldAccuracy:
        """Open-world accuracy of an inference result on the test nodes.

        The one place the test-node accuracy protocol is written down;
        :meth:`evaluate`, the experiment runner, and the ``predict`` CLI all
        score through it.
        """
        test_nodes = self.dataset.split.test_nodes
        return open_world_accuracy(
            result.predictions[test_nodes],
            self.dataset.labels[test_nodes],
            self.dataset.split.seen_classes,
        )

    def evaluate(self, num_novel_classes: Optional[int] = None,
                 embeddings: Optional[np.ndarray] = None) -> OpenWorldAccuracy:
        """Open-world accuracy on the test nodes.

        ``embeddings`` short-circuits the encoder forward with a precomputed
        pass (the cache already de-duplicates repeat forwards, so this is
        only needed when caching is disabled or embeddings were edited).
        """
        return self.accuracy_of(self.predict(num_novel_classes=num_novel_classes,
                                             embeddings=embeddings))

    def validation_accuracy(self, embeddings: Optional[np.ndarray] = None) -> float:
        """Clustering accuracy on the validation nodes (used by SC&ACC)."""
        result = self.predict(embeddings=embeddings)
        val_nodes = self.dataset.split.val_nodes
        accuracy = open_world_accuracy(
            result.predictions[val_nodes],
            self.dataset.labels[val_nodes],
            self.dataset.split.seen_classes,
        )
        return accuracy.overall

    # ------------------------------------------------------------------
    # Shared building blocks for subclasses
    # ------------------------------------------------------------------
    def batch_manual_labels(self, batch_nodes: np.ndarray) -> np.ndarray:
        """Internal labels of the batch's labeled nodes, -1 elsewhere."""
        return self._train_label_lookup[batch_nodes]

    def normalized_views(self, view1: Tensor, view2: Tensor) -> Tensor:
        """L2-normalize and stack the two views into the 2N contrastive layout."""
        from .losses import concat_views

        normalized1 = F.l2_normalize(view1, axis=-1)
        normalized2 = F.l2_normalize(view2, axis=-1)
        return concat_views(normalized1, normalized2)

    def normalized_logit_views(self, view1: Tensor, view2: Tensor) -> Tensor:
        """L2-normalized head logits for both views (Eq. 8 inputs)."""
        from .losses import concat_views

        logits1 = self.head.normalized_logits(view1)
        logits2 = self.head.normalized_logits(view2)
        return concat_views(logits1, logits2)
