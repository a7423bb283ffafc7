"""Configuration objects for OpenIMA and the shared trainer infrastructure.

Every config dataclass serializes to plain JSON-compatible dicts through
:class:`SerializableConfig` (``to_dict`` / ``from_dict`` / ``to_json`` /
``from_json``).  ``from_dict`` validates keys strictly: unknown keys raise a
``ValueError`` naming the valid fields, so a typo in a checkpoint manifest or
a ``--set`` override fails loudly instead of being silently dropped.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, get_type_hints


class SerializableConfig:
    """Mixin adding strict dict/JSON round-tripping to config dataclasses.

    Nested config fields (e.g. ``TrainerConfig.encoder``) are recursed into,
    so ``from_dict`` accepts either a nested dict or an already-constructed
    config object for those fields.
    """

    @classmethod
    def _field_types(cls) -> Dict[str, Any]:
        return get_type_hints(cls)

    def to_dict(self) -> dict:
        """Plain-dict representation (nested configs become nested dicts)."""
        result: dict = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, SerializableConfig):
                value = value.to_dict()
            result[f.name] = value
        return result

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SerializableConfig":
        """Build a config from a (possibly partial) dict.

        Missing keys fall back to the dataclass defaults; unknown keys raise
        ``ValueError``.
        """
        if not isinstance(data, Mapping):
            raise TypeError(f"{cls.__name__}.from_dict expects a mapping, got "
                            f"{type(data).__name__}")
        valid = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - valid)
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} keys {unknown}; valid keys: {sorted(valid)}"
            )
        types = cls._field_types()
        kwargs: dict = {}
        for f in dataclasses.fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            field_type = types.get(f.name)
            if (isinstance(field_type, type)
                    and issubclass(field_type, SerializableConfig)
                    and isinstance(value, Mapping)):
                value = field_type.from_dict(value)
            kwargs[f.name] = value
        return cls(**kwargs)

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SerializableConfig":
        return cls.from_dict(json.loads(text))

    def with_updates(self, **kwargs):
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class EncoderConfig(SerializableConfig):
    """GNN encoder hyper-parameters (paper Section VII defaults)."""

    kind: str = "gat"
    hidden_dim: int = 128
    out_dim: int = 64
    num_heads: int = 8
    dropout: float = 0.5


#: Valid ``SamplingConfig.mode`` values.
SAMPLING_MODES = ("full", "khop", "sampled")


@dataclass(frozen=True)
class SamplingConfig(SerializableConfig):
    """Mini-batch neighborhood-sampling settings (``repro.graphs.sampling``).

    Attributes
    ----------
    mode:
        ``"full"`` (default) runs the encoder on the whole graph every batch
        and gathers the batch rows — O(num_batches x full forward) per
        epoch.  ``"khop"`` extracts the exact ``num_hops``-hop receptive
        field of each batch and runs the encoder on that subgraph only; with
        dropout disabled it reproduces full-graph batch losses to 1e-8.
        ``"sampled"`` additionally caps the expansion with per-hop
        ``fanouts`` (GraphSAGE-style), trading exactness for a bounded
        per-step cost on huge or scale-free graphs.
    num_hops:
        Receptive-field depth; must cover the encoder's message-passing
        depth (both in-repo encoders are 2-layer, hence the default).
    fanouts:
        Per-hop neighbor caps for ``mode="sampled"`` (one per hop).  ``None``
        defaults to 10 neighbors per hop; ignored by the other modes.
    seed:
        Optional dedicated seed for the fanout RNG.  ``None`` (default)
        draws from the trainer's generator, whose state checkpoints already
        persist; a dedicated generator's state is checkpointed separately.
    """

    mode: str = "full"
    num_hops: int = 2
    fanouts: Optional[list] = None
    seed: Optional[int] = None

    def __post_init__(self):
        from ..graphs.sampling import validate_fanouts

        if self.mode not in SAMPLING_MODES:
            raise ValueError(
                f"unknown sampling mode {self.mode!r}; expected one of {SAMPLING_MODES}"
            )
        _, fanouts = validate_fanouts(self.num_hops, self.fanouts)
        if fanouts is None and self.mode == "sampled":
            fanouts = [10] * self.num_hops
        object.__setattr__(self, "fanouts", fanouts)


#: Valid ``ClusteringConfig.strategy`` values.
CLUSTERING_STRATEGIES = ("exact", "minibatch", "online")


@dataclass(frozen=True)
class ClusteringConfig(SerializableConfig):
    """Pseudo-label / two-stage clustering settings (``repro.clustering.engine``).

    Attributes
    ----------
    strategy:
        ``"exact"`` (default) runs the full Lloyd K-Means path used so far —
        bit-identical to the pre-engine refresh at the same seed.
        ``"minibatch"`` fits MiniBatch-KMeans on at most ``sample_size``
        sampled embeddings and finishes with one full chunked assignment
        pass.  ``"online"`` streams one pass of Sculley-style centroid
        updates over embedding chunks and carries centroids (and running
        cluster counts) across refreshes, so each refresh only refines the
        previous one.
    sample_size:
        Number of embeddings sampled for the ``minibatch`` fit (and for the
        ``online`` strategy's k-means++ cold start).
    reassign_chunk_size:
        Row-chunk size of the final full assignment pass (and of the online
        streaming updates); bounds peak memory at O(chunk x k), mirroring
        the layer-wise inference chunking.
    warm_start:
        Carry the previous refresh's centroids into the next fit (``exact``
        and ``minibatch``; ``online`` always carries its streaming state).
        Off by default so ``exact`` stays bit-identical to the historical
        refresh.
    refresh_tolerance:
        Short-circuit threshold on the encoder's parameter-version drift
        since the last full fit (``Module.parameter_version()`` units: one
        optimizer step advances the version once per parameter tensor).
        When carried centroids exist and the drift is within the tolerance,
        the refresh only reassigns points to the existing centroids and
        skips the re-fit.  ``0`` (default) disables the short-circuit; a
        positive tolerance requires ``warm_start`` (or the ``online``
        strategy) so it cannot be silently inert.
    seed:
        Optional dedicated seed for the clustering RNG; ``None`` (default)
        uses the trainer's seed, which keeps ``exact`` refreshes identical
        to the pre-engine behavior.
    birth_threshold:
        Cluster-birth trigger for the streaming protocol (``online``
        strategy only).  After each warm refresh the engine samples
        ``birth_sample_size`` rows, computes the per-cluster mean
        silhouette, and splits the worst cluster in two when its score
        falls below this threshold (one birth per refresh) — how the model
        admits a class it has never seen.  ``None`` (default) disables
        birth, keeping the online strategy's historical behavior.
    birth_sample_size:
        Rows sampled for the silhouette birth signal (O(sample^2) cost per
        refresh, so keep it modest).
    birth_min_size:
        Minimum member count before a cluster is eligible for splitting;
        keeps noise-dominated tiny clusters from fissioning.
    max_clusters:
        Hard cap on the cluster count after births; ``None`` means
        unbounded.
    """

    strategy: str = "exact"
    sample_size: int = 8192
    reassign_chunk_size: int = 16384
    warm_start: bool = False
    refresh_tolerance: int = 0
    seed: Optional[int] = None
    birth_threshold: Optional[float] = None
    birth_sample_size: int = 1024
    birth_min_size: int = 16
    max_clusters: Optional[int] = None

    def __post_init__(self):
        if self.strategy not in CLUSTERING_STRATEGIES:
            raise ValueError(
                f"unknown clustering strategy {self.strategy!r}; "
                f"expected one of {CLUSTERING_STRATEGIES}"
            )
        if int(self.sample_size) < 1:
            raise ValueError(
                f"clustering sample_size must be >= 1, got {self.sample_size}")
        if int(self.reassign_chunk_size) < 1:
            raise ValueError(
                f"clustering reassign_chunk_size must be >= 1, "
                f"got {self.reassign_chunk_size}")
        if int(self.refresh_tolerance) < 0:
            raise ValueError(
                f"clustering refresh_tolerance must be >= 0, "
                f"got {self.refresh_tolerance}")
        if (int(self.refresh_tolerance) > 0 and not self.warm_start
                and self.strategy != "online"):
            raise ValueError(
                "clustering refresh_tolerance requires carried centroids: "
                "set warm_start=true (or use the online strategy, which "
                "always carries its streaming state), or reset "
                "refresh_tolerance=0 — without carried centroids the "
                "tolerance would be silently ignored"
            )
        if self.birth_threshold is not None:
            if self.strategy != "online":
                raise ValueError(
                    "clustering birth_threshold extends the online strategy's "
                    f"warm refresh; it is not supported with strategy="
                    f"{self.strategy!r}"
                )
            if not -1.0 <= float(self.birth_threshold) <= 1.0:
                raise ValueError(
                    f"clustering birth_threshold must be a silhouette value in "
                    f"[-1, 1], got {self.birth_threshold}")
        if int(self.birth_sample_size) < 2:
            raise ValueError(
                f"clustering birth_sample_size must be >= 2, "
                f"got {self.birth_sample_size}")
        if int(self.birth_min_size) < 2:
            raise ValueError(
                f"clustering birth_min_size must be >= 2, "
                f"got {self.birth_min_size}")
        if self.max_clusters is not None and int(self.max_clusters) < 1:
            raise ValueError(
                f"clustering max_clusters must be >= 1, got {self.max_clusters}")


@dataclass(frozen=True)
class InferenceConfig(SerializableConfig):
    """Deterministic all-node inference settings (``repro.inference``).

    Embeddings are always computed by the layer-wise forward
    (:class:`repro.inference.LayerwiseInference`), layer by layer in node
    chunks.

    Attributes
    ----------
    chunk_size:
        Number of node rows computed per chunk; bounds the per-chunk
        working set (for GAT, the chunk's per-edge messages).
    cache:
        Reuse one embedding pass across pseudo-label refresh, evaluation,
        validation accuracy, and prediction while the encoder parameters are
        unchanged (keyed by the parameter version counter, so stale reuse is
        impossible).
    partial_refresh:
        Allow ``InferenceEngine.refresh_after_delta`` to serve a graph delta
        by recomputing only the affected receptive field and patching the
        cached array (requires ``cache``); disabling it forces every delta
        to a full recompute.
    partial_threshold:
        Affected-set fraction above which a delta falls back to a full
        recompute — once most of the graph is affected, one full pass beats
        subgraph extraction plus patching.
    """

    chunk_size: int = 4096
    cache: bool = True
    partial_refresh: bool = True
    partial_threshold: float = 0.5

    def __post_init__(self):
        if int(self.chunk_size) < 1:
            raise ValueError(f"inference chunk_size must be >= 1, got {self.chunk_size}")
        if not 0.0 < float(self.partial_threshold) <= 1.0:
            raise ValueError(
                f"inference partial_threshold must be in (0, 1], "
                f"got {self.partial_threshold}")


@dataclass(frozen=True)
class OptimizerConfig(SerializableConfig):
    """Adam optimizer settings (paper: Adam, weight decay 1e-4)."""

    learning_rate: float = 1e-3
    weight_decay: float = 1e-4


@dataclass(frozen=True)
class TrainerConfig(SerializableConfig):
    """Shared training-loop settings for all methods.

    The defaults follow the paper's Section VII; benchmarks shrink
    ``max_epochs`` and ``batch_size`` to keep wall-clock time reasonable on
    the synthetic profiles.
    """

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    max_epochs: int = 20
    batch_size: int = 2048
    temperature: float = 0.7
    seed: int = 0
    mini_batch_kmeans: bool = False
    kmeans_batch_size: int = 1024
    eval_every: int = 0  # 0 disables intermediate evaluation


@dataclass(frozen=True)
class OpenIMAConfig(SerializableConfig):
    """OpenIMA-specific hyper-parameters (Section IV-C and VII).

    Attributes
    ----------
    eta:
        Scaling factor on the cross-entropy term (Eq. 6).
    rho:
        Pseudo-label selection rate in percent (top-rho% most confident
        cluster assignments keep their pseudo label).
    pseudo_label_refresh:
        Recompute pseudo labels every this many epochs.
    pseudo_label_warmup:
        Number of initial epochs trained without pseudo labels, so that the
        first clustering runs on meaningful (not randomly initialized)
        embeddings.
    use_embedding_bpcl / use_logit_bpcl / use_cross_entropy:
        Toggles for the ablation study (Table V).
    use_pseudo_labels:
        Disabling this reproduces the "Ours w/o PL" ablation row.
    large_scale:
        Enables the large-graph refinements (predict with the classification
        head and add the pairwise loss) used for ogbn-Arxiv / ogbn-Products.
    num_novel_classes:
        If None, the ground-truth number of novel classes is used (the main
        tables); otherwise this overrides it (Table VI setting).
    """

    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    eta: float = 1.0
    rho: float = 75.0
    pseudo_label_refresh: int = 1
    pseudo_label_warmup: int = 1
    use_embedding_bpcl: bool = True
    use_logit_bpcl: bool = True
    use_cross_entropy: bool = True
    use_pseudo_labels: bool = True
    large_scale: bool = False
    pairwise_loss_weight: float = 1.0
    num_novel_classes: Optional[int] = None


def fast_config(max_epochs: int = 8, seed: int = 0, encoder_kind: str = "gcn",
                batch_size: int = 512, eval_every: int = 0,
                sampling: Optional[SamplingConfig] = None,
                clustering: Optional[ClusteringConfig] = None) -> TrainerConfig:
    """A small configuration used by tests, the CLI, and the benchmark harness."""
    return TrainerConfig(
        encoder=EncoderConfig(kind=encoder_kind, hidden_dim=32, out_dim=16, num_heads=2,
                              dropout=0.3),
        optimizer=OptimizerConfig(learning_rate=5e-3, weight_decay=1e-4),
        sampling=sampling if sampling is not None else SamplingConfig(),
        clustering=clustering if clustering is not None else ClusteringConfig(),
        max_epochs=max_epochs,
        batch_size=batch_size,
        seed=seed,
        eval_every=eval_every,
    )
