"""Experiment runner: train a method on a dataset profile and collect metrics.

The runner is the glue between the method implementations and the table /
figure builders.  It handles seed repetition, method construction (OpenIMA or
any baseline), accuracy evaluation, and the auxiliary statistics (imbalance
rate, separation rate, validation accuracy, silhouette) used by Figure 1b
and the SC&ACC analysis.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import (
    SamplingConfig,
    SerializableConfig,
    TrainerConfig,
    fast_config,
)
from ..core.registry import METHODS
from ..core.trainer import GraphTrainer
from ..datasets.synthetic import load_open_world_dataset
from ..datasets.splits import OpenWorldDataset
from ..metrics.accuracy import OpenWorldAccuracy, open_world_accuracy
from ..metrics.selection import score_candidate
from ..metrics.variance import variance_imbalance_report


@dataclass
class RunResult:
    """Metrics from a single (method, dataset, seed) run."""

    method: str
    dataset: str
    seed: int
    accuracy: OpenWorldAccuracy
    validation_accuracy: float
    imbalance_rate: float
    separation_rate: float
    silhouette: float

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "dataset": self.dataset,
            "seed": self.seed,
            "all": self.accuracy.overall,
            "seen": self.accuracy.seen,
            "novel": self.accuracy.novel,
            "val_acc": self.validation_accuracy,
            "imbalance_rate": self.imbalance_rate,
            "separation_rate": self.separation_rate,
            "silhouette": self.silhouette,
        }


@dataclass
class AggregatedResult:
    """Mean metrics over multiple seeds for one (method, dataset) pair."""

    method: str
    dataset: str
    runs: List[RunResult] = field(default_factory=list)

    def _mean(self, attribute: str) -> float:
        values = [getattr(run, attribute) for run in self.runs]
        return float(np.mean(values)) if values else float("nan")

    @property
    def accuracy(self) -> OpenWorldAccuracy:
        overall = float(np.mean([r.accuracy.overall for r in self.runs]))
        seen = float(np.mean([r.accuracy.seen for r in self.runs]))
        novel = float(np.mean([r.accuracy.novel for r in self.runs]))
        return OpenWorldAccuracy(overall=overall, seen=seen, novel=novel)

    @property
    def imbalance_rate(self) -> float:
        return self._mean("imbalance_rate")

    @property
    def separation_rate(self) -> float:
        return self._mean("separation_rate")

    @property
    def validation_accuracy(self) -> float:
        return self._mean("validation_accuracy")

    @property
    def silhouette(self) -> float:
        return self._mean("silhouette")


def __getattr__(name: str):
    # Backwards-compatible lazy attribute (PEP 562): the end-to-end method
    # set is derived from the per-method registry metadata — no hardcoded
    # name list, and no eager import of every baseline at module load.
    if name == "END_TO_END_METHODS":
        return frozenset(METHODS.end_to_end_names())
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class ExperimentConfig(SerializableConfig):
    """Controls the scale of an experiment sweep.

    ``scale`` shrinks the dataset profiles, ``max_epochs``/``batch_size``
    control the training budget, and ``encoder_kind`` selects GAT (the
    paper's default) or GCN (a faster encoder used by the benchmark suite).
    End-to-end methods get ``end_to_end_epochs`` (paper: a larger budget than
    the two-stage methods); it defaults to three times ``max_epochs``.
    ``sampling_mode`` selects the trainer's mini-batch neighborhood sampling
    (``full`` / ``khop`` / ``sampled``, see
    :class:`repro.core.config.SamplingConfig`).

    ``n_jobs`` threads train the method x dataset x seed grid cells
    concurrently (``0`` = all usable cores, ``1`` = serial); the results
    equal the serial loop's.
    """

    scale: float = 0.35
    max_epochs: int = 8
    batch_size: int = 512
    encoder_kind: str = "gcn"
    seeds: Sequence[int] = (0,)
    labels_per_class: Optional[int] = None
    end_to_end_epochs: Optional[int] = None
    eval_every: int = 0
    sampling_mode: str = "full"
    n_jobs: int = 1

    def __post_init__(self) -> None:
        # JSON round-trips turn the seeds tuple into a list; normalise so
        # from_json(to_json(cfg)) == cfg holds in the serialization matrix.
        self.seeds = tuple(int(seed) for seed in self.seeds)
        if int(self.n_jobs) < 0:
            raise ValueError(
                f"n_jobs must be >= 0 (0 = all cores), got {self.n_jobs}")

    def epochs_for(self, method: str) -> int:
        key = method.lower()
        is_end_to_end = key in METHODS and METHODS.get(key).end_to_end
        if is_end_to_end:
            if self.end_to_end_epochs is not None:
                return self.end_to_end_epochs
            return 3 * self.max_epochs
        return self.max_epochs

    def trainer_config(self, seed: int, method: Optional[str] = None) -> TrainerConfig:
        epochs = self.max_epochs if method is None else self.epochs_for(method)
        return fast_config(
            max_epochs=epochs,
            seed=seed,
            encoder_kind=self.encoder_kind,
            batch_size=self.batch_size,
            eval_every=self.eval_every,
            sampling=SamplingConfig(mode=self.sampling_mode),
        )


def build_method(
    name: str,
    dataset: OpenWorldDataset,
    trainer_config: TrainerConfig,
    num_novel_classes: Optional[int] = None,
    openima_overrides: Optional[dict] = None,
    **overrides,
) -> GraphTrainer:
    """Construct any registered method (OpenIMA included) by name.

    Thin wrapper over :meth:`repro.core.registry.MethodRegistry.build`; the
    ``openima_overrides`` name is kept for backwards compatibility and is
    merged into the generic per-method ``overrides``.
    """
    merged = {**(openima_overrides or {}), **overrides}
    return METHODS.build(
        name, dataset, config=trainer_config,
        num_novel_classes=num_novel_classes, **merged,
    )


def evaluate_trainer(trainer: GraphTrainer, dataset: OpenWorldDataset,
                     method_name: str, seed: int) -> RunResult:
    """Collect the full metric set from a trained model."""
    # One embedding pass feeds prediction and the embedding-space metrics
    # (also guaranteed by the trainer's version-keyed cache; the explicit
    # pass-through keeps this true even with caching disabled).
    embeddings = trainer.node_embeddings()
    result = trainer.predict(embeddings=embeddings)
    accuracy = trainer.accuracy_of(result)
    test_nodes = dataset.split.test_nodes

    val_nodes = dataset.split.val_nodes
    val_accuracy = open_world_accuracy(
        result.predictions[val_nodes],
        dataset.labels[val_nodes],
        dataset.split.seen_classes,
    ).overall

    imbalance, separation = variance_imbalance_report(
        embeddings[test_nodes],
        dataset.labels[test_nodes],
        dataset.split.seen_classes,
        dataset.split.novel_classes,
    )
    eval_nodes = np.concatenate([val_nodes, test_nodes])
    candidate = score_candidate(
        method_name,
        embeddings,
        result.cluster_result.labels,
        val_accuracy,
        eval_indices=eval_nodes,
        seed=seed,
    )
    return RunResult(
        method=method_name,
        dataset=dataset.name,
        seed=seed,
        accuracy=accuracy,
        validation_accuracy=val_accuracy,
        imbalance_rate=imbalance,
        separation_rate=separation,
        silhouette=candidate.silhouette,
    )


def run_grid_cell(
    method: str,
    dataset_name: str,
    seed: int,
    experiment: ExperimentConfig,
    num_novel_classes: Optional[int] = None,
    openima_overrides: Optional[dict] = None,
    trainer_config: Optional[TrainerConfig] = None,
) -> RunResult:
    """Train and evaluate one (method, dataset, seed) grid cell.

    ``trainer_config`` replaces ``experiment.trainer_config(seed, method)``
    for sweeps over training settings (Table VII's learning rates).
    """
    dataset = load_open_world_dataset(
        dataset_name,
        seed=seed,
        scale=experiment.scale,
        labels_per_class=experiment.labels_per_class,
    )
    if trainer_config is None:
        trainer_config = experiment.trainer_config(seed, method=method)
    trainer = build_method(
        method, dataset, trainer_config,
        num_novel_classes=num_novel_classes,
        openima_overrides=openima_overrides,
    )
    trainer.fit()
    return evaluate_trainer(trainer, dataset, method, seed)


def _usable_cores() -> int:
    """CPU cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_cells(cells: Sequence[dict],
               experiment: ExperimentConfig) -> List[RunResult]:
    """``run_grid_cell(**cell, experiment=experiment)`` for each cell, in order.

    With ``experiment.n_jobs`` != 1 the cells run on a thread pool.  Every
    random draw in a cell comes from generators keyed on its own seed, and
    the autodiff grad flag is per-thread, so the results equal the serial
    loop's.  The first failing cell's exception propagates unchanged and
    queued cells are cancelled rather than run.
    """
    def run(cell: dict) -> RunResult:
        return run_grid_cell(experiment=experiment, **cell)

    workers = min(int(experiment.n_jobs) or _usable_cores(), len(cells))
    if workers <= 1:
        return [run(cell) for cell in cells]
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return list(pool.map(run, cells))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_grid(
    runs: Sequence[Tuple[str, str, dict]],
    experiment: ExperimentConfig,
) -> List[AggregatedResult]:
    """Every ``(method, dataset_name, cell_options)`` over every seed.

    All cells of the grid go to :func:`_run_cells` in one dispatch, so long
    and short runs interleave across workers.  ``cell_options`` are extra
    :func:`run_grid_cell` arguments (``num_novel_classes``,
    ``openima_overrides``, ``trainer_config``).
    """
    cells = [dict(method=method, dataset_name=dataset_name, seed=seed,
                  **options)
             for method, dataset_name, options in runs
             for seed in experiment.seeds]
    results = iter(_run_cells(cells, experiment))
    return [
        AggregatedResult(method=method, dataset=dataset_name,
                         runs=[next(results) for _ in experiment.seeds])
        for method, dataset_name, _ in runs
    ]


def run_method(
    method: str,
    dataset_name: str,
    experiment: ExperimentConfig,
    num_novel_classes: Optional[int] = None,
    openima_overrides: Optional[dict] = None,
) -> AggregatedResult:
    """Train ``method`` on ``dataset_name`` for every configured seed."""
    options = dict(num_novel_classes=num_novel_classes,
                   openima_overrides=openima_overrides)
    return run_grid([(method, dataset_name, options)], experiment)[0]


def run_methods(
    methods: Sequence[str],
    dataset_name: str,
    experiment: ExperimentConfig,
    num_novel_classes: Optional[int] = None,
) -> Dict[str, AggregatedResult]:
    """Run several methods on the same dataset profile."""
    options = dict(num_novel_classes=num_novel_classes)
    results = run_grid([(method, dataset_name, options) for method in methods],
                       experiment)
    return dict(zip(methods, results))
