"""Tests for the experiment runner (integration-level, small budgets)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.openima import OpenIMATrainer
from repro.baselines.orca import ORCATrainer
from repro.experiments import runner
from repro.experiments.runner import (
    AggregatedResult,
    ExperimentConfig,
    RunResult,
    build_method,
    evaluate_trainer,
    run_grid,
    run_method,
    run_methods,
)
from repro.datasets.synthetic import load_open_world_dataset
from repro.metrics.accuracy import OpenWorldAccuracy


TINY = ExperimentConfig(scale=0.15, max_epochs=1, batch_size=128, encoder_kind="gcn", seeds=(0,))


class TestBuildMethod:
    def test_builds_openima(self):
        dataset = load_open_world_dataset("citeseer", seed=0, scale=0.15)
        trainer = build_method("openima", dataset, TINY.trainer_config(0))
        assert isinstance(trainer, OpenIMATrainer)

    def test_builds_baseline(self):
        dataset = load_open_world_dataset("citeseer", seed=0, scale=0.15)
        trainer = build_method("orca", dataset, TINY.trainer_config(0))
        assert isinstance(trainer, ORCATrainer)

    def test_openima_overrides_applied(self):
        dataset = load_open_world_dataset("citeseer", seed=0, scale=0.15)
        trainer = build_method(
            "openima", dataset, TINY.trainer_config(0),
            openima_overrides={"eta": 20.0, "rho": 25.0},
        )
        assert trainer.openima_config.eta == 20.0
        assert trainer.openima_config.rho == 25.0

    def test_large_scale_inferred_from_dataset(self):
        dataset = load_open_world_dataset("ogbn-arxiv", seed=0, scale=0.05)
        trainer = build_method("openima", dataset, TINY.trainer_config(0))
        assert trainer.openima_config.large_scale is True

    def test_unknown_method_raises(self):
        dataset = load_open_world_dataset("citeseer", seed=0, scale=0.15)
        with pytest.raises(KeyError):
            build_method("gcd", dataset, TINY.trainer_config(0))


class TestRunMethod:
    def test_run_result_fields(self):
        result = run_method("infonce", "citeseer", TINY)
        assert isinstance(result, AggregatedResult)
        assert len(result.runs) == 1
        run = result.runs[0]
        assert isinstance(run, RunResult)
        assert 0.0 <= run.accuracy.overall <= 1.0
        assert run.imbalance_rate >= 1.0 or np.isnan(run.imbalance_rate)
        assert run.separation_rate >= 0.0 or np.isnan(run.separation_rate)
        data = run.as_dict()
        assert data["method"] == "infonce" and data["dataset"] == "citeseer"

    def test_multiple_seeds_aggregate(self):
        config = ExperimentConfig(scale=0.15, max_epochs=1, batch_size=128,
                                  encoder_kind="gcn", seeds=(0, 1))
        result = run_method("infonce", "citeseer", config)
        assert len(result.runs) == 2
        assert isinstance(result.accuracy, OpenWorldAccuracy)
        mean_overall = np.mean([r.accuracy.overall for r in result.runs])
        assert result.accuracy.overall == pytest.approx(mean_overall)

    def test_run_methods_multiple(self):
        results = run_methods(["infonce", "openima"], "citeseer", TINY)
        assert set(results) == {"infonce", "openima"}


class TestEvaluateTrainer:
    def test_metrics_from_trained_model(self):
        dataset = load_open_world_dataset("citeseer", seed=0, scale=0.15)
        trainer = build_method("openima", dataset, TINY.trainer_config(0))
        trainer.fit()
        run = evaluate_trainer(trainer, dataset, "openima", seed=0)
        assert run.method == "openima"
        assert np.isfinite(run.silhouette)
        assert 0.0 <= run.validation_accuracy <= 1.0


class TestExperimentConfig:
    def test_trainer_config_uses_seed(self):
        config = ExperimentConfig(max_epochs=3, encoder_kind="gcn")
        trainer_config = config.trainer_config(9)
        assert trainer_config.seed == 9
        assert trainer_config.max_epochs == 3
        assert trainer_config.encoder.kind == "gcn"


class TestEpochBudgets:
    def test_end_to_end_methods_get_larger_budget(self):
        config = ExperimentConfig(max_epochs=5)
        assert config.epochs_for("infonce") == 5
        assert config.epochs_for("openima") == 5
        assert config.epochs_for("orca") == 15
        assert config.epochs_for("SimGCD") == 15

    def test_explicit_end_to_end_epochs(self):
        config = ExperimentConfig(max_epochs=5, end_to_end_epochs=7)
        assert config.epochs_for("orca") == 7
        assert config.trainer_config(0, method="orca").max_epochs == 7
        assert config.trainer_config(0, method="openima").max_epochs == 5


GRID = dict(scale=0.1, max_epochs=1, batch_size=128, encoder_kind="gcn",
            seeds=(0, 1))


def as_dicts(results) -> list:
    return [run.as_dict() for result in results for run in result.runs]


class TestThreadedGrid:
    """``n_jobs=2`` trains cells on threads and returns the serial results."""

    def test_grid_cells_match_serial(self):
        runs = [(method, dataset, {})
                for method in ("infonce", "openima")
                for dataset in ("citeseer", "amazon-photos")]
        serial = run_grid(runs, ExperimentConfig(**GRID))
        threaded = run_grid(runs, ExperimentConfig(**GRID, n_jobs=2))
        assert len(as_dicts(threaded)) == 8
        assert as_dicts(threaded) == as_dicts(serial)

    def test_openima_overrides_match_serial(self):
        overrides = {"eta": 5.0}
        serial = run_method("openima", "citeseer", ExperimentConfig(**GRID),
                            openima_overrides=overrides)
        threaded = run_method("openima", "citeseer",
                              ExperimentConfig(**GRID, n_jobs=2),
                              openima_overrides=overrides)
        assert as_dicts([threaded]) == as_dicts([serial])

    def test_num_novel_classes_match_serial(self):
        methods = ["infonce", "openima"]
        serial = run_methods(methods, "citeseer", ExperimentConfig(**GRID),
                             num_novel_classes=3)
        threaded = run_methods(methods, "citeseer",
                               ExperimentConfig(**GRID, n_jobs=2),
                               num_novel_classes=3)
        assert as_dicts(threaded.values()) == as_dicts(serial.values())

    def test_failing_cell_raises_unchanged_and_cancels_queued_cells(
            self, monkeypatch):
        error = RuntimeError("cell failed")
        started = []
        lock = threading.Lock()

        def fake_cell(method, dataset_name, seed, experiment, **options):
            with lock:
                started.append(seed)
            if seed == 0:
                raise error
            time.sleep(0.2)

        monkeypatch.setattr(runner, "run_grid_cell", fake_cell)
        experiment = ExperimentConfig(seeds=tuple(range(12)), n_jobs=2)
        with pytest.raises(RuntimeError) as caught:
            run_method("infonce", "citeseer", experiment)
        assert caught.value is error
        # Cell 0 fails at once; the main thread cancels the queue while the
        # other worker sleeps, so at most a cell or two more ever start.
        assert len(started) <= 4

    def test_negative_n_jobs_rejected(self):
        with pytest.raises(ValueError, match="n_jobs"):
            ExperimentConfig(n_jobs=-1)
