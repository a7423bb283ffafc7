"""The inference engine threaded through GraphTrainer, checkpoints, and the
facade: one embedding pass per evaluation burst, explicit pass-through, and
InferenceConfig persistence (including legacy manifests without the section).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import OpenWorldClassifier
from repro.api.checkpoint import load_trainer_checkpoint, save_trainer_checkpoint
from repro.baselines.two_stage import InfoNCETrainer
from repro.core.callbacks import Callback
from repro.core.config import InferenceConfig, OpenIMAConfig, fast_config
from repro.core.openima import OpenIMATrainer
from tests.oracle import forward_embed


def make_config(max_epochs: int = 2, eval_every: int = 0, **inference_kwargs):
    config = fast_config(max_epochs=max_epochs, seed=0, encoder_kind="gcn",
                         batch_size=128, eval_every=eval_every)
    if inference_kwargs:
        config = config.with_updates(inference=InferenceConfig(**inference_kwargs))
    return config


class TestForwardCounting:
    def test_one_forward_per_evaluation_epoch(self, small_dataset):
        """Eval callback + validation accuracy + predict share one forward."""

        class ExtraConsumers(Callback):
            def on_epoch_end(self, trainer, epoch, logs):
                # Everything an eval epoch might ask for, on top of the
                # EvaluationCallback that already ran this epoch.
                trainer.validation_accuracy()
                trainer.predict()
                trainer.evaluate()
                trainer.node_embeddings()

        trainer = InfoNCETrainer(small_dataset, make_config(eval_every=1))
        trainer.fit(callbacks=[ExtraConsumers()])
        # Exactly one encoder forward per epoch-end evaluation burst.
        assert trainer.inference_engine.forward_count == trainer.epochs_trained
        assert trainer.inference_engine.cache_hits > 0

    def test_openima_refresh_eval_predict_share_one_forward(self, small_dataset):
        trainer = OpenIMATrainer(
            small_dataset, OpenIMAConfig(trainer=make_config(max_epochs=1)))
        trainer.fit()
        baseline = trainer.inference_engine.forward_count
        # No parameter updates from here on: refresh, evaluation, validation
        # accuracy, prediction, and raw embeddings all reuse one pass.
        trainer.refresh_pseudo_labels()
        trainer.evaluate()
        trainer.validation_accuracy()
        trainer.predict()
        trainer.node_embeddings()
        assert trainer.inference_engine.forward_count == baseline + 1

    def test_training_step_invalidates_cache(self, small_dataset):
        trainer = InfoNCETrainer(small_dataset, make_config(max_epochs=1))
        trainer.node_embeddings()
        trainer.fit()  # optimizer steps bump the parameter version
        before = trainer.inference_engine.forward_count
        trainer.node_embeddings()
        assert trainer.inference_engine.forward_count == before + 1

    def test_explicit_embeddings_pass_through_without_cache(self, small_dataset):
        trainer = InfoNCETrainer(small_dataset, make_config(cache=False))
        trainer.fit()
        embeddings = trainer.node_embeddings()
        forwards = trainer.inference_engine.forward_count
        trainer.evaluate(embeddings=embeddings)
        trainer.validation_accuracy(embeddings=embeddings)
        trainer.predict(embeddings=embeddings)
        assert trainer.inference_engine.forward_count == forwards

    def test_eval_epoch_logs_inference_stats(self, small_dataset):
        captured = {}

        class Capture(Callback):
            def on_epoch_end(self, trainer, epoch, logs):
                captured.update(logs.get("inference", {}))

        trainer = InfoNCETrainer(small_dataset, make_config(max_epochs=1,
                                                            eval_every=1))
        trainer.fit(callbacks=[Capture()])
        assert captured["forwards"] == 1


class TestLayerwiseTrainer:
    def test_layerwise_mode_matches_full_embeddings(self, small_dataset):
        trainer = InfoNCETrainer(small_dataset, make_config(max_epochs=1))
        trainer.fit()
        full = forward_embed(trainer.encoder, small_dataset.graph)
        np.testing.assert_allclose(trainer.node_embeddings(), full,
                                   rtol=0.0, atol=1e-8)
        trainer.configure_inference(InferenceConfig(chunk_size=37))
        layerwise = trainer.node_embeddings()
        np.testing.assert_allclose(layerwise, full, rtol=0.0, atol=1e-8)

    def test_configure_inference_updates_config(self, small_dataset):
        trainer = InfoNCETrainer(small_dataset, make_config())
        trainer.configure_inference(InferenceConfig(chunk_size=37))
        assert trainer.config.inference.chunk_size == 37
        assert trainer.inference_engine.config.chunk_size == 37

    def test_configure_inference_syncs_openima_config(self, small_dataset):
        trainer = OpenIMATrainer(
            small_dataset, OpenIMAConfig(trainer=make_config()))
        trainer.configure_inference(InferenceConfig(chunk_size=37))
        assert trainer.full_config.trainer.inference.chunk_size == 37


class TestCheckpointPersistence:
    def test_manifest_records_inference_config(self, small_dataset, tmp_path):
        trainer = InfoNCETrainer(
            small_dataset,
            make_config(max_epochs=1, chunk_size=77, cache=False),
        )
        trainer.fit()
        save_trainer_checkpoint(trainer, tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "manifest.json").read_text())
        assert manifest["config"]["inference"] == {
            "chunk_size": 77, "cache": False, "partial_refresh": True,
            "partial_threshold": 0.5,
        }
        restored, _ = load_trainer_checkpoint(tmp_path / "ckpt",
                                              dataset=small_dataset)
        assert restored.config.inference == trainer.config.inference
        assert restored.inference_engine.config.chunk_size == 77

    def test_legacy_manifest_without_inference_section_loads(
            self, small_dataset, tmp_path):
        trainer = InfoNCETrainer(small_dataset, make_config(max_epochs=1))
        trainer.fit()
        path = save_trainer_checkpoint(trainer, tmp_path / "legacy")
        manifest_path = path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["config"]["inference"]  # pre-inference-era checkpoint
        manifest_path.write_text(json.dumps(manifest, indent=2))

        restored, _ = load_trainer_checkpoint(path, dataset=small_dataset)
        assert restored.config.inference == InferenceConfig()
        np.testing.assert_allclose(restored.node_embeddings(),
                                   trainer.node_embeddings(),
                                   rtol=0.0, atol=1e-12)


class TestClassifierFacade:
    def test_embed_predict_evaluate_share_one_forward(self, small_dataset):
        clf = OpenWorldClassifier("infonce", config=make_config(max_epochs=1))
        clf.fit(small_dataset)
        baseline = clf.inference_engine.forward_count
        clf.embed()
        clf.predict()
        clf.evaluate()
        assert clf.inference_engine.forward_count == baseline + 1

    def test_configure_inference_accepts_dict(self, small_dataset):
        clf = OpenWorldClassifier("infonce", config=make_config(max_epochs=1))
        clf.fit(small_dataset)
        full = np.array(clf.embed())
        clf.configure_inference({"chunk_size": 19})
        assert clf.config.inference.chunk_size == 19
        np.testing.assert_allclose(clf.embed(), full, rtol=0.0, atol=1e-8)

    def test_configure_inference_rejects_unknown_keys(self, small_dataset):
        clf = OpenWorldClassifier("infonce", config=make_config(max_epochs=1))
        clf.fit(small_dataset)
        with pytest.raises(ValueError, match="unknown"):
            clf.configure_inference({"chunk_size": 19, "chunks": 4})
