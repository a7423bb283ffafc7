"""Spans below ``train.step``: forward, loss, backward and optimizer."""

from __future__ import annotations

from repro import obs
from repro.core.config import OpenIMAConfig, fast_config
from repro.core.openima import OpenIMATrainer

STEP_CHILDREN = ("train.forward", "train.loss", "train.backward", "train.optimizer")


def test_step_children_cover_the_step(clean_obs, small_dataset):
    config = OpenIMAConfig(trainer=fast_config(max_epochs=2, encoder_kind="gcn",
                                               batch_size=64))
    trainer = OpenIMATrainer(small_dataset, config)
    obs.configure(enabled=True)
    trainer.fit()
    records = obs.TRACER.records()

    steps = [r for r in records if r["name"] == "train.step"]
    assert len(steps) == 2 * 3  # 160 nodes in batches of 64, 64 and 32
    children = [r for r in records if r["path"].endswith(";train.step;" + r["name"])]
    assert {r["name"] for r in children} == set(STEP_CHILDREN)
    for name in STEP_CHILDREN:
        assert sum(r["name"] == name for r in children) == len(steps)
    step_seconds = sum(r["duration"] for r in steps)
    child_seconds = sum(r["duration"] for r in children)
    assert child_seconds >= 0.9 * step_seconds
