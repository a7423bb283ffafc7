"""InferenceEngine: the layer-wise pass, caching behavior, and config validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import InferenceConfig, TrainerConfig
from repro.gnn import GATEncoder, GCNEncoder
from repro.graphs.graph import Graph
from repro.graphs.utils import symmetrize_edges
from repro.inference import InferenceEngine
from repro.nn.optim import Adam
from tests.oracle import forward_embed


@pytest.fixture(scope="module")
def graph() -> Graph:
    rng = np.random.default_rng(11)
    src = rng.integers(40, size=120)
    dst = rng.integers(40, size=120)
    return Graph(features=rng.normal(size=(40, 8)),
                 edge_index=symmetrize_edges(np.vstack([src, dst])))


@pytest.fixture()
def encoder() -> GCNEncoder:
    return GCNEncoder(8, hidden_dim=6, out_dim=4, dropout=0.0,
                      rng=np.random.default_rng(0))


class TestConfig:
    def test_defaults(self):
        config = InferenceConfig()
        assert config.to_dict() == {"chunk_size": 4096, "cache": True,
                                    "partial_refresh": True,
                                    "partial_threshold": 0.5}

    def test_unknown_mode_rejected(self):
        """The retired ``mode`` key is rejected like any unknown key."""
        with pytest.raises(ValueError, match="unknown InferenceConfig keys"):
            InferenceConfig.from_dict({"mode": "layerwise"})
        with pytest.raises(TypeError, match="mode"):
            InferenceConfig(mode="chunky")

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            InferenceConfig(chunk_size=0)

    def test_round_trip_inside_trainer_config(self):
        config = TrainerConfig(
            inference=InferenceConfig(chunk_size=123, cache=False))
        restored = TrainerConfig.from_dict(config.to_dict())
        assert restored.inference == config.inference

    def test_trainer_config_without_inference_section_uses_defaults(self):
        """Legacy manifests predate the inference section and must load."""
        data = TrainerConfig().to_dict()
        del data["inference"]
        assert TrainerConfig.from_dict(data).inference == InferenceConfig()


class TestEmbeddings:
    @pytest.mark.parametrize("reference", ["full", "layerwise"])
    @pytest.mark.parametrize("encoder_kind", ["gcn", "gat"])
    def test_matches_embed(self, graph, reference, encoder_kind):
        """Equal to the autodiff forward and to ``embed`` (its default chunk)."""
        if encoder_kind == "gcn":
            enc = GCNEncoder(8, hidden_dim=6, out_dim=4, dropout=0.0,
                             rng=np.random.default_rng(0))
        else:
            enc = GATEncoder(8, hidden_dim=6, out_dim=4, num_heads=2,
                             dropout=0.0, rng=np.random.default_rng(0))
        engine = InferenceEngine(InferenceConfig(chunk_size=7))
        expected = forward_embed(enc, graph) if reference == "full" else enc.embed(graph)
        np.testing.assert_allclose(engine.embeddings(enc, graph),
                                   expected, rtol=0.0, atol=1e-8)

    def test_repeated_calls_use_cache(self, encoder, graph):
        engine = InferenceEngine()
        first = engine.embeddings(encoder, graph)
        second = engine.embeddings(encoder, graph)
        assert first is second
        assert engine.forward_count == 1
        assert engine.cache_hits == 1

    def test_parameter_update_forces_recompute(self, encoder, graph):
        engine = InferenceEngine()
        first = engine.embeddings(encoder, graph)
        out = encoder(graph)
        (out * out).sum().backward()
        Adam(encoder.parameters(), lr=0.5).step()
        second = engine.embeddings(encoder, graph)
        assert engine.forward_count == 2
        assert np.abs(np.asarray(first) - np.asarray(second)).max() > 0

    def test_cache_disabled_recomputes_every_call(self, encoder, graph):
        engine = InferenceEngine(InferenceConfig(cache=False))
        engine.embeddings(encoder, graph)
        engine.embeddings(encoder, graph)
        assert engine.forward_count == 2
        assert engine.cache is None

    def test_invalidate_drops_entry(self, encoder, graph):
        engine = InferenceEngine()
        engine.embeddings(encoder, graph)
        engine.invalidate()
        engine.embeddings(encoder, graph)
        assert engine.forward_count == 2

    def test_stats_counters(self, encoder, graph):
        engine = InferenceEngine()
        engine.embeddings(encoder, graph)
        engine.embeddings(encoder, graph)
        assert engine.stats() == {
            "forwards": 1, "cache_hits": 1, "cache_misses": 1,
            "partial_refreshes": 0, "full_refreshes": 0}
