"""Tests for the GCN encoder."""

from __future__ import annotations

import numpy as np

from repro.gnn.gcn import GCNEncoder, GCNLayer
from repro.graphs.graph import Graph
from repro.graphs.utils import normalized_adjacency
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from tests.oracle import forward_embed


def cycle_graph(num_nodes=8, num_features=5, seed=0):
    rng = np.random.default_rng(seed)
    src = np.arange(num_nodes)
    dst = (np.arange(num_nodes) + 1) % num_nodes
    edge_index = np.hstack([np.vstack([src, dst]), np.vstack([dst, src])])
    return Graph(features=rng.normal(size=(num_nodes, num_features)), edge_index=edge_index)


class TestGCNLayer:
    def test_shape_and_gradients(self):
        graph = cycle_graph()
        propagation = normalized_adjacency(graph)
        layer = GCNLayer(5, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(graph.features), propagation)
        assert out.shape == (8, 3)
        (out * out).sum().backward()
        assert layer.linear.weight.grad is not None
        assert np.isfinite(layer.linear.weight.grad).all()

    def test_propagation_mixes_neighbours(self):
        graph = cycle_graph()
        propagation = normalized_adjacency(graph)
        layer = GCNLayer(5, 5, rng=np.random.default_rng(1))
        # Using an identity weight approximation: check output depends on neighbours.
        layer.linear.weight.data = np.eye(5)
        layer.linear.bias.data = np.zeros(5)
        out = layer(Tensor(graph.features), propagation).data
        expected = propagation @ graph.features
        np.testing.assert_allclose(out, expected, atol=1e-10)


class TestGCNEncoder:
    def test_embedding_shape(self):
        graph = cycle_graph()
        encoder = GCNEncoder(5, hidden_dim=8, out_dim=4, dropout=0.0,
                             rng=np.random.default_rng(0))
        embeddings = encoder.embed(graph)
        assert embeddings.shape == (8, 4)
        assert np.isfinite(embeddings).all()

    def test_propagation_cache_reused(self, monkeypatch):
        import repro.graphs.utils as graph_utils

        builds = []
        build = graph_utils.normalized_adjacency
        monkeypatch.setattr(graph_utils, "normalized_adjacency",
                            lambda g: builds.append(g) or build(g))
        graph = cycle_graph()
        encoder = GCNEncoder(5, hidden_dim=8, out_dim=4, rng=np.random.default_rng(0))
        forward_embed(encoder, graph)
        first = graph.propagation()
        forward_embed(encoder, graph)
        assert graph.propagation() is first
        assert builds == [graph]  # built once, by the first forward

    def test_cache_invalidated_for_new_graph(self):
        graph_a = cycle_graph(seed=0)
        graph_b = cycle_graph(seed=1)
        encoder = GCNEncoder(5, hidden_dim=8, out_dim=4, rng=np.random.default_rng(0))
        forward_embed(encoder, graph_a)
        cache_a = graph_a.propagation()
        forward_embed(encoder, graph_b)
        assert graph_b.propagation() is not cache_a
        assert graph_a.propagation() is cache_a

        graph_a.edge_index = graph_a.edge_index[:, 2:]
        graph_a.invalidate_caches()
        rebuilt = graph_a.propagation()
        assert rebuilt is not cache_a
        assert rebuilt.nnz < cache_a.nnz
        fresh = Graph(features=graph_a.features, edge_index=graph_a.edge_index)
        np.testing.assert_allclose(forward_embed(encoder, graph_a),
                                   forward_embed(encoder, fresh), atol=1e-12)

    def test_training_reduces_reconstruction_loss(self):
        graph = cycle_graph(num_nodes=12, seed=2)
        target = np.random.default_rng(3).normal(size=(12, 4))
        encoder = GCNEncoder(5, hidden_dim=8, out_dim=4, dropout=0.0,
                             rng=np.random.default_rng(0))
        optimizer = Adam(encoder.parameters(), lr=0.05)
        encoder.train()

        def loss_value():
            out = encoder(graph)
            return ((out - Tensor(target)) ** 2).mean()

        initial = float(loss_value().data)
        for _ in range(30):
            optimizer.zero_grad()
            loss = loss_value()
            loss.backward()
            optimizer.step()
        final = float(loss_value().data)
        assert final < initial

    def test_dropout_views_differ_in_train_mode(self):
        graph = cycle_graph()
        encoder = GCNEncoder(5, hidden_dim=8, out_dim=4, dropout=0.5,
                             rng=np.random.default_rng(0))
        encoder.train()
        assert not np.allclose(encoder(graph).data, encoder(graph).data)
