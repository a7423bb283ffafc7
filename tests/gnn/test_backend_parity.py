"""Parity of the GNN encoders with their dense O(N^2) references.

The encoders pass messages over a sparse propagation matrix (GCN) or the
edge list (GAT); ``tests/oracle.py`` recomputes the same functions with
dense autodiff compositions over the same parameters.  Forward outputs and
every parameter gradient agree to 1e-8 on random graphs.  Dropout is
disabled so both passes are deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn import build_encoder
from repro.gnn.gat import GATLayer
from repro.gnn.gcn import GCNEncoder
from repro.graphs.graph import Graph
from repro.graphs.utils import symmetrize_edges
from repro.nn.tensor import Tensor
from tests.oracle import dense_forward, dense_gat_layer, forward_embed

ATOL = 1e-8


def random_graph(num_nodes=40, num_features=7, avg_degree=4.0, seed=0):
    rng = np.random.default_rng(seed)
    num_edges = int(num_nodes * avg_degree)
    src = rng.integers(num_nodes, size=num_edges)
    dst = rng.integers(num_nodes, size=num_edges)
    edge_index = symmetrize_edges(np.vstack([src, dst]))
    return Graph(features=rng.normal(size=(num_nodes, num_features)), edge_index=edge_index)


def forward_backward(module, forward):
    """``forward()`` + a quadratic loss backward; returns output, grads."""
    module.eval()  # dropout off; the graph is still recorded
    module.zero_grad()
    out = forward()
    (out * out).sum().backward()
    grads = {name: param.grad.copy() for name, param in module.named_parameters()}
    return out.data, grads


def assert_parity(module, forward, reference):
    """``forward`` and ``reference`` agree on outputs and every gradient."""
    out, grads = forward_backward(module, forward)
    out_ref, grads_ref = forward_backward(module, reference)
    assert np.isfinite(out_ref).all()
    np.testing.assert_allclose(out, out_ref, atol=ATOL)
    assert grads.keys() == grads_ref.keys()
    for name in grads:
        assert np.isfinite(grads_ref[name]).all(), name
        np.testing.assert_allclose(grads[name], grads_ref[name], atol=ATOL, err_msg=name)
    return out_ref


def assert_encoder_parity(encoder, graph):
    assert_parity(encoder, lambda: encoder(graph), lambda: dense_forward(encoder, graph))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gcn_forward_and_gradient_parity(seed):
    graph = random_graph(seed=seed)
    encoder = build_encoder("gcn", in_features=graph.num_features, hidden_dim=16,
                            out_dim=8, dropout=0.0, rng=np.random.default_rng(seed))
    assert_encoder_parity(encoder, graph)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gat_forward_and_gradient_parity(seed):
    graph = random_graph(num_nodes=25, seed=seed)
    encoder = build_encoder("gat", in_features=graph.num_features, hidden_dim=8,
                            out_dim=6, num_heads=2, dropout=0.0,
                            rng=np.random.default_rng(seed))
    assert_encoder_parity(encoder, graph)


def assert_layer_parity(layer, features, edge_index, num_nodes):
    x = Tensor(features)
    return assert_parity(layer, lambda: layer(x, edge_index, num_nodes),
                         lambda: dense_gat_layer(layer, x, edge_index, num_nodes))


def test_gat_layer_parity_with_sink_only_node():
    """A node with no incoming edges gets a zero row, not NaN.

    GATLayer is public and does not add self loops itself; the dense masked
    softmax must not emit NaN for the unreached node.
    """
    features = np.random.default_rng(0).normal(size=(4, 5))
    edge_index = np.array([[3, 1, 2], [0, 0, 1]])  # node 3 has no incoming edge
    layer = GATLayer(5, 3, num_heads=2, dropout=0.0, rng=np.random.default_rng(1))
    out = assert_layer_parity(layer, features, edge_index, 4)
    np.testing.assert_allclose(out[3], 0.0, atol=ATOL)


def test_gat_layer_parity_with_duplicate_directed_edges():
    """A duplicated edge carries double attention mass."""
    features = np.random.default_rng(3).normal(size=(4, 5))
    # Edge 2->0 listed twice; self loops keep every row reachable.
    edge_index = np.array([[0, 1, 2, 3, 2, 2, 1], [0, 1, 2, 3, 0, 0, 3]])
    layer = GATLayer(5, 3, num_heads=2, dropout=0.0, rng=np.random.default_rng(4))
    out = assert_layer_parity(layer, features, edge_index, 4)
    # Dropping the copy changes node 0's output: the mass is not deduplicated.
    single = layer(Tensor(features), edge_index[:, :-2], 4).data
    assert not np.allclose(out[0], single[0], atol=ATOL)


def test_gcn_propagation_cache_keyed_by_graph_identity():
    """Fresh graphs at recycled addresses must never see a stale cache."""
    encoder = GCNEncoder(7, hidden_dim=8, out_dim=4, dropout=0.0,
                         rng=np.random.default_rng(0))
    for seed in range(6):
        graph = random_graph(seed=seed)  # prior graph freed each iteration
        fresh = GCNEncoder(7, hidden_dim=8, out_dim=4, dropout=0.0,
                           rng=np.random.default_rng(0))
        np.testing.assert_allclose(forward_embed(encoder, graph),
                                   forward_embed(fresh, graph), atol=ATOL)


def test_gcn_sparse_is_default_and_keeps_propagation_sparse():
    import scipy.sparse as sp

    graph = random_graph()
    encoder = GCNEncoder(graph.num_features, hidden_dim=8, out_dim=4)
    forward_embed(encoder, graph)
    assert sp.issparse(graph.propagation())
    # The encoder keeps no propagation matrix of its own.
    assert not any(sp.issparse(value) or isinstance(value, np.ndarray)
                   for value in vars(encoder).values())


def test_propagation_cache_shared_across_encoders(monkeypatch):
    import repro.graphs.utils as graph_utils

    builds = []
    build = graph_utils.normalized_adjacency
    monkeypatch.setattr(graph_utils, "normalized_adjacency",
                        lambda g: builds.append(g) or build(g))
    graph = random_graph()
    first = GCNEncoder(graph.num_features, hidden_dim=8, out_dim=4)
    second = GCNEncoder(graph.num_features, hidden_dim=8, out_dim=4)
    forward_embed(first, graph)
    propagation = graph.propagation()
    forward_embed(second, graph)
    assert graph.propagation() is propagation
    assert builds == [graph]
