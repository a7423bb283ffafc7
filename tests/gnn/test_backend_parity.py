"""Sparse-vs-dense backend parity for the GNN encoders.

The sparse backend (CSR propagation for GCN, vectorized edge-list attention
for GAT) must compute exactly the same function as the dense O(N^2)
reference: forward outputs and every parameter gradient agree to 1e-8 on
random graphs.  Dropout is disabled so both passes are deterministic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnn import build_encoder
from repro.gnn.gcn import GCNEncoder
from repro.graphs.graph import Graph
from repro.graphs.utils import symmetrize_edges
from tests.oracle import forward_embed

ATOL = 1e-8


def random_graph(num_nodes=40, num_features=7, avg_degree=4.0, seed=0):
    rng = np.random.default_rng(seed)
    num_edges = int(num_nodes * avg_degree)
    src = rng.integers(num_nodes, size=num_edges)
    dst = rng.integers(num_nodes, size=num_edges)
    edge_index = symmetrize_edges(np.vstack([src, dst]))
    return Graph(features=rng.normal(size=(num_nodes, num_features)), edge_index=edge_index)


def paired_encoders(kind, graph, seed=0, **kwargs):
    """Two encoders of ``kind`` with identical weights, one per backend."""
    sparse = build_encoder(kind, in_features=graph.num_features, backend="sparse",
                           dropout=0.0, rng=np.random.default_rng(seed), **kwargs)
    dense = build_encoder(kind, in_features=graph.num_features, backend="dense",
                          dropout=0.0, rng=np.random.default_rng(seed), **kwargs)
    dense.load_state_dict(sparse.state_dict())
    return sparse, dense


def forward_backward(encoder, graph):
    """Deterministic forward + a quadratic loss backward; returns output, grads."""
    encoder.eval()  # dropout off; the graph is still recorded
    encoder.zero_grad()
    out = encoder(graph)
    (out * out).sum().backward()
    grads = {name: param.grad.copy() for name, param in encoder.named_parameters()}
    return out.data, grads


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gcn_forward_and_gradient_parity(seed):
    graph = random_graph(seed=seed)
    sparse, dense = paired_encoders("gcn", graph, seed=seed, hidden_dim=16, out_dim=8)
    out_sparse, grads_sparse = forward_backward(sparse, graph)
    out_dense, grads_dense = forward_backward(dense, graph)
    np.testing.assert_allclose(out_sparse, out_dense, atol=ATOL)
    assert grads_sparse.keys() == grads_dense.keys()
    for name in grads_sparse:
        np.testing.assert_allclose(
            grads_sparse[name], grads_dense[name], atol=ATOL, err_msg=name
        )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gat_forward_and_gradient_parity(seed):
    graph = random_graph(num_nodes=25, seed=seed)
    sparse, dense = paired_encoders(
        "gat", graph, seed=seed, hidden_dim=8, out_dim=6, num_heads=2
    )
    out_sparse, grads_sparse = forward_backward(sparse, graph)
    out_dense, grads_dense = forward_backward(dense, graph)
    np.testing.assert_allclose(out_sparse, out_dense, atol=ATOL)
    assert grads_sparse.keys() == grads_dense.keys()
    for name in grads_sparse:
        np.testing.assert_allclose(
            grads_sparse[name], grads_dense[name], atol=ATOL, err_msg=name
        )


def test_gat_layer_parity_with_sink_only_node():
    """A node with no incoming edges gets a zero row on both backends.

    GATLayer is public and does not add self loops itself; the dense masked
    softmax must not emit NaN for the unreached node.
    """
    from repro.gnn.gat import GATLayer
    from repro.nn.tensor import Tensor

    rng = np.random.default_rng(0)
    features = rng.normal(size=(4, 5))
    edge_index = np.array([[3, 1, 2], [0, 0, 1]])  # node 3 has no incoming edge

    sparse = GATLayer(5, 3, num_heads=2, dropout=0.0, backend="sparse",
                      rng=np.random.default_rng(1))
    dense = GATLayer(5, 3, num_heads=2, dropout=0.0, backend="dense",
                     rng=np.random.default_rng(1))
    dense.load_state_dict(sparse.state_dict())

    out_sparse = sparse(Tensor(features), edge_index, 4)
    out_dense = dense(Tensor(features), edge_index, 4)
    assert np.isfinite(out_dense.data).all()
    np.testing.assert_allclose(out_sparse.data, out_dense.data, atol=ATOL)
    np.testing.assert_allclose(out_dense.data[3], 0.0, atol=ATOL)

    (out_dense * out_dense).sum().backward()
    for param in dense.parameters():
        assert np.isfinite(param.grad).all()


def test_gat_layer_parity_with_duplicate_directed_edges():
    """A duplicated edge carries double attention mass on both backends."""
    from repro.gnn.gat import GATLayer
    from repro.nn.tensor import Tensor

    rng = np.random.default_rng(3)
    features = rng.normal(size=(4, 5))
    # Edge 2->0 listed twice; self loops keep every row reachable.
    edge_index = np.array([[0, 1, 2, 3, 2, 2, 1], [0, 1, 2, 3, 0, 0, 3]])

    sparse = GATLayer(5, 3, num_heads=2, dropout=0.0, backend="sparse",
                      rng=np.random.default_rng(4))
    dense = GATLayer(5, 3, num_heads=2, dropout=0.0, backend="dense",
                     rng=np.random.default_rng(4))
    dense.load_state_dict(sparse.state_dict())

    out_sparse = sparse(Tensor(features), edge_index, 4)
    out_dense = dense(Tensor(features), edge_index, 4)
    np.testing.assert_allclose(out_sparse.data, out_dense.data, atol=ATOL)


@pytest.mark.parametrize("backend", ["sparse", "dense"])
def test_gcn_propagation_cache_keyed_by_graph_identity(backend):
    """Fresh graphs at recycled addresses must never see a stale cache."""
    encoder = GCNEncoder(7, hidden_dim=8, out_dim=4, dropout=0.0, backend=backend,
                         rng=np.random.default_rng(0))
    for seed in range(6):
        graph = random_graph(seed=seed)  # prior graph freed each iteration
        fresh = GCNEncoder(7, hidden_dim=8, out_dim=4, dropout=0.0, backend=backend,
                           rng=np.random.default_rng(0))
        np.testing.assert_allclose(forward_embed(encoder, graph),
                                   forward_embed(fresh, graph), atol=ATOL)


def test_gcn_dense_cache_does_not_pin_graph():
    import gc
    import weakref

    encoder = GCNEncoder(7, hidden_dim=8, out_dim=4, dropout=0.0, backend="dense",
                         rng=np.random.default_rng(0))
    graph = random_graph()
    ref = weakref.ref(graph)
    forward_embed(encoder, graph)
    del graph
    gc.collect()
    assert ref() is None  # the encoder holds only a weak reference


def test_gcn_sparse_is_default_and_keeps_propagation_sparse():
    import scipy.sparse as sp

    graph = random_graph()
    encoder = GCNEncoder(graph.num_features, hidden_dim=8, out_dim=4)
    assert encoder.backend == "sparse"
    forward_embed(encoder, graph)
    assert sp.issparse(encoder._cached_propagation)


def test_dense_backend_densifies_propagation():
    graph = random_graph()
    encoder = GCNEncoder(graph.num_features, hidden_dim=8, out_dim=4, backend="dense")
    forward_embed(encoder, graph)
    assert isinstance(encoder._cached_propagation, np.ndarray)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        GCNEncoder(4, backend="blocked")
    with pytest.raises(ValueError, match="unknown backend"):
        build_encoder("gat", in_features=4, backend="nope")


def test_propagation_cache_shared_across_encoders():
    graph = random_graph()
    first = GCNEncoder(graph.num_features, hidden_dim=8, out_dim=4)
    second = GCNEncoder(graph.num_features, hidden_dim=8, out_dim=4)
    forward_embed(first, graph)
    forward_embed(second, graph)
    assert first._cached_propagation is second._cached_propagation


def test_trainer_respects_backend_config(small_dataset):
    from dataclasses import replace

    from repro.core.config import fast_config
    from repro.core.trainer import GraphTrainer

    config = fast_config(max_epochs=1, encoder_kind="gcn")
    trainer = GraphTrainer(small_dataset, config)
    assert trainer.encoder.backend == "sparse"

    dense_config = config.with_updates(encoder=replace(config.encoder, backend="dense"))
    dense_trainer = GraphTrainer(small_dataset, dense_config)
    assert dense_trainer.encoder.backend == "dense"
