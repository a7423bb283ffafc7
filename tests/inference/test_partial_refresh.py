"""Partial embedding refresh after graph deltas: parity, fallbacks, safety."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import InferenceConfig
from repro.gnn.gat import GATEncoder
from repro.gnn.gcn import GCNEncoder
from repro.graphs import GraphDelta
from repro.graphs.graph import Graph
from repro.graphs.utils import symmetrize_edges
from repro.inference.engine import InferenceEngine
from repro.streaming import DynamicGraph
from tests.oracle import dense_embed

NUM_FEATURES = 8


def make_graph(num_nodes=150, avg_degree=6, seed=0) -> Graph:
    rng = np.random.default_rng(seed)
    num_edges = num_nodes * avg_degree // 2
    edges = np.vstack([rng.integers(num_nodes, size=num_edges),
                       rng.integers(num_nodes, size=num_edges)])
    return Graph(
        features=rng.normal(size=(num_nodes, NUM_FEATURES)),
        edge_index=symmetrize_edges(edges),
        labels=rng.integers(3, size=num_nodes),
        name="partial",
    )


def make_delta(graph: Graph, num_new=2, num_edges=3, seed=0) -> GraphDelta:
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    total = n + num_new
    anchors = np.vstack([np.arange(n, total), rng.integers(n, size=num_new)])
    extra = np.vstack([rng.integers(total, size=num_edges),
                       rng.integers(total, size=num_edges)])
    return GraphDelta.undirected(
        add_features=rng.normal(size=(num_new, NUM_FEATURES)),
        add_edges=np.hstack([anchors, extra]),
        add_labels=rng.integers(3, size=num_new),
    )


def make_encoder(kind: str, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "gcn":
        return GCNEncoder(NUM_FEATURES, hidden_dim=16, out_dim=8,
                          dropout=0.0, rng=rng)
    return GATEncoder(NUM_FEATURES, hidden_dim=16, out_dim=8, num_heads=2,
                      dropout=0.0, rng=rng)


#: A rebuilt graph's embeddings: the encoder's own pass or the dense oracle.
REFERENCES = {"sparse": lambda encoder, graph: encoder.embed(graph),
              "dense": dense_embed}


def make_engine(**overrides) -> InferenceEngine:
    defaults = dict(partial_refresh=True, partial_threshold=1.0)
    defaults.update(overrides)
    return InferenceEngine(InferenceConfig(**defaults))


class TestParity:
    """Partial refresh must be indistinguishable from a full recompute."""

    @pytest.mark.parametrize("kind", ["gcn", "gat"])
    @pytest.mark.parametrize("reference", list(REFERENCES))
    def test_matches_full_recompute(self, kind, reference):
        graph = make_graph()
        encoder = make_encoder(kind)
        engine = make_engine()
        dynamic = DynamicGraph(graph, num_hops=encoder.num_message_passing_layers)
        engine.embeddings(encoder, graph)  # warm the cache

        for seed in range(3):  # several consecutive deltas, each patched
            delta = make_delta(graph, seed=seed)
            reference_graph = graph.copy()
            reference_graph.apply_delta(delta)
            expected = REFERENCES[reference](encoder, reference_graph)

            report = dynamic.apply(delta)
            patched = engine.refresh_after_delta(encoder, graph, report)
            np.testing.assert_allclose(patched, expected, atol=1e-8)
        assert engine.partial_refresh_count == 3
        assert engine.full_refresh_count == 0
        # Warm-up was the only monolithic pass over the whole graph.
        assert engine.forward_count == 1

    def test_unaffected_rows_bit_identical(self):
        graph = make_graph(seed=3)
        encoder = make_encoder("gcn")
        engine = make_engine()
        before = engine.embeddings(encoder, graph).copy()
        dynamic = DynamicGraph(graph, num_hops=2)
        report = dynamic.apply(make_delta(graph, seed=5))
        patched = engine.refresh_after_delta(encoder, graph, report)
        untouched = np.setdiff1d(np.arange(before.shape[0]), report.affected)
        assert np.array_equal(patched[untouched], before[untouched])


#: One delta: (new nodes, undirected edges, seed).  A delta without new
#: nodes only adds edges between existing nodes (duplicates and self loops
#: included); one with new nodes anchors each to a random node first.
DELTA_STEPS = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 2**32 - 1)),
    min_size=1, max_size=5)


def generated_delta(num_nodes: int, num_new: int, num_edges: int,
                    seed: int) -> GraphDelta:
    rng = np.random.default_rng(seed)
    total = num_nodes + num_new
    anchors = np.vstack([np.arange(num_nodes, total),
                         rng.integers(num_nodes, size=num_new)])
    extra = rng.integers(total, size=(2, num_edges))
    return GraphDelta.undirected(
        add_features=rng.normal(size=(num_new, NUM_FEATURES)),
        add_edges=np.hstack([anchors, extra]),
    )


class TestGeneratedDeltaSequences:
    """Any sequence of deltas: patched embeddings equal a rebuild from scratch."""

    @pytest.mark.parametrize("kind", ["gcn", "gat"])
    @settings(max_examples=50, deadline=None)
    @given(steps=DELTA_STEPS)
    def test_refresh_equals_embed_of_final_graph(self, kind, steps):
        graph = make_graph(num_nodes=40, avg_degree=3, seed=len(steps))
        encoder = make_encoder(kind, seed=1)
        engine = make_engine()
        engine.embeddings(encoder, graph)
        dynamic = DynamicGraph(graph, num_hops=encoder.num_message_passing_layers)
        for num_new, num_edges, seed in steps:
            report = dynamic.apply(
                generated_delta(graph.num_nodes, num_new, num_edges, seed))
            patched = engine.refresh_after_delta(encoder, graph, report)
        assert engine.full_refresh_count == 0
        assert engine.forward_count == 1
        rebuilt = Graph(features=graph.features.copy(),
                        edge_index=graph.edge_index.copy())
        np.testing.assert_allclose(patched, encoder.embed(rebuilt),
                                   rtol=0.0, atol=1e-8)


class TestFallbacks:
    def test_threshold_forces_full_recompute(self):
        graph = make_graph()
        encoder = make_encoder("gcn")
        engine = make_engine(partial_threshold=0.001)
        engine.embeddings(encoder, graph)
        dynamic = DynamicGraph(graph, num_hops=2)
        report = dynamic.apply(make_delta(graph))
        result = engine.refresh_after_delta(encoder, graph, report)
        assert engine.full_refresh_count == 1
        assert engine.partial_refresh_count == 0
        np.testing.assert_allclose(result, encoder.embed(graph), atol=1e-8)

    def test_partial_refresh_disabled_by_config(self):
        graph = make_graph()
        encoder = make_encoder("gcn")
        engine = make_engine(partial_refresh=False)
        engine.embeddings(encoder, graph)
        dynamic = DynamicGraph(graph, num_hops=2)
        report = dynamic.apply(make_delta(graph))
        engine.refresh_after_delta(encoder, graph, report)
        assert engine.partial_refresh_count == 0
        assert engine.forward_count == 2

    def test_no_cache_falls_back_to_full(self):
        graph = make_graph()
        encoder = make_encoder("gcn")
        engine = make_engine(cache=False)
        dynamic = DynamicGraph(graph, num_hops=2)
        report = dynamic.apply(make_delta(graph))
        result = engine.refresh_after_delta(encoder, graph, report)
        np.testing.assert_allclose(result, encoder.embed(graph), atol=1e-8)

    def test_stale_report_falls_back(self):
        """A report taken before a later delta no longer bounds the change."""
        graph = make_graph()
        encoder = make_encoder("gcn")
        engine = make_engine()
        engine.embeddings(encoder, graph)
        dynamic = DynamicGraph(graph, num_hops=2)
        old_report = dynamic.apply(make_delta(graph, seed=0))
        dynamic.apply(make_delta(graph, seed=1))  # graph moved on
        result = engine.refresh_after_delta(encoder, graph, old_report)
        assert engine.full_refresh_count == 1
        np.testing.assert_allclose(result, encoder.embed(graph), atol=1e-8)

    def test_parameter_update_invalidates_patch_base(self):
        graph = make_graph()
        encoder = make_encoder("gcn")
        engine = make_engine()
        engine.embeddings(encoder, graph)
        encoder.load_state_dict(encoder.state_dict())  # bumps param version
        dynamic = DynamicGraph(graph, num_hops=2)
        report = dynamic.apply(make_delta(graph))
        result = engine.refresh_after_delta(encoder, graph, report)
        assert engine.full_refresh_count == 1
        np.testing.assert_allclose(result, encoder.embed(graph), atol=1e-8)

    def test_zero_affected_delta_rekeys_without_forward(self):
        graph = make_graph()
        encoder = make_encoder("gcn")
        engine = make_engine()
        cached = engine.embeddings(encoder, graph)
        dynamic = DynamicGraph(graph, num_hops=2)
        report = dynamic.apply(GraphDelta())
        result = engine.refresh_after_delta(encoder, graph, report)
        assert result is cached  # re-keyed, not recomputed
        assert engine.forward_count == 1
        assert engine.partial_refresh_count == 1
        # And the re-keyed entry now serves plain lookups again.
        assert engine.embeddings(encoder, graph) is cached

    def test_encoder_deeper_than_report_raises(self):
        graph = make_graph()
        encoder = make_encoder("gcn")  # 2 message-passing layers
        engine = make_engine()
        dynamic = DynamicGraph(graph, num_hops=1)
        report = dynamic.apply(make_delta(graph))
        with pytest.raises(ValueError, match="num_hops >= 2"):
            engine.refresh_after_delta(encoder, graph, report)


class TestStaleEntry:
    def test_returns_previous_version_entry(self):
        graph = make_graph()
        encoder = make_encoder("gcn")
        engine = make_engine()
        cached = engine.embeddings(encoder, graph)
        misses_before = engine.cache.misses
        graph.apply_delta(GraphDelta())  # bump version; lookup would miss
        stale = engine.cache.stale_entry(encoder, graph)
        assert stale is not None
        assert stale[0] is cached
        assert stale[1] == graph.cache_version - 1
        # Bookkeeping, not a serving lookup: counters untouched.
        assert engine.cache.misses == misses_before

    def test_none_for_different_encoder_or_graph(self):
        graph = make_graph()
        encoder = make_encoder("gcn")
        engine = make_engine()
        engine.embeddings(encoder, graph)
        assert engine.cache.stale_entry(
            make_encoder("gcn", seed=1), graph) is None
        assert engine.cache.stale_entry(encoder, make_graph(seed=9)) is None


class TestConcurrentReaders:
    def test_reader_keeps_consistent_predelta_view(self):
        """A thread holding the pre-delta array is never broken mid-patch."""
        graph = make_graph()
        encoder = make_encoder("gcn")
        engine = make_engine()
        old = engine.embeddings(encoder, graph)
        baseline = old.copy()
        assert not old.flags.writeable

        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                if not np.array_equal(old, baseline):
                    errors.append("pre-delta view changed under a reader")
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            dynamic = DynamicGraph(graph, num_hops=2)
            for seed in range(5):
                report = dynamic.apply(make_delta(graph, seed=seed))
                engine.refresh_after_delta(encoder, graph, report)
        finally:
            stop.set()
            thread.join()
        assert errors == []
        # The patched array is a distinct, also-frozen publication.
        fresh = engine.embeddings(encoder, graph)
        assert fresh is not old
        assert not fresh.flags.writeable
        assert fresh.shape[0] == graph.num_nodes
