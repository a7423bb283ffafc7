"""Incremental embedding refresh vs full recompute under streaming deltas.

A small arrival batch (a few nodes plus their anchor edges) perturbs the
embeddings of only the delta's 2-hop ball; ``refresh_after_delta``
recomputes exactly the affected receptive field and patches the cached
array, while the naive serving loop recomputes every node (propagation
rebuild + a whole-graph pass).  At 50k nodes the affected ball is a few
hundred nodes, so the partial path must win by a wide margin — the
acceptance criterion is **>= 5x** mean per-delta speedup with embeddings
matching the full recompute to 1e-8 (checked for GCN at the headline size
and for GAT at a smaller size).

Results are written to ``benchmarks/results/perf_streaming.txt``.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import save_report

from repro.gnn import GATEncoder, GCNEncoder
from repro.graphs import GraphDelta
from repro.graphs.graph import Graph
from repro.graphs.utils import symmetrize_edges
from repro.inference import InferenceEngine
from repro.streaming import DynamicGraph

AVG_DEGREE = 8
NUM_FEATURES = 32
HIDDEN_DIM = 64
OUT_DIM = 32
HEADLINE_NODES = 50_000
GAT_NODES = 5_000
NUM_DELTAS = 5
MIN_SPEEDUP = 5.0

_report_lines: list = []


def synthetic_graph(num_nodes: int, seed: int = 0) -> Graph:
    rng = np.random.default_rng(seed)
    num_edges = num_nodes * AVG_DEGREE // 2
    src = rng.integers(num_nodes, size=num_edges)
    dst = rng.integers(num_nodes, size=num_edges)
    return Graph(
        features=rng.normal(size=(num_nodes, NUM_FEATURES)),
        edge_index=symmetrize_edges(np.vstack([src, dst])),
        name=f"perf-streaming-{num_nodes}",
    )


def build_encoder(kind: str):
    rng = np.random.default_rng(0)
    if kind == "gcn":
        encoder = GCNEncoder(NUM_FEATURES, hidden_dim=HIDDEN_DIM,
                             out_dim=OUT_DIM, dropout=0.0, rng=rng)
    else:
        encoder = GATEncoder(NUM_FEATURES, hidden_dim=HIDDEN_DIM,
                             out_dim=OUT_DIM, num_heads=4, dropout=0.0,
                             rng=rng)
    perturb = np.random.default_rng(1)
    for param in encoder.parameters():
        param.data = param.data + perturb.normal(scale=0.1,
                                                 size=param.data.shape)
    return encoder


def arrival_delta(graph: Graph, num_new: int, seed: int) -> GraphDelta:
    """A realistic arrival batch: new nodes anchored to existing ones."""
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    anchors = np.vstack([np.arange(n, n + num_new),
                         rng.integers(n, size=num_new)])
    return GraphDelta.undirected(
        add_features=rng.normal(size=(num_new, NUM_FEATURES)),
        add_edges=anchors,
    )


def replay_deltas(kind: str, num_nodes: int):
    """Apply NUM_DELTAS arrival batches, timing partial vs full per delta."""
    graph = synthetic_graph(num_nodes)
    encoder = build_encoder(kind)
    engine = InferenceEngine()
    dynamic = DynamicGraph(graph,
                           num_hops=encoder.num_message_passing_layers)
    engine.embeddings(encoder, graph)  # warm: the steady serving state

    partial_times, full_times, affected, max_error = [], [], [], 0.0
    for seed in range(NUM_DELTAS):
        delta = arrival_delta(graph, num_new=2, seed=seed)
        # The naive loop: rebuild-from-scratch on the post-delta graph
        # (fresh copy, cold propagation cache — what invalidation costs).
        reference = graph.copy()
        reference.apply_delta(delta)
        start = time.perf_counter()
        expected = encoder.embed(reference)
        full_times.append(time.perf_counter() - start)

        report = dynamic.apply(delta)
        start = time.perf_counter()
        patched = engine.refresh_after_delta(encoder, graph, report)
        partial_times.append(time.perf_counter() - start)

        affected.append(report.num_affected)
        max_error = max(max_error, float(np.abs(patched - expected).max()))

    assert engine.partial_refresh_count == NUM_DELTAS, \
        "every delta should be served by the partial path"
    return {
        "kind": kind,
        "num_nodes": num_nodes,
        "mean_partial": float(np.mean(partial_times)),
        "mean_full": float(np.mean(full_times)),
        "speedup": float(np.mean(full_times) / np.mean(partial_times)),
        "mean_affected": float(np.mean(affected)),
        "max_error": max_error,
    }


def record(row: dict) -> None:
    _report_lines.append(
        f"{row['kind']:>4} @ {row['num_nodes']:>6} nodes: "
        f"partial {row['mean_partial'] * 1e3:8.2f} ms  "
        f"full {row['mean_full'] * 1e3:8.2f} ms  "
        f"speedup {row['speedup']:6.1f}x  "
        f"affected ~{row['mean_affected']:.0f} nodes  "
        f"max |err| {row['max_error']:.2e}")


class TestStreamingRefreshPerf:
    def test_gcn_partial_refresh_speedup_50k(self):
        row = replay_deltas("gcn", HEADLINE_NODES)
        record(row)
        assert row["max_error"] <= 1e-8
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"partial refresh only {row['speedup']:.1f}x faster than full "
            f"recompute (need >= {MIN_SPEEDUP}x)")

    def test_gat_partial_refresh_parity(self):
        row = replay_deltas("gat", GAT_NODES)
        record(row)
        # Parity is the contract here: attention renormalizes over each
        # affected node's full in-neighborhood, so the patched rows must
        # still match a full recompute.  The speedup headline is measured
        # at 50k on GCN above — at this size the 4-hop extraction ball is
        # a large share of the graph, so only a modest win is expected.
        assert row["max_error"] <= 1e-8
        assert row["speedup"] > 1.0

    def test_zz_save_report(self):
        report = "\n".join(
            ["Incremental refresh vs full recompute "
             f"({NUM_DELTAS} arrival deltas, 2 nodes each, mean per delta)",
             ""] + _report_lines)
        path = save_report("perf_streaming", report)
        print(f"\n{report}\nsaved to {path}")
