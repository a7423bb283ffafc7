"""Graph manipulation utilities shared by generators and GNN encoders."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graph import Graph


def symmetrize_edges(edge_index: np.ndarray) -> np.ndarray:
    """Return an edge index containing both directions of every edge, deduplicated."""
    src, dst = edge_index
    both = np.hstack([edge_index, np.vstack([dst, src])])
    return unique_edges(both)


def unique_edges(edge_index: np.ndarray) -> np.ndarray:
    """Remove duplicate directed edges."""
    if edge_index.size == 0:
        return edge_index.reshape(2, 0)
    pairs = np.unique(edge_index.T, axis=0)
    return pairs.T


def remove_self_loops(edge_index: np.ndarray) -> np.ndarray:
    """Drop edges whose source equals the target."""
    keep = edge_index[0] != edge_index[1]
    return edge_index[:, keep]


def add_self_loops(edge_index: np.ndarray, num_nodes: int) -> np.ndarray:
    """Append one self loop per node (after removing existing self loops)."""
    cleaned = remove_self_loops(edge_index)
    loops = np.vstack([np.arange(num_nodes), np.arange(num_nodes)])
    return np.hstack([cleaned, loops])


def normalized_adjacency(graph: Graph, add_loops: bool = True) -> sp.csr_matrix:
    """Symmetric normalized adjacency ``D^{-1/2} (A + I) D^{-1/2}`` used by GCN.

    Returns a ``scipy.sparse.csr_matrix`` (O(nnz) memory).
    """
    edge_index = graph.edge_index
    if add_loops:
        edge_index = add_self_loops(edge_index, graph.num_nodes)
    src, dst = edge_index
    data = np.ones(edge_index.shape[1])
    adjacency = sp.csr_matrix((data, (src, dst)), shape=(graph.num_nodes, graph.num_nodes))
    degree = np.asarray(adjacency.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    d_mat = sp.diags(inv_sqrt)
    return (d_mat @ adjacency @ d_mat).tocsr()


def edge_homophily(graph: Graph) -> float:
    """Fraction of edges whose endpoints share the same label."""
    if graph.labels is None or graph.num_edges == 0:
        return float("nan")
    src, dst = graph.edge_index
    same = graph.labels[src] == graph.labels[dst]
    return float(same.mean())


def connected_components(graph: Graph) -> np.ndarray:
    """Label each node with its (weakly) connected component id."""
    n_components, labels = sp.csgraph.connected_components(
        graph.adjacency(), directed=False
    )
    del n_components
    return labels


def largest_connected_component(graph: Graph) -> Graph:
    """Return the node-induced subgraph of the largest connected component."""
    component = connected_components(graph)
    values, counts = np.unique(component, return_counts=True)
    biggest = values[np.argmax(counts)]
    nodes = np.where(component == biggest)[0]
    return graph.subgraph(nodes)
