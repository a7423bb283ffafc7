"""Graph neural network encoders (GAT, GCN) and classification heads."""

from .gat import GATEncoder, GATLayer
from .gcn import GCNEncoder, GCNLayer
from .heads import ClassificationHead, ProjectionHead

__all__ = [
    "GATLayer",
    "GATEncoder",
    "GCNLayer",
    "GCNEncoder",
    "ClassificationHead",
    "ProjectionHead",
]


def build_encoder(kind: str, in_features: int, hidden_dim: int = 128, out_dim: int = 64,
                  dropout: float = 0.5, num_heads: int = 8, rng=None):
    """Factory for encoders by name (``"gat"`` or ``"gcn"``)."""
    kind = kind.lower()
    if kind == "gat":
        return GATEncoder(in_features, hidden_dim=hidden_dim, out_dim=out_dim,
                          num_heads=num_heads, dropout=dropout, rng=rng)
    if kind == "gcn":
        return GCNEncoder(in_features, hidden_dim=hidden_dim, out_dim=out_dim,
                          dropout=dropout, rng=rng)
    raise ValueError(f"unknown encoder kind {kind!r}; expected 'gat' or 'gcn'")
