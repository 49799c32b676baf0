"""Graph pooling: global read-outs and differentiable pooling (DiffPool)."""

from __future__ import annotations

import numpy as np

from repro.gnn.layers import GCNLayer, normalize_adjacency
from repro.nn import Module, Tensor
from repro.nn.functional import softmax

__all__ = ["global_mean_pool", "global_max_pool", "global_sum_pool", "coarsen", "DiffPool"]


def global_mean_pool(x: Tensor) -> Tensor:
    """Mean over nodes, returning a ``(1, d)`` graph representation."""
    return x.mean(axis=0, keepdims=True)


def global_max_pool(x: Tensor) -> Tensor:
    """Element-wise max over nodes (Eq. 10's initial subgraph representation)."""
    return x.max(axis=0, keepdims=True)


def global_sum_pool(x: Tensor) -> Tensor:
    """Sum over nodes."""
    return x.sum(axis=0, keepdims=True)


def coarsen(assignment: np.ndarray, adjacency: np.ndarray) -> np.ndarray:
    """The coarse graph ``M^T A M`` of every block (Eq. 21).

    ``assignment`` is ``(..., n, c)`` and ``adjacency`` ``(..., n, n)``;
    leading axes broadcast, so one sample's graph can serve a stack of heads.
    """
    return assignment.swapaxes(-1, -2) @ adjacency @ assignment


class DiffPool(Module):
    """Differentiable pooling (Ying et al. 2018), used by the LDG branch.

    A GNN produces a soft cluster-assignment matrix ``M = softmax(GNN(A, h))``
    (Eq. 19); node features and adjacency are then coarsened as
    ``h_pool = M^T h`` and ``A_pool = M^T A M`` (Eq. 20-21), densely, per
    ``(n, n)`` block of a ``(..., n, n)`` stack.

    The pooled adjacency is a plain numpy array: gradients flow through the
    pooled features (the classification path), while the coarsened topology
    is treated as a constant for the next layer's normalisation.
    """

    def __init__(self, in_dim: int, num_clusters: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")
        self.num_clusters = num_clusters
        self.assign_gnn = GCNLayer(in_dim, num_clusters, activation=None, rng=rng)
        self.embed_gnn = GCNLayer(in_dim, in_dim, rng=rng)

    def forward(self, x: Tensor, adjacency: np.ndarray) -> tuple[Tensor, np.ndarray, Tensor]:
        """Return ``(pooled features, pooled adjacency, assignment matrix)``."""
        pooled_features, assignment = self.pool_features(x, normalize_adjacency(adjacency))
        return pooled_features, coarsen(assignment.data, adjacency), assignment

    def pool_features(self, x: Tensor, normalized: np.ndarray) -> tuple[Tensor, Tensor]:
        """``(pooled features, assignment matrix)``: Eq. 19-20 on the graph whose
        :func:`normalize_adjacency` is ``normalized``, without the coarse graph."""
        assignment = softmax(self.assign_gnn(x, normalized), axis=-1)  # (..., n, c)
        embedded = self.embed_gnn(x, normalized)                       # (..., n, d)
        return assignment.swapaxes(-1, -2) @ embedded, assignment      # (..., c, d)
