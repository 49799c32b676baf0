"""Graph pooling: global read-outs and differentiable pooling (DiffPool)."""

from __future__ import annotations

import numpy as np

from repro.graph.sparse import BatchedAdjacency, SparseAdjacency
from repro.gnn.layers import GCNLayer
from repro.gnn.sparse_ops import segment_matmul, segment_matmul_array
from repro.nn import Module, Tensor
from repro.nn.functional import softmax

__all__ = ["global_mean_pool", "global_max_pool", "global_sum_pool", "DiffPool"]


def global_mean_pool(x: Tensor) -> Tensor:
    """Mean over nodes, returning a ``(1, d)`` graph representation."""
    return x.mean(axis=0, keepdims=True)


def global_max_pool(x: Tensor) -> Tensor:
    """Element-wise max over nodes (Eq. 10's initial subgraph representation)."""
    return x.max(axis=0, keepdims=True)


def global_sum_pool(x: Tensor) -> Tensor:
    """Sum over nodes."""
    return x.sum(axis=0, keepdims=True)


class DiffPool(Module):
    """Differentiable pooling (Ying et al. 2018), used by the LDG branch.

    A GNN produces a soft cluster-assignment matrix ``M = softmax(GNN(A, h))``
    (Eq. 19); node features and adjacency are then coarsened as
    ``h_pool = M^T h`` and ``A_pool = M^T A M`` (Eq. 20-21).

    The pooled adjacency is returned as a plain numpy array: gradients flow
    through the pooled features (the classification path), while the coarsened
    topology is treated as a constant for the next layer's normalisation.
    """

    def __init__(self, in_dim: int, num_clusters: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if num_clusters < 1:
            raise ValueError("num_clusters must be >= 1")
        self.num_clusters = num_clusters
        self.assign_gnn = GCNLayer(in_dim, num_clusters, activation=None, rng=rng)
        self.embed_gnn = GCNLayer(in_dim, in_dim, rng=rng)

    def forward(self, x: Tensor, adjacency) -> tuple[Tensor, np.ndarray, Tensor]:
        """Return ``(pooled features, pooled adjacency, assignment matrix)``.

        ``adjacency`` may be sparse or dense; the coarsened ``M^T A M`` is
        returned dense — it has at most ``num_clusters`` rows and is already
        effectively full, so nothing is gained by keeping it in CSR form.
        """
        adj = SparseAdjacency.coerce(adjacency)
        pooled_features, assignment = self.pool_features(x, adj)
        assign_np = assignment.data
        pooled_adjacency = adj.rmatmul(assign_np).T @ assign_np        # M^T A M
        return pooled_features, pooled_adjacency, assignment

    def pool_features(self, x: Tensor, adjacency: SparseAdjacency,
                      ) -> tuple[Tensor, Tensor]:
        """``(pooled features, assignment matrix)`` of every block of a stack.

        Eq. 19-20 without the coarse graph (Eq. 21), for a last layer whose
        coarse graph nothing reads.  A plain adjacency is one graph; on a
        :class:`BatchedAdjacency` the assignment/embedding GNNs and the
        row-wise softmax are block-local, so they run unchanged on the
        stacked input, and ``M^T h`` is a per-segment matmul over exactly the
        rows the per-sample path would see.  The pooled features of ``B``
        blocks form a ``(B·c, d)`` stack.
        """
        assignment = softmax(self.assign_gnn(x, adjacency), axis=1)    # (N, c)
        embedded = self.embed_gnn(x, adjacency)                        # (N, d)
        if isinstance(adjacency, BatchedAdjacency):
            pooled = segment_matmul(assignment, embedded, adjacency.node_offsets)
        else:
            pooled = assignment.T @ embedded                           # (c, d)
        return pooled, assignment

    def forward_batched(self, x: Tensor, adjacency: SparseAdjacency,
                        ) -> tuple[Tensor, SparseAdjacency, Tensor]:
        """Pool every block of a block-diagonal stack in one pass.

        A plain adjacency is a stack of one graph: :meth:`forward` pools it
        with the graph's own ops, and its coarse graph comes back as a plain
        :class:`SparseAdjacency`.  On a :class:`BatchedAdjacency` the
        features pool as in :meth:`pool_features`, and ``M^T A M`` is a
        per-segment matmul too.  Returns the pooled adjacency as a new
        :class:`BatchedAdjacency` with uniform ``c``-node blocks, built from
        the dense ``M^T A M`` stack with the same non-zero scan the
        per-sample path's next layer applies when it coerces its dense block.
        """
        if not isinstance(adjacency, BatchedAdjacency):
            pooled_features, coarse, assignment = self.forward(x, adjacency)
            return pooled_features, SparseAdjacency.from_dense(coarse), assignment
        pooled_features, assignment = self.pool_features(x, adjacency)
        coarse = segment_matmul_array(adjacency.rmatmul(assignment.data), assignment.data,
                                      adjacency.node_offsets)          # M^T A M per block
        return pooled_features, BatchedAdjacency.from_dense_blocks(coarse), assignment
