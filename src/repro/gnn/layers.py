"""Graph convolution layers on CSR sparse adjacency: GCN, GAT, GIN, GraphSAGE, APPNP.

Every layer aggregates in O(E) over a :class:`~repro.graph.sparse.SparseAdjacency`;
dense ``(n, n)`` matrices are still accepted everywhere and converted on entry,
so the seed's dense API keeps working.  ``tests/test_gnn_sparse_parity.py``
pins each sparse forward against faithful dense implementations of the seed
layers, kept in the test suite, to within 1e-9.
"""

from __future__ import annotations

import numpy as np

from repro.graph.sparse import SparseAdjacency
from repro.gnn.sparse_ops import (gather_cols, gather_rows,
                                  segment_softmax, spmm, spmm_edge_weighted)
from repro.nn import Module, Linear, Parameter, Tensor, concat
from repro.nn.functional import elu, leaky_relu, relu

__all__ = [
    "normalize_adjacency",
    "GCNLayer",
    "GATLayer",
    "GINLayer",
    "GraphSAGELayer",
    "APPNPPropagation",
]


def normalize_adjacency(adjacency, add_self_loops: bool = True):
    """Symmetric GCN normalisation ``D^{-1/2} (A + I) D^{-1/2}``.

    Polymorphic: a :class:`SparseAdjacency` input returns the normalised sparse
    form; a dense array keeps the seed's dense-in / dense-out contract.  Both
    paths guard zero-degree rows (isolated nodes with ``add_self_loops=False``)
    by zeroing the inverse square root instead of dividing by zero.
    """
    if isinstance(adjacency, SparseAdjacency):
        return adjacency.gcn_normalized(add_self_loops=add_self_loops)
    adj = np.asarray(adjacency, dtype=np.float64)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if add_self_loops:
        adj = adj + np.eye(adj.shape[0])
    degree = adj.sum(axis=1)
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = degree[nonzero] ** -0.5
    return adj * inv_sqrt[:, None] * inv_sqrt[None, :]


class GCNLayer(Module):
    """Graph convolution (Kipf & Welling 2017): ``act(\\hat{A} X W)``."""

    def __init__(self, in_dim: int, out_dim: int, activation=relu,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.linear = Linear(in_dim, out_dim, rng=rng)
        self.activation = activation

    def forward(self, x: Tensor, adjacency) -> Tensor:
        adj = SparseAdjacency.coerce(adjacency)
        out = spmm(adj.gcn_normalized(), self.linear(x))
        return self.activation(out) if self.activation is not None else out


class GATLayer(Module):
    """Graph attention (Velickovic et al. 2018) with ``num_heads`` averaged heads.

    Attention runs entirely on the edge list of ``A > 0`` plus self loops:
    per-edge scores ``LeakyReLU(a_src·h_i + a_dst·h_j)`` are normalised with a
    per-row segment softmax and aggregated with an edge-weighted scatter — the
    sparse equivalent of the seed's ``(n, n)`` mask + ``-1e9`` softmax.
    """

    def __init__(self, in_dim: int, out_dim: int, num_heads: int = 1,
                 negative_slope: float = 0.2, activation=elu,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.num_heads = num_heads
        self.out_dim = out_dim
        self.negative_slope = negative_slope
        self.activation = activation
        self.projections = [Linear(in_dim, out_dim, bias=False, rng=rng)
                            for _ in range(num_heads)]
        self.attn_src = [Parameter(rng.normal(0.0, 0.1, size=(out_dim, 1)))
                         for _ in range(num_heads)]
        self.attn_dst = [Parameter(rng.normal(0.0, 0.1, size=(out_dim, 1)))
                         for _ in range(num_heads)]

    def forward(self, x: Tensor, adjacency) -> Tensor:
        n = x.shape[0]
        structure = SparseAdjacency.coerce(adjacency).attention_structure()
        rows, cols = structure.rows, structure.indices
        head_outputs = []
        for head in range(self.num_heads):
            h = self.projections[head](x)                   # (n, out_dim)
            score_src = h @ self.attn_src[head]             # (n, 1)
            score_dst = h @ self.attn_dst[head]             # (n, 1)
            scores = leaky_relu(gather_rows(score_src, structure)
                                + gather_cols(score_dst, structure),
                                self.negative_slope)        # (E, 1)
            attn = segment_softmax(scores, structure)
            head_outputs.append(spmm_edge_weighted(structure, attn, h))
        if self.num_heads == 1:
            out = head_outputs[0]
        else:
            stacked = concat([h.reshape(n, 1, self.out_dim) for h in head_outputs], axis=1)
            out = stacked.mean(axis=1)
        return self.activation(out) if self.activation is not None else out


class GINLayer(Module):
    """Graph isomorphism layer (Xu et al. 2019): ``MLP((1 + eps) x + A x)``."""

    def __init__(self, in_dim: int, out_dim: int, hidden_dim: int | None = None,
                 eps: float = 0.0, train_eps: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        hidden_dim = hidden_dim or out_dim
        self.eps = Parameter(np.array([eps])) if train_eps else Tensor(np.array([eps]))
        self.fc1 = Linear(in_dim, hidden_dim, rng=rng)
        self.fc2 = Linear(hidden_dim, out_dim, rng=rng)

    def forward(self, x: Tensor, adjacency) -> Tensor:
        adj = SparseAdjacency.coerce(adjacency)
        aggregated = spmm(adj.binarized(), x)
        combined = x * (self.eps + 1.0) + aggregated
        return self.fc2(relu(self.fc1(combined)))


class GraphSAGELayer(Module):
    """GraphSAGE with mean aggregation: ``act(W_self x + W_nbr mean(A x))``."""

    def __init__(self, in_dim: int, out_dim: int, activation=relu,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.self_linear = Linear(in_dim, out_dim, rng=rng)
        self.neighbor_linear = Linear(in_dim, out_dim, rng=rng)
        self.activation = activation

    def forward(self, x: Tensor, adjacency) -> Tensor:
        adj = SparseAdjacency.coerce(adjacency)
        neighbor_mean = spmm(adj.mean_normalized(), x)
        out = self.self_linear(x) + self.neighbor_linear(neighbor_mean)
        return self.activation(out) if self.activation is not None else out


class APPNPPropagation(Module):
    """APPNP: personalised-PageRank propagation of an MLP's predictions.

    ``h^{(k+1)} = (1 - alpha) \\hat{A} h^{(k)} + alpha h^{(0)}`` for ``k`` steps.
    """

    def __init__(self, k: int = 10, alpha: float = 0.1):
        super().__init__()
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.k = k
        self.alpha = alpha

    def forward(self, h0: Tensor, adjacency) -> Tensor:
        normalized = SparseAdjacency.coerce(adjacency).gcn_normalized()
        h = h0
        for _ in range(self.k):
            h = spmm(normalized, h) * (1.0 - self.alpha) + h0 * self.alpha
        return h
