"""Graph convolution layers on dense adjacency blocks: GCN, GAT, GIN, GraphSAGE, APPNP.

Every layer takes node features ``(..., n, d)`` and the form of the adjacency
it aggregates with, ``(..., n, n)``: one sample's ``(n, n)`` or a ``(B, n, n)``
stack of equal-size samples, whose blocks the layer treats one by one.
Aggregation is a batched matmul and every reduction runs within a block, so
each block of a stack gets the bits the sample alone gets.

* :class:`GCNLayer` and :class:`APPNPPropagation` take ``Â``, the
  :func:`normalize_adjacency` of ``A``;
* :class:`GATLayer` takes the :func:`attention_mask` of ``A``;
* :class:`GINLayer` and :class:`GraphSAGELayer` take ``A`` itself.

The forwards are the seed's dense formulas; ``tests/_dense_reference.py``
keeps the seed's per-sample code as their parity reference.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Module, Linear, Parameter, Tensor, concat
from repro.nn.functional import elu, leaky_relu, relu, softmax

__all__ = [
    "normalize_adjacency",
    "attention_mask",
    "GCNLayer",
    "GATLayer",
    "GINLayer",
    "GraphSAGELayer",
    "APPNPPropagation",
]


def normalize_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """Symmetric GCN normalisation ``D^{-1/2} (A + I) D^{-1/2}`` of every block.

    ``adjacency`` is ``(..., n, n)``.  Rows whose degree is not positive get
    a zero inverse square root instead of a division by zero.
    """
    adj = np.asarray(adjacency, dtype=np.float64)
    if adj.ndim < 2 or adj.shape[-1] != adj.shape[-2]:
        raise ValueError("adjacency must be a square matrix or a stack of them")
    adj = adj + np.eye(adj.shape[-1])
    degree = adj.sum(axis=-1)
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = degree[nonzero] ** -0.5
    return adj * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]


def attention_mask(adjacency: np.ndarray) -> np.ndarray:
    """The GAT's additive score mask of every ``(n, n)`` block of ``adjacency``.

    0 where node ``i`` attends to node ``j`` (``A_ij > 0``, or ``i == j``)
    and ``-1e9`` elsewhere, so a masked slot's softmax weight is exactly 0.
    """
    adj = np.asarray(adjacency)
    attends = (adj > 0) | np.eye(adj.shape[-1], dtype=bool)
    return ~attends * -1e9


class GCNLayer(Module):
    """Graph convolution (Kipf & Welling 2017): ``act(Â X W)``.

    ``normalized`` is ``Â``, the :func:`normalize_adjacency` of ``A``.
    """

    def __init__(self, in_dim: int, out_dim: int, activation=relu,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.linear = Linear(in_dim, out_dim, rng=rng)
        self.activation = activation

    def forward(self, x: Tensor, normalized: np.ndarray) -> Tensor:
        out = Tensor(normalized) @ self.linear(x)
        return self.activation(out) if self.activation is not None else out


class GATLayer(Module):
    """Graph attention (Velickovic et al. 2018) with ``num_heads`` averaged heads.

    Scores ``LeakyReLU(a_src·h_i + a_dst·h_j)`` over every ``(i, j)`` slot
    plus the :func:`attention_mask` ``mask``, a row-wise softmax, and the
    attention-weighted sum ``attn @ h``.
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

    def forward(self, x: Tensor, mask: np.ndarray) -> Tensor:
        mask = Tensor(mask)
        head_outputs = []
        for head in range(self.num_heads):
            h = self.projections[head](x)                   # (..., n, out_dim)
            score_src = h @ self.attn_src[head]             # (..., n, 1)
            score_dst = h @ self.attn_dst[head]             # (..., n, 1)
            scores = leaky_relu(score_src + score_dst.swapaxes(-1, -2),
                                self.negative_slope)        # (..., n, n)
            attn = softmax(scores + mask, axis=-1)
            head_outputs.append(attn @ h)
        if self.num_heads == 1:
            out = head_outputs[0]
        else:
            shape = x.shape[:-1] + (1, self.out_dim)
            out = concat([h.reshape(shape) for h in head_outputs], axis=-2).mean(axis=-2)
        return self.activation(out) if self.activation is not None else out


class GINLayer(Module):
    """Graph isomorphism layer (Xu et al. 2019): ``MLP((1 + eps) x + (A > 0) x)``."""

    def __init__(self, in_dim: int, out_dim: int, hidden_dim: int | None = None,
                 eps: float = 0.0, train_eps: bool = True,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        hidden_dim = hidden_dim or out_dim
        self.eps = Parameter(np.array([eps])) if train_eps else Tensor(np.array([eps]))
        self.fc1 = Linear(in_dim, hidden_dim, rng=rng)
        self.fc2 = Linear(hidden_dim, out_dim, rng=rng)

    def forward(self, x: Tensor, adjacency: np.ndarray) -> Tensor:
        aggregated = Tensor((np.asarray(adjacency) > 0).astype(np.float64)) @ x
        combined = x * (self.eps + 1.0) + aggregated
        return self.fc2(relu(self.fc1(combined)))


class GraphSAGELayer(Module):
    """GraphSAGE with mean aggregation: ``act(W_self x + W_nbr mean_{j: A_ij > 0} x_j)``."""

    def __init__(self, in_dim: int, out_dim: int, activation=relu,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.self_linear = Linear(in_dim, out_dim, rng=rng)
        self.neighbor_linear = Linear(in_dim, out_dim, rng=rng)
        self.activation = activation

    def forward(self, x: Tensor, adjacency: np.ndarray) -> Tensor:
        adj = (np.asarray(adjacency) > 0).astype(np.float64)
        degree = adj.sum(axis=-1, keepdims=True)
        degree[degree == 0] = 1.0
        out = self.self_linear(x) + self.neighbor_linear(Tensor(adj / degree) @ x)
        return self.activation(out) if self.activation is not None else out


class APPNPPropagation(Module):
    """APPNP: personalised-PageRank propagation of an MLP's predictions.

    ``h^{(k+1)} = (1 - alpha) Â h^{(k)} + alpha h^{(0)}`` for ``k`` steps, with
    ``normalized`` the :func:`normalize_adjacency` ``Â``.
    """

    def __init__(self, k: int = 10, alpha: float = 0.1):
        super().__init__()
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.k = k
        self.alpha = alpha

    def forward(self, h0: Tensor, normalized: np.ndarray) -> Tensor:
        normalized = Tensor(normalized)
        h = h0
        for _ in range(self.k):
            h = (normalized @ h) * (1.0 - self.alpha) + h0 * self.alpha
        return h
