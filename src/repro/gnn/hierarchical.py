"""Hierarchical (node-level + graph-level) attention encoder for the GSG branch."""

from __future__ import annotations

import numpy as np

from repro.gnn.layers import GATLayer
from repro.nn import Linear, Module, Tensor, concat
from repro.nn.functional import elu, leaky_relu, softmax

__all__ = ["GraphAttentionReadout", "HierarchicalAttentionEncoder"]


class GraphAttentionReadout(Module):
    """Graph-level attention read-out (Eq. 10-13).

    The initial subgraph summary ``c`` is the global max-pool of the node
    embeddings; every node (and ``c`` itself) is scored against ``c`` with a
    LeakyReLU-activated linear layer, the scores are softmax-normalised and the
    graph embedding is the ELU of the attention-weighted sum.
    """

    def __init__(self, dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.score_linear = Linear(2 * dim, 1, rng=rng)
        self.out_linear = Linear(dim, dim, rng=rng)

    def forward(self, node_embeddings: Tensor) -> Tensor:
        """``(B, d)`` embeddings of ``(B, n, d)`` equal-size graphs (``(1, d)``
        of one ``(n, d)`` graph).

        Each graph attends over its own nodes plus its own summary row, and
        every reduction runs within a graph, so a graph's embedding does not
        depend on the rest of the stack.
        """
        summary = node_embeddings.max(axis=-2, keepdims=True)          # Eq. 10
        candidates = concat([node_embeddings, summary], axis=-2)       # nodes ∪ {c}
        summary_repeated = Tensor(np.ones(candidates.shape[:-1] + (1,))) @ summary
        scores = leaky_relu(self.score_linear(
            concat([summary_repeated, candidates], axis=-1)), 0.2)     # Eq. 11
        weights = softmax(scores, axis=-2)                             # Eq. 12
        embedding = (weights * self.out_linear(candidates)).sum(axis=-2)
        return elu(embedding.reshape(-1, node_embeddings.shape[-1]))   # Eq. 13


class HierarchicalAttentionEncoder(Module):
    """Node-level GAT stack followed by a graph-level attention read-out.

    This is the GSG encoder's backbone (Section IV-A2): ``num_layers`` GAT
    layers update node representations from their neighbours (Eq. 7-9), then
    :class:`GraphAttentionReadout` produces the subgraph embedding (Eq. 10-13).
    """

    def __init__(self, in_dim: int, hidden_dim: int, num_layers: int = 2,
                 num_heads: int = 1, rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        dims = [in_dim] + [hidden_dim] * num_layers
        self.layers = [GATLayer(dims[i], dims[i + 1], num_heads=num_heads, rng=rng)
                       for i in range(num_layers)]
        self.readout = GraphAttentionReadout(hidden_dim, rng=rng)

    def node_embeddings(self, x: Tensor, mask: np.ndarray) -> Tensor:
        """Run only the node-level attention stack (Eq. 7-9).

        ``mask`` is the :func:`~repro.gnn.layers.attention_mask` of the
        adjacency, ``(n, n)`` or ``(B, n, n)`` to match ``x``; every GAT layer
        and head shares it.
        """
        h = x
        for layer in self.layers:
            h = layer(h, mask)
        return h

    def forward(self, x: Tensor, mask: np.ndarray) -> Tensor:
        """``(B, hidden_dim)`` embeddings of ``(B, n, ·)`` equal-size graphs
        (``B = 1`` for one ``(n, ·)`` graph)."""
        return self.readout(self.node_embeddings(x, mask))
