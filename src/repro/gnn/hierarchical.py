"""Hierarchical (node-level + graph-level) attention encoder for the GSG branch."""

from __future__ import annotations

import numpy as np

from repro.graph.sparse import SparseAdjacency
from repro.gnn.layers import GATLayer
from repro.gnn.sparse_ops import take_rows
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

    def forward(self, node_embeddings: Tensor,
                stack: SparseAdjacency | None = None) -> Tensor:
        """``(B, d)`` embeddings of the ``B`` graphs of a node stack.

        ``node_embeddings`` holds the graphs' node rows block after block, as
        laid out by ``stack`` (a block-diagonal adjacency; ``None`` or a plain
        adjacency is one graph).  Each graph attends over its own nodes plus
        its own summary row.  Graphs with the same node count ``n`` run as one
        ``(G, n + 1, d)`` array whose every block sees the float operations
        of a lone ``(n + 1, d)`` graph, so a graph's embedding does not depend
        on the rest of the stack (see :mod:`repro.core.inference`).
        """
        groups, order = ([(node_embeddings.shape[0], None)], None) if stack is None \
            else stack.size_groups()
        dim = node_embeddings.shape[1]
        pieces = []
        for n, rows in groups:
            nodes = node_embeddings if rows is None else take_rows(node_embeddings, rows)
            if nodes.shape[0] == n:                                    # one graph: (n, d)
                pieces.append(self._attend(nodes))
            else:
                pieces.append(self._attend(nodes.reshape(-1, n, dim)).reshape(-1, dim))
        embeddings = pieces[0] if len(pieces) == 1 else concat(pieces, axis=0)
        if order is not None:
            embeddings = take_rows(embeddings, order)
        return elu(embeddings)                                         # Eq. 13

    def _attend(self, nodes: Tensor) -> Tensor:
        """Eq. 10-12 on one ``(n, d)`` graph or ``(G, n, d)`` equal-size graphs:
        the ``(1, d)`` or ``(G, 1, d)`` attention-weighted candidate sums."""
        summary = nodes.max(axis=-2, keepdims=True)                    # Eq. 10
        candidates = concat([nodes, summary], axis=-2)                 # nodes ∪ {c}
        summary_repeated = Tensor(np.ones(candidates.shape[:-1] + (1,))) @ summary
        scores = leaky_relu(self.score_linear(
            concat([summary_repeated, candidates], axis=-1)), 0.2)     # Eq. 11
        weights = softmax(scores, axis=-2)                             # Eq. 12
        return (weights * self.out_linear(candidates)).sum(axis=-2, keepdims=True)


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

    def node_embeddings(self, x: Tensor, adjacency) -> Tensor:
        """Run only the node-level attention stack (Eq. 7-9).

        ``adjacency`` may be a :class:`SparseAdjacency` or a dense matrix; a
        dense input is converted once here so every GAT layer (and each of its
        heads) shares the same CSR structure and its cached derived forms.
        """
        adj = SparseAdjacency.coerce(adjacency)
        h = x
        for layer in self.layers:
            h = layer(h, adj)
        return h

    def forward(self, x: Tensor, adjacency) -> Tensor:
        """``(B, hidden_dim)`` embeddings of the ``B`` graphs of ``adjacency``.

        ``adjacency`` is one graph (a :class:`SparseAdjacency` or a dense
        matrix: ``B = 1``) or a block-diagonal stack with ``x`` holding its
        node rows block after block.  The GAT stack runs unchanged on a
        stack: attention structures and per-row softmaxes are block-local.
        """
        adj = SparseAdjacency.coerce(adjacency)
        return self.readout(self.node_embeddings(x, adj), adj)
