"""Graph neural network layers, pooling operators and recurrent units.

Every layer runs on dense adjacency blocks: one sample's ``(n, n)`` form or
a ``(B, n, n)`` stack of equal-size samples, with node features ``(n, d)`` or
``(B, n, d)``.  Aggregation is a batched matmul and every reduction stays
within a block, so a sample gets the same bits alone and in any stack.
Feature matrices are :class:`repro.nn.Tensor`, so the whole stack trains
with the numpy autograd engine; the test suite keeps the seed's per-sample
forward passes as the parity baseline.
"""

from repro.gnn.layers import (
    GCNLayer,
    GATLayer,
    GINLayer,
    GraphSAGELayer,
    APPNPPropagation,
    attention_mask,
    normalize_adjacency,
)
from repro.gnn.pooling import global_mean_pool, global_max_pool, global_sum_pool, DiffPool
from repro.gnn.recurrent import GRUCell
from repro.gnn.hierarchical import HierarchicalAttentionEncoder, GraphAttentionReadout

__all__ = [
    "GCNLayer",
    "GATLayer",
    "GINLayer",
    "GraphSAGELayer",
    "APPNPPropagation",
    "attention_mask",
    "normalize_adjacency",
    "global_mean_pool",
    "global_max_pool",
    "global_sum_pool",
    "DiffPool",
    "GRUCell",
    "HierarchicalAttentionEncoder",
    "GraphAttentionReadout",
]
