"""Graph neural network layers, pooling operators and recurrent units.

All layers aggregate on CSR sparse adjacency (:class:`SparseAdjacency`) in
O(E) per layer; dense ``(n, n)`` matrices are accepted everywhere and coerced
on entry.  Feature matrices are :class:`repro.nn.Tensor`, so the whole stack
trains with the numpy autograd engine; the test suite keeps the seed's dense
forward passes as the parity baseline.
"""

from repro.graph.sparse import SparseAdjacency
from repro.gnn.sparse_ops import segment_softmax, segment_sum, spmm, spmm_edge_weighted
from repro.gnn.layers import (
    GCNLayer,
    GATLayer,
    GINLayer,
    GraphSAGELayer,
    APPNPPropagation,
    normalize_adjacency,
)
from repro.gnn.pooling import global_mean_pool, global_max_pool, global_sum_pool, DiffPool
from repro.gnn.recurrent import GRUCell
from repro.gnn.hierarchical import HierarchicalAttentionEncoder, GraphAttentionReadout

__all__ = [
    "SparseAdjacency",
    "spmm",
    "spmm_edge_weighted",
    "segment_softmax",
    "segment_sum",
    "GCNLayer",
    "GATLayer",
    "GINLayer",
    "GraphSAGELayer",
    "APPNPPropagation",
    "normalize_adjacency",
    "global_mean_pool",
    "global_max_pool",
    "global_sum_pool",
    "DiffPool",
    "GRUCell",
    "HierarchicalAttentionEncoder",
    "GraphAttentionReadout",
]
