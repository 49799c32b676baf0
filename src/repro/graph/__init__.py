"""Graph containers and algorithms used throughout the reproduction.

The paper manipulates account-interaction graphs at two granularities: a global
static graph with merged edges (total amount + count) and per-time-slice local
dynamic graphs.  :class:`~repro.graph.txgraph.TxGraph` is the common container.
"""

from repro.graph.txgraph import TxGraph
from repro.graph.sampling import ego_subgraph, top_k_neighbors

__all__ = [
    "TxGraph",
    "ego_subgraph",
    "top_k_neighbors",
]
