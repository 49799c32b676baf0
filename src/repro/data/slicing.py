"""Transaction-evolution-time slicing (Eq. 1) and the dense forms the encoders read.

The GNN encoders run on dense per-sample blocks.  A training minibatch or a
scoring chunk groups its samples by node count, and each group of ``B``
graphs with ``n`` nodes builds each form with one scatter over the group's
concatenated edge columns (:meth:`TxGraph.edge_arrays`):

* :func:`adjacency_blocks` -- the symmetric ``max(A, A.T)``, ``(B, n, n)``;
* :func:`time_slice_blocks` -- the ``T`` discrete-time slices of Eq. 1,
  ``(T, B, n, n)``.

Block ``b`` of each equals the seed's dense form of graph ``b`` alone, bit
for bit (the references are kept in ``tests/_dense_reference.py``), and
nothing is memoized on the graphs or their samples.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.txgraph import TxGraph

__all__ = ["transaction_evolution_times", "adjacency_blocks", "time_slice_blocks"]


def _group_edges(graphs: Sequence[TxGraph]) -> tuple:
    """``(n, block, src, dst, amount, stamps, edge_offsets)`` of graphs with one node count.

    The graphs' merged edges are laid side by side, each graph's in its own
    order: graph ``b`` owns edges ``edge_offsets[b]:edge_offsets[b+1]``, and
    ``block`` names each edge's graph.
    """
    if not graphs:
        raise ValueError("a group holds at least one graph")
    n = graphs[0].num_nodes
    if any(graph.num_nodes != n for graph in graphs):
        raise ValueError("a group's graphs must have one node count")
    columns = [graph.edge_arrays() for graph in graphs]
    counts = [len(src) for src, *_ in columns]
    edge_offsets = np.zeros(len(graphs) + 1, dtype=np.int64)
    np.cumsum(counts, out=edge_offsets[1:])
    src, dst, amount, _count, stamps = (np.concatenate(column) for column in zip(*columns))
    block = np.repeat(np.arange(len(graphs), dtype=np.int64), counts)
    return n, block, src, dst, amount, stamps, edge_offsets


def _evolution_time_array(timestamps: np.ndarray, edge_offsets: np.ndarray) -> np.ndarray:
    """Per-edge ``(t - t_min) / (t_max - t_min)`` over each graph's own edges;
    zeros in a graph whose span is flat."""
    counts = np.diff(edge_offsets)
    filled = counts > 0
    times = np.zeros(len(timestamps))
    if not filled.any():
        return times
    starts, counts = edge_offsets[:-1][filled], counts[filled]
    t_min = np.repeat(np.minimum.reduceat(timestamps, starts), counts)
    span = np.repeat(np.maximum.reduceat(timestamps, starts), counts) - t_min
    np.divide(timestamps - t_min, span, out=times, where=span > 0)
    return times


def transaction_evolution_times(graph: TxGraph) -> dict[tuple, float]:
    """Normalised evolution time in ``[0, 1]`` for every edge (Eq. 1).

    ``T(e_j) = (t_j - t_min) / (t_max - t_min)`` where the min/max are taken over
    the edges of the subgraph.  When all edges share a timestamp the evolution
    time is defined as 0 for every edge.
    """
    src_idx, dst_idx, _amount, _count, stamps = graph.edge_arrays()
    if not len(stamps):
        return {}
    times = _evolution_time_array(stamps, np.array([0, len(stamps)]))
    nodes = graph.nodes
    return {(nodes[i], nodes[j]): t
            for i, j, t in zip(src_idx.tolist(), dst_idx.tolist(),
                               times.tolist())}


def adjacency_blocks(graphs: Sequence[TxGraph], weighted: bool = False) -> np.ndarray:
    """The ``(B, n, n)`` symmetric adjacencies of ``B`` graphs with ``n`` nodes each.

    Block ``b`` is ``max(A, A.T)`` of graph ``b`` over its node order, with
    1 per edge (the edge amount when ``weighted``, as TSGN reads it): one
    ``np.maximum`` scatter of every edge in both directions, so a reciprocal
    pair keeps the larger amount.
    """
    n, block, src, dst, amount, _stamps, _offsets = _group_edges(graphs)
    out = np.zeros((len(graphs), n, n))
    values = amount if weighted else np.ones(len(src))
    np.maximum.at(out, (np.concatenate([block, block]), np.concatenate([src, dst]),
                        np.concatenate([dst, src])), np.concatenate([values, values]))
    return out


def time_slice_blocks(graphs: Sequence[TxGraph], num_slices: int) -> np.ndarray:
    """The ``(T, B, n, n)`` time slices of ``B`` graphs with ``n`` nodes each (Eq. 1).

    Each edge lands in the slice ``floor(T(e) * num_slices)`` (clamped to the
    last slice), ``T(e)`` taken over its own graph's edges, and adds 1 to
    ``[i, j]`` and ``[j, i]`` of that slice, so a self loop counts twice on
    the diagonal.  One ``bincount`` over the group's edges builds every slice
    of every block; the counts are exact, so the result does not depend on
    the order the edges are met in.
    """
    if num_slices < 1:
        raise ValueError("num_slices must be >= 1")
    n, block, src, dst, _amount, stamps, edge_offsets = _group_edges(graphs)
    times = _evolution_time_array(stamps, edge_offsets)
    slots = np.minimum((times * num_slices).astype(np.int64), num_slices - 1)
    rows = (slots * len(graphs) + block) * n
    index = np.concatenate([(rows + src) * n + dst, (rows + dst) * n + src])
    counts = np.bincount(index, minlength=num_slices * len(graphs) * n * n)
    return counts.astype(np.float64).reshape(num_slices, len(graphs), n, n)
