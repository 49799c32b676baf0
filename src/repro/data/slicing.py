"""Transaction-evolution-time slicing for the Local Dynamic Graph (Eq. 1).

:func:`time_slice_csr` builds :class:`~repro.graph.sparse.SparseAdjacency`
slices directly from the edge arrays without ever allocating a dense matrix —
the form the sparse LDG encoder consumes.  It reads :meth:`TxGraph.edge_arrays`,
the graph's edge columns.  The seed's dense ``(n, n)`` slicer is kept as the
parity reference in ``tests/_dense_reference.py``.

Stacked scoring (:mod:`repro.core.inference`) builds a chunk's structure in
one pass over the chunk's concatenated edge columns: :func:`time_slice_csr`
of a sequence of graphs gives each slice as one block-diagonal
:class:`~repro.graph.sparse.BatchedAdjacency`, and :func:`block_adjacency`
the chunk's symmetric adjacency.  Every block equals its graph's own form bit
for bit, and nothing is memoized on the graphs or their samples.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.graph.sparse import BatchedAdjacency, SparseAdjacency
from repro.graph.txgraph import TxGraph

__all__ = ["transaction_evolution_times", "time_slice_csr", "block_adjacency"]


def _offsets(counts: list[int]) -> np.ndarray:
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def _block_edge_arrays(graphs: Sequence[TxGraph]) -> tuple[np.ndarray, ...]:
    """``(node_offsets, edge_offsets, src_idx, dst_idx, amount, timestamp)``
    of ``graphs`` laid side by side.

    Graph ``b`` owns nodes ``node_offsets[b]:node_offsets[b+1]`` and merged
    edges ``edge_offsets[b]:edge_offsets[b+1]``, in its own order; its
    endpoints are shifted by its node offset.
    """
    columns = [graph.edge_arrays() for graph in graphs]
    node_offsets = _offsets([graph.num_nodes for graph in graphs])
    edge_offsets = _offsets([len(src) for src, *_ in columns])
    src, dst, amount, _count, stamps = (np.concatenate(column) for column in zip(*columns))
    shift = np.repeat(node_offsets[:-1], np.diff(edge_offsets))
    return node_offsets, edge_offsets, src + shift, dst + shift, amount, stamps


def _evolution_time_array(timestamps: np.ndarray, edge_offsets: np.ndarray) -> np.ndarray:
    """Per-edge ``(t - t_min) / (t_max - t_min)`` over each block's own edges;
    zeros in a block whose span is flat."""
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


def _edge_slice_arrays(graphs: Sequence[TxGraph], num_slices: int, weighted: bool,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(node_offsets, src_idx, dst_idx, value, slot)`` per merged edge of
    ``graphs`` laid side by side (see :func:`_block_edge_arrays`)."""
    node_offsets, edge_offsets, src, dst, amount, stamps = _block_edge_arrays(graphs)
    vals = amount if weighted else np.ones(len(amount))
    times = _evolution_time_array(stamps, edge_offsets)
    slots = np.minimum((times * num_slices).astype(np.int64), num_slices - 1)
    return node_offsets, src, dst, vals, slots


def time_slice_csr(graphs: TxGraph | Sequence[TxGraph], num_slices: int,
                   weighted: bool = True, cumulative: bool = False,
                   ) -> list[SparseAdjacency]:
    """Split the subgraph into ``num_slices`` discrete-time CSR adjacencies.

    Each edge is assigned to the slice ``floor(T(e) * num_slices)`` (clamped
    to the last slice), producing the discrete-time dynamic graph sequence
    consumed by the LDG encoder.  With ``cumulative=True`` each slice also
    contains every earlier edge, which some baselines (e.g.
    TEGDetector-style models) prefer.

    Returns one :class:`SparseAdjacency` per slice, over the graph's
    node-insertion order and symmetrised for message passing: each edge
    contributes to ``(i, j)`` and ``(j, i)``, so a self loop counts twice on
    the diagonal.  Its dense view equals the seed's dense slicer
    (``tests/_dense_reference.py``) bit for bit.

    ``graphs`` may also be a sequence of graphs, such as a scoring chunk's.
    Slice ``k`` is then one :class:`BatchedAdjacency` whose block ``b`` is
    ``time_slice_csr(graphs[b], ...)[k]`` bit for bit: each graph keeps its
    own evolution-time span, and the one ``from_coo`` per slice meets every
    block's triplets in that graph's own order.
    """
    if num_slices < 1:
        raise ValueError("num_slices must be >= 1")
    single = isinstance(graphs, TxGraph)
    node_offsets, src, dst, vals, slots = _edge_slice_arrays(
        [graphs] if single else graphs, num_slices, weighted)
    slices = []
    for k in range(num_slices):
        mask = slots <= k if cumulative else slots == k
        i, j, v = src[mask], dst[mask], vals[mask]
        flat = SparseAdjacency.from_coo(np.concatenate([i, j]), np.concatenate([j, i]),
                                        np.concatenate([v, v]), int(node_offsets[-1]))
        slices.append(flat if single else _blocks(flat, node_offsets))
    return slices


def block_adjacency(graphs: Sequence[TxGraph]) -> BatchedAdjacency:
    """The unweighted ``max(A, A.T)`` of every graph, as one block-diagonal CSR.

    Block ``b`` equals ``SparseAdjacency.from_graph(graphs[b],
    symmetric=True)`` bit for bit: one ``from_coo`` over the doubled edges
    collapses each block's duplicate slots (reciprocal pairs) with
    ``np.maximum``, as ``from_graph`` does per graph.
    """
    node_offsets, _edges, src, dst, _amount, _stamps = _block_edge_arrays(graphs)
    return _blocks(SparseAdjacency.from_coo(
        np.concatenate([src, dst]), np.concatenate([dst, src]), np.ones(2 * len(src)),
        int(node_offsets[-1]), combine=np.maximum), node_offsets)


def _blocks(flat: SparseAdjacency, node_offsets: np.ndarray) -> BatchedAdjacency:
    """``flat``, whose entries all lie inside the blocks of ``node_offsets``,
    as a :class:`BatchedAdjacency` of those blocks."""
    return BatchedAdjacency(flat.indptr, flat.indices, flat.data, node_offsets=node_offsets,
                            edge_offsets=flat.indptr[node_offsets])
