"""Transaction-evolution-time slicing for the Local Dynamic Graph (Eq. 1).

Two slicers share the same edge-to-slot assignment: :func:`time_slice_adjacency`
(the seed's dense ``(n, n)`` matrices) and :func:`time_slice_csr`, which builds
:class:`~repro.graph.sparse.SparseAdjacency` slices directly from the edge
arrays without ever allocating a dense matrix — the form the sparse LDG encoder
consumes.  Both read :meth:`TxGraph.edge_arrays` — the graph's columnar edge
store — so no :class:`~repro.graph.txgraph.Edge` object is materialised on
either path.
"""

from __future__ import annotations

import numpy as np

from repro.graph.sparse import SparseAdjacency
from repro.graph.txgraph import TxGraph

__all__ = ["transaction_evolution_times", "time_slice_adjacency", "time_slice_csr"]


def _evolution_time_array(timestamps: np.ndarray) -> np.ndarray:
    """Per-edge ``(t - t_min) / (t_max - t_min)``; zeros when the span is flat."""
    t_min = timestamps.min()
    span = timestamps.max() - t_min
    if span > 0:
        return (timestamps - t_min) / span
    return np.zeros(len(timestamps))


def transaction_evolution_times(graph: TxGraph) -> dict[tuple, float]:
    """Normalised evolution time in ``[0, 1]`` for every edge (Eq. 1).

    ``T(e_j) = (t_j - t_min) / (t_max - t_min)`` where the min/max are taken over
    the edges of the subgraph.  When all edges share a timestamp the evolution
    time is defined as 0 for every edge.
    """
    src_idx, dst_idx, _amount, _count, stamps = graph.edge_arrays()
    if not len(stamps):
        return {}
    times = _evolution_time_array(stamps)
    nodes = graph.nodes
    return {(nodes[i], nodes[j]): t
            for i, j, t in zip(src_idx.tolist(), dst_idx.tolist(),
                               times.tolist())}


def _edge_slice_arrays(graph: TxGraph, num_slices: int, weighted: bool,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(src_idx, dst_idx, value, slot)`` per merged edge, zero-copy endpoints."""
    src, dst, amount, _count, stamps = graph.edge_arrays()
    vals = amount if weighted else np.ones(len(amount))
    times = _evolution_time_array(stamps)
    slots = np.minimum((times * num_slices).astype(np.int64), num_slices - 1)
    return src, dst, vals, slots


def time_slice_adjacency(graph: TxGraph, num_slices: int,
                         weighted: bool = True, cumulative: bool = False) -> list[np.ndarray]:
    """Split the subgraph into ``num_slices`` discrete-time adjacency matrices.

    Each edge is assigned to the slice ``floor(T(e) * num_slices)`` (clamped to
    the last slice), producing the discrete-time dynamic graph sequence consumed
    by the LDG encoder.  With ``cumulative=True`` each slice also contains every
    earlier edge, which some baselines (e.g. TEGDetector-style models) prefer.

    Returned matrices use the graph's node-insertion order (``graph.nodes``)
    and are symmetrised for message passing.
    """
    if num_slices < 1:
        raise ValueError("num_slices must be >= 1")
    n = graph.num_nodes
    slices = [np.zeros((n, n), dtype=np.float64) for _ in range(num_slices)]
    if graph.num_edges:
        src, dst, vals, slots = _edge_slice_arrays(graph, num_slices, weighted)
        # Per-edge accumulation in insertion order — the same left-fold the
        # seed's Edge loop performed (a self loop adds to its diagonal twice).
        for i, j, value, slot in zip(src.tolist(), dst.tolist(),
                                     vals.tolist(), slots.tolist()):
            slices[slot][i, j] += value
            slices[slot][j, i] += value
    if cumulative:
        for k in range(1, num_slices):
            slices[k] += slices[k - 1]
    return slices


def time_slice_csr(graph: TxGraph, num_slices: int, weighted: bool = True,
                   cumulative: bool = False) -> list[SparseAdjacency]:
    """CSR twin of :func:`time_slice_adjacency`: no per-slice dense allocation.

    Returns one :class:`SparseAdjacency` per slice whose dense view equals the
    corresponding seed matrix: the same slot assignment, the same symmetrised
    accumulation (each edge contributes to ``(i, j)`` and ``(j, i)``, so a
    self loop counts twice on the diagonal) and the same cumulative semantics.
    """
    if num_slices < 1:
        raise ValueError("num_slices must be >= 1")
    n = graph.num_nodes
    if graph.num_edges == 0:
        return [SparseAdjacency.empty(n) for _ in range(num_slices)]
    src, dst, vals, slots = _edge_slice_arrays(graph, num_slices, weighted)
    slices = []
    for k in range(num_slices):
        mask = slots <= k if cumulative else slots == k
        i, j, v = src[mask], dst[mask], vals[mask]
        slices.append(SparseAdjacency.from_coo(
            np.concatenate([i, j]), np.concatenate([j, i]),
            np.concatenate([v, v]), n))
    return slices
