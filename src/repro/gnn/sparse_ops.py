"""Gradient-aware sparse message-passing operators.

These wrap the numpy CSR kernels of :class:`~repro.graph.sparse.SparseAdjacency`
in :class:`~repro.nn.Tensor` operations so the GNN layers can aggregate in
O(E) while still training with the reverse-mode autograd engine:

* :func:`spmm` — ``A @ X`` with a constant sparse ``A`` (GCN / GIN / SAGE /
  APPNP aggregation; the backward pass is ``A.T @ grad``).
* :func:`spmm_edge_weighted` — ``out[i] = Σ_e w_e · x[col_e]`` where the
  per-edge weights ``w`` are themselves a tensor (GAT attention aggregation;
  gradients flow to both the weights and the node features).
* :func:`segment_softmax` — softmax of per-edge scores within each CSR row,
  the sparse replacement of the dense masked-softmax attention.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.graph.sparse import SparseAdjacency, segment_reduce
from repro.nn import Tensor

__all__ = ["spmm", "spmm_edge_weighted", "segment_softmax", "segment_sum",
           "segment_mean_batch", "segment_matmul", "segment_matmul_array",
           "gather_rows", "gather_cols", "take_rows"]


def spmm(adjacency: SparseAdjacency, x: Tensor) -> Tensor:
    """Sparse-dense product ``A @ x`` with gradients flowing through ``x``."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    data = adjacency.matmul(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(adjacency.rmatmul(grad), owned=True)

    return Tensor._make(data, (x,), backward)


def spmm_edge_weighted(structure: SparseAdjacency, edge_weights: Tensor,
                       x: Tensor) -> Tensor:
    """Aggregate ``x`` rows along edges with learned per-edge weights.

    ``structure`` supplies the CSR pattern; ``edge_weights`` is an ``(E, 1)``
    tensor aligned with its stored entries.  Returns the ``(n, d)`` tensor
    ``out[i] = Σ_{e: row(e)=i} w_e · x[col(e)]`` — the attention-weighted sum
    without ever materialising an ``(n, n)`` attention matrix.
    """
    rows, cols = structure.rows, structure.indices
    x_cols = x.data[cols]
    contrib = edge_weights.data * x_cols
    data = structure.reduce_rows(contrib)

    def backward(grad: np.ndarray) -> None:
        grad_rows = grad[rows]
        if edge_weights.requires_grad:
            edge_weights._accumulate(
                (grad_rows * x_cols).sum(axis=1, keepdims=True), owned=True)
        if x.requires_grad:
            scatter = edge_weights.data * grad_rows
            x._accumulate(structure.reduce_cols(scatter), owned=True)

    return Tensor._make(data, (edge_weights, x), backward)


def gather_rows(t: Tensor, structure: SparseAdjacency) -> Tensor:
    """Per-edge gather ``t[rows]`` whose backward is the per-row ``reduceat``.

    Bit-identical to the generic fancy-index backward (``np.add.at`` visits
    the edges of each row in the same ascending order the reduction sums them).
    """
    def backward(grad: np.ndarray) -> None:
        t._accumulate(structure.reduce_rows(grad), owned=True)

    return Tensor._make(t.data[structure.rows], (t,), backward)


def gather_cols(t: Tensor, structure: SparseAdjacency) -> Tensor:
    """Per-edge gather ``t[cols]`` whose backward reduces through the memoized
    transpose plan (within a column, edges keep ascending row order — the same
    accumulation order as the generic scatter-add)."""
    def backward(grad: np.ndarray) -> None:
        t._accumulate(structure.reduce_cols(grad), owned=True)

    return Tensor._make(t.data[structure.indices], (t,), backward)


def take_rows(t: Tensor, index: np.ndarray) -> Tensor:
    """Rows ``t[index]`` of distinct indices, whose backward assigns.

    With no index repeated, writing each gradient row into its place equals
    the scatter-add of the generic fancy-index backward, without
    ``np.add.at``'s unbuffered loop.
    """
    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(t.data)
        full[index] = grad
        t._accumulate(full, owned=True)

    return Tensor._make(t.data[index], (t,), backward)


def segment_sum(values: Tensor, structure: SparseAdjacency) -> Tensor:
    """Sum per-edge values into per-row totals, with gradient support."""
    rows = structure.rows
    data = structure.reduce_rows(values.data)

    def backward(grad: np.ndarray) -> None:
        values._accumulate(grad[rows], owned=True)

    return Tensor._make(data, (values,), backward)


def segment_softmax(scores: Tensor, structure: SparseAdjacency) -> Tensor:
    """Row-wise softmax of per-edge scores.

    Matches the dense ``softmax(scores + neg_inf_mask, axis=1)`` exactly on the
    stored edges: the per-row maximum shift is treated as a constant (as the
    dense :func:`repro.nn.functional.softmax` does), masked-out slots simply do
    not exist here, and rows are assumed non-empty (attention structures always
    include self loops).
    """
    rows = structure.rows
    shift = structure.reduce_rows(scores.data, np.maximum)[rows]
    exp = (scores - Tensor(shift)).exp()
    denom = segment_sum(exp, structure)

    def expand(t: Tensor) -> Tensor:
        # t[rows] with a reduceat backward: ``rows`` is sorted by CSR row, so
        # the scatter-add of the generic fancy-index backward reduces to the
        # same per-row sum (identical accumulation order, hence bit-identical).
        def backward(grad: np.ndarray) -> None:
            t._accumulate(structure.reduce_rows(grad), owned=True)

        return Tensor._make(t.data[rows], (t,), backward)

    return exp / expand(denom)


# --------------------------------------------------------------------------
# Segmented ops over a block-diagonal batch.
#
# ``offsets`` is the ``(B + 1,)`` node-offset vector of a stack
# (:attr:`SparseAdjacency.node_offsets <repro.graph.sparse.SparseAdjacency.node_offsets>`):
# sample ``b`` owns rows ``offsets[b]:offsets[b+1]`` of the stacked
# ``(N, d)`` node matrix.


@lru_cache(maxsize=256)
def _segment_index_cached(offsets_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.frombuffer(offsets_bytes, dtype=np.int64)
    counts = np.diff(offsets)
    return counts, np.repeat(np.arange(len(counts), dtype=np.int64), counts)


def _segment_index(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(counts, batch)`` of an offsets vector, cached across calls.

    The segment ops run every training step on the handful of offset vectors
    of the fixed minibatch stacks, so the ``diff``/``repeat`` pair is keyed by
    the raw offset bytes and computed once per distinct vector.
    """
    return _segment_index_cached(
        np.ascontiguousarray(offsets, dtype=np.int64).tobytes())


def segment_mean_batch(x: Tensor, offsets: np.ndarray) -> Tensor:
    """Per-segment row mean — the batched ``pooled.mean(axis=0)``."""
    counts, batch = _segment_index(offsets)
    if np.all(counts == 1):
        # Every segment is a single row (e.g. after a collapse-to-one pool):
        # the mean is the row itself (sum of one row times 1.0), so the op
        # reduces to a bit-identical pass-through.
        def backward(grad: np.ndarray) -> None:
            x._accumulate(grad)

        return Tensor._make(x.data * 1.0, (x,), backward)
    inv = 1.0 / counts.astype(np.float64)
    data = segment_reduce(x.data, offsets) * inv[:, None]

    def backward(grad: np.ndarray) -> None:
        x._accumulate((grad * inv[:, None])[batch], owned=True)

    return Tensor._make(data, (x,), backward)


def _uniform_count(offsets: np.ndarray) -> int | None:
    """The node count every segment shares, or ``None`` when they differ."""
    counts, _ = _segment_index(offsets)
    return int(counts[0]) if len(counts) and counts.min() == counts.max() else None


def segment_matmul_array(a: np.ndarray, b: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``(B, k, d)`` stack of every block's ``a_b.T @ b_b`` (``a`` is ``(N, k)``,
    ``b`` is ``(N, d)``): one dgemm per block over exactly its rows, or one
    batched dgemm with the same per-block operands when the blocks are of
    one size."""
    n = _uniform_count(offsets)
    if n is not None:
        num_graphs = len(offsets) - 1
        return np.matmul(a.reshape(num_graphs, n, -1).transpose(0, 2, 1),
                         b.reshape(num_graphs, n, -1))
    return np.stack([a[lo:hi].T @ b[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])])


def _rows_times_blocks(x: np.ndarray, blocks: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each block's rows of ``x`` times its own matrix ``blocks[b]``, in row order."""
    n = _uniform_count(offsets)
    if n is not None:
        return np.matmul(x.reshape(len(blocks), n, -1), blocks).reshape(len(x), -1)
    return np.concatenate([x[lo:hi] @ matrix for lo, hi, matrix
                           in zip(offsets[:-1], offsets[1:], blocks)])


def segment_matmul(a: Tensor, b: Tensor, offsets: np.ndarray) -> Tensor:
    """Per-segment ``a_bᵀ @ b_b``, stacked: the batched DiffPool contraction.

    ``a`` is ``(N, k)`` and ``b`` is ``(N, d)``; the output is ``(B·k, d)``
    with block ``b`` at rows ``b·k:(b+1)·k``.  Each block is computed with its
    own dgemm call over exactly the rows a lone sample would use
    (:func:`segment_matmul_array`), so the result is bit-identical to its
    ``assignment.T @ embedded``.
    """
    num_graphs, k, d = len(offsets) - 1, a.data.shape[1], b.data.shape[1]
    data = segment_matmul_array(a.data, b.data, offsets).reshape(num_graphs * k, d)

    def backward(grad: np.ndarray) -> None:
        grad3 = grad.reshape(num_graphs, k, d)
        if a.requires_grad:
            a._accumulate(_rows_times_blocks(b.data, grad3.transpose(0, 2, 1), offsets),
                          owned=True)
        if b.requires_grad:
            b._accumulate(_rows_times_blocks(a.data, grad3, offsets), owned=True)

    return Tensor._make(data, (a, b), backward)
