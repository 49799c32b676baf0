"""CSR sparse adjacency value type shared by the data pipeline and the GNN stack.

:class:`SparseAdjacency` wraps the ``(indptr, indices, data)`` arrays produced
by :meth:`TxGraph.to_csr` (or converted from a dense matrix) and provides the
O(E) primitives message passing is built on: row-segment reductions, sparse
matrix/dense matrix products and their transposed counterparts.  Instances are
treated as **immutable** — every transformation (``with_self_loops``,
``binarized``, ``gcn_normalized``, ...) returns a new instance, which lets the
expensive derived forms be memoized per instance and reused across training
epochs.

The module is intentionally numpy-only (no autograd imports) so that the
``graph`` and ``data`` layers can depend on it; the gradient-aware operators
live in :mod:`repro.gnn.sparse_ops`.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["SparseAdjacency", "BatchedAdjacency", "segment_reduce"]


def segment_reduce(contrib: np.ndarray, indptr: np.ndarray, ufunc=np.add,
                   axis: int = 0) -> np.ndarray:
    """Reduce row-sorted per-edge contributions into per-row outputs.

    ``contrib`` holds one entry per stored edge along ``axis``, ordered by CSR
    row; ``indptr`` is the usual CSR row-pointer array.  Rows with no entries
    reduce to 0.  Implemented with ``ufunc.reduceat`` over the non-empty rows
    only: because empty rows contribute no boundaries, each non-empty row's
    segment ends exactly at the next non-empty row's start.

    ``reduceat`` reduces every other position of ``contrib`` on its own, so
    a head-stacked ``(H, E, d)`` input with ``axis=1`` gives each head the
    bits its own ``(E, d)`` input would.
    """
    num_rows = len(indptr) - 1
    out_shape = contrib.shape[:axis] + (num_rows,) + contrib.shape[axis + 1:]
    out = np.zeros(out_shape, dtype=np.float64)
    if contrib.shape[axis] == 0:
        return out
    nonempty = indptr[1:] > indptr[:-1]
    if nonempty.any():
        out[(slice(None),) * axis + (nonempty,)] = ufunc.reduceat(
            contrib, indptr[:-1][nonempty], axis=axis)
    return out


class SparseAdjacency:
    """An immutable square adjacency matrix in CSR form.

    Invariants (the same contract as :meth:`TxGraph.to_csr`):

    * ``indptr`` has length ``num_nodes + 1`` with ``indptr[0] == 0``;
    * row ``i``'s stored columns are ``indices[indptr[i]:indptr[i+1]]``,
      sorted ascending and without duplicates;
    * ``data`` holds the matching values (explicit zeros are allowed — they
      arise from augmentation edge drops — and are ignored by the binarized
      structure).

    Derived forms are memoized on the instance, so callers must never mutate
    the arrays of a ``SparseAdjacency`` they did not just create.  Memo builds
    are guarded by a per-instance lock (double-checked), so concurrent readers
    — e.g. parallel scoring threads normalising a shared subgraph adjacency —
    all observe the same derived instance, bit-identical to a single-threaded
    build.
    """

    __slots__ = ("indptr", "indices", "data", "num_nodes", "_memo", "_lock")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        if self.indptr.ndim != 1 or len(self.indptr) < 1:
            raise ValueError("indptr must be a 1-D array of length num_nodes + 1")
        self.num_nodes = len(self.indptr) - 1
        if len(self.indices) != len(self.data) or self.indptr[-1] != len(self.indices):
            raise ValueError("indices/data lengths must match indptr[-1]")
        self._memo: dict = {}
        # Reentrant: derived-form builds compose other memoized forms of the
        # same instance (gcn_normalized -> with_self_loops -> rows), so the
        # building thread re-enters _memoized while holding the lock.
        self._lock = threading.RLock()

    def __getstate__(self):
        # Locks are not picklable; memoized forms are cheap to rebuild.
        return (self.indptr, self.indices, self.data)

    def __setstate__(self, state):
        self.__init__(*state)

    # ---------------------------------------------------------------- builders
    @classmethod
    def coerce(cls, adjacency) -> "SparseAdjacency":
        """Pass through a :class:`SparseAdjacency`; convert a dense matrix."""
        if isinstance(adjacency, cls):
            return adjacency
        return cls.from_dense(adjacency)

    @classmethod
    def from_dense(cls, adjacency: np.ndarray) -> "SparseAdjacency":
        """CSR view of a dense square matrix (non-zero entries, row-major order)."""
        adj = np.asarray(adjacency, dtype=np.float64)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be a square matrix")
        rows, cols = np.nonzero(adj)
        indptr = np.zeros(adj.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=adj.shape[0]), out=indptr[1:])
        return cls(indptr, cols.astype(np.int64), adj[rows, cols])

    @classmethod
    def from_graph(cls, graph, weighted: bool = False, symmetric: bool = True,
                   ) -> "SparseAdjacency":
        """CSR adjacency of a :class:`~repro.graph.txgraph.TxGraph`.

        ``TxGraph.to_csr`` memoizes its arrays per ``(weighted, symmetric)``
        until the graph mutates, so instances built repeatedly from the same
        graph share the underlying arrays zero-copy — safe because
        ``SparseAdjacency`` already treats its arrays as immutable.
        """
        return cls(*graph.to_csr(weighted=weighted, symmetric=symmetric))

    @classmethod
    def from_coo(cls, rows, cols, vals, num_nodes: int, combine=np.add,
                 ) -> "SparseAdjacency":
        """Build from COO triplets; duplicate slots are combined with ``combine``.

        ``combine`` must be a binary ufunc (``np.add`` for accumulating slicers,
        ``np.maximum`` for the ``max(A, A.T)`` symmetric view).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if len(rows) == 0:
            return cls(np.zeros(num_nodes + 1, dtype=np.int64),
                       np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        keys = rows * num_nodes + cols
        starts = np.flatnonzero(np.diff(keys, prepend=keys[0] - 1))
        rows, cols = rows[starts], cols[starts]
        vals = combine.reduceat(vals, starts)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=num_nodes), out=indptr[1:])
        return cls(indptr, cols, vals)

    @classmethod
    def empty(cls, num_nodes: int) -> "SparseAdjacency":
        return cls(np.zeros(num_nodes + 1, dtype=np.int64),
                   np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))

    #: Derived forms that :meth:`block_diagonal` can compose block-wise:
    #: name of the zero-argument builder method -> its memo key.  Each form is
    #: *local* (an entry of the derived matrix depends only on its own block),
    #: so the block-diagonal of the per-sample derived forms equals the derived
    #: form of the block-diagonal matrix bit-for-bit.
    _BLOCKWISE_DERIVED = {
        "binarized": "binarized",
        "mean_normalized": "mean_normalized",
        "attention_structure": "attention_structure",
        "gcn_normalized": ("gcn_normalized", True),
        "with_self_loops": ("self_loops", 1.0),
    }

    @classmethod
    def block_diagonal(cls, samples, derived: tuple = (),
                       compose_plans: bool = False) -> "BatchedAdjacency":
        """Stack per-sample adjacencies into one block-diagonal matrix.

        The returned :class:`BatchedAdjacency` carries the per-sample node and
        edge segment offsets (``node_offsets[b]:node_offsets[b+1]`` are sample
        ``b``'s rows), so a single sparse pass over the stack is exactly the
        per-sample passes run side by side: every row's stored entries — and
        therefore every segment reduction — are identical to the corresponding
        per-sample row's.

        ``derived`` names zero-argument derived forms (see
        ``_BLOCKWISE_DERIVED``) to compose block-wise from the samples'
        *memoized* forms instead of recomputing them on the stack: the
        per-sample instances cache their normalisations across training steps,
        so a fresh stack inherits them in O(nnz) concatenation time.  The
        composition is bit-identical to computing the form on the stacked
        matrix (pinned by the hypothesis suite in
        ``tests/test_batched_training.py``).

        ``compose_plans=True`` additionally seeds the transpose plan (the
        column-sort behind :meth:`rmatmul` and every sparse backward pass) of
        the stack — and of each composed derived form — from the samples'
        memoized plans.  Block-diagonal columns are segmented by block, so the
        stacked column sort is exactly the per-block sorts laid side by side;
        each per-sample ``lexsort`` then runs once ever instead of once per
        minibatch per epoch.
        """
        samples = list(samples)
        if not samples:
            raise ValueError("block_diagonal requires at least one sample")
        node_offsets = np.zeros(len(samples) + 1, dtype=np.int64)
        edge_offsets = np.zeros(len(samples) + 1, dtype=np.int64)
        np.cumsum([s.num_nodes for s in samples], out=node_offsets[1:])
        np.cumsum([s.nnz for s in samples], out=edge_offsets[1:])
        indptr = np.zeros(node_offsets[-1] + 1, dtype=np.int64)
        pieces = [s.indptr[1:] + offset
                  for s, offset in zip(samples, edge_offsets[:-1])]
        if pieces:
            np.concatenate(pieces, out=indptr[1:])
        indices = np.concatenate(
            [s.indices + offset for s, offset in zip(samples, node_offsets[:-1])]
        ) if edge_offsets[-1] else np.zeros(0, dtype=np.int64)
        data = np.concatenate([s.data for s in samples]) \
            if edge_offsets[-1] else np.zeros(0, dtype=np.float64)
        stacked = BatchedAdjacency(indptr, indices, data,
                                   node_offsets=node_offsets,
                                   edge_offsets=edge_offsets)
        if compose_plans:
            t_indptr = np.zeros(node_offsets[-1] + 1, dtype=np.int64)
            t_pieces = [s._transpose_plan()[1][1:] + offset
                        for s, offset in zip(samples, edge_offsets[:-1])]
            if t_pieces:
                np.concatenate(t_pieces, out=t_indptr[1:])
            perm = np.concatenate(
                [s._transpose_plan()[0] + offset
                 for s, offset in zip(samples, edge_offsets[:-1])]
            ) if edge_offsets[-1] else np.zeros(0, dtype=np.int64)
            stacked._memo["transpose_plan"] = (perm, t_indptr)
        for name in derived:
            key = cls._BLOCKWISE_DERIVED[name]
            stacked._memo[key] = cls.block_diagonal(
                [getattr(s, name)() for s in samples],
                compose_plans=compose_plans)
        return stacked

    # --------------------------------------------------------------- accessors
    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_nodes, self.num_nodes)

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def rows(self) -> np.ndarray:
        """COO row index per stored entry (cached expansion of ``indptr``)."""
        return self._memoized("rows", lambda: np.repeat(
            np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr)))

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        if self.nnz:
            dense[self.rows, self.indices] = self.data
        return dense

    def row_sums(self) -> np.ndarray:
        """Per-row sum of stored values (the weighted degree vector)."""
        return segment_reduce(self.data, self.indptr)

    # ------------------------------------------------------------------ blocks
    # A plain adjacency is a stack of one block; BatchedAdjacency overrides
    # ``node_offsets`` with its own.  Every consumer of a stack therefore
    # takes a single sample's own adjacency, memoized forms and all.
    @property
    def node_offsets(self) -> np.ndarray:
        """``(num_graphs + 1,)`` row offsets of the blocks (cached)."""
        return self._memoized("node_offsets", lambda: np.array(
            [0, self.num_nodes], dtype=np.int64))

    @property
    def num_graphs(self) -> int:
        return len(self.node_offsets) - 1

    def node_counts(self) -> np.ndarray:
        """Nodes per block, ``(num_graphs,)`` (cached)."""
        return self._memoized("node_counts", lambda: np.diff(self.node_offsets))

    def size_groups(self) -> tuple[list[tuple[int, np.ndarray | None]], np.ndarray | None]:
        """The blocks grouped by node count, for ops that run per block (cached).

        Returns ``(groups, order)``.  Each group is ``(n, rows)``: the node
        rows of its blocks of ``n`` nodes, block after block in stack order,
        or ``None`` when that is every row in order (one block, or blocks all
        of one size).  Per-block outputs stacked group after group are put
        back in block order by taking ``order`` (``None`` when they already
        are).
        """
        def build():
            counts = self.node_counts()
            sizes = np.unique(counts)
            if len(sizes) == 1:
                return [(int(sizes[0]), None)], None
            groups, members = [], []
            for n in sizes:
                blocks = np.flatnonzero(counts == n)
                groups.append((int(n), (self.node_offsets[blocks][:, None]
                                        + np.arange(n)).ravel()))
                members.append(blocks)
            return groups, np.argsort(np.concatenate(members))
        return self._memoized("size_groups", build)

    def is_symmetric(self) -> bool:
        """Structure and values equal to the transpose (within allclose, cached)."""
        def build():
            t = self.transpose()
            return (np.array_equal(self.indptr, t.indptr)
                    and np.array_equal(self.indices, t.indices)
                    and np.allclose(self.data, t.data))
        return self._memoized("is_symmetric", build)

    # ------------------------------------------------------------- derived forms
    def _memoized(self, key, build):
        # Double-checked: the lock-free read hits after the first build (dict
        # reads are atomic under the GIL), the lock serialises first builds so
        # every thread shares the one instance built by the winner.
        value = self._memo.get(key)
        if value is None:
            with self._lock:
                value = self._memo.get(key)
                if value is None:
                    value = build()
                    self._memo[key] = value
        return value

    def transpose(self) -> "SparseAdjacency":
        """``A.T`` in CSR form (cached; stored slots are unique so no combining)."""
        return self._memoized("transpose", lambda: SparseAdjacency.from_coo(
            self.indices, self.rows, self.data, self.num_nodes))

    def with_self_loops(self, value: float = 1.0) -> "SparseAdjacency":
        """``A + value * I`` — existing diagonal entries are incremented."""
        def build():
            diag = np.arange(self.num_nodes, dtype=np.int64)
            return SparseAdjacency.from_coo(
                np.concatenate([self.rows, diag]),
                np.concatenate([self.indices, diag]),
                np.concatenate([self.data, np.full(self.num_nodes, value)]),
                self.num_nodes)
        return self._memoized(("self_loops", value), build)

    def binarized(self) -> "SparseAdjacency":
        """Structure of the strictly positive entries with unit values.

        Mirrors the dense ``(A > 0).astype(float)`` masks used by the seed GIN,
        SAGE and GAT layers; non-positive stored entries are dropped.
        """
        def build():
            keep = self.data > 0
            indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.rows[keep], minlength=self.num_nodes),
                      out=indptr[1:])
            return SparseAdjacency(indptr, self.indices[keep],
                                   np.ones(int(keep.sum()), dtype=np.float64))
        return self._memoized("binarized", build)

    def pruned(self) -> "SparseAdjacency":
        """Drop explicit zero entries (e.g. after augmentation edge drops)."""
        keep = self.data != 0
        if keep.all():
            return self
        indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.rows[keep], minlength=self.num_nodes),
                  out=indptr[1:])
        return SparseAdjacency(indptr, self.indices[keep], self.data[keep])

    def _symmetrize_plan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(order, starts, out_indices, out_indptr) of the ``max(A, A.T)`` scan.

        The sort/dedup of the doubled COO depends only on the structure, so it
        is computed once and replayed against any value vector that shares this
        instance's sparsity pattern — e.g. every augmentation edge-drop draw.
        """
        def build():
            rows = np.concatenate([self.rows, self.indices])
            cols = np.concatenate([self.indices, self.rows])
            order = np.lexsort((cols, rows))
            rows, cols = rows[order], cols[order]
            keys = rows * self.num_nodes + cols
            starts = np.flatnonzero(np.diff(keys, prepend=keys[0] - 1))
            indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows[starts], minlength=self.num_nodes),
                      out=indptr[1:])
            return order, starts, cols[starts], indptr
        return self._memoized("symmetrize_plan", build)

    def symmetrized_max(self, data: np.ndarray | None = None) -> "SparseAdjacency":
        """``max(A, A.T)`` for non-negative matrices (absent entries count as 0).

        ``data`` optionally substitutes a different value vector over this
        instance's sparsity pattern (same length and slot order), reusing the
        memoized sort/dedup plan — the hot path of repeated augmentations.
        """
        vals = self.data if data is None else np.asarray(data, dtype=np.float64)
        if self.nnz == 0:
            return self if data is None else SparseAdjacency(
                self.indptr, self.indices, vals)
        order, starts, out_indices, out_indptr = self._symmetrize_plan()
        doubled = np.concatenate([vals, vals])[order]
        return SparseAdjacency(out_indptr, out_indices,
                               np.maximum.reduceat(doubled, starts))

    def scale(self, row: np.ndarray | None = None, col: np.ndarray | None = None,
              ) -> "SparseAdjacency":
        """``diag(row) @ A @ diag(col)`` (either factor optional)."""
        data = self.data
        if row is not None:
            data = data * np.asarray(row, dtype=np.float64)[self.rows]
        if col is not None:
            data = data * np.asarray(col, dtype=np.float64)[self.indices]
        return SparseAdjacency(self.indptr, self.indices, data)

    def gcn_normalized(self, add_self_loops: bool = True) -> "SparseAdjacency":
        """Symmetric GCN normalisation ``D^{-1/2} (A + I) D^{-1/2}`` (cached).

        Zero-degree rows (isolated nodes when ``add_self_loops=False``, or rows
        whose weights sum to zero) get a zero inverse square root instead of a
        division by zero, matching the dense :func:`normalize_adjacency` guard.
        """
        def build():
            adj = self.with_self_loops() if add_self_loops else self
            degree = adj.row_sums()
            inv_sqrt = np.zeros_like(degree)
            nonzero = degree > 0
            inv_sqrt[nonzero] = degree[nonzero] ** -0.5
            return adj.scale(row=inv_sqrt, col=inv_sqrt)
        return self._memoized(("gcn_normalized", add_self_loops), build)

    def mean_normalized(self) -> "SparseAdjacency":
        """Row-stochastic binarized adjacency (zero-degree rows stay zero, cached).

        Matches the seed GraphSAGE aggregation: ``(A > 0) / max(degree, 1)``.
        """
        def build():
            binary = self.binarized()
            degree = binary.row_sums()
            degree[degree == 0] = 1.0
            return binary.scale(row=1.0 / degree)
        return self._memoized("mean_normalized", build)

    def attention_structure(self) -> "SparseAdjacency":
        """Edge set used by attention: positive entries plus self loops (cached)."""
        return self._memoized("attention_structure",
                              lambda: self.binarized().with_self_loops())

    # ----------------------------------------------------------------- products
    def _transpose_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """(permutation, indptr) that re-sorts stored entries by column.

        ``contrib[perm]`` is column-sorted, so ``segment_reduce(contrib[perm],
        t_indptr)`` scatters per-edge contributions into per-column outputs —
        the kernel behind :meth:`rmatmul` and the backward pass of sparse
        message passing.
        """
        def build():
            perm = np.lexsort((self.rows, self.indices))
            t_indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.indices, minlength=self.num_nodes),
                      out=t_indptr[1:])
            return perm, t_indptr
        return self._memoized("transpose_plan", build)

    def _rows_nonempty(self) -> bool:
        """True when every CSR row stores at least one entry (cached)."""
        return self._memoized(
            "rows_nonempty", lambda: bool((self.indptr[1:] > self.indptr[:-1]).all()))

    def _cols_nonempty(self) -> bool:
        """True when every column stores at least one entry (cached)."""
        def build():
            _, t_indptr = self._transpose_plan()
            return bool((t_indptr[1:] > t_indptr[:-1]).all())
        return self._memoized("cols_nonempty", build)

    def reduce_rows(self, contrib: np.ndarray, ufunc=np.add, axis: int = 0) -> np.ndarray:
        """Reduce row-ordered per-edge contributions into per-row outputs.

        Same result as ``segment_reduce(contrib, self.indptr, ufunc, axis)``;
        when every row is non-empty (self-looped structures — the
        message-passing hot path) the reduction runs straight off ``indptr``
        with no zero buffer or mask.
        """
        if contrib.shape[axis] and self._rows_nonempty():
            return ufunc.reduceat(contrib, self.indptr[:-1], axis=axis)
        return segment_reduce(contrib, self.indptr, ufunc, axis)

    def reduce_cols(self, contrib: np.ndarray, ufunc=np.add) -> np.ndarray:
        """Reduce row-ordered per-edge contributions into per-column outputs,
        re-sorting through the memoized transpose plan."""
        perm, t_indptr = self._transpose_plan()
        if contrib.shape[0] and self._cols_nonempty():
            return ufunc.reduceat(contrib[perm], t_indptr[:-1], axis=0)
        return segment_reduce(contrib[perm], t_indptr, ufunc)

    def _rmatmul_plan(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pre-permuted ``(rows[perm], data[perm], t_indptr)`` for ``A.T @ g``.

        Gathering ``g`` by ``rows[perm]`` and scaling by ``data[perm]`` yields
        entry-for-entry the column-sorted contributions that
        ``(g[rows] * data)[perm]`` would — same scalar products, same
        ``reduceat`` accumulation order — with one full-width pass instead of
        a compute-then-permute pair.
        """
        def build():
            perm, t_indptr = self._transpose_plan()
            return self.rows[perm], self.data[perm], t_indptr
        return self._memoized("rmatmul_plan", build)

    def matmul(self, x: np.ndarray, axis: int = 0) -> np.ndarray:
        """``A @ x`` for a dense vector or matrix ``x``.

        ``axis`` is the node axis of ``x``: ``axis=1`` multiplies every slice
        of a head-stacked ``(H, n, d)`` array, bit-identical to multiplying
        each ``(n, d)`` slice on its own (see :func:`segment_reduce`).
        """
        x = np.asarray(x, dtype=np.float64)
        contrib = np.take(x, self.indices, axis=axis)   # fresh gather — in-place scale is safe
        contrib *= self.data.reshape((-1,) + (1,) * (x.ndim - axis - 1))
        return self.reduce_rows(contrib, axis=axis)

    def rmatmul(self, g: np.ndarray, axis: int = 0) -> np.ndarray:
        """``A.T @ g`` for a dense vector or matrix ``g`` (no transpose copy).

        ``axis`` is the node axis of ``g``, as in :meth:`matmul`.
        """
        g = np.asarray(g, dtype=np.float64)
        rows_perm, data_perm, t_indptr = self._rmatmul_plan()
        contrib = np.take(g, rows_perm, axis=axis)      # fresh gather — in-place scale is safe
        contrib *= data_perm.reshape((-1,) + (1,) * (g.ndim - axis - 1))
        if contrib.shape[axis] and self._cols_nonempty():
            return np.add.reduceat(contrib, t_indptr[:-1], axis=axis)
        return segment_reduce(contrib, t_indptr, np.add, axis)

    def __repr__(self) -> str:
        return f"SparseAdjacency(n={self.num_nodes}, nnz={self.nnz})"


class BatchedAdjacency(SparseAdjacency):
    """A block-diagonal :class:`SparseAdjacency` that remembers its blocks.

    Built by :meth:`SparseAdjacency.block_diagonal`.  ``node_offsets`` /
    ``edge_offsets`` are ``(num_graphs + 1,)`` int64 arrays: sample ``b`` owns
    rows ``node_offsets[b]:node_offsets[b+1]`` and stored entries
    ``edge_offsets[b]:edge_offsets[b+1]``.  All derived forms remain plain
    block-diagonal matrices (offsets unchanged by construction), so batched
    consumers keep reading the offsets from the instance they built.
    """

    __slots__ = ("node_offsets", "edge_offsets")

    def __init__(self, indptr, indices, data, node_offsets, edge_offsets):
        super().__init__(indptr, indices, data)
        self.node_offsets = np.asarray(node_offsets, dtype=np.int64)
        self.edge_offsets = np.asarray(edge_offsets, dtype=np.int64)
        if self.node_offsets[-1] != self.num_nodes:
            raise ValueError("node_offsets must span all rows")
        if self.edge_offsets[-1] != self.nnz:
            raise ValueError("edge_offsets must span all stored entries")

    def __getstate__(self):
        return (self.indptr, self.indices, self.data,
                self.node_offsets, self.edge_offsets)

    def __setstate__(self, state):
        self.__init__(*state)

    @classmethod
    def from_dense_blocks(cls, blocks: np.ndarray) -> "BatchedAdjacency":
        """Block-diagonal CSR of a dense ``(B, c, c)`` stack, in one pass.

        Equivalent to ``SparseAdjacency.block_diagonal([from_dense(b) for b in
        blocks])`` bit-for-bit (same row-major non-zero scan, same dropped
        zeros), without materialising ``B`` intermediate instances — the
        construction DiffPool's batched coarse adjacency needs once per pool
        layer per step.
        """
        blocks = np.asarray(blocks, dtype=np.float64)
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
            raise ValueError("blocks must be a (B, c, c) stack of square matrices")
        num_graphs, c, _ = blocks.shape
        flat = blocks.reshape(num_graphs * c, c)
        rows_nz, cols_nz = np.nonzero(flat)
        indptr = np.zeros(num_graphs * c + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows_nz, minlength=num_graphs * c),
                  out=indptr[1:])
        indices = cols_nz.astype(np.int64) + (rows_nz // c) * c
        node_offsets = np.arange(num_graphs + 1, dtype=np.int64) * c
        return cls(indptr, indices, flat[rows_nz, cols_nz],
                   node_offsets=node_offsets,
                   edge_offsets=indptr[node_offsets])

    def blocks(self) -> list[SparseAdjacency]:
        """Split back into per-sample adjacencies (zero-copy data slices)."""
        out = []
        for b in range(self.num_graphs):
            n0, n1 = self.node_offsets[b], self.node_offsets[b + 1]
            e0, e1 = self.edge_offsets[b], self.edge_offsets[b + 1]
            out.append(SparseAdjacency(
                self.indptr[n0:n1 + 1] - self.indptr[n0],
                self.indices[e0:e1] - n0, self.data[e0:e1]))
        return out

    def __repr__(self) -> str:
        return (f"BatchedAdjacency(graphs={self.num_graphs}, "
                f"n={self.num_nodes}, nnz={self.nnz})")
