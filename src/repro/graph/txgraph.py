"""Directed weighted graph container for account-interaction graphs.

``TxGraph`` stores its merged edges as parallel numpy columns — ``src_id`` /
``dst_id`` (dense node indices), ``amount``, ``count`` and ``timestamp`` —
mirroring the ledger's :class:`~repro.chain.txstore.ColumnarTxStore`.
:class:`Edge` objects are materialised lazily, only when a caller crosses the
object API boundary (``edges``, ``out_edges``, ``in_edges``, ``get_edge``,
``edges_between``); the hot consumers (``to_csr``, ``subgraph``, sampling,
time slicing) read the columns directly via :meth:`edge_arrays`.  A node is
its identifier and nothing else: what is known about an account (its kind,
its label) stays in the ledger, which the graph is built from.

Per-node adjacency is served from a lazily built CSR row index (edge slots
sorted by endpoint, insertion order preserved within each row), and the
``(src, dst) -> slot`` lookup dict is also built lazily, so a bulk-ingested
graph pays no per-edge Python object or dict cost at construction time.  See
``DESIGN.md`` for the column/index invariants.

Concurrency contract: **reads are thread-safe, writes are single-threaded.**
Every lazy build (pair->slot dict, CSR row index, ``to_csr`` memo) is guarded
by a per-graph lock with double-checked fast paths, so any number of reader
threads may race on a cold graph and all observe the one structure the winner
built — bit-identical to a single-threaded warm-up.  Mutations must not run
concurrently with reads; serving deployments call :meth:`warm` (pre-build
the pair->slot dict and the row index) or :meth:`freeze` (warm + reject
further mutation) before fanning readers out.
"""

from __future__ import annotations

import itertools
import threading

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

import numpy as np

__all__ = ["Edge", "TxGraph"]

#: Bit width used to pack an ``(src_id, dst_id)`` pair into one int key.
_PAIR_SHIFT = 32


@dataclass(frozen=True, slots=True)
class Edge:
    """A merged directed edge between two accounts.

    Attributes
    ----------
    src, dst:
        Node identifiers (account addresses or integer ids).
    amount:
        Total value transferred along this edge (GSG/LDG edge feature ``w``).
    count:
        Number of underlying transactions merged into the edge (GSG feature ``t``).
    timestamp:
        Representative timestamp (mean of merged transactions); used to assign
        the edge to an LDG time slice.
    """

    src: Hashable
    dst: Hashable
    amount: float = 0.0
    count: int = 1
    timestamp: float = 0.0


def _merge_rows(indptr: np.ndarray, slots: np.ndarray, endpoint: np.ndarray,
                m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The CSR row index over edges ``[0, m)`` and nodes ``[0, n)``.

    ``(indptr, slots)`` is the index over the first ``len(slots)`` edges:
    their slots grouped by ``endpoint``, in insertion order within each row.
    Edges are append-only and never move, so the grown index keeps every old
    row as it is and appends each row's new slots at its end: the new slots
    are stably sorted by endpoint (O(k log k) for k new edges) and inserted
    at their rows' old end offsets in one O(m) pass.  The result equals a
    full stable argsort of ``endpoint[:m]``; a cold build is this merge into
    the empty index ``([0], [])``, where the insert is the sorted slots.
    """
    start = len(slots)
    keys = endpoint[start:m]
    order = np.argsort(keys, kind="stable")
    grown = np.empty(n + 1, dtype=np.int64)
    grown[:len(indptr)] = indptr
    grown[len(indptr):] = indptr[-1]
    grown[1:] += np.cumsum(np.bincount(keys, minlength=n))
    merged = order + start
    if start:
        row_ends = indptr[np.minimum(keys[order] + 1, len(indptr) - 1)]
        merged = np.insert(slots, row_ends, merged)
    return grown, merged


class TxGraph:
    """A directed graph of merged weighted edges between account nodes.

    Nodes are stored in insertion order so that the adjacency matrices
    returned by :meth:`adjacency_matrix` and :meth:`to_csr` have stable row
    ordering.  Edges live in parallel column arrays in global
    first-insertion order (merging updates a slot in place, so iteration
    order is stable under merges), which makes subgraph edge ordering
    reproducible for free: kept slots are simply sorted.

    Derived lookup structures are built lazily and invalidated by version
    counters (structural for the row index, any-mutation for the CSR cache):

    * ``_slot_of`` — packed ``(src_id, dst_id)`` pair -> edge slot, the O(1)
      merge/`has_edge` lookup.  Because edges are append-only, a stale dict
      is synchronised incrementally (new slots appended, nothing rebuilt).
    * the CSR row index — ``_out_indptr``/``_out_slots`` (and the ``_in``
      twins) list each node's incident edge slots in insertion order,
      serving ``out_edges``/``in_edges``/``neighbors``/``degree`` in O(deg).
      New edges are merged into the existing index, never re-sorted with it.
    * the :meth:`to_csr` cache — adjacency arrays shared with callers under
      the same treat-as-immutable contract as ``SparseAdjacency``.
    """

    def __init__(self):
        self._nodes: dict[Hashable, int] = {}
        self._node_order: list[Hashable] = []
        # Edge columns (capacity arrays; the first _m entries are live).
        self._m = 0
        self._src = np.empty(0, dtype=np.int64)
        self._dst = np.empty(0, dtype=np.int64)
        self._amount = np.empty(0, dtype=np.float64)
        self._count = np.empty(0, dtype=np.int64)
        self._ts = np.empty(0, dtype=np.float64)
        # Any mutation bumps _version (payload merges included — the weighted
        # to_csr cache depends on amounts); only node/edge additions bump
        # _structure_version, so in-place merges never invalidate the CSR row
        # index, keeping interleaved merge/traversal streams O(deg) per query.
        self._version = 0
        self._structure_version = 0
        self._slot_of: dict[int, int] = {}
        self._slot_synced = 0               # edges currently keyed in _slot_of
        self._adj_version = -1              # CSR row index validity
        self._out_indptr = np.zeros(1, dtype=np.int64)
        self._out_slots = np.empty(0, dtype=np.int64)
        self._in_indptr = np.zeros(1, dtype=np.int64)
        self._in_slots = np.empty(0, dtype=np.int64)
        self._csr_version = -1              # to_csr() cache validity
        self._csr_cache: dict = {}
        # Follow-the-chain bookkeeping: how many ledger rows this graph has
        # consumed and with which dust filter (set by build_transaction_graph,
        # advanced by ingest()).
        self._ingested_rows = 0
        self._ingest_min_value = 0.0
        # Account id -> node id over the interning table last ingested from
        # (see _account_node_ids).
        self._account_table: list | None = None
        self._account_gid = np.empty(0, dtype=np.int64)
        # Guards every lazy build above (reentrant: warm() chains them).
        self._lock = threading.RLock()
        self._frozen = False

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]                  # locks are not picklable
        # The account -> node id cache names the ledger's table by identity,
        # which a pickle cannot carry; the next ingest refills it.
        state["_account_table"] = None
        state["_account_gid"] = np.empty(0, dtype=np.int64)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------- freezing
    @property
    def frozen(self) -> bool:
        return self._frozen

    def _check_mutable(self) -> None:
        if self._frozen:
            raise RuntimeError(
                "TxGraph is frozen: the graph was sealed for concurrent serving "
                "(freeze()); mutations are no longer allowed")

    def warm(self) -> "TxGraph":
        """Eagerly build the pair->slot dict and the CSR row index (idempotent,
        thread-safe).

        These are the structures every reader on the sampling path touches,
        so after ``warm()`` returns reader threads never contend on a build
        lock.  The global :meth:`to_csr` forms are not built: serving builds
        its adjacency per sample subgraph, and ``to_csr`` still builds lazily
        (under the graph lock) for any caller that needs it.
        """
        with self._lock:
            self._ensure_slots()
            self._ensure_adjacency()
        return self

    def freeze(self) -> "TxGraph":
        """:meth:`warm` plus sealing: any later mutation raises ``RuntimeError``.

        This is the strongest serving guarantee — once frozen, every read on
        the sampling path is lock-free against fully built immutable
        structures.
        """
        self.warm()
        self._frozen = True
        return self

    # ------------------------------------------------------------------ nodes
    def add_node(self, node: Hashable) -> None:
        """Add ``node`` (idempotent)."""
        self._check_mutable()
        if node not in self._nodes:
            self._nodes[node] = len(self._node_order)
            self._node_order.append(node)
            self._version += 1
            self._structure_version += 1

    def has_node(self, node: Hashable) -> bool:
        return node in self._nodes

    def __contains__(self, node: Hashable) -> bool:
        return node in self._nodes

    def node_index(self, node: Hashable) -> int:
        return self._nodes[node]

    @property
    def nodes(self) -> list[Hashable]:
        return list(self._node_order)

    @property
    def node_order(self) -> list[Hashable]:
        """The insertion-ordered node list itself, zero-copy.

        Treat as read-only; prefer :attr:`nodes` (which copies) unless on a
        hot path that only indexes into it (e.g. per-candidate lookups in
        sampling).
        """
        return self._node_order

    @property
    def num_nodes(self) -> int:
        return len(self._node_order)

    # --------------------------------------------------------- edge columns
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray, np.ndarray]:
        """``(src_idx, dst_idx, amount, count, timestamp)`` column views.

        One entry per merged edge, in global first-insertion order; ``src_idx``
        / ``dst_idx`` are node-insertion indices (the rows of
        :meth:`adjacency_matrix`).  The arrays are live read-only views into
        the graph's own columns (writes through them raise): do not retain
        them across mutations — appended edges are not observed, but an
        in-place merge of an existing pair **is** visible through the views.
        Consumers that must survive later mutation should copy.
        """
        m = self._m
        views = (self._src[:m], self._dst[:m], self._amount[:m],
                 self._count[:m], self._ts[:m])
        for view in views:
            view.flags.writeable = False
        return views

    def _grow(self, extra: int) -> None:
        need = self._m + extra
        cap = len(self._src)
        if need <= cap:
            return
        new_cap = max(need, 2 * cap, 16)
        for name in ("_src", "_dst", "_amount", "_count", "_ts"):
            old = getattr(self, name)
            arr = np.empty(new_cap, dtype=old.dtype)
            arr[:self._m] = old[:self._m]
            setattr(self, name, arr)

    def _ensure_slots(self) -> None:
        """Bring the pair -> slot dict up to date (incremental: append-only)."""
        if self._slot_synced >= self._m:
            return
        with self._lock:
            start = self._slot_synced
            m = self._m
            if start >= m:
                return
            keys = ((self._src[start:m] << np.int64(_PAIR_SHIFT))
                    | self._dst[start:m])
            self._slot_of.update(zip(keys.tolist(), range(start, m)))
            self._slot_synced = m

    def _ensure_adjacency(self) -> None:
        """Merge edge slots appended since the last build into the CSR row index.

        Double-checked: ``_adj_version`` is assigned last, so the lock-free
        fast path only ever observes a fully built index.
        """
        if self._adj_version == self._structure_version:
            return
        with self._lock:
            if self._adj_version == self._structure_version:
                return
            m = self._m
            n = len(self._node_order)
            out_indptr, out_slots = _merge_rows(
                self._out_indptr, self._out_slots, self._src, m, n)
            in_indptr, in_slots = _merge_rows(
                self._in_indptr, self._in_slots, self._dst, m, n)
            self._out_indptr, self._out_slots = out_indptr, out_slots
            self._in_indptr, self._in_slots = in_indptr, in_slots
            self._adj_version = self._structure_version

    def _edge_at(self, slot: int) -> Edge:
        """Materialise the :class:`Edge` view of one column row."""
        order = self._node_order
        return Edge(order[self._src[slot]], order[self._dst[slot]],
                    float(self._amount[slot]), int(self._count[slot]),
                    float(self._ts[slot]))

    def _append_edge(self, u: int, v: int, amount: float, count: int,
                     timestamp: float) -> None:
        """Append one fresh edge row (``add_edge`` is this with width 1)."""
        self._grow(1)
        m = self._m
        self._src[m] = u
        self._dst[m] = v
        self._amount[m] = amount
        self._count[m] = count
        self._ts[m] = timestamp
        self._m = m + 1
        if self._slot_synced == m:
            self._slot_of[(u << _PAIR_SHIFT) | v] = m
            self._slot_synced = m + 1
        self._version += 1
        self._structure_version += 1

    # ------------------------------------------------------------------ edges
    def add_edge(self, src: Hashable, dst: Hashable, amount: float = 0.0,
                 count: int = 1, timestamp: float = 0.0) -> None:
        """Add a transaction from ``src`` to ``dst``, merging with any existing edge.

        Merging follows Section III-B3 of the paper: repeated transfers between
        the same ordered pair collapse into a single edge carrying the total
        amount and the number of transactions.  The timestamp of the merged edge
        is the count-weighted mean; edges whose merged count is zero (possible
        when callers pass ``count=0`` placeholders) keep the existing
        edge's timestamp instead of dividing by zero.
        """
        self._check_mutable()
        self.add_node(src)
        self.add_node(dst)
        u = self._nodes[src]
        v = self._nodes[dst]
        self._ensure_slots()
        slot = self._slot_of.get((u << _PAIR_SHIFT) | v)
        if slot is None:
            self._append_edge(u, v, amount, count, timestamp)
            return
        # In-place merge: the slot (and therefore edge iteration order) is
        # stable, exactly like re-assigning a dict key was.
        prev_count = self._count[slot]
        total = prev_count + count
        if total > 0:
            self._ts[slot] = (self._ts[slot] * prev_count
                              + timestamp * count) / total
        self._amount[slot] = self._amount[slot] + amount
        self._count[slot] = total
        self._version += 1

    def add_edges_bulk(self, srcs, dsts, amounts=None, counts=None,
                       timestamps=None, node_keys: list | None = None) -> None:
        """Vectorised twin of calling :meth:`add_edge` once per row.

        Parameters
        ----------
        srcs, dsts:
            Per-transaction endpoint sequences.  With ``node_keys`` given they
            must be integer arrays indexing into it (the columnar-store path:
            interned account ids + the interning table); without it they are
            node identifiers factorised internally.
        amounts, counts, timestamps:
            Per-transaction edge payloads (defaults: 0.0 / 1 / 0.0).
        node_keys:
            Optional id -> node-identifier table; lets callers that already
            hold integer codes skip re-factorising string keys.

        The result is bit-identical to the sequential loop: nodes are created
        in first-appearance order scanning ``(src_0, dst_0, src_1, ...)``,
        merged edges keep first-appearance order, per-edge amounts/counts are
        the same left-fold sums, and merged timestamps replay ``add_edge``'s
        iterative count-weighted mean recurrence (including the zero-count
        guard).  Rows whose ordered pair already exists in the graph are
        replayed through :meth:`add_edge` (merging into an existing edge is
        inherently sequential); fresh pairs take the vectorised path, which
        appends whole column blocks — no per-edge Python object or dict write.

        Cost is O(rows log rows), plus one code table as long as
        ``node_keys``, plus Python work for new nodes only: endpoint codes map
        to node ids, and unique pairs probe the pair -> slot dict, a whole
        array at a time through C-level ``map`` passes, so appending to a
        large graph costs nothing per existing node or edge.  :meth:`ingest`
        runs the same two steps with a code table kept across appends.
        """
        self._check_mutable()
        srcs = np.asarray(srcs)
        n = len(srcs)
        if n == 0:
            return
        dsts = np.asarray(dsts)
        if len(dsts) != n:
            raise ValueError("srcs and dsts must have the same length")
        amounts = (np.zeros(n) if amounts is None
                   else np.ascontiguousarray(amounts, dtype=np.float64))
        counts = (np.ones(n, dtype=np.int64) if counts is None
                  else np.ascontiguousarray(counts, dtype=np.int64))
        timestamps = (np.zeros(n) if timestamps is None
                      else np.ascontiguousarray(timestamps, dtype=np.float64))
        if node_keys is None:
            if srcs.dtype == object or dsts.dtype == object:
                # Non-vectorisable node identifiers: plain sequential loop.
                for i in range(n):
                    self.add_edge(srcs[i], dsts[i], float(amounts[i]),
                                  int(counts[i]), float(timestamps[i]))
                return
            interleaved = np.empty(2 * n, dtype=np.promote_types(srcs.dtype, dsts.dtype))
            interleaved[0::2] = srcs
            interleaved[1::2] = dsts
            uniq, first_pos, inverse = np.unique(
                interleaved, return_index=True, return_inverse=True)
            appearance = np.argsort(first_pos, kind="stable")
            node_keys = uniq[appearance].tolist()
            code_of = np.empty(len(uniq), dtype=np.int64)
            code_of[appearance] = np.arange(len(uniq))
            codes = code_of[inverse]
            src_codes, dst_codes = codes[0::2], codes[1::2]
        else:
            src_codes = np.ascontiguousarray(srcs, dtype=np.int64)
            dst_codes = np.ascontiguousarray(dsts, dtype=np.int64)

        if (src_codes.min() < 0 or dst_codes.min() < 0
                or src_codes.max() >= len(node_keys)
                or dst_codes.max() >= len(node_keys)):
            raise ValueError("src/dst codes must index into the node_keys table")
        code_gid = np.full(len(node_keys), -1, dtype=np.int64)
        self._resolve_nodes(src_codes, dst_codes, node_keys, code_gid)
        self._add_rows(code_gid[src_codes], code_gid[dst_codes], amounts, counts,
                       timestamps)

    def _resolve_nodes(self, src_codes: np.ndarray, dst_codes: np.ndarray,
                       node_keys, code_gid: np.ndarray) -> None:
        """Fill in ``code_gid``, code -> node id, for every code the rows use.

        ``code_gid`` holds ``-1`` for codes whose node id is not known yet.
        Those codes' keys are looked up in one C-level ``map(dict.get, ...)``
        pass, and the keys that are not nodes yet become nodes, in
        first-appearance order over the interleaved endpoint scan
        ``(src_0, dst_0, src_1, ...)``.  The one Python loop left runs over
        new nodes only.
        """
        interleaved = np.empty(2 * len(src_codes), dtype=np.int64)
        interleaved[0::2] = src_codes
        interleaved[1::2] = dst_codes
        unknown = interleaved[code_gid[interleaved] < 0]
        if not len(unknown):
            return
        uniq_codes, first_pos = np.unique(unknown, return_index=True)
        codes = uniq_codes[np.argsort(first_pos)]
        keys = list(map(node_keys.__getitem__, codes.tolist()))
        nodes = self._nodes
        gids = np.fromiter(map(nodes.get, keys, itertools.repeat(-1)),
                           dtype=np.int64, count=len(keys))
        new = np.flatnonzero(gids < 0)
        if len(new):
            new_keys = list(map(keys.__getitem__, new.tolist()))
            fresh = dict.fromkeys(new_keys)     # a key two codes share, once
            start = len(self._node_order)
            nodes.update(zip(fresh, range(start, start + len(fresh))))
            self._node_order.extend(fresh)
            gids[new] = list(map(nodes.__getitem__, new_keys))
        code_gid[codes] = gids

    def _add_rows(self, src_ids: np.ndarray, dst_ids: np.ndarray,
                  amounts: np.ndarray, counts: np.ndarray,
                  timestamps: np.ndarray) -> None:
        """Merge rows between existing nodes (by node id) into the edge columns.

        The second half of :meth:`add_edges_bulk`: rows are grouped by
        ordered pair, pairs already in the graph are replayed row by row
        through :meth:`add_edge`, and the new pairs are appended as whole
        column blocks in first-appearance order.
        """
        pair_keys = (src_ids << np.int64(_PAIR_SHIFT)) | dst_ids
        uniq_pairs, pair_first, pair_inverse = np.unique(
            pair_keys, return_index=True, return_inverse=True)
        # Rows whose pair already exists must merge sequentially; the pairs
        # probe the pair -> slot dict in one C-level pass.
        if self._m:
            self._ensure_slots()
            existing_pair_mask = np.fromiter(
                map(self._slot_of.__contains__, uniq_pairs.tolist()),
                dtype=bool, count=len(uniq_pairs))
            if existing_pair_mask.any():
                replay = existing_pair_mask[pair_inverse]
                order = self._node_order
                for i in np.flatnonzero(replay).tolist():
                    self.add_edge(order[src_ids[i]], order[dst_ids[i]],
                                  float(amounts[i]), int(counts[i]),
                                  float(timestamps[i]))
                keep = ~replay
                if not keep.any():
                    # The replayed add_edge calls above already bumped
                    # _version once per merge; a further bump here would
                    # needlessly invalidate to_csr forms built between bulk
                    # calls that turn out to be pure replays.
                    return
                amounts, counts, timestamps = (amounts[keep], counts[keep],
                                               timestamps[keep])
                pair_keys = pair_keys[keep]
                uniq_pairs, pair_first, pair_inverse = np.unique(
                    pair_keys, return_index=True, return_inverse=True)

        # Edge groups in first-appearance order.
        pair_appearance = np.argsort(pair_first, kind="stable")
        edge_rank = np.empty(len(uniq_pairs), dtype=np.int64)
        edge_rank[pair_appearance] = np.arange(len(uniq_pairs))
        groups = edge_rank[pair_inverse]
        num_edges_new = len(uniq_pairs)
        order = np.argsort(groups, kind="stable")     # rows grouped, row order kept
        sizes = np.bincount(groups, minlength=num_edges_new)
        starts = np.zeros(num_edges_new, dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        # Left-fold sums per group: bincount accumulates one element at a time
        # in array order, exactly the sequence of adds the per-row add_edge
        # merge performs (np.add.reduceat would sum pairwise and drift in the
        # last ulp for long groups).
        edge_amounts = np.bincount(groups, weights=amounts, minlength=num_edges_new)
        edge_counts = np.bincount(groups, weights=counts.astype(np.float64),
                                  minlength=num_edges_new).astype(np.int64)
        single = sizes == 1
        if single.any():
            # A size-1 group's merged amount is the raw value itself (bincount
            # starts from +0.0, which would flip the sign of a lone -0.0).
            edge_amounts[single] = amounts[order[starts[single]]]
        # Merged timestamps: replay add_edge's iterative count-weighted mean,
        # vectorised across edges, sequential within each group.
        ts_acc = np.zeros(num_edges_new)
        cnt_acc = np.zeros(num_edges_new, dtype=np.int64)
        k = 0
        active = np.arange(num_edges_new)
        while len(active):
            rows = order[starts[active] + k]
            t_k = timestamps[rows]
            c_k = counts[rows]
            if k == 0:
                ts_acc[active] = t_k
                cnt_acc[active] = c_k
            else:
                prev_ts = ts_acc[active]
                prev_cnt = cnt_acc[active]
                total = prev_cnt + c_k
                positive = total > 0
                merged = prev_ts.copy()
                merged[positive] = ((prev_ts[positive] * prev_cnt[positive]
                                     + t_k[positive] * c_k[positive])
                                    / total[positive])
                ts_acc[active] = merged
                cnt_acc[active] = total
            k += 1
            active = active[sizes[active] > k]

        # Append the merged edges as whole column blocks, in first-appearance
        # order.  No Edge objects, no per-edge dict writes — the pair -> slot
        # dict and the CSR row index are rebuilt lazily on first lookup.
        new_pairs = uniq_pairs[pair_appearance]
        self._grow(num_edges_new)
        m = self._m
        stop = m + num_edges_new
        self._src[m:stop] = new_pairs >> np.int64(_PAIR_SHIFT)
        self._dst[m:stop] = new_pairs & np.int64((1 << _PAIR_SHIFT) - 1)
        self._amount[m:stop] = edge_amounts
        self._count[m:stop] = edge_counts
        self._ts[m:stop] = ts_acc
        self._m = stop
        self._version += 1
        self._structure_version += 1

    @property
    def ingested_rows(self) -> int:
        """Ledger rows consumed so far (the default ``from_row`` of :meth:`ingest`)."""
        return self._ingested_rows

    def ingest(self, ledger, from_row: int | None = None,
               min_value: float | None = None) -> list:
        """Incrementally ingest ledger rows appended since the last build.

        The O(new rows) twin of
        :func:`~repro.data.pipeline.build_transaction_graph`: rows
        ``[from_row, ledger.num_transactions)`` of the ledger's columnar store
        are filtered with the same predicate (submitted, non-self, value >=
        ``min_value``) and merged into this graph by the same two steps as
        :meth:`add_edges_bulk` — so the result is **bit-identical** to
        rebuilding the whole graph from scratch over the grown ledger: nodes
        and merged edges keep global first-appearance order, and merges into
        existing edges replay the same left-fold amount sums and iterative
        count-weighted timestamp means.

        ``from_row`` defaults to :attr:`ingested_rows` (maintained by
        ``build_transaction_graph`` and previous ``ingest`` calls);
        ``min_value`` defaults to the filter the graph was built with.
        Returns the addresses incident to the newly ingested edges — the
        invalidation set for downstream per-account caches (feature rows,
        serving subgraph samples).

        A frozen graph (:meth:`freeze`) raises ``RuntimeError`` when there are
        rows to ingest: sealing is the declaration that no reader will ever
        observe a mutation, so a follow-the-chain deployment must use
        :meth:`warm` instead.  With no new rows, ``ingest`` is a no-op and
        returns ``[]`` even on a frozen graph.
        """
        kept = self._ingest(ledger, from_row, min_value)
        if kept is None:
            return []
        addresses = ledger.store.addresses
        touched_ids = np.unique(np.concatenate(kept))
        return list(map(addresses.__getitem__, touched_ids.tolist()))

    def _ingest(self, ledger, from_row: int | None = None,
                min_value: float | None = None,
                ) -> tuple[np.ndarray, np.ndarray] | None:
        """:meth:`ingest` without the touched-address list, which a cold
        build (``build_transaction_graph``) has no use for.

        Returns the kept rows' ``(sender_ids, receiver_ids)``, or ``None``
        when there are no rows to ingest.  Endpoints map to node ids through
        :meth:`_account_node_ids`, so an append pays a dict lookup only for
        accounts this graph has not met before.  It reads only the ledger's
        store: its columns and its interning table.
        """
        store = ledger.store
        cols = store.columns()
        total = len(cols.sender_id)
        if from_row is None:
            from_row = self._ingested_rows
        if min_value is None:
            min_value = self._ingest_min_value
        if from_row >= total:
            return None
        self._check_mutable()
        sl = slice(from_row, total)
        sender_ids = cols.sender_id[sl]
        receiver_ids = cols.receiver_id[sl]
        keep = (cols.submitted[sl]
                & (sender_ids != receiver_ids)
                & (cols.value[sl] >= min_value))
        sender_ids = sender_ids[keep]
        receiver_ids = receiver_ids[keep]
        if len(sender_ids):
            addresses = store.addresses
            code_gid = self._account_node_ids(addresses)
            self._resolve_nodes(sender_ids, receiver_ids, addresses, code_gid)
            self._add_rows(code_gid[sender_ids], code_gid[receiver_ids],
                           cols.value[sl][keep], np.ones(len(sender_ids), dtype=np.int64),
                           cols.timestamp[sl][keep])
        self._ingested_rows = total
        return sender_ids, receiver_ids

    def _account_node_ids(self, addresses: list) -> np.ndarray:
        """Account id -> node id over the ledger's interning table ``addresses``.

        ``-1`` marks an account whose node id this graph has not looked up
        yet.  The array lives across ingests: the interning table is
        append-only and node ids never change, so a resolved entry stays
        right, and :meth:`_resolve_nodes` looks up only the ``-1`` entries
        the rows use.  It belongs to the one table object it was filled
        from, and pickles without it (see ``__getstate__``).
        """
        node_ids = self._account_gid
        if self._account_table is not addresses:
            self._account_table = addresses
            node_ids = np.empty(0, dtype=np.int64)
        if len(node_ids) < len(addresses):
            grown = np.full(len(addresses), -1, dtype=np.int64)
            grown[:len(node_ids)] = node_ids
            node_ids = grown
        self._account_gid = node_ids
        return node_ids

    def has_edge(self, src: Hashable, dst: Hashable) -> bool:
        u = self._nodes.get(src)
        v = self._nodes.get(dst)
        if u is None or v is None:
            return False
        self._ensure_slots()
        return ((u << _PAIR_SHIFT) | v) in self._slot_of

    def _slot_between(self, u: int, v: int) -> int | None:
        self._ensure_slots()
        return self._slot_of.get((u << _PAIR_SHIFT) | v)

    def get_edge(self, src: Hashable, dst: Hashable) -> Edge:
        u = self._nodes.get(src)
        v = self._nodes.get(dst)
        slot = self._slot_between(u, v) if u is not None and v is not None else None
        if slot is None:
            raise KeyError((src, dst))
        return self._edge_at(slot)

    def edges_between(self, u: Hashable, v: Hashable) -> list[Edge]:
        """Merged edges connecting ``u`` and ``v`` in either direction.

        Returns ``[Edge(u, v)]``, ``[Edge(v, u)]``, both (forward first) or an
        empty list; for a self pair (``u == v``) at most the single loop edge.
        Nodes absent from the graph simply yield no edges — never a KeyError.
        """
        ui = self._nodes.get(u)
        vi = self._nodes.get(v)
        if ui is None or vi is None:
            return []
        edges = []
        forward = self._slot_between(ui, vi)
        if forward is not None:
            edges.append(self._edge_at(forward))
        if ui != vi:
            backward = self._slot_between(vi, ui)
            if backward is not None:
                edges.append(self._edge_at(backward))
        return edges

    @property
    def edges(self) -> list[Edge]:
        """Materialised :class:`Edge` views, in insertion order (object boundary)."""
        m = self._m
        order = self._node_order
        return [Edge(order[u], order[v], a, c, t) for u, v, a, c, t in zip(
            self._src[:m].tolist(), self._dst[:m].tolist(),
            self._amount[:m].tolist(), self._count[:m].tolist(),
            self._ts[:m].tolist())]

    @property
    def num_edges(self) -> int:
        return self._m

    def _row_slots(self, node: Hashable, indptr_name: str, slots_name: str,
                   ) -> np.ndarray:
        idx = self._nodes.get(node)
        if idx is None or self._m == 0:
            return np.empty(0, dtype=np.int64)
        self._ensure_adjacency()
        indptr = getattr(self, indptr_name)
        slots = getattr(self, slots_name)
        return slots[indptr[idx]:indptr[idx + 1]]

    def gather_slots(self, ids: np.ndarray, incoming: bool = False,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Edge-column slots of many nodes' out-edges (or in-edges) at once.

        ``ids`` are node indices.  Returns ``(slots, lengths)``: the rows of
        ``ids`` concatenated in the order given, each in insertion order, and
        each row's length — :meth:`out_slots` / :meth:`in_slots` per node,
        vectorised into one gather over the CSR row index.
        """
        self._ensure_adjacency()
        if incoming:
            indptr, row_slots = self._in_indptr, self._in_slots
        else:
            indptr, row_slots = self._out_indptr, self._out_slots
        starts = indptr[ids]
        lengths = indptr[ids + 1] - starts
        # Output position p of row j sits at starts[j] + (p - row j's offset).
        shift = starts - np.cumsum(lengths) + lengths
        positions = np.repeat(shift, lengths) + np.arange(int(lengths.sum()))
        return row_slots[positions], lengths

    def out_slots(self, node: Hashable) -> np.ndarray:
        """Edge-column slots of ``node``'s out-edges, in insertion order."""
        return self._row_slots(node, "_out_indptr", "_out_slots")

    def in_slots(self, node: Hashable) -> np.ndarray:
        """Edge-column slots of ``node``'s in-edges, in insertion order."""
        return self._row_slots(node, "_in_indptr", "_in_slots")

    def out_edges(self, node: Hashable) -> Iterator[Edge]:
        for slot in self.out_slots(node).tolist():
            yield self._edge_at(slot)

    def in_edges(self, node: Hashable) -> Iterator[Edge]:
        for slot in self.in_slots(node).tolist():
            yield self._edge_at(slot)

    def out_degree(self, node: Hashable) -> int:
        return len(self.out_slots(node))

    def in_degree(self, node: Hashable) -> int:
        return len(self.in_slots(node))

    def neighbors(self, node: Hashable) -> set[Hashable]:
        """Return successors and predecessors of ``node`` (undirected neighbourhood)."""
        out_ids = self._dst[self.out_slots(node)]
        in_ids = self._src[self.in_slots(node)]
        order = self._node_order
        return {order[i] for i in set(out_ids.tolist()) | set(in_ids.tolist())}

    def degree(self, node: Hashable) -> int:
        """Number of distinct directed edges incident to ``node`` (a self-loop counts once)."""
        idx = self._nodes.get(node)
        if idx is None:
            return 0
        out_row = self.out_slots(node)
        loop = 1 if len(out_row) and bool(np.any(self._dst[out_row] == idx)) else 0
        return len(out_row) + len(self.in_slots(node)) - loop

    def degree_vector(self) -> np.ndarray:
        """Degrees of every node in insertion order, in one O(N + E) pass.

        ``degree_vector()[i] == degree(nodes[i])`` — self-loops count once.
        """
        n = len(self._node_order)
        m = self._m
        src = self._src[:m]
        dst = self._dst[:m]
        deg = np.bincount(src, minlength=n) + np.bincount(dst, minlength=n)
        loops = src == dst
        if loops.any():
            deg -= np.bincount(src[loops], minlength=n)
        return deg

    # ----------------------------------------------------------------- matrices
    def adjacency_matrix(self, weighted: bool = False, symmetric: bool = False) -> np.ndarray:
        """Dense adjacency matrix in node-insertion order.

        Parameters
        ----------
        weighted:
            Use edge amounts instead of 0/1 entries.
        symmetric:
            Return ``max(A, A.T)`` — the undirected view used by the GNN encoders.
        """
        n = self.num_nodes
        m = self._m
        adj = np.zeros((n, n), dtype=np.float64)
        if m:
            vals = self._amount[:m] if weighted else np.ones(m)
            adj[self._src[:m], self._dst[:m]] = vals
        if symmetric:
            adj = np.maximum(adj, adj.T)
        return adj

    def to_csr(self, weighted: bool = False, symmetric: bool = False,
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sparse CSR adjacency ``(indptr, indices, data)`` in node-insertion order.

        The arrays satisfy the standard CSR contract: row ``i``'s non-zero
        columns are ``indices[indptr[i]:indptr[i + 1]]`` (sorted ascending) with
        values ``data[indptr[i]:indptr[i + 1]]``.  ``symmetric=True`` mirrors
        :meth:`adjacency_matrix`: the ``max(A, A.T)`` undirected view.

        Results are memoized per ``(weighted, symmetric)`` until the graph
        mutates; callers share the arrays and must treat them as immutable
        (the same contract as :class:`~repro.graph.sparse.SparseAdjacency`).
        Concurrent cold reads serialise on the graph lock and all receive the
        one set of arrays the winning thread built.
        """
        key = (weighted, symmetric)
        if self._csr_version == self._version:
            # Lock-free hit: the cache dict is replaced (never cleared in
            # place) on invalidation, so a stale reference still yields a
            # result consistent with the version it was checked against.
            cached = self._csr_cache.get(key)
            if cached is not None:
                return cached
        with self._lock:
            if self._csr_version != self._version:
                self._csr_cache = {}
                self._csr_version = self._version
            cached = self._csr_cache.get(key)
            if cached is not None:
                return cached
            result = self._build_csr(weighted, symmetric)
            self._csr_cache[key] = result
            return result

    def _build_csr(self, weighted: bool, symmetric: bool,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.num_nodes
        m = self._m
        if not m:
            return (np.zeros(n + 1, dtype=np.int64),
                    np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.float64))
        rows = self._src[:m]
        cols = self._dst[:m]
        vals = np.array(self._amount[:m]) if weighted else np.ones(m)
        if symmetric:
            rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
            vals = np.concatenate([vals, vals])
        # Sort by (row, col) and collapse duplicate slots (reciprocal edges in
        # the symmetric view) with max, matching max(A, A.T).
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        keys = rows * n + cols
        starts = np.flatnonzero(np.diff(keys, prepend=keys[0] - 1))
        rows, cols = rows[starts], cols[starts]
        vals = np.maximum.reduceat(vals, starts)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return (indptr, cols, vals)

    def edge_feature_matrix(self) -> np.ndarray:
        """Edge features ``[amount, count]`` in edge-insertion order."""
        m = self._m
        if not m:
            return np.zeros((0, 2))
        return np.column_stack((self._amount[:m],
                                self._count[:m].astype(np.float64)))

    # --------------------------------------------------------------- subgraphs
    def subgraph(self, nodes: Iterable[Hashable]) -> "TxGraph":
        """Induced subgraph on ``nodes``.

        Node and edge insertion order follow the parent graph, so matrices built
        from the subgraph are reproducible regardless of the order of ``nodes``.
        Identifiers absent from the graph are ignored; a node set inducing no
        edges yields an edgeless subgraph — never a KeyError.
        """
        node_index = self._nodes
        keep_ids = np.array(
            sorted({node_index[node] for node in nodes if node in node_index}),
            dtype=np.int64)
        m = self._m
        slots = np.empty(0, dtype=np.int64)
        if m and len(keep_ids):
            n = len(self._node_order)
            in_keep = np.zeros(n, dtype=bool)
            in_keep[keep_ids] = True
            if (self._adj_version == self._structure_version
                    and len(keep_ids) * 4 < n):
                # Gather candidate slots from the CSR row index: O(sum deg),
                # then restore global insertion order with a sort on slots.
                cand, _lengths = self.gather_slots(keep_ids)
                slots = np.sort(cand[in_keep[self._dst[cand]]])
            else:
                # Dense selection: one vectorised pass over the edge columns.
                slots = np.flatnonzero(in_keep[self._src[:m]]
                                       & in_keep[self._dst[:m]])
        return self.subgraph_by_index(keep_ids, slots)

    def subgraph_by_index(self, ids: np.ndarray, slots: np.ndarray) -> "TxGraph":
        """The subgraph on node indices ``ids`` holding edge slots ``slots``.

        The id-level constructor behind :meth:`subgraph` and ego sampling:
        ``ids`` must be ascending and unique, and ``slots`` ascending, with
        both endpoints of every slot in ``ids`` (for an induced subgraph, all
        such slots).  Nodes and edges keep the parent's order.
        """
        sub = TxGraph()
        sub._node_order = list(map(self._node_order.__getitem__, ids.tolist()))
        sub._nodes = dict(zip(sub._node_order, range(len(ids))))
        if len(slots):
            # ids is sorted, so a node's position in it is its new index.
            sub._src = np.searchsorted(ids, self._src[slots])
            sub._dst = np.searchsorted(ids, self._dst[slots])
            sub._amount = self._amount[slots]
            sub._count = self._count[slots]
            sub._ts = self._ts[slots]
            sub._m = len(slots)
        sub._version += 1
        return sub

    def copy(self) -> "TxGraph":
        return self.subgraph(self._node_order)

    def to_networkx(self):
        """Convert to a :class:`networkx.DiGraph` (for interop and validation)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self._node_order)
        for edge in self.edges:
            g.add_edge(edge.src, edge.dst, amount=edge.amount, count=edge.count,
                       timestamp=edge.timestamp)
        return g

    def __repr__(self) -> str:
        return f"TxGraph(nodes={self.num_nodes}, edges={self.num_edges})"
