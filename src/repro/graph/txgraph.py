"""Directed weighted graph container for account-interaction graphs.

``TxGraph`` is a node table plus five edge columns — ``src_id`` / ``dst_id``
(dense node indices), ``amount``, ``count`` and ``timestamp`` — mirroring the
ledger's :class:`~repro.chain.txstore.ColumnarTxStore`.  One edge is one
ordered pair: repeated transfers merge into it (Section III-B3).  Readers take
the columns from :meth:`edge_arrays` and many nodes' incident edges at once
from :meth:`gather_slots`.  A node is its identifier and nothing else: what is
known about an account (its kind, its label) stays in the ledger, which the
graph is built from.

There is one write path, :meth:`add_edges_bulk`, whose two steps
:meth:`ingest` runs over the ledger's columns, and one derived structure,
the CSR row index: edge slots grouped by endpoint, insertion order kept
within each row.  It is built lazily, appended edges are merged into it, and
a write finds the edges its rows merge into on its out-rows.  See
``DESIGN.md`` for the invariants.

Concurrency contract: **reads are thread-safe, writes are single-threaded.**
The row index build is guarded by a per-graph lock with a double-checked fast
path, so any number of reader threads may race on a cold graph and all
observe the one index the winner built — bit-identical to a single-threaded
warm-up.  Mutations must not run concurrently with reads; serving deployments
call :meth:`warm` (build the row index) or :meth:`freeze` (warm + reject
further mutation) before fanning readers out.
"""

from __future__ import annotations

import itertools
import threading

from typing import Hashable

import numpy as np

__all__ = ["TxGraph", "stable_order"]


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative integer keys, in linear time.

    An LSD radix sort (Knuth, *TAOCP* Vol. 3, §5.2.5): one stable argsort
    per 16-bit digit the largest key needs, least significant digit first,
    each reordering the order the digits below it left.  numpy's stable
    argsort of a ``uint16`` array is itself a radix sort, so every pass is
    linear; a stable order is unique, so the result is the comparison
    sort's, bit for bit.  Raises ``ValueError`` on keys that are not
    integers, and on a negative key, whose sign bits no digit pass would
    ever exhaust.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind not in "iu":
        raise ValueError(f"stable_order needs integer keys, not {keys.dtype}")
    if not len(keys):
        return np.empty(0, dtype=np.intp)
    if keys.min() < 0:
        raise ValueError("stable_order needs non-negative keys")
    top = int(keys.max())
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    shift = 16
    while top >> shift:
        digit = (keys >> shift).astype(np.uint16)[order]
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
    return order


def _run_starts(grouped: np.ndarray) -> np.ndarray:
    """Mask of the positions of ``grouped`` (equal keys adjacent) that begin a run."""
    starts = np.empty(len(grouped), dtype=bool)
    starts[:1] = True
    np.not_equal(grouped[1:], grouped[:-1], out=starts[1:])
    return starts


def _merge_rows(indptr: np.ndarray, slots: np.ndarray, endpoint: np.ndarray,
                m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The CSR row index over edges ``[0, m)`` and nodes ``[0, n)``.

    ``(indptr, slots)`` is the index over the first ``len(slots)`` edges:
    their slots grouped by ``endpoint``, in insertion order within each row.
    Edges are append-only and never move, so the grown index keeps every old
    row as it is and appends each row's new slots at its end: the new slots
    are grouped by endpoint with :func:`stable_order` (O(k) for k new edges)
    and inserted at their rows' old end offsets in one O(m) pass.  The
    result equals a full stable argsort of ``endpoint[:m]``; a cold build is
    this merge into the empty index ``([0], [])``, where the insert is the
    grouped slots.
    """
    start = len(slots)
    keys = endpoint[start:m]
    order = stable_order(keys)
    grown = np.empty(n + 1, dtype=np.int64)
    grown[:len(indptr)] = indptr
    grown[len(indptr):] = indptr[-1]
    grown[1:] += np.cumsum(np.bincount(keys, minlength=n))
    if not start:
        return grown, order
    row_ends = indptr[np.minimum(keys[order] + 1, len(indptr) - 1)]
    order += start
    return grown, np.insert(slots, row_ends, order)


def _fold_groups(groups: np.ndarray, num_groups: int, amounts: np.ndarray,
                 counts: np.ndarray, timestamps: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each group's rows merged in row order, as one merge per row would.

    Amounts and counts are left-fold sums and the timestamp is the iterative
    count-weighted mean, whose zero-count guard keeps the running timestamp.
    ``bincount`` accumulates one element at a time in array order, exactly
    the sequence of adds a per-row merge performs (``np.add.reduceat`` would
    sum pairwise and drift in the last ulp for long groups).  It starts every
    sum from ``+0.0``, which only differs from the fold for a group of
    ``-0.0`` amounts alone, so such a group is set to ``-0.0``.  The
    timestamp pass reads the rows grouped by :func:`stable_order`, in row
    order within each group.
    """
    order = stable_order(groups)
    sizes = np.bincount(groups, minlength=num_groups)
    starts = np.zeros(num_groups, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    edge_amounts = np.bincount(groups, weights=amounts, minlength=num_groups)
    negative_zero = (amounts == 0) & np.signbit(amounts)
    edge_amounts[np.bincount(groups[negative_zero], minlength=num_groups)
                 == sizes] = -0.0
    edge_counts = np.bincount(groups, weights=counts.astype(np.float64),
                              minlength=num_groups).astype(np.int64)
    # Timestamps: the recurrence is sequential within a group, vectorised
    # across groups (one pass per row position).
    ts_acc = np.zeros(num_groups)
    cnt_acc = np.zeros(num_groups, dtype=np.int64)
    k = 0
    active = np.arange(num_groups)
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
    return edge_amounts, edge_counts, ts_acc


class TxGraph:
    """A directed graph of merged weighted edges between account nodes.

    Nodes are stored in insertion order.  Edges live in parallel column
    arrays in global first-insertion order: a merge updates its pair's slot
    in place, so edge order is stable under merges, and a subgraph's edge
    order is simply its kept slots, sorted.

    The CSR row index — ``_out_indptr``/``_out_slots`` and the ``_in``
    twins — lists each node's incident edge slots in insertion order.  It is
    valid while ``_adj_version == _structure_version``; only appended edges
    move ``_structure_version``, so a write that merges into existing edges
    alone keeps the index.
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
        self._structure_version = 0
        self._adj_version = -1              # CSR row index validity
        self._out_indptr = np.zeros(1, dtype=np.int64)
        self._out_slots = np.empty(0, dtype=np.int64)
        self._in_indptr = np.zeros(1, dtype=np.int64)
        self._in_slots = np.empty(0, dtype=np.int64)
        # Follow-the-chain bookkeeping: how many ledger rows this graph has
        # consumed and with which dust filter (set by build_transaction_graph,
        # advanced by ingest()).
        self._ingested_rows = 0
        self._ingest_min_value = 0.0
        # Account id -> node id over the interning table last ingested from
        # (see _account_node_ids).
        self._account_table: list | None = None
        self._account_gid = np.empty(0, dtype=np.int64)
        # Guards the row index build.
        self._lock = threading.Lock()
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
        self._lock = threading.Lock()

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
        """Eagerly build the CSR row index (idempotent, thread-safe).

        It is the one structure every reader on the sampling path touches,
        so after ``warm()`` returns reader threads never contend on a build
        lock.
        """
        self._ensure_adjacency()
        return self

    def freeze(self) -> "TxGraph":
        """:meth:`warm` plus sealing: any later mutation raises ``RuntimeError``.

        This is the strongest serving guarantee — once frozen, every read on
        the sampling path is lock-free against a fully built immutable
        index.
        """
        self.warm()
        self._frozen = True
        return self

    # ------------------------------------------------------------------ nodes
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
        / ``dst_idx`` are node-insertion indices.  The arrays are live
        read-only views into the graph's own columns (writes through them
        raise): do not retain them across mutations — appended edges are not
        observed, but an in-place merge of an existing pair **is** visible
        through the views.  Consumers that must survive later mutation should
        copy.
        """
        m = self._m
        views = (self._src[:m], self._dst[:m], self._amount[:m],
                 self._count[:m], self._ts[:m])
        for view in views:
            view.flags.writeable = False
        return views

    @property
    def num_edges(self) -> int:
        return self._m

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

    # ------------------------------------------------------------------ writes
    def add_edges_bulk(self, srcs, dsts, amounts=None, counts=None,
                       timestamps=None, node_keys: list | None = None) -> None:
        """Add one transaction per row, merging repeats of an ordered pair.

        Merging follows Section III-B3 of the paper: repeated transfers
        between the same ordered pair collapse into a single edge carrying
        the total amount and the number of transactions.  The timestamp of
        the merged edge is the count-weighted mean; a merge whose total count
        is zero (possible when callers pass ``count=0`` placeholders) keeps
        the edge's timestamp instead of dividing by zero.

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

        The result is that of merging the rows one at a time, in order, bit
        for bit: nodes are created in first-appearance order scanning
        ``(src_0, dst_0, src_1, ...)``, new edges take slots in
        first-appearance order, amounts and counts are left-fold sums that
        start from the edge's current payload, and timestamps replay the
        iterative count-weighted mean (``tests/_dict_reference.py`` holds
        that row-at-a-time reference).

        With integer codes the cost is linear in the rows, whose grouping
        is :func:`stable_order`'s radix passes (factorising other endpoints
        with ``np.unique`` is O(rows log rows)), plus one code table as long
        as ``node_keys``, plus Python work for new nodes only, plus the
        gather of the rows' sources' out-rows that finds existing edges
        (:meth:`_add_rows`): appending to a large graph costs nothing per
        existing node or edge.  :meth:`ingest` runs the same two steps with
        a code table kept across appends.
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
        ``(src_0, dst_0, src_1, ...)``: :func:`stable_order` keeps each
        code's occurrences in scan order, so the first of each run of equal
        codes is that code's first appearance.  The one Python loop left
        runs over new nodes only.  New nodes get no row index entry here;
        they have no edges until :meth:`_add_rows` appends them.
        """
        interleaved = np.empty(2 * len(src_codes), dtype=np.int64)
        interleaved[0::2] = src_codes
        interleaved[1::2] = dst_codes
        unknown = interleaved[code_gid[interleaved] < 0]
        del interleaved
        if not len(unknown):
            return
        order = stable_order(unknown)
        first = np.zeros(len(unknown), dtype=bool)
        first[order[_run_starts(unknown[order])]] = True
        del order
        codes = unknown[first]
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

    def _find_slots(self, pairs: np.ndarray, width: int) -> np.ndarray:
        """The edge slot of each sorted pair key ``src << width | dst``, ``-1`` where none.

        The candidates are the out-edges of the pairs' distinct sources,
        gathered from the row index; each candidate's packed key is looked
        up among ``pairs`` with ``searchsorted``.  That is O(c log p) for c
        candidates and p pairs, with nothing kept per edge between writes.
        Nodes the current write has just registered have no row yet, and no
        edges either, so they are skipped.
        """
        found = np.full(len(pairs), -1, dtype=np.int64)
        if not self._m:
            return found
        self._ensure_adjacency()
        sources = np.unique(pairs >> width)
        sources = sources[sources < len(self._out_indptr) - 1]
        candidates, lengths = self.gather_slots(sources)
        if not len(candidates):
            return found
        keys = (np.repeat(sources, lengths) << width) | self._dst[candidates]
        pos = np.minimum(np.searchsorted(pairs, keys), len(pairs) - 1)
        hit = pairs[pos] == keys
        found[pos[hit]] = candidates[hit]
        return found

    def _add_rows(self, src_ids: np.ndarray, dst_ids: np.ndarray,
                  amounts: np.ndarray, counts: np.ndarray,
                  timestamps: np.ndarray) -> None:
        """Merge rows between existing nodes (by node id) into the edge columns.

        The second half of :meth:`add_edges_bulk`.  Rows are grouped by
        ordered pair, in first-appearance order.  A pair that already has an
        edge (:meth:`_find_slots`) folds its rows into that slot, with the
        slot's payload as the group's first row; the other pairs are
        appended as whole column blocks, in first-appearance order.

        One :func:`stable_order` of the pair keys ``src << width | dst``
        does the grouping, ``width`` being the bit length of the largest
        node id, so that keys take as few 16-bit digits as the graph allows.
        Its runs of equal keys give the distinct pairs, sorted, and each
        run's first row is its pair's first appearance, because the order is
        stable; counting those first rows in row order ranks the pairs by
        appearance, in linear time.
        """
        width = (len(self._node_order) - 1).bit_length()
        pair_keys = (src_ids << width) | dst_ids
        order = stable_order(pair_keys)
        grouped = pair_keys[order]
        del pair_keys
        starts = _run_starts(grouped)
        uniq_pairs = grouped[starts]
        del grouped
        num_groups = len(uniq_pairs)
        pair_first = order[starts]
        first = np.zeros(len(order), dtype=bool)
        first[pair_first] = True
        rank = np.cumsum(first)[pair_first] - 1
        del first, pair_first
        groups = np.empty(len(order), dtype=np.int64)
        groups[order] = rank[np.cumsum(starts) - 1]
        del order, starts
        appearance = np.empty(num_groups, dtype=np.int64)
        appearance[rank] = np.arange(num_groups)
        group_slots = self._find_slots(uniq_pairs, width)[appearance]
        merged = np.flatnonzero(group_slots >= 0)
        targets = group_slots[merged]
        if len(merged):
            groups = np.concatenate([merged, groups])
            amounts = np.concatenate([self._amount[targets], amounts])
            counts = np.concatenate([self._count[targets], counts])
            timestamps = np.concatenate([self._ts[targets], timestamps])
        edge_amounts, edge_counts, edge_ts = _fold_groups(
            groups, num_groups, amounts, counts, timestamps)
        self._amount[targets] = edge_amounts[merged]
        self._count[targets] = edge_counts[merged]
        self._ts[targets] = edge_ts[merged]

        fresh = np.flatnonzero(group_slots < 0)
        if not len(fresh):
            return                          # merges only: the row index holds
        new_pairs = uniq_pairs[appearance[fresh]]
        self._grow(len(fresh))
        m = self._m
        stop = m + len(fresh)
        self._src[m:stop] = new_pairs >> width
        self._dst[m:stop] = new_pairs & ((1 << width) - 1)
        self._amount[m:stop] = edge_amounts[fresh]
        self._count[m:stop] = edge_counts[fresh]
        self._ts[m:stop] = edge_ts[fresh]
        self._m = stop
        self._structure_version += 1

    @property
    def ingested_rows(self) -> int:
        """Ledger rows consumed so far (the default ``from_row`` of :meth:`ingest`)."""
        return self._ingested_rows

    def ingest(self, ledger, from_row: int | None = None,
               min_value: float | None = None) -> np.ndarray:
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
        Returns the node ids incident to the newly ingested edges, sorted,
        as one int64 array — the invalidation set for downstream per-account
        caches (feature rows, serving subgraph samples).

        A frozen graph (:meth:`freeze`) raises ``RuntimeError`` when there are
        rows to ingest: sealing is the declaration that no reader will ever
        observe a mutation, so a follow-the-chain deployment must use
        :meth:`warm` instead.  With no new rows, ``ingest`` is a no-op and
        returns an empty array even on a frozen graph.
        """
        kept = self._ingest(ledger, from_row, min_value)
        if kept is None:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(kept))

    def _ingest(self, ledger, from_row: int | None = None,
                min_value: float | None = None,
                ) -> tuple[np.ndarray, np.ndarray] | None:
        """:meth:`ingest` without the touched node ids, which a cold build
        (``build_transaction_graph``) has no use for.

        Returns the kept rows' ``(src_ids, dst_ids)`` node ids, or ``None``
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
        src_ids = dst_ids = np.empty(0, dtype=np.int64)
        if len(sender_ids):
            addresses = store.addresses
            code_gid = self._account_node_ids(addresses)
            self._resolve_nodes(sender_ids, receiver_ids, addresses, code_gid)
            src_ids, dst_ids = code_gid[sender_ids], code_gid[receiver_ids]
            self._add_rows(src_ids, dst_ids, cols.value[sl][keep],
                           np.ones(len(src_ids), dtype=np.int64),
                           cols.timestamp[sl][keep])
        self._ingested_rows = total
        return src_ids, dst_ids

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

    # ------------------------------------------------------------------ reads
    def gather_slots(self, ids: np.ndarray, incoming: bool = False,
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Edge-column slots of many nodes' out-edges (or in-edges) at once.

        ``ids`` are node indices.  Returns ``(slots, lengths)``: the rows of
        ``ids`` concatenated in the order given, each in insertion order, and
        each row's length — one gather over the CSR row index.
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

    def degree(self, node: Hashable) -> int:
        """Number of distinct directed edges incident to ``node`` (a self-loop counts once)."""
        idx = self._nodes.get(node)
        if idx is None or not self._m:
            return 0
        self._ensure_adjacency()
        start, stop = self._out_indptr[idx:idx + 2].tolist()
        in_start, in_stop = self._in_indptr[idx:idx + 2].tolist()
        loop = stop > start and bool(
            (self._dst[self._out_slots[start:stop]] == idx).any())
        return stop - start + in_stop - in_start - loop

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

    def subgraph_by_index(self, ids: np.ndarray, slots: np.ndarray) -> "TxGraph":
        """The subgraph on node indices ``ids`` holding edge slots ``slots``.

        The constructor behind ego sampling: ``ids`` must be ascending and
        unique, and ``slots`` ascending, with both endpoints of every slot in
        ``ids`` (for an induced subgraph, all such slots).  Nodes and edges
        keep the parent's order.
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
        return sub

    def __repr__(self) -> str:
        return f"TxGraph(nodes={self.num_nodes}, edges={self.num_edges})"
