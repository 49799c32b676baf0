"""Columnar transaction storage: the ledger's canonical tx representation.

``ColumnarTxStore`` keeps every registered transaction as a row across
parallel numpy arrays (sender/receiver account ids, value, gas price, gas
used, timestamp, contract-call and submitted flags, block number) plus an
address interning table mapping account addresses to dense integer ids.
:class:`~repro.chain.transactions.Transaction` objects are materialised
lazily, only when a caller crosses the object API boundary
(``Ledger.transactions()``, ``transactions_for``, ``get_transaction``); the
hot consumers — ``build_transaction_graph``, ``DeepFeatureExtractor`` and the
benchmarks — read the column arrays directly.

One write path feeds the columns: ``append_chunk`` writes whole column
arrays at once.  ``generate_ledger`` assembles millions of rows through it
without creating a single ``Transaction``, ``Ledger.append_blocks_columnar``
appends through it, and so does ``Ledger.append_block``, one chunk per
block of hand-built transactions.

Each column lives in one growable buffer with capacity doubling, so an
append costs O(appended rows), amortised, and a read after it costs O(1).

Transaction hashes are stored sparsely: a row's hash defaults to the
canonical ``0x{row:064x}`` pattern the generator emits, and only hashes that
deviate from it (hand-built ledgers) occupy dictionary entries.  Every hash
names one row: an append whose explicit hash is already taken, repeats, or
spells another row's derived hash raises before it writes anything.
"""

from __future__ import annotations

import itertools
import threading

from typing import Iterator, Sequence

import numpy as np

from repro.chain.transactions import Transaction

__all__ = ["ColumnarTxStore", "TxColumns"]

#: (column name, numpy dtype) of every per-transaction column, in row layout order.
_COLUMN_DTYPES: tuple[tuple[str, type], ...] = (
    ("sender_id", np.int64),
    ("receiver_id", np.int64),
    ("value", np.float64),
    ("gas_price", np.float64),
    ("gas_used", np.int64),
    ("timestamp", np.float64),
    ("is_contract_call", np.bool_),
    ("submitted", np.bool_),
    ("block_number", np.int64),
)


class TxColumns:
    """A read-only snapshot of the store's column arrays.

    Attribute names match the column names in ``_COLUMN_DTYPES``.  The arrays
    are read-only views of the store's own buffers over the rows registered
    when the snapshot was taken; later appends never change them.
    """

    __slots__ = tuple(name for name, _ in _COLUMN_DTYPES)

    def __init__(self, **arrays: np.ndarray):
        for name, _ in _COLUMN_DTYPES:
            setattr(self, name, arrays[name])

    def __len__(self) -> int:
        return len(self.sender_id)


def _derived_hash(row: int) -> str:
    """The canonical generator hash of global row ``row``."""
    return f"0x{row:064x}"


def _derived_row(tx_hash: str) -> int | None:
    """The row whose canonical derived hash ``tx_hash`` is, else ``None``.

    Only the canonical spelling (lowercase, zero-padded) counts: another
    spelling of the same integer names no row.
    """
    if len(tx_hash) != 66 or not tx_hash.startswith("0x"):
        return None
    try:
        row = int(tx_hash, 16)
    except ValueError:
        return None
    return row if tx_hash == _derived_hash(row) else None


class ColumnarTxStore:
    """Parallel-array transaction storage with address interning.

    Rows are append-only and kept in registration (block) order.  Each column
    is one growable buffer whose first ``_filled`` entries are live rows;
    capacity doubles when an append outgrows it, as ``TxGraph._grow`` does
    for edges.  ``append_chunk`` writes into the buffers directly, so an
    append costs amortised O(1) per row and a read after it copies nothing.
    Rows never move within a buffer, so the views :meth:`columns` hands out
    stay valid: later rows are written past them, and a regrown buffer
    leaves the old one to the views that hold it.
    """

    def __init__(self):
        self._addr_to_id: dict[str, int] = {}
        self._addresses: list[str] = []
        # Column buffers (the first _filled entries are live) and the cached
        # read-only views over them.
        self._buffers: dict[str, np.ndarray] = {
            name: np.empty(0, dtype=dtype) for name, dtype in _COLUMN_DTYPES}
        self._filled = 0
        self._view: TxColumns | None = None
        # Sparse hash storage: only hashes deviating from the derived pattern.
        self._explicit_hash_by_row: dict[int, str] = {}
        self._row_by_explicit_hash: dict[str, int] = {}
        # Incremental (min, max) timestamp over submitted rows (None = no rows).
        self._submitted_ts_min: float | None = None
        self._submitted_ts_max: float | None = None
        # Monotonic invalidation epoch: every append bumps it, and a backend
        # restore carries the persisted value forward, so downstream caches
        # (graph, feature table, serving sample cache) key their validity on
        # one integer instead of probing row/account counts individually.
        self._data_version = 0
        # Lazily built per-address row index (CSR over interned ids); valid
        # while ``_index_key`` matches ``(_filled, num interned addresses)``
        # — rows *and* addresses, because interning alone widens the indptr.
        self._index_key: tuple[int, int] = (-1, -1)
        self._index_indptr: np.ndarray | None = None
        self._index_row_ids: np.ndarray | None = None
        # Guards the two lazy builds (column views, address index) so
        # concurrent readers of a quiescent store are safe; writes stay
        # single-threaded, matching the TxGraph concurrency contract.
        self._lock = threading.RLock()

    def __getstate__(self):
        cols = self.columns()
        state = self.__dict__.copy()
        del state["_lock"]                  # locks are not picklable
        # Only the live rows travel: the spare capacity stays behind.
        state["_buffers"] = {name: getattr(cols, name) for name, _ in _COLUMN_DTYPES}
        state["_view"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.RLock()

    # ------------------------------------------------------------- interning
    def intern_many(self, addresses: Sequence[str]) -> np.ndarray:
        """Intern a sequence of addresses; returns their ids as an int64 array.

        Addresses interned before are resolved in one C-level
        ``map(dict.get, ...)`` pass; a Python loop runs only over the rest,
        in sequence order, so new ids follow first appearance.
        """
        table = self._addr_to_id
        ids = np.fromiter(map(table.get, addresses, itertools.repeat(-1)),
                          dtype=np.int64, count=len(addresses))
        missing = np.flatnonzero(ids < 0)
        if len(missing):
            pool = self._addresses
            assigned = []
            for i in missing.tolist():
                address = addresses[i]
                idx = table.get(address)
                if idx is None:
                    idx = table[address] = len(pool)
                    pool.append(address)
                assigned.append(idx)
            ids[missing] = assigned
        return ids

    def intern_pairs(self, senders: Sequence[str], receivers: Sequence[str],
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Intern sender/receiver sequences in interleaved per-row order.

        Scanning ``sender_0, receiver_0, sender_1, ...`` assigns ids in
        first-appearance order over the rows, so a ledger's interning table
        does not depend on how its rows were split into appends.
        """
        interleaved = [None] * (2 * len(senders))
        interleaved[0::2] = senders
        interleaved[1::2] = receivers
        ids = self.intern_many(interleaved)
        return ids[0::2].copy(), ids[1::2].copy()

    def address(self, account_id: int) -> str:
        return self._addresses[account_id]

    def address_id(self, address: str) -> int | None:
        """The interned id of ``address``, or ``None`` if it never transacted."""
        return self._addr_to_id.get(address)

    @property
    def addresses(self) -> list[str]:
        """Interned addresses in id order (id ``i`` -> ``addresses[i]``)."""
        return self._addresses

    @property
    def address_ids(self) -> dict[str, int]:
        """The interning table (address -> dense id).  Treat as read-only."""
        return self._addr_to_id

    @property
    def num_addresses(self) -> int:
        return len(self._addresses)

    # --------------------------------------------------------------- appends
    @property
    def num_rows(self) -> int:
        return self._filled

    @property
    def data_version(self) -> int:
        """Monotonic append epoch; grows by one on every :meth:`append_chunk`
        call.  Caches across the stack (graph ingestion, the feature table,
        the serving sample cache) compare this single integer to detect
        ledger growth in O(1)."""
        return self._data_version

    def __len__(self) -> int:
        return self._filled

    def append_chunk(self, sender_ids: np.ndarray, receiver_ids: np.ndarray,
                     values: np.ndarray, gas_prices: np.ndarray,
                     gas_used: np.ndarray, timestamps: np.ndarray,
                     is_contract_call: np.ndarray, submitted: np.ndarray,
                     block_numbers: np.ndarray,
                     tx_hashes: Sequence[str] | None = None) -> int:
        """Append whole column arrays at once; returns the first row id.

        ``sender_ids``/``receiver_ids`` must already be interned (see
        :meth:`intern_many`): an id that is negative or past the interning
        table raises ``ValueError``.  ``tx_hashes=None`` means every appended
        row uses the derived ``0x{row:064x}`` hash — the generator's
        convention — and costs no per-row storage.  An explicit hash must
        name its row alone (see :meth:`_explicit_hashes`).  Every check runs
        before anything is written.  The rows are copied into the column
        buffers: O(chunk rows), amortised.
        """
        chunk = {name: np.asarray(column, dtype=dtype) for (name, dtype), column in zip(
            _COLUMN_DTYPES, (sender_ids, receiver_ids, values, gas_prices, gas_used,
                             timestamps, is_contract_call, submitted, block_numbers))}
        n = len(chunk["sender_id"])
        if any(len(arr) != n for arr in chunk.values()):
            raise ValueError("all columns of a chunk must have the same length")
        if n and (min(chunk["sender_id"].min(), chunk["receiver_id"].min()) < 0
                  or max(chunk["sender_id"].max(), chunk["receiver_id"].max())
                  >= len(self._addresses)):
            raise ValueError("sender/receiver ids must be interned before append_chunk")
        first_row = self._filled
        explicit = self._explicit_hashes(tx_hashes, first_row, n)
        self._row_by_explicit_hash.update(explicit)
        self._explicit_hash_by_row.update(zip(explicit.values(), explicit))
        stamps = chunk["timestamp"][chunk["submitted"]]
        if len(stamps):
            ts_min, ts_max = float(stamps.min()), float(stamps.max())
            if self._submitted_ts_min is None or ts_min < self._submitted_ts_min:
                self._submitted_ts_min = ts_min
            if self._submitted_ts_max is None or ts_max > self._submitted_ts_max:
                self._submitted_ts_max = ts_max
        if n:
            self._write_rows(chunk, n)
        self._data_version += 1
        return first_row

    def _explicit_hashes(self, tx_hashes: Sequence[str] | None, first_row: int,
                         n: int) -> dict[str, int]:
        """Hash -> row for the chunk's hashes that are not their row's derived one.

        Raises ``ValueError`` when such a hash repeats within the chunk, is
        already another row's explicit hash, or is the canonical derived hash
        of any other row, earlier or later.  The last rule keeps every
        derived hash unique without a check per appended row.
        """
        if tx_hashes is None:
            return {}
        if len(tx_hashes) != n:
            raise ValueError("tx_hashes length must match the chunk length")
        explicit: dict[str, int] = {}
        for row, tx_hash in enumerate(tx_hashes, first_row):
            if tx_hash == _derived_hash(row):
                continue
            if tx_hash in self._row_by_explicit_hash or tx_hash in explicit:
                raise ValueError(f"transaction hash {tx_hash!r} already names a row")
            other = _derived_row(tx_hash)
            if other is not None:
                raise ValueError(f"transaction hash {tx_hash!r} is the derived hash "
                                 f"of row {other}, not of row {row}")
            explicit[tx_hash] = row
        return explicit

    def _write_rows(self, chunk: dict, n: int) -> None:
        """Copy ``n`` rows into the buffers past the live ones.

        An outgrown buffer is replaced by one of at least twice the capacity,
        holding a copy of the live rows.  A buffer the store does not own (a
        memory-mapped column of an opened ledger, a pickle's live rows) has no
        spare capacity, so the first append copies it once into an owned one.
        """
        filled = self._filled
        need = filled + n
        capacity = len(self._buffers["sender_id"])
        for name, dtype in _COLUMN_DTYPES:
            buffer = self._buffers[name]
            if need > capacity:
                grown = np.empty(max(need, 2 * capacity, 16), dtype=dtype)
                grown[:filled] = buffer[:filled]
                self._buffers[name] = buffer = grown
            buffer[filled:need] = chunk[name]
        self._filled = need
        self._view = None

    # --------------------------------------------------------------- columns
    def columns(self) -> TxColumns:
        """Read-only views of the columns over every registered row.

        O(1): the views cover the buffers' live rows, so a read after an
        append copies nothing.  A snapshot taken earlier stays valid and
        unchanged after later appends, because they write only past its rows.

        Thread-safe for concurrent readers: the new snapshot is built under
        the store lock and published last, so the lock-free fast path only
        sees a complete one.
        """
        view = self._view
        if view is None:
            with self._lock:
                view = self._view
                if view is None:
                    arrays = {}
                    for name, _ in _COLUMN_DTYPES:
                        arrays[name] = column = self._buffers[name][:self._filled]
                        column.flags.writeable = False
                    view = self._view = TxColumns(**arrays)
        return view

    # ---------------------------------------------------------------- hashes
    def tx_hash(self, row: int) -> str:
        """The hash of global row ``row`` (explicit if recorded, else derived)."""
        explicit = self._explicit_hash_by_row.get(row)
        return explicit if explicit is not None else _derived_hash(row)

    def row_of_hash(self, tx_hash: str) -> int:
        """The row holding ``tx_hash``; raises :class:`KeyError` when absent."""
        row = self._row_by_explicit_hash.get(tx_hash)
        if row is not None:
            return row
        # A derived hash only matches a row that kept its default.
        row = _derived_row(tx_hash)
        if row is not None and row < self._filled and row not in self._explicit_hash_by_row:
            return row
        raise KeyError(tx_hash)

    # --------------------------------------------------------- materialising
    def _materialize_from(self, cols: TxColumns, row: int) -> Transaction:
        return Transaction(
            tx_hash=self.tx_hash(row),
            sender=self._addresses[cols.sender_id[row]],
            receiver=self._addresses[cols.receiver_id[row]],
            value=float(cols.value[row]),
            gas_price=float(cols.gas_price[row]),
            gas_used=int(cols.gas_used[row]),
            timestamp=float(cols.timestamp[row]),
            is_contract_call=bool(cols.is_contract_call[row]),
            block_number=int(cols.block_number[row]),
            submitted=bool(cols.submitted[row]),
        )

    def materialize(self, row: int) -> Transaction:
        """Build the :class:`Transaction` object of global row ``row``."""
        return self._materialize_from(self.columns(), row)

    def materialize_rows(self, rows: Sequence[int] | np.ndarray) -> list[Transaction]:
        cols = self.columns()
        return [self._materialize_from(cols, int(row)) for row in rows]

    def iter_transactions(self, include_unsubmitted: bool = False) -> Iterator[Transaction]:
        """Materialise transactions lazily in row (= block) order."""
        cols = self.columns()
        submitted = cols.submitted
        for row in range(len(cols)):
            if submitted[row] or include_unsubmitted:
                yield self._materialize_from(cols, row)

    # ------------------------------------------------------------- timespans
    def submitted_timespan(self) -> tuple[float, float] | None:
        """Incrementally maintained (min, max) timestamp over submitted rows."""
        if self._submitted_ts_min is None:
            return None
        return (self._submitted_ts_min, self._submitted_ts_max)

    # ---------------------------------------------------- per-address index
    def _build_address_index(self) -> None:
        """(Re)build the CSR per-address row index over the current rows.

        Every row is indexed once under its sender and once under its
        receiver, except self-transfers which are indexed exactly once —
        ``transactions_for`` must not return the same transaction twice.
        """
        cols = self.columns()
        n = len(cols)
        sender_ids = cols.sender_id
        receiver_ids = cols.receiver_id
        non_self = sender_ids != receiver_ids
        rows = np.arange(n, dtype=np.int64)
        owners = np.concatenate([sender_ids, receiver_ids[non_self]])
        owner_rows = np.concatenate([rows, rows[non_self]])
        order = np.lexsort((owner_rows, owners))
        num_accounts = len(self._addresses)
        counts = np.bincount(owners, minlength=num_accounts)
        indptr = np.zeros(num_accounts + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self._index_indptr = indptr
        self._index_row_ids = owner_rows[order]
        self._index_key = (n, num_accounts)

    def rows_for_address(self, address: str) -> np.ndarray:
        """Row ids touching ``address`` (sender or receiver), in block order.

        A self-transfer appears exactly once.  Returns an empty array for
        addresses that never transacted.

        Index validity is keyed on ``(num_rows, num_addresses)``: an address
        interned after the index was built (``intern_many`` without an
        accompanying row append) widens the indptr on the next query instead
        of indexing past its end.
        """
        account_id = self._addr_to_id.get(address)
        if account_id is None:
            return np.empty(0, dtype=np.int64)
        key = (self._filled, len(self._addresses))
        if self._index_key != key:
            # Double-checked: _build_address_index assigns _index_key last,
            # so the lock-free hit above only sees a fully built index.
            with self._lock:
                if self._index_key != (self._filled, len(self._addresses)):
                    self._build_address_index()
        start = self._index_indptr[account_id]
        stop = self._index_indptr[account_id + 1]
        return self._index_row_ids[start:stop]
