"""The synthetic ledger: accounts, blocks and transaction queries."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.chain.accounts import Account, AccountType
from repro.chain.labelcloud import LabelCloud
from repro.chain.transactions import Block, Transaction
from repro.chain.txstore import ColumnarTxStore, TxColumns

__all__ = ["Ledger"]


class Ledger:
    """In-memory Ethereum-like ledger.

    Holds the account registry (address -> :class:`AccountType`), the block
    index and the label cloud.  All
    transaction data lives in a :class:`~repro.chain.txstore.ColumnarTxStore`
    — parallel numpy column arrays plus an address interning table — and
    :class:`~repro.chain.transactions.Transaction` objects are materialised
    lazily, only when a caller crosses the object API boundary
    (:meth:`transactions`, :meth:`transactions_for`, :meth:`get_transaction`,
    :attr:`blocks`).  The hot consumers (graph build, feature extraction)
    read the columns directly via :attr:`store`.

    Blocks arrive in two forms, :meth:`append_block` (a :class:`Block` of
    :class:`Transaction` objects, as hand-built ledgers make them) and
    :meth:`append_blocks_columnar` (whole column arrays split into
    fixed-size blocks, the path ``generate_ledger`` uses); both write
    through the store's one write path, ``append_chunk``.

    Durability: :meth:`sync` persists the ledger into a
    :class:`~repro.chain.backend.LedgerBackend` directory (append-only column,
    address-line and code files + JSON manifest; O(new rows) per sync) and
    :meth:`Ledger.open` restarts from such a directory with the columns
    memory-mapped — no rebuild, and no per-account parsing.
    :attr:`data_version` exposes the store's append epoch so
    downstream caches (graph, feature table, serving sample cache) can detect
    growth in O(1).
    """

    def __init__(self, block_interval: float = 12.0, genesis_timestamp: float = 1_438_900_000.0):
        self.block_interval = block_interval
        self.genesis_timestamp = genesis_timestamp
        self._accounts: dict[str, AccountType] = {}
        self._store = ColumnarTxStore()
        # Per-block metadata (number, timestamp, [start_row, end_row) in the
        # store); Block objects are materialised on demand from these bounds.
        self._block_numbers: list[int] = []
        self._block_timestamps: list[float] = []
        self._block_bounds: list[tuple[int, int]] = []
        self.labels = LabelCloud()
        self._backend = None

    # --------------------------------------------------------------- accounts
    #
    # The registry maps address -> AccountType and holds nothing else, in
    # registration order; Account records are built on request.
    def add_account(self, account: Account) -> Account:
        if account.address in self._accounts:
            raise ValueError(f"duplicate account address {account.address}")
        self._accounts[account.address] = account.account_type
        return account

    def add_accounts_bulk(self, addresses: "Sequence[str]",
                          account_type: AccountType) -> None:
        """Register many same-type accounts in one dict update.

        All-or-nothing on duplicates (within the batch or against the
        registry), matching :meth:`add_account`'s refusal semantics.
        """
        new = dict.fromkeys(addresses, account_type)
        if len(new) != len(addresses):
            raise ValueError("duplicate account address within bulk batch")
        if self._accounts and not self._accounts.keys().isdisjoint(new):
            clash = next(iter(self._accounts.keys() & new.keys()))
            raise ValueError(f"duplicate account address {clash}")
        self._accounts.update(new)

    def get_account(self, address: str) -> Account:
        return Account(address, self._accounts[address])

    def has_account(self, address: str) -> bool:
        return address in self._accounts

    def is_contract(self, address: str) -> bool:
        return self._accounts.get(address) is AccountType.CONTRACT

    @property
    def accounts(self) -> list[Account]:
        """All accounts as records, in registration order."""
        return list(map(Account, self._accounts, self._accounts.values()))

    @property
    def num_accounts(self) -> int:
        return len(self._accounts)

    # ----------------------------------------------------------------- store
    @property
    def store(self) -> ColumnarTxStore:
        """The columnar transaction store backing this ledger."""
        return self._store

    def tx_columns(self) -> TxColumns:
        """Consolidated per-transaction column arrays, in block order."""
        return self._store.columns()

    @property
    def data_version(self) -> int:
        """The store's monotonic append epoch (O(1)); see
        :attr:`ColumnarTxStore.data_version`."""
        return self._store.data_version

    # ------------------------------------------------------------ durability
    @property
    def backend(self):
        """The attached :class:`~repro.chain.backend.LedgerBackend`, or ``None``."""
        return self._backend

    def sync(self, path=None) -> dict:
        """Persist rows/blocks/accounts/labels appended since the last sync.

        The first call needs ``path`` (creating the backend directory and
        attaching it); later calls reuse the attached backend and cost
        O(new entries).  Returns the committed manifest.
        """
        if path is not None:
            from repro.chain.backend import LedgerBackend

            self._backend = LedgerBackend(path)
        if self._backend is None:
            raise RuntimeError(
                "this ledger has no backend attached; pass sync(path) once to "
                "create one (or open the ledger with Ledger.open)")
        return self._backend.sync(self)

    @classmethod
    def open(cls, path, mmap: bool = True) -> "Ledger":
        """Restart a persisted ledger from a backend directory.

        Columns are memory-mapped read-only (``mmap=False`` copies them into
        RAM), so the transaction data pages in lazily; the interning table,
        the registry and the label cloud are rebuilt from address lines and
        one-byte code columns with C-level passes and no per-record parsing.
        The backend stays attached: appends followed by :meth:`sync` keep
        extending the same directory.
        """
        from repro.chain.backend import LedgerBackend

        return LedgerBackend(path).load(mmap=mmap)

    # ----------------------------------------------------------------- blocks
    def append_block(self, block: Block) -> None:
        """Register a :class:`Block` of :class:`Transaction` objects.

        The transactions become one chunk of store rows that keeps each
        one's own hash and block number; an empty block adds no rows and
        leaves :attr:`data_version` alone.
        """
        if self._block_numbers and block.number <= self._block_numbers[-1]:
            raise ValueError("block numbers must be strictly increasing")
        store = self._store
        start = store.num_rows
        txs = block.transactions
        if txs:
            sender_ids, receiver_ids = store.intern_pairs(
                [tx.sender for tx in txs], [tx.receiver for tx in txs])
            store.append_chunk(
                sender_ids, receiver_ids, [tx.value for tx in txs],
                [tx.gas_price for tx in txs], [tx.gas_used for tx in txs],
                [tx.timestamp for tx in txs], [tx.is_contract_call for tx in txs],
                [tx.submitted for tx in txs], [tx.block_number for tx in txs],
                tx_hashes=[tx.tx_hash for tx in txs])
        self._block_numbers.append(block.number)
        self._block_timestamps.append(block.timestamp)
        self._block_bounds.append((start, store.num_rows))

    def append_blocks_columnar(self, senders: "Sequence[str] | np.ndarray",
                               receivers: "Sequence[str] | np.ndarray",
                               values: np.ndarray, gas_prices: np.ndarray,
                               gas_used: np.ndarray, timestamps: np.ndarray,
                               is_contract_call: np.ndarray, submitted: np.ndarray,
                               transactions_per_block: int,
                               tx_hashes: Sequence[str] | None = None) -> None:
        """Append rows column-wise, split into fixed-size blocks.

        Rows must already be in block (timestamp) order.  Consecutive runs of
        ``transactions_per_block`` rows become one block whose timestamp is
        its last transaction's timestamp and whose number continues from the
        last registered block.  ``tx_hashes=None`` keeps the generator's
        derived ``0x{row:064x}`` hashes without per-row storage.

        ``senders``/``receivers`` are either address strings (interned here)
        or integer ndarrays of already-interned store account ids (the
        scenario engine's zero-Python-object path; validated against the
        store's address table).
        """
        n = len(values)
        if n == 0:
            return
        if transactions_per_block < 1:
            raise ValueError("transactions_per_block must be >= 1")
        if (isinstance(senders, np.ndarray) and senders.dtype.kind in "iu"):
            sender_ids = np.ascontiguousarray(senders, dtype=np.int64)
            receiver_ids = np.ascontiguousarray(receivers, dtype=np.int64)
            if len(sender_ids) and (
                    min(sender_ids.min(), receiver_ids.min()) < 0
                    or max(sender_ids.max(), receiver_ids.max())
                    >= self._store.num_addresses):
                raise ValueError(
                    "pre-interned sender/receiver ids out of range for store")
        else:
            sender_ids, receiver_ids = self._store.intern_pairs(senders, receivers)
        next_number = self._block_numbers[-1] + 1 if self._block_numbers else 0
        start_row = self._store.num_rows
        num_blocks = (n + transactions_per_block - 1) // transactions_per_block
        block_numbers = next_number + np.arange(n, dtype=np.int64) // transactions_per_block
        self._store.append_chunk(
            sender_ids, receiver_ids, values, gas_prices, gas_used, timestamps,
            is_contract_call, submitted, block_numbers, tx_hashes=tx_hashes)
        timestamps = np.asarray(timestamps, dtype=np.float64)
        for b in range(num_blocks):
            lo = b * transactions_per_block
            hi = min(n, lo + transactions_per_block)
            self._block_numbers.append(next_number + b)
            self._block_timestamps.append(float(timestamps[hi - 1]))
            self._block_bounds.append((start_row + lo, start_row + hi))

    def _materialize_block(self, index: int) -> Block:
        start, stop = self._block_bounds[index]
        return Block(self._block_numbers[index], self._block_timestamps[index],
                     self._store.materialize_rows(range(start, stop)))

    @property
    def blocks(self) -> list[Block]:
        """Materialised :class:`Block` objects (lazy; O(T) — object boundary)."""
        return [self._materialize_block(i) for i in range(len(self._block_numbers))]

    @property
    def num_blocks(self) -> int:
        return len(self._block_numbers)

    # ----------------------------------------------------------- transactions
    def transactions(self, include_unsubmitted: bool = False) -> Iterator[Transaction]:
        """Iterate over all transactions in block order (lazy materialisation)."""
        return self._store.iter_transactions(include_unsubmitted=include_unsubmitted)

    @property
    def num_transactions(self) -> int:
        """Total registered transactions, maintained incrementally (O(1)).

        Serves as part of the feature extractor's cache-invalidation key, so
        it must stay cheap no matter how many blocks the ledger holds.
        """
        return self._store.num_rows

    def get_transaction(self, tx_hash: str) -> Transaction:
        return self._store.materialize(self._store.row_of_hash(tx_hash))

    def transactions_for(self, address: str, include_unsubmitted: bool = False) -> list[Transaction]:
        """All transactions where ``address`` is sender or receiver.

        Each transaction appears exactly once — a self-transfer (sender ==
        receiver) is **not** duplicated, so per-account statistics derived
        from this list count it once per role.
        """
        rows = self._store.rows_for_address(address)
        if not include_unsubmitted:
            rows = rows[self._store.columns().submitted[rows]]
        return self._store.materialize_rows(rows)

    def timespan(self) -> tuple[float, float]:
        """(min, max) timestamp over all submitted transactions.

        O(1): the span is maintained incrementally as rows are registered.
        An empty ledger — or one whose transactions are all unsubmitted —
        spans ``(genesis_timestamp, genesis_timestamp)``.
        """
        span = self._store.submitted_timespan()
        if span is None:
            return (self.genesis_timestamp, self.genesis_timestamp)
        return span

    def summary(self) -> dict:
        """Aggregate statistics used by examples and the dataset-stats bench."""
        return {
            "num_accounts": self.num_accounts,
            "num_contracts": sum(kind is AccountType.CONTRACT
                                 for kind in self._accounts.values()),
            "num_blocks": self.num_blocks,
            "num_transactions": self.num_transactions,
            "num_labeled": len(self.labels),
            "label_counts": {cat.value: n for cat, n in self.labels.counts().items()},
        }
