"""The synthetic ledger: accounts, blocks and transaction queries."""

from __future__ import annotations

import itertools
import threading

from typing import Iterator, Sequence

import numpy as np

from repro.chain.accounts import Account, AccountType
from repro.chain.labelcloud import LabelCloud
from repro.chain.transactions import Block, Transaction
from repro.chain.txstore import ColumnarTxStore, TxColumns

__all__ = ["Ledger"]


class Ledger:
    """In-memory Ethereum-like ledger.

    Holds the account registry, the block index and the label cloud.  All
    transaction data lives in a :class:`~repro.chain.txstore.ColumnarTxStore`
    — parallel numpy column arrays plus an address interning table — and
    :class:`~repro.chain.transactions.Transaction` objects are materialised
    lazily, only when a caller crosses the object API boundary
    (:meth:`transactions`, :meth:`transactions_for`, :meth:`get_transaction`,
    :attr:`blocks`).  The hot consumers (graph build, feature extraction)
    read the columns directly via :attr:`store`.

    Two ingestion paths feed the same store: :meth:`append_block` (object
    path — a :class:`Block` of :class:`Transaction` objects) and
    :meth:`append_blocks_columnar` (bulk path — whole column arrays split
    into fixed-size blocks, the path ``generate_ledger`` uses).

    Durability: :meth:`sync` persists the ledger into a
    :class:`~repro.chain.backend.LedgerBackend` directory (append-only column
    files + JSON manifest; O(new rows) per sync) and :meth:`Ledger.open`
    restarts from such a directory with the columns memory-mapped — no
    rebuild.  :attr:`data_version` exposes the store's append epoch so
    downstream caches (graph, feature table, serving sample cache) can detect
    growth in O(1).
    """

    def __init__(self, block_interval: float = 12.0, genesis_timestamp: float = 1_438_900_000.0):
        self.block_interval = block_interval
        self.genesis_timestamp = genesis_timestamp
        self._accounts: dict[str, Account] = {}
        self._contract_set: frozenset | None = None
        self._contract_set_accounts = -1
        self._store = ColumnarTxStore()
        # Per-block metadata (number, timestamp, [start_row, end_row) in the
        # store); Block objects are materialised on demand from these bounds.
        self._block_numbers: list[int] = []
        self._block_timestamps: list[float] = []
        self._block_bounds: list[tuple[int, int]] = []
        self.labels = LabelCloud()
        self._backend = None
        # Guards the lazy contract-set rebuild; reads of a quiescent ledger
        # are lock-free (same contract as the store and graph layers).
        self._lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]                  # locks are not picklable
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # --------------------------------------------------------------- accounts
    #
    # The registry maps address -> Account, or address -> AccountType for
    # accounts registered through the bulk path: a placeholder records only
    # the kind, and the full (default-balance, zero-nonce) Account object is
    # materialised lazily on first object-level access.  Nothing in the
    # synthesis or de-anonymization pipeline mutates balances/nonces, so the
    # lazy object is indistinguishable from an eagerly created one.
    def add_account(self, account: Account) -> Account:
        if account.address in self._accounts:
            raise ValueError(f"duplicate account address {account.address}")
        self._accounts[account.address] = account
        return account

    def add_accounts_bulk(self, addresses: "Sequence[str]",
                          account_type: AccountType) -> None:
        """Register many same-type accounts without creating Account objects.

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
        account = self._accounts[address]
        if not isinstance(account, Account):
            account = Account(address, account)
            self._accounts[address] = account
        return account

    def has_account(self, address: str) -> bool:
        return address in self._accounts

    def is_contract(self, address: str) -> bool:
        entry = self._accounts.get(address)
        if entry is None:
            return False
        kind = entry.account_type if isinstance(entry, Account) else entry
        return kind is AccountType.CONTRACT

    def contract_address_set(self) -> frozenset:
        """Addresses of registered contract accounts, as one frozenset.

        Batch consumers (graph build over ~100k nodes) test membership here
        instead of calling :meth:`is_contract` per node; rebuilt only when the
        account registry has grown since the last call.
        """
        if self._contract_set is None or self._contract_set_accounts != len(self._accounts):
            with self._lock:
                if (self._contract_set is None
                        or self._contract_set_accounts != len(self._accounts)):
                    contract_set = frozenset(
                        address for address, entry in self._accounts.items()
                        if (entry.account_type if isinstance(entry, Account)
                            else entry) is AccountType.CONTRACT)
                    self._contract_set = contract_set
                    self._contract_set_accounts = len(self._accounts)
        return self._contract_set

    @property
    def accounts(self) -> list[Account]:
        """All accounts as objects (materialises bulk-registered placeholders)."""
        return [self.get_account(address) for address in list(self._accounts)]

    def account_records(self, start: int = 0) -> Iterator[tuple[str, str, float, int]]:
        """``(address, type, balance, nonce)`` rows in registration order,
        from the ``start``-th registered account on.

        The persistence path's view of the registry: placeholders yield their
        default balance/nonce directly, so syncing a bulk-registered ledger
        never materialises Account objects, and the skipped prefix costs only
        a C-level walk over the registry dict.
        """
        for address, entry in itertools.islice(self._accounts.items(), start, None):
            if isinstance(entry, Account):
                yield (address, entry.account_type.value, entry.balance,
                       entry.nonce)
            else:
                yield (address, entry.value, 0.0, 0)

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
        RAM), so opening costs O(metadata) — the transaction data pages in
        lazily.  The backend stays attached: appends followed by
        :meth:`sync` keep extending the same directory.
        """
        from repro.chain.backend import LedgerBackend

        return LedgerBackend(path).load(mmap=mmap)

    # ----------------------------------------------------------------- blocks
    def append_block(self, block: Block) -> None:
        """Register a :class:`Block` of :class:`Transaction` objects."""
        if self._block_numbers and block.number <= self._block_numbers[-1]:
            raise ValueError("block numbers must be strictly increasing")
        start = self._store.num_rows
        for tx in block.transactions:
            self._store.append_tx(tx)
        self._block_numbers.append(block.number)
        self._block_timestamps.append(block.timestamp)
        self._block_bounds.append((start, self._store.num_rows))

    def append_blocks_columnar(self, senders: "Sequence[str] | np.ndarray",
                               receivers: "Sequence[str] | np.ndarray",
                               values: np.ndarray, gas_prices: np.ndarray,
                               gas_used: np.ndarray, timestamps: np.ndarray,
                               is_contract_call: np.ndarray, submitted: np.ndarray,
                               transactions_per_block: int,
                               tx_hashes: Sequence[str] | None = None) -> None:
        """Bulk path: append rows column-wise, split into fixed-size blocks.

        Rows must already be in block (timestamp) order.  Consecutive runs of
        ``transactions_per_block`` rows become one block whose timestamp is
        its last transaction's timestamp and whose number continues from the
        last registered block — exactly the semantics of the object-path
        assembly loop.  ``tx_hashes=None`` keeps the generator's derived
        ``0x{row:064x}`` hashes without per-row storage.

        ``senders``/``receivers`` are either address strings (interned here,
        the historical path) or integer ndarrays of already-interned store
        account ids (the scenario engine's zero-Python-object path; validated
        against the store's address table).
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
        contract_count = sum(
            1 for entry in self._accounts.values()
            if (entry.account_type if isinstance(entry, Account)
                else entry) is AccountType.CONTRACT)
        return {
            "num_accounts": self.num_accounts,
            "num_contracts": contract_count,
            "num_blocks": self.num_blocks,
            "num_transactions": self.num_transactions,
            "num_labeled": len(self.labels),
            "label_counts": {cat.value: n for cat, n in self.labels.counts().items()},
        }
