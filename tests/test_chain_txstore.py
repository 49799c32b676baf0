"""Tests for the columnar transaction store backing the ledger."""

import pickle
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import Account, Block, ColumnarTxStore, Ledger, Transaction


def make_tx(i, sender="0xaa", receiver="0xbb", submitted=True, **kwargs):
    defaults = dict(value=1.0 + i, gas_price=20.0, gas_used=21_000,
                    timestamp=1000.0 + i, is_contract_call=False)
    defaults.update(kwargs)
    return Transaction(tx_hash=f"0x{i:04x}", sender=sender, receiver=receiver,
                       submitted=submitted, **defaults)


def ledger_of(*txs) -> Ledger:
    """A hand-built ledger holding ``txs`` as one block."""
    ledger = Ledger()
    ledger.append_block(Block(0, 2000.0, list(txs)))
    return ledger


COLUMNS = (("sender_id", np.int64), ("receiver_id", np.int64),
           ("value", np.float64), ("gas_price", np.float64),
           ("gas_used", np.int64), ("timestamp", np.float64),
           ("is_contract_call", np.bool_), ("submitted", np.bool_),
           ("block_number", np.int64))


def _chunk(store, pairs):
    """Append ``(sender, receiver)`` address pairs through the chunk path."""
    sender_ids, receiver_ids = store.intern_pairs([s for s, _ in pairs],
                                                  [r for _, r in pairs])
    n = len(pairs)
    return store.append_chunk(
        sender_ids, receiver_ids, np.arange(n, dtype=float) + 1.0,
        np.full(n, 20.0), np.full(n, 21_000), np.arange(n, dtype=float),
        np.zeros(n, dtype=bool), np.ones(n, dtype=bool),
        np.zeros(n, dtype=np.int64))


class TestInterning:
    def test_intern_many_assigns_dense_ids(self):
        store = ColumnarTxStore()
        assert store.intern_many(["0xaa", "0xbb", "0xaa"]).tolist() == [0, 1, 0]
        assert store.intern_many(["0xbb", "0xcc"]).tolist() == [1, 2]
        assert store.addresses == ["0xaa", "0xbb", "0xcc"]
        assert store.num_addresses == 3

    def test_intern_pairs_interleaves_first_appearance(self):
        store = ColumnarTxStore()
        sender_ids, receiver_ids = store.intern_pairs(
            ["0xs1", "0xs2"], ["0xr1", "0xs1"])
        # Scan order: s1, r1, s2, s1 -> ids 0, 1, 2, 0.
        assert sender_ids.tolist() == [0, 2]
        assert receiver_ids.tolist() == [1, 0]
        assert store.addresses == ["0xs1", "0xr1", "0xs2"]

    def test_address_id_of_unknown_is_none(self):
        assert ColumnarTxStore().address_id("0xnope") is None


class TestAppendPaths:
    def test_block_and_chunk_paths_agree(self):
        txs = [make_tx(0), make_tx(1, sender="0xcc", value=2.5),
               make_tx(2, receiver="0xcc", submitted=False)]
        block_store = ledger_of(*txs).store

        chunk_store = ColumnarTxStore()
        sender_ids, receiver_ids = chunk_store.intern_pairs(
            [t.sender for t in txs], [t.receiver for t in txs])
        chunk_store.append_chunk(
            sender_ids, receiver_ids,
            np.array([t.value for t in txs]),
            np.array([t.gas_price for t in txs]),
            np.array([t.gas_used for t in txs]),
            np.array([t.timestamp for t in txs]),
            np.array([t.is_contract_call for t in txs]),
            np.array([t.submitted for t in txs]),
            np.array([t.block_number for t in txs]),
            tx_hashes=[t.tx_hash for t in txs])

        a, b = block_store.columns(), chunk_store.columns()
        for name, dtype in COLUMNS:
            assert getattr(a, name).dtype == np.dtype(dtype), name
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert block_store.addresses == chunk_store.addresses == ["0xaa", "0xbb", "0xcc"]
        assert block_store.materialize_rows(range(3)) == txs
        assert chunk_store.materialize_rows(range(3)) == txs

    def test_materialize_round_trips_transactions(self):
        tx = make_tx(5, value=3.25, gas_price=42.5, is_contract_call=True,
                     block_number=9)
        assert ledger_of(tx).store.materialize(0) == tx

    def test_chunk_requires_interned_ids(self):
        store = ColumnarTxStore()
        with pytest.raises(ValueError):
            store.append_chunk(
                np.array([0]), np.array([1]), np.ones(1), np.ones(1),
                np.ones(1, dtype=np.int64), np.ones(1), np.zeros(1, dtype=bool),
                np.ones(1, dtype=bool), np.zeros(1, dtype=np.int64))

    def test_mixed_paths_keep_row_order(self):
        ledger = ledger_of(make_tx(0))
        store = ledger.store
        sender_ids, receiver_ids = store.intern_pairs(["0xcc"], ["0xdd"])
        store.append_chunk(sender_ids, receiver_ids, np.array([9.0]),
                           np.array([30.0]), np.array([21_000]),
                           np.array([2000.0]), np.array([False]),
                           np.array([True]), np.array([1]))
        ledger.append_block(Block(1, 3000.0, [make_tx(2, timestamp=3000.0)]))
        cols = store.columns()
        assert cols.timestamp.tolist() == [1000.0, 2000.0, 3000.0]
        assert store.num_rows == 3
        assert [tx.tx_hash for tx in ledger.transactions()] == \
            ["0x0000", f"0x{1:064x}", "0x0002"]


class TestHashes:
    def test_derived_hashes_cost_no_storage(self):
        store = ColumnarTxStore()
        sender_ids, receiver_ids = store.intern_pairs(["0xaa"] * 3, ["0xbb"] * 3)
        store.append_chunk(sender_ids, receiver_ids, np.ones(3), np.ones(3),
                           np.full(3, 21_000), np.arange(3, dtype=float),
                           np.zeros(3, dtype=bool), np.ones(3, dtype=bool),
                           np.zeros(3, dtype=np.int64))
        assert store.tx_hash(2) == f"0x{2:064x}"
        assert store.row_of_hash(f"0x{1:064x}") == 1
        assert store._explicit_hash_by_row == {}

    def test_explicit_hashes_round_trip(self):
        store = ledger_of(make_tx(0)).store
        assert store.tx_hash(0) == "0x0000"
        assert store.row_of_hash("0x0000") == 0

    def test_unknown_hash_raises(self):
        store = ledger_of(make_tx(0)).store
        with pytest.raises(KeyError):
            store.row_of_hash("0xmissing")
        # A derived-pattern hash beyond the row count is also unknown.
        with pytest.raises(KeyError):
            store.row_of_hash(f"0x{99:064x}")

    def test_non_canonical_derived_spelling_is_unknown(self):
        """Only the canonical lowercase zero-padded spelling resolves."""
        store = ColumnarTxStore()
        sender_ids, receiver_ids = store.intern_pairs(["0xaa"] * 300, ["0xbb"] * 300)
        store.append_chunk(sender_ids, receiver_ids, np.ones(300), np.ones(300),
                           np.full(300, 21_000), np.arange(300, dtype=float),
                           np.zeros(300, dtype=bool), np.ones(300, dtype=bool),
                           np.zeros(300, dtype=np.int64))
        assert store.row_of_hash(f"0x{255:064x}") == 255
        with pytest.raises(KeyError):
            store.row_of_hash("0x" + "0" * 62 + "FF")   # uppercase spelling of 255

    def test_explicit_hash_shadows_derived_pattern(self):
        """A row with an explicit hash must not be reachable via its derived one."""
        tx = Transaction(tx_hash="0xfeed", sender="0xaa", receiver="0xbb",
                         value=1.0, gas_price=1.0, gas_used=21_000, timestamp=1.0)
        store = ledger_of(tx).store
        assert store.row_of_hash("0xfeed") == 0
        with pytest.raises(KeyError):
            store.row_of_hash(f"0x{0:064x}")

    def test_block_keeps_derived_hashes_unstored(self):
        """A hand-built transaction whose hash is its row's derived one costs
        no storage, as in a generated ledger."""
        txs = [Transaction(tx_hash=f"0x{row:064x}", sender="0xaa", receiver="0xbb",
                           value=1.0, gas_price=1.0, gas_used=21_000,
                           timestamp=float(row)) for row in range(2)]
        txs.append(make_tx(2))
        store = ledger_of(*txs).store
        assert store._explicit_hash_by_row == {2: "0x0002"}
        assert [store.tx_hash(row) for row in range(3)] == [tx.tx_hash for tx in txs]


def _append_hashed(ledger: Ledger, hashes) -> None:
    """Append one row per entry of ``hashes`` through the columnar path; a
    ``None`` entry takes its row's derived hash."""
    first, n = ledger.num_transactions, len(hashes)
    ledger.append_blocks_columnar(
        ["0xaa"] * n, ["0xbb"] * n, values=np.ones(n), gas_prices=np.ones(n),
        gas_used=np.full(n, 21_000), timestamps=first + np.arange(n, dtype=float),
        is_contract_call=np.zeros(n, dtype=bool), submitted=np.ones(n, dtype=bool),
        transactions_per_block=2,
        tx_hashes=[f"0x{row:064x}" if h is None else h
                   for row, h in enumerate(hashes, first)])


def _hash_state(ledger: Ledger) -> tuple:
    store = ledger.store
    hashes = [store.tx_hash(row) for row in range(store.num_rows)]
    return (store.num_rows, ledger.data_version, list(ledger._block_numbers),
            list(ledger._block_bounds), hashes, list(map(store.row_of_hash, hashes)))


class TestHashUniqueness:
    """One transaction hash names one row: an append that would give a hash
    a second row raises before it writes anything."""

    @pytest.mark.parametrize("earlier, rejected", [
        ([None, None], [f"0x{0:064x}"]),        # an earlier row's derived hash
        (["0xfirst"], ["0xdup", "0xdup"]),      # a repeat within the chunk
        (["0xdup"], [None, "0xdup"]),           # another row's explicit hash
        ([None] * 5, [f"0x{9:064x}"]),          # a later row's derived hash
    ])
    def test_a_second_row_for_a_hash_is_rejected(self, earlier, rejected):
        ledger = Ledger()
        _append_hashed(ledger, earlier)
        before = _hash_state(ledger)
        with pytest.raises(ValueError, match="hash"):
            _append_hashed(ledger, rejected)
        assert _hash_state(ledger) == before
        # The store still appends, and every hash it answers names one row.
        _append_hashed(ledger, [None] * 6)
        _num_rows, _version, _numbers, _bounds, hashes, rows = _hash_state(ledger)
        assert len(set(hashes)) == len(hashes)
        assert rows == list(range(len(hashes)))

    def test_a_row_may_spell_out_its_own_derived_hash(self):
        ledger = Ledger()
        _append_hashed(ledger, [None, f"0x{1:064x}", "0xown"])
        assert ledger.store._explicit_hash_by_row == {2: "0xown"}
        assert ledger.store.row_of_hash(f"0x{1:064x}") == 1


class TestAddressIndex:
    def test_rows_in_block_order(self):
        store = ColumnarTxStore()
        _chunk(store, [("0xaa", "0xbb"), ("0xcc", "0xaa"), ("0xcc", "0xdd")])
        assert store.rows_for_address("0xaa").tolist() == [0, 1]
        assert store.rows_for_address("0xcc").tolist() == [1, 2]
        assert store.rows_for_address("0xzz").tolist() == []

    def test_self_transfer_indexed_once(self):
        store = ColumnarTxStore()
        _chunk(store, [("0xaa", "0xaa"), ("0xaa", "0xbb")])
        assert store.rows_for_address("0xaa").tolist() == [0, 1]

    def test_index_extends_after_append(self):
        store = ColumnarTxStore()
        _chunk(store, [("0xaa", "0xbb")])
        assert store.rows_for_address("0xaa").tolist() == [0]
        _chunk(store, [("0xbb", "0xaa")])
        assert store.rows_for_address("0xaa").tolist() == [0, 1]

    def test_intern_after_index_built_then_query(self):
        """Regression: an address interned *after* the index was built used to
        index past the CSR indptr (IndexError) — the validity key only watched
        the row count, and interning adds no rows."""
        store = ColumnarTxStore()
        _chunk(store, [("0xaa", "0xbb")])
        assert store.rows_for_address("0xaa").tolist() == [0]   # builds the index
        store.intern_many(["0xlate"])       # widens the table, no new rows
        assert store.rows_for_address("0xlate").tolist() == []
        assert store.rows_for_address("0xaa").tolist() == [0]

    def test_intern_then_append_then_query(self):
        """Regression companion: query between interning and the chunk append,
        and again after the rows land."""
        store = ColumnarTxStore()
        _chunk(store, [("0xaa", "0xbb")])
        store.rows_for_address("0xbb")                          # builds the index
        sender_ids, receiver_ids = store.intern_pairs(["0xcc"], ["0xdd"])
        assert store.rows_for_address("0xdd").tolist() == []    # was IndexError
        store.append_chunk(sender_ids, receiver_ids, np.array([9.0]),
                           np.array([30.0]), np.array([21_000]),
                           np.array([2000.0]), np.array([False]),
                           np.array([True]), np.array([1]))
        assert store.rows_for_address("0xdd").tolist() == [1]
        assert store.rows_for_address("0xaa").tolist() == [0]


class TestDataVersion:
    def test_every_append_call_bumps_the_epoch(self):
        ledger = Ledger()
        store = ledger.store
        assert store.data_version == 0
        ledger.append_block(Block(0, 1002.0, [make_tx(0), make_tx(1), make_tx(2)]))
        assert store.data_version == 1      # one bump per append *call*, not per row
        _chunk(store, [("0xcc", "0xdd"), ("0xcc", "0xee")])
        assert store.data_version == 2
        ledger.append_block(Block(1, 1003.0, []))
        assert store.data_version == 2      # an empty block appends nothing
        ledger.append_blocks_columnar(
            ["0xaa"] * 5, ["0xbb"] * 5, np.ones(5), np.ones(5), np.full(5, 21_000),
            1100.0 + np.arange(5.0), np.zeros(5, dtype=bool), np.ones(5, dtype=bool),
            transactions_per_block=2)
        assert store.data_version == 3      # one call, three blocks
        assert store.num_rows == 10

    def test_reads_do_not_bump_the_epoch(self):
        store = ledger_of(make_tx(0)).store
        before = store.data_version
        store.columns()
        store.rows_for_address("0xaa")
        store.intern_many(["0xreader"])     # interning alone is not ledger growth
        store.materialize(0)
        assert store.data_version == before


class TestTimespan:
    def test_submitted_timespan_tracks_min_max(self):
        ledger = Ledger()
        assert ledger.store.submitted_timespan() is None
        ledger.append_block(Block(0, 500.0, [make_tx(0, timestamp=500.0)]))
        ledger.append_block(Block(1, 500.0, [make_tx(1, timestamp=100.0)]))
        assert ledger.store.submitted_timespan() == (100.0, 500.0)

    def test_unsubmitted_rows_do_not_count(self):
        store = ledger_of(make_tx(0, timestamp=500.0, submitted=False)).store
        assert store.submitted_timespan() is None


class TestLedgerBoundary:
    def test_blocks_materialise_lazily_and_equal_object_path(self):
        ledger = Ledger()
        ledger.add_account(Account("0xaa"))
        block = Block(3, 1010.0, [make_tx(0), make_tx(1)])
        ledger.append_block(block)
        [rebuilt] = ledger.blocks
        assert rebuilt.number == 3
        assert rebuilt.timestamp == 1010.0
        assert rebuilt.transactions == block.transactions

    def test_append_block_rebuilds_a_generated_ledger(self, small_ledger):
        """Feeding a generated ledger's materialised blocks back through
        ``append_block`` rebuilds its columns, hashes, block index and span."""
        rebuilt = Ledger(genesis_timestamp=small_ledger.genesis_timestamp)
        rebuilt.store.intern_many(small_ledger.store.addresses)
        for block in small_ledger.blocks:
            rebuilt.append_block(block)
        assert rebuilt.store.addresses == small_ledger.store.addresses
        a, b = rebuilt.tx_columns(), small_ledger.tx_columns()
        for name, _ in COLUMNS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert rebuilt.store._explicit_hash_by_row == {}
        assert rebuilt._block_numbers == small_ledger._block_numbers
        assert rebuilt._block_timestamps == small_ledger._block_timestamps
        assert rebuilt._block_bounds == small_ledger._block_bounds
        assert rebuilt.timespan() == small_ledger.timespan()
        assert rebuilt.data_version == small_ledger.num_blocks
        assert list(rebuilt.transactions(include_unsubmitted=True)) == \
            list(small_ledger.transactions(include_unsubmitted=True))

    def test_columnar_blocks_continue_numbering(self):
        ledger = Ledger()
        ledger.append_block(Block(4, 1000.0, [make_tx(0)]))
        ledger.append_blocks_columnar(
            ["0xaa"] * 3, ["0xbb"] * 3, np.ones(3), np.ones(3),
            np.full(3, 21_000), np.array([1100.0, 1200.0, 1300.0]),
            np.zeros(3, dtype=bool), np.ones(3, dtype=bool),
            transactions_per_block=2)
        numbers = [b.number for b in ledger.blocks]
        assert numbers == [4, 5, 6]
        assert [b.timestamp for b in ledger.blocks][1:] == [1200.0, 1300.0]
        assert ledger.num_transactions == 4


class TestGrowableColumns:
    def test_negative_ids_are_rejected(self):
        """Regression: only the upper bound was checked, so an id of -1 was
        accepted, read back as the last interned address, and broke the
        per-address index with numpy's raw bincount error."""
        store = ColumnarTxStore()
        store.intern_pairs(["0xaa"], ["0xbb"])
        for sender, receiver in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="interned"):
                store.append_chunk(
                    np.array([sender]), np.array([receiver]), np.ones(1),
                    np.ones(1), np.ones(1, dtype=np.int64), np.ones(1),
                    np.zeros(1, dtype=bool), np.ones(1, dtype=bool),
                    np.zeros(1, dtype=np.int64))
        assert store.num_rows == 0 and store.data_version == 0
        assert store.rows_for_address("0xaa").tolist() == []

    def test_small_append_after_a_read_shares_the_buffers(self):
        """A read after an append copies nothing: the second small append
        lands in spare capacity, so the earlier snapshot and the new one
        view the same memory, and the earlier one keeps its rows."""
        store = ColumnarTxStore()
        _chunk(store, [("0xaa", "0xbb")] * 8)
        _chunk(store, [("0xbb", "0xcc")] * 4)
        before = store.columns()
        kept = {name: getattr(before, name).copy() for name, _ in COLUMNS}
        _chunk(store, [("0xcc", "0xaa")])
        after = store.columns()
        assert len(before) == 12 and len(after) == 13
        for name, _ in COLUMNS:
            assert np.shares_memory(getattr(before, name), getattr(after, name)), name
            assert getattr(before, name).tobytes() == kept[name].tobytes(), name
            assert not getattr(after, name).flags.writeable

    def test_reads_without_appends_return_the_same_snapshot(self):
        store = ColumnarTxStore()
        _chunk(store, [("0xaa", "0xbb")])
        assert store.columns() is store.columns()
        _chunk(store, [("0xbb", "0xaa")])
        assert len(store.columns()) == 2

    def test_pickle_carries_only_the_live_rows(self):
        store = ColumnarTxStore()
        _chunk(store, [("0xaa", "0xbb")] * 100)
        _chunk(store, [("0xbb", "0xaa")])             # doubles the capacity
        assert len(store._buffers["value"]) >= 200
        clone = pickle.loads(pickle.dumps(store))
        assert all(len(buffer) == 101 for buffer in clone._buffers.values())
        for name, _ in COLUMNS:
            np.testing.assert_array_equal(getattr(clone.columns(), name),
                                          getattr(store.columns(), name))
        _chunk(clone, [("0xcc", "0xaa")])             # the clone keeps growing
        assert clone.num_rows == 102 and store.num_rows == 101


# Store programs over six addresses (indices 6 and 7 are interned only):
# a one-Transaction block through Ledger.append_block (sender, receiver,
# value, submitted, explicit hash), a chunk of (sender, receiver, value,
# submitted) rows through the store or through Ledger.append_blocks_columnar,
# an intern, a read, a pickle round trip, or a sync followed by Ledger.open.
_row = st.tuples(st.integers(0, 5), st.integers(0, 5),
                 st.floats(0.0, 100.0, allow_nan=False), st.booleans())
store_op = st.one_of(
    st.tuples(st.just("tx"), _row, st.booleans()),
    st.tuples(st.just("chunk"), st.lists(_row, max_size=12), st.booleans()),
    st.tuples(st.just("intern"), st.integers(0, 7)),
    st.tuples(st.just("read")),
    st.tuples(st.just("pickle")),
    st.tuples(st.just("persist")),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(store_op, min_size=1, max_size=14))
def test_store_programs_match_a_reference_concatenation(program):
    """Whatever the interleaving of appends, interning, reads, pickles and
    sync -> open -> append, ``columns()`` equals a plain concatenation of
    every appended row (dtypes included), and every snapshot taken earlier
    keeps its rows bit for bit."""
    addresses = [f"0x{i:02x}" for i in range(8)]
    reference = {name: [] for name, _ in COLUMNS}
    interned: dict[str, int] = {}
    snapshots = []

    def intern(address):
        return interned.setdefault(address, len(interned))

    def expect(rows, block_numbers):
        for (sender, receiver, value, submitted), block in zip(rows, block_numbers):
            reference["sender_id"].append(intern(addresses[sender]))
            reference["receiver_id"].append(intern(addresses[receiver]))
            reference["value"].append(value)
            reference["gas_price"].append(20.0)
            reference["gas_used"].append(21_000)
            reference["timestamp"].append(1000.0 + len(reference["timestamp"]))
            reference["is_contract_call"].append(False)
            reference["submitted"].append(submitted)
            reference["block_number"].append(block)

    def check(cols):
        assert len(cols) == len(reference["value"])
        for name, dtype in COLUMNS:
            column = getattr(cols, name)
            assert column.dtype == np.dtype(dtype), name
            assert column.tobytes() == np.array(reference[name], dtype=dtype).tobytes(), name
        for snapshot, frozen in snapshots:
            for name, _ in COLUMNS:
                assert getattr(snapshot, name).tobytes() == frozen[name], name

    with tempfile.TemporaryDirectory() as directory:
        ledger = Ledger()
        for op in program:
            store = ledger.store
            kind = op[0]
            if kind == "tx":
                (sender, receiver, value, submitted), explicit = op[1], op[2]
                row = store.num_rows
                next_block = ledger._block_numbers[-1] + 1 if ledger.num_blocks else 0
                ledger.append_block(Block(next_block, 1000.0 + row, [Transaction(
                    tx_hash=f"0xexplicit{row}" if explicit else f"0x{row:064x}",
                    sender=addresses[sender], receiver=addresses[receiver],
                    value=value, gas_price=20.0, gas_used=21_000,
                    timestamp=1000.0 + row, block_number=row,
                    submitted=submitted)]))
                expect([op[1]], [row])
            elif kind == "chunk" and op[2]:
                rows = op[1]
                sender_ids, receiver_ids = store.intern_pairs(
                    [addresses[r[0]] for r in rows], [addresses[r[1]] for r in rows])
                first = store.num_rows
                n = len(rows)
                store.append_chunk(
                    sender_ids, receiver_ids, np.array([r[2] for r in rows], dtype=float),
                    np.full(n, 20.0), np.full(n, 21_000),
                    1000.0 + first + np.arange(n, dtype=float),
                    np.zeros(n, dtype=bool), np.array([r[3] for r in rows], dtype=bool),
                    first + np.arange(n, dtype=np.int64))
                expect(rows, range(first, first + n))
            elif kind == "chunk" and op[1]:
                rows = op[1]
                first = store.num_rows
                n = len(rows)
                next_block = ledger._block_numbers[-1] + 1 if ledger.num_blocks else 0
                ledger.append_blocks_columnar(
                    [addresses[r[0]] for r in rows], [addresses[r[1]] for r in rows],
                    values=np.array([r[2] for r in rows], dtype=float),
                    gas_prices=np.full(n, 20.0), gas_used=np.full(n, 21_000),
                    timestamps=1000.0 + first + np.arange(n, dtype=float),
                    is_contract_call=np.zeros(n, dtype=bool),
                    submitted=np.array([r[3] for r in rows], dtype=bool),
                    transactions_per_block=3)
                expect(rows, [next_block + i // 3 for i in range(n)])
            elif kind == "intern":
                address = addresses[op[1]]
                assert store.intern_many([address]).tolist() == [intern(address)]
            elif kind == "read":
                cols = ledger.tx_columns()
                check(cols)
                snapshots.append((cols, {name: getattr(cols, name).tobytes()
                                         for name, _ in COLUMNS}))
            elif kind == "pickle":
                ledger = pickle.loads(pickle.dumps(ledger))
            elif kind == "persist":
                ledger.sync(None if ledger.backend else directory)
                ledger = Ledger.open(directory)
            assert ledger.store.addresses == list(interned)
            assert ledger.store.num_rows == len(reference["value"])
        check(ledger.tx_columns())
