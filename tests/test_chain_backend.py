"""Durability tests: ``LedgerBackend`` sync/open round-trips, bit for bit.

The contract under test (ISSUE: durable ledger backend): ``Ledger.open(path)``
after ``ledger.sync(path)`` reproduces the column arrays, the interning order,
the block bounds, the sparse explicit-hash table, the submitted timespan and
the ``data_version`` epoch exactly — including after append → sync → reopen →
append → sync cycles — and a later sync appends only the new entries.
"""

import json
import pickle
import re
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import (
    Account,
    AccountCategory,
    AccountType,
    BackendFormatError,
    Block,
    Ledger,
    LedgerBackend,
    LedgerConfig,
    Transaction,
    generate_ledger,
)
from repro.chain.txstore import _COLUMN_DTYPES

COLUMNS = tuple(name for name, _ in _COLUMN_DTYPES)


def assert_ledger_equal(actual: Ledger, expected: Ledger) -> None:
    """Bit-for-bit equality over everything the backend persists."""
    a_cols, e_cols = actual.tx_columns(), expected.tx_columns()
    assert actual.num_transactions == expected.num_transactions
    for name in COLUMNS:
        np.testing.assert_array_equal(
            np.asarray(getattr(a_cols, name)), np.asarray(getattr(e_cols, name)),
            err_msg=f"column {name!r} diverged")
    assert actual.store.addresses == expected.store.addresses
    assert actual.store._explicit_hash_by_row == expected.store._explicit_hash_by_row
    assert actual.store._row_by_explicit_hash == expected.store._row_by_explicit_hash
    assert actual.store.submitted_timespan() == expected.store.submitted_timespan()
    assert actual.data_version == expected.data_version
    assert actual._block_numbers == expected._block_numbers
    assert actual._block_timestamps == expected._block_timestamps
    assert ([tuple(b) for b in actual._block_bounds]
            == [tuple(b) for b in expected._block_bounds])
    assert actual.block_interval == expected.block_interval
    assert actual.genesis_timestamp == expected.genesis_timestamp
    assert ([(a.address, a.account_type) for a in actual.accounts]
            == [(a.address, a.account_type) for a in expected.accounts])
    assert list(actual.labels.items()) == list(expected.labels.items())


def small_generated_ledger(seed: int = 3) -> Ledger:
    config = LedgerConfig().scaled(0.05)
    config.seed = seed
    return generate_ledger(config)


def append_growth(ledger: Ledger, seed: int, n: int = 40) -> None:
    """Append ``n`` more transactions in new blocks (mixed old/new addresses)."""
    rng = np.random.default_rng(seed)
    existing = ledger.store.addresses
    senders = [existing[rng.integers(len(existing))] if rng.random() < 0.7
               else f"0xgrow{seed}_{i}" for i in range(n)]
    receivers = [existing[rng.integers(len(existing))] if rng.random() < 0.7
                 else f"0xgrow{seed}_r{i}" for i in range(n)]
    start_ts = ledger.timespan()[1] + ledger.block_interval
    ledger.append_blocks_columnar(
        senders, receivers,
        values=rng.uniform(0.1, 10.0, n),
        gas_prices=rng.uniform(10.0, 50.0, n),
        gas_used=np.full(n, 21_000, dtype=np.int64),
        timestamps=start_ts + np.arange(n, dtype=np.float64),
        is_contract_call=np.zeros(n, dtype=bool),
        submitted=rng.random(n) > 0.05,
        transactions_per_block=16)


class TestRoundTrip:
    def test_generated_ledger_round_trips(self, tmp_path):
        ledger = small_generated_ledger()
        manifest = ledger.sync(tmp_path / "chain")
        assert manifest["num_rows"] == ledger.num_transactions
        reopened = Ledger.open(tmp_path / "chain")
        assert_ledger_equal(reopened, ledger)
        assert reopened.summary() == ledger.summary()
        assert reopened.backend is not None
        assert reopened.backend.path == ledger.backend.path

    def test_sync_attaches_backend_once(self, tmp_path):
        ledger = small_generated_ledger()
        with pytest.raises(RuntimeError, match="no backend"):
            ledger.sync()
        ledger.sync(tmp_path / "chain")
        append_growth(ledger, seed=1)
        ledger.sync()                       # reuses the attached backend
        assert_ledger_equal(Ledger.open(tmp_path / "chain"), ledger)

    def test_explicit_hashes_round_trip_sparsely(self, tmp_path):
        ledger = Ledger()
        txs = [Transaction(tx_hash="0xfeed", sender="0xaa", receiver="0xbb",
                           value=1.5, gas_price=20.0, gas_used=21_000,
                           timestamp=1000.0),
               Transaction(tx_hash=f"0x{1:064x}", sender="0xbb", receiver="0xcc",
                           value=2.5, gas_price=20.0, gas_used=21_000,
                           timestamp=1012.0)]
        ledger.append_block(Block(0, 1012.0, txs))
        ledger.sync(tmp_path / "chain")
        reopened = Ledger.open(tmp_path / "chain")
        # Only the deviating hash occupies a dict entry; the derived one stays free.
        assert reopened.store._explicit_hash_by_row == {0: "0xfeed"}
        assert reopened.get_transaction("0xfeed").sender == "0xaa"
        assert reopened.get_transaction(f"0x{1:064x}").sender == "0xbb"

    def test_accounts_and_labels_round_trip(self, tmp_path):
        ledger = Ledger()
        ledger.add_account(Account("0xaa"))
        ledger.add_account(Account("0xcontract", AccountType.CONTRACT))
        ledger.labels.add("0xaa", AccountCategory.EXCHANGE)
        ledger.append_block(Block(0, 1000.0, [Transaction(
            tx_hash=f"0x{0:064x}", sender="0xaa", receiver="0xcontract",
            value=1.0, gas_price=1.0, gas_used=21_000, timestamp=1000.0,
            is_contract_call=True)]))
        ledger.sync(tmp_path / "chain")
        reopened = Ledger.open(tmp_path / "chain")
        assert reopened.is_contract("0xcontract")
        assert not reopened.is_contract("0xaa")
        assert reopened.get_account("0xaa") == Account("0xaa", AccountType.EOA)
        assert reopened.labels.get("0xaa") is AccountCategory.EXCHANGE

    def test_empty_ledger_round_trips(self, tmp_path):
        ledger = Ledger(block_interval=15.0, genesis_timestamp=123.0)
        ledger.sync(tmp_path / "chain")
        reopened = Ledger.open(tmp_path / "chain")
        assert_ledger_equal(reopened, ledger)
        assert reopened.timespan() == (123.0, 123.0)

    @pytest.mark.parametrize("opened", [False, True], ids=["in memory", "opened"])
    def test_ledger_pickles_whole(self, tmp_path, opened):
        """The parallel dataset build pickles its ledger into every worker."""
        ledger = small_generated_ledger()
        ledger.sync(tmp_path / "chain")
        if opened:
            ledger = Ledger.open(tmp_path / "chain")
        clone = pickle.loads(pickle.dumps(ledger))
        assert_ledger_equal(clone, ledger)
        assert clone.summary() == ledger.summary()


class TestAppendReopenAppend:
    def test_append_reopen_append_matches_in_memory_shadow(self, tmp_path):
        ledger = small_generated_ledger()
        shadow = small_generated_ledger()
        ledger.sync(tmp_path / "chain")

        append_growth(ledger, seed=2)
        append_growth(shadow, seed=2)
        ledger.sync()
        reopened = Ledger.open(tmp_path / "chain")
        assert_ledger_equal(reopened, shadow)

        # The restarted ledger keeps growing the same directory.
        append_growth(reopened, seed=3)
        append_growth(shadow, seed=3)
        reopened.sync()
        assert_ledger_equal(Ledger.open(tmp_path / "chain"), shadow)

    def test_reopened_ledger_serves_address_queries(self, tmp_path):
        ledger = small_generated_ledger()
        ledger.sync(tmp_path / "chain")
        reopened = Ledger.open(tmp_path / "chain")
        address = ledger.store.addresses[0]
        assert (reopened.store.rows_for_address(address).tolist()
                == ledger.store.rows_for_address(address).tolist())
        # Appends on top of memory-mapped columns extend the index too.
        append_growth(reopened, seed=4)
        expected = reopened.tx_columns()
        rows = reopened.store.rows_for_address(address)
        mask = ((expected.sender_id[rows] == 0)
                | (expected.receiver_id[rows] == 0))
        assert mask.all()

    def test_later_sync_appends_only_the_delta(self, tmp_path):
        ledger = small_generated_ledger()
        ledger.sync(tmp_path / "chain")
        sizes = {p.name: p.stat().st_size
                 for p in (tmp_path / "chain").iterdir()
                 if p.name.startswith("col_")}
        n_before = ledger.num_transactions
        append_growth(ledger, seed=5, n=24)
        ledger.sync()
        for name, dtype in _COLUMN_DTYPES:
            path = tmp_path / "chain" / f"col_{name}.bin"
            itemsize = np.dtype(dtype).itemsize
            assert path.stat().st_size - sizes[path.name] == 24 * itemsize, name
        manifest = LedgerBackend(tmp_path / "chain").read_manifest()
        assert manifest["num_rows"] == n_before + 24

    def test_sync_of_shorter_ledger_is_refused(self, tmp_path):
        ledger = small_generated_ledger()
        ledger.sync(tmp_path / "chain")
        fresh = Ledger()
        with pytest.raises(BackendFormatError, match="refusing to sync"):
            fresh.sync(tmp_path / "chain")


class TestCrashConsistencyAndErrors:
    def test_open_missing_directory_raises(self, tmp_path):
        with pytest.raises(BackendFormatError, match="no committed manifest"):
            Ledger.open(tmp_path / "nothing")

    def test_format_version_mismatch_raises(self, tmp_path):
        ledger = small_generated_ledger()
        ledger.sync(tmp_path / "chain")
        manifest_path = tmp_path / "chain" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(BackendFormatError, match="format 99"):
            Ledger.open(tmp_path / "chain")

    def test_truncated_column_file_raises(self, tmp_path):
        ledger = small_generated_ledger()
        ledger.sync(tmp_path / "chain")
        path = tmp_path / "chain" / "col_value.bin"
        with open(path, "r+b") as f:
            f.truncate(path.stat().st_size - 8)
        with pytest.raises(BackendFormatError, match="shorter than"):
            Ledger.open(tmp_path / "chain")

    def test_torn_trailing_bytes_are_invisible_and_healed(self, tmp_path):
        """Bytes beyond the manifest's committed prefix (a torn write from a
        crashed sync) are never observed and are truncated by the next sync."""
        ledger = small_generated_ledger()
        shadow = small_generated_ledger()
        ledger.sync(tmp_path / "chain")
        for name in ("col_value.bin", "addresses.txt", "blocks.bin",
                     "accounts.txt", "account_types.bin", "labels.txt",
                     "label_categories.bin"):
            with open(tmp_path / "chain" / name, "ab") as f:
                f.write(b"\xde\xad\xbe\xef")
        assert_ledger_equal(Ledger.open(tmp_path / "chain", mmap=False), shadow)
        append_growth(ledger, seed=6)
        append_growth(shadow, seed=6)
        ledger.sync()                       # truncates the garbage, then appends
        assert_ledger_equal(Ledger.open(tmp_path / "chain"), shadow)

    @pytest.mark.parametrize("name", ["accounts.txt", "account_types.bin",
                                      "labels.txt", "label_categories.bin"])
    def test_short_account_or_label_file_raises(self, tmp_path, name):
        ledger = small_generated_ledger()
        ledger.sync(tmp_path / "chain")
        path = tmp_path / "chain" / name
        with open(path, "r+b") as f:
            f.truncate(path.stat().st_size - 1)
        with pytest.raises(BackendFormatError, match=name):
            Ledger.open(tmp_path / "chain")

    @pytest.mark.parametrize("name", ["addresses.txt", "blocks.bin", "accounts.txt",
                                      "account_types.bin", "labels.txt",
                                      "label_categories.bin",
                                      *(f"col_{name}.bin" for name in COLUMNS)])
    def test_missing_committed_file_raises(self, tmp_path, name):
        ledger = small_generated_ledger()
        ledger.sync(tmp_path / "chain")
        committed = {p.name for p in (tmp_path / "chain").iterdir()} - {"manifest.json"}
        assert len(committed) == 15 and name in committed
        (tmp_path / "chain" / name).unlink()
        with pytest.raises(BackendFormatError, match=f"{re.escape(name)} is missing"):
            Ledger.open(tmp_path / "chain")

    @pytest.mark.parametrize("name", ["addresses.txt", "accounts.txt", "labels.txt"])
    def test_address_file_not_utf8_raises(self, tmp_path, name):
        ledger = small_generated_ledger()
        ledger.sync(tmp_path / "chain")
        with open(tmp_path / "chain" / name, "r+b") as f:
            f.seek(5)
            f.write(b"\xff")
        with pytest.raises(BackendFormatError, match=f"{name} is not UTF-8"):
            Ledger.open(tmp_path / "chain")

    @pytest.mark.parametrize("name", ["addresses.txt", "accounts.txt", "labels.txt"])
    def test_address_file_a_line_short_raises(self, tmp_path, name):
        ledger = small_generated_ledger()
        ledger.sync(tmp_path / "chain")
        path = tmp_path / "chain" / name
        path.write_bytes(path.read_bytes().replace(b"\n", b"x", 1))
        with pytest.raises(BackendFormatError, match=f"{name} holds .* complete lines"):
            Ledger.open(tmp_path / "chain")

    @pytest.mark.parametrize("name, members", [("account_types.bin", 2),
                                               ("label_categories.bin", 9)])
    def test_code_past_its_enum_raises(self, tmp_path, name, members):
        ledger = small_generated_ledger()
        ledger.sync(tmp_path / "chain")
        with open(tmp_path / "chain" / name, "r+b") as f:
            f.write(bytes([members]))
        with pytest.raises(BackendFormatError, match=f"code {members}"):
            Ledger.open(tmp_path / "chain")

    def test_version_1_directory_raises_naming_both_versions(self, tmp_path):
        ledger = small_generated_ledger()
        ledger.sync(tmp_path / "chain")
        manifest_path = tmp_path / "chain" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(BackendFormatError, match="format 1; this build reads format 2"):
            Ledger.open(tmp_path / "chain")

    def test_mmap_false_survives_directory_removal(self, tmp_path):
        import shutil

        ledger = small_generated_ledger()
        ledger.sync(tmp_path / "chain")
        reopened = Ledger.open(tmp_path / "chain", mmap=False)
        shutil.rmtree(tmp_path / "chain")
        cols = reopened.tx_columns()
        np.testing.assert_array_equal(
            np.asarray(cols.value), np.asarray(ledger.tx_columns().value))


#: The on-disk code of every enum member.  A code is its member's declaration
#: index, so appending members keeps written directories readable, while
#: reordering or inserting them would misread every one of them.
PINNED_CODES = [(AccountType.EOA, 0), (AccountType.CONTRACT, 1),
                (AccountCategory.EXCHANGE, 0), (AccountCategory.ICO_WALLET, 1),
                (AccountCategory.MINING, 2), (AccountCategory.PHISH_HACK, 3),
                (AccountCategory.BRIDGE, 4), (AccountCategory.DEFI, 5),
                (AccountCategory.WASH_TRADING, 6),
                (AccountCategory.AIRDROP_FARMING, 7), (AccountCategory.MIXER, 8)]


class TestCodeColumns:
    def test_every_member_has_a_pinned_code(self):
        assert {member for member, _ in PINNED_CODES} == {*AccountType,
                                                          *AccountCategory}

    @pytest.mark.parametrize("member, code", PINNED_CODES,
                             ids=[member.name for member, _ in PINNED_CODES])
    def test_member_is_stored_as_its_pinned_code(self, tmp_path, member, code):
        is_type = isinstance(member, AccountType)
        ledger = Ledger()
        if is_type:
            ledger.add_account(Account("0xaa", member))
        else:
            ledger.labels.add("0xaa", member)
        ledger.sync(tmp_path / "chain")
        column = "account_types.bin" if is_type else "label_categories.bin"
        assert (tmp_path / "chain" / column).read_bytes() == bytes([code])
        reopened = Ledger.open(tmp_path / "chain")
        if is_type:
            assert reopened.get_account("0xaa").account_type is member
        else:
            assert reopened.labels.get("0xaa") is member


def ledger_holding(address: str) -> Ledger:
    """A one-transaction ledger with ``address`` interned, registered and
    labelled."""
    ledger = Ledger()
    ledger.add_account(Account(address, AccountType.CONTRACT))
    ledger.labels.add(address, AccountCategory.MIXER)
    ledger.append_block(Block(0, 1000.0, [Transaction(
        tx_hash=f"0x{0:064x}", sender=address, receiver="0xbb", value=1.0,
        gas_price=1.0, gas_used=21_000, timestamp=1000.0)]))
    return ledger


#: Every character ``str.splitlines`` breaks a line on, except ``"\n"``.
OTHER_LINE_BOUNDARIES = ["\r", "\x85", "\u2028", "\x0b", "\x0c", "\x1c",
                         "\x1d", "\x1e", "\u2029"]


class TestAddressLineBoundaries:
    def test_boundary_list_is_complete(self):
        assert sorted(OTHER_LINE_BOUNDARIES) == [
            c for c in map(chr, range(sys.maxunicode + 1))
            if c != "\n" and len(f"a{c}b".splitlines()) == 2]

    @pytest.mark.parametrize("address", [f"0xa{boundary}b"
                                         for boundary in OTHER_LINE_BOUNDARIES])
    def test_line_boundary_other_than_newline_round_trips(self, tmp_path, address):
        ledger = ledger_holding(address)
        ledger.sync(tmp_path / "chain")
        assert_ledger_equal(Ledger.open(tmp_path / "chain"), ledger)

    @pytest.mark.parametrize("where", ["interning table", "registry", "label cloud"])
    def test_newline_refuses_sync_and_writes_nothing(self, tmp_path, where):
        ledger = ledger_holding("0xaa")
        ledger.sync(tmp_path / "chain")
        committed = Ledger.open(tmp_path / "chain")
        files = {p.name: p.read_bytes() for p in (tmp_path / "chain").iterdir()}
        bad = "0xa\nb"
        ledger.append_block(Block(1, 1012.0, [Transaction(
            tx_hash=f"0x{1:064x}", sender="0xaa",
            receiver=bad if where == "interning table" else "0xbb",
            value=2.0, gas_price=1.0, gas_used=21_000, timestamp=1012.0)]))
        if where == "registry":
            ledger.add_accounts_bulk([bad], AccountType.EOA)
        elif where == "label cloud":
            ledger.labels.add(bad, AccountCategory.EXCHANGE)
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            ledger.sync()
        assert {p.name: p.read_bytes()
                for p in (tmp_path / "chain").iterdir()} == files
        assert_ledger_equal(Ledger.open(tmp_path / "chain"), committed)


# ---------------------------------------------------------------- property test

# One transaction: (sender idx, receiver idx, value, timestamp, submitted,
# wants an explicit hash) over a small address universe so interning-order
# collisions across segments are frequent.
tx_record = st.tuples(
    st.integers(0, 5), st.integers(0, 5),
    st.floats(0.0, 100.0, allow_nan=False),
    st.floats(1.0, 1000.0, allow_nan=False),
    st.booleans(), st.booleans())

# One account registration: (through add_accounts_bulk?, contract?).
registration = st.tuples(st.booleans(), st.booleans())

# One segment: (use the columnar bulk path?, transactions, reopen afterwards?,
# registrations, indices of universe addresses to label).
segment = st.tuples(st.booleans(),
                    st.lists(tx_record, min_size=1, max_size=6),
                    st.booleans(),
                    st.lists(registration, max_size=4),
                    st.lists(st.integers(0, 5), max_size=3))
program = st.lists(segment, min_size=1, max_size=5)


def _apply_segment(ledger: Ledger, columnar: bool, records, counter: int) -> None:
    """Append one block of ``records``; ``counter`` makes hashes/blocks unique."""
    senders = [f"0xacct{r[0]}" for r in records]
    receivers = [f"0xacct{r[1]}" for r in records]
    hashes = [f"0xexplicit{counter}_{i}" if r[5] else f"0x{ledger.num_transactions + i:064x}"
              for i, r in enumerate(records)]
    if columnar:
        n = len(records)
        ledger.append_blocks_columnar(
            senders, receivers,
            values=np.array([r[2] for r in records]),
            gas_prices=np.full(n, 20.0),
            gas_used=np.full(n, 21_000, dtype=np.int64),
            timestamps=np.array([r[3] for r in records]),
            is_contract_call=np.zeros(n, dtype=bool),
            submitted=np.array([r[4] for r in records]),
            transactions_per_block=n,
            tx_hashes=hashes)
    else:
        number = ledger._block_numbers[-1] + 1 if ledger._block_numbers else 0
        ledger.append_block(Block(number, records[-1][3], [
            Transaction(tx_hash=hashes[i], sender=senders[i],
                        receiver=receivers[i], value=r[2], gas_price=20.0,
                        gas_used=21_000, timestamp=r[3], submitted=r[4])
            for i, r in enumerate(records)]))


def _register(ledger: Ledger, registrations, labelled, counter: int) -> None:
    """Register fresh accounts (bulk ones in one call per kind) and label
    universe addresses, each always with the same category."""
    bulk: dict[AccountType, list[str]] = {}
    for i, (through_bulk, contract) in enumerate(registrations):
        address = f"0xreg{counter}_{i}"
        kind = AccountType.CONTRACT if contract else AccountType.EOA
        if through_bulk:
            bulk.setdefault(kind, []).append(address)
        else:
            ledger.add_account(Account(address, kind))
    for kind, addresses in bulk.items():
        ledger.add_accounts_bulk(addresses, kind)
    categories = list(AccountCategory)
    for r in labelled:
        ledger.labels.add(f"0xacct{r}", categories[r % len(categories)])


@settings(max_examples=30, deadline=None)
@given(program)
def test_sync_open_cycles_preserve_every_ledger_bit(segments):
    """Arbitrary append/sync/reopen interleavings equal the in-memory shadow.

    The live ledger is persisted after every segment and sometimes replaced by
    ``Ledger.open`` of its own directory; the shadow only ever sees the
    in-memory appends.  Whatever the interleaving, the final reopened state
    must be bit-identical — columns, interning order, block bounds, sparse
    hashes, timespan, the ``data_version`` epoch, and the registry and label
    cloud, which every segment may grow too.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/chain"
        live = Ledger()
        shadow = Ledger()
        for counter, (columnar, records, reopen, registrations,
                      labelled) in enumerate(segments):
            for ledger in (live, shadow):
                _apply_segment(ledger, columnar, records, counter)
                _register(ledger, registrations, labelled, counter)
            live.sync(path)
            if reopen:
                live = Ledger.open(path)
        assert_ledger_equal(Ledger.open(path, mmap=False), shadow)
        assert_ledger_equal(live, shadow)
