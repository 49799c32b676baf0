"""Durable on-disk backend for the columnar ledger.

``LedgerBackend`` persists a :class:`~repro.chain.ledger.Ledger` — the
columnar transaction store, the account registry and the label cloud — as a
directory of append-only files fronted by a JSON manifest:

``manifest.json``
    Scalar state written **last** on every sync (atomic temp-file +
    ``os.replace``): row/address/block/account/label counts, the byte length
    of each address file's valid prefix, the incrementally maintained
    submitted-timestamp span, the store's :attr:`data_version` epoch, block
    interval / genesis timestamp, and the sparse explicit-hash table.
``col_<name>.bin``
    One raw little-endian binary file per transaction column
    (``sender_id`` ... ``block_number``), append-only.  On
    :meth:`load` they are memory-mapped read-only, so opening a
    million-transaction ledger costs file metadata + page table setup — the
    column data pages in lazily as consumers touch it.
``addresses.txt``
    The interning table, one address per line, in id order (append-only).
``blocks.bin``
    Per-block ``(number, timestamp, start_row, stop_row)`` records as one
    structured little-endian array (append-only).
``accounts.txt`` + ``account_types.bin``, ``labels.txt`` + ``label_categories.bin``
    The account registry and the label cloud in insertion order: addresses
    as in ``addresses.txt``, and one uint8 code per address, the declaration
    index of its :class:`AccountType` or :class:`AccountCategory` member.

Address files split on ``"\\n"`` only; :meth:`LedgerBackend.sync` refuses
an address holding one before it writes anything.  :meth:`LedgerBackend.load`
parses no per-record text, and checks each file's line count and each code
column's length against the manifest, and every code against its enum.  A
committed file that is missing, or an address file that is not UTF-8,
raises :class:`BackendFormatError` naming the file.

Crash consistency: data files are append-only and the manifest's counts and
byte lengths define each file's *valid prefix*.  A sync that dies before the
manifest rename leaves the previous manifest in place, pointing at the old
consistent prefix; the next sync truncates every file back to its valid
prefix before appending, so torn trailing writes can never be observed.

Append cost is O(new rows): :meth:`sync` slices each column at the
manifest's row count and appends only the new bytes (likewise for new
addresses, blocks, accounts and labels).
"""

from __future__ import annotations

import itertools
import json
import os

from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.chain.accounts import AccountType
from repro.chain.labelcloud import AccountCategory
from repro.chain.txstore import _COLUMN_DTYPES, ColumnarTxStore

if TYPE_CHECKING:                           # import cycle: ledger imports us lazily
    from repro.chain.ledger import Ledger

__all__ = ["LedgerBackend", "BackendFormatError"]

#: Bump when the directory layout changes incompatibly.
FORMAT_VERSION = 2

#: Little-endian on-disk dtype of every transaction column.
_DISK_DTYPES: dict[str, np.dtype] = {
    name: np.dtype(dtype).newbyteorder("<") for name, dtype in _COLUMN_DTYPES}

#: Structured record layout of ``blocks.bin``.
_BLOCK_DTYPE = np.dtype([("number", "<i8"), ("timestamp", "<f8"),
                         ("start", "<i8"), ("stop", "<i8")])

#: The address -> enum mappings, each an address file plus a code column:
#: manifest key -> (address file, code column, enum members by code).
_KEYED_FILES = {
    "accounts": ("accounts.txt", "account_types.bin", tuple(AccountType)),
    "labels": ("labels.txt", "label_categories.bin", tuple(AccountCategory)),
}


class BackendFormatError(RuntimeError):
    """The on-disk directory is missing, damaged, or from another format."""


def _append_bytes(path: Path, valid_size: int, data: bytes) -> None:
    """Truncate ``path`` to its valid prefix, then append ``data``.

    The truncation discards torn bytes a crashed previous sync may have left
    beyond the manifest's committed prefix.  A file that already holds
    exactly its valid prefix and gains nothing is left alone: there is
    nothing to truncate, write or flush.
    """
    if not data and path.exists() and path.stat().st_size == valid_size:
        return
    mode = "r+b" if path.exists() else "wb"
    with open(path, mode) as f:
        f.truncate(valid_size)
        f.seek(valid_size)
        if data:
            f.write(data)
        f.flush()
        os.fsync(f.fileno())


def _missing(path: Path) -> BackendFormatError:
    return BackendFormatError(
        f"{path.name} is missing, but the manifest commits data to it; the "
        f"backend directory is damaged")


def _read_prefix(path: Path, valid_size: int) -> bytes:
    if valid_size == 0:
        return b""
    try:
        with open(path, "rb") as f:
            data = f.read(valid_size)
    except FileNotFoundError:
        raise _missing(path) from None
    if len(data) != valid_size:
        raise BackendFormatError(
            f"{path.name} holds {len(data)} bytes but the manifest commits "
            f"{valid_size}; the backend directory is damaged")
    return data


def _address_lines(addresses: list[str]) -> bytes:
    """``addresses`` as ``"\\n"``-terminated UTF-8 lines; an address holding
    ``"\\n"`` would read back as two, so it raises ``ValueError``."""
    if not addresses:
        return b""
    text = "\n".join(addresses)
    if text.count("\n") != len(addresses) - 1:
        bad = next(address for address in addresses if "\n" in address)
        raise ValueError(f"address {bad!r} contains a newline; the ledger "
                         f"backend stores one address per line")
    return (text + "\n").encode("utf-8")


def _fresh_entries(mapping: dict, start: int, members: tuple,
                   ) -> tuple[bytes, bytes]:
    """Address lines and value codes (indices into ``members``) of the
    insertion-ordered ``mapping``'s entries past its first ``start``.

    Reaching them walks the skipped prefix at C level, and only when the
    mapping grew.
    """
    if len(mapping) <= start:
        return b"", b""
    code_of = {member: code for code, member in enumerate(members)}
    return (_address_lines(list(itertools.islice(mapping, start, None))),
            bytes(map(code_of.__getitem__,
                      itertools.islice(mapping.values(), start, None))))


def _read_lines(path: Path, valid_size: int, count: int) -> list[str]:
    """The ``count`` addresses of an address file's valid prefix."""
    try:
        lines = _read_prefix(path, valid_size).decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise BackendFormatError(
            f"{path.name} is not UTF-8 ({exc.reason} at byte {exc.start}); the "
            f"backend directory is damaged") from None
    if lines.pop() or len(lines) != count:
        raise BackendFormatError(
            f"{path.name} holds {len(lines)} complete lines but the manifest "
            f"commits {count} addresses; the backend directory is damaged")
    return lines


class LedgerBackend:
    """Directory-backed persistence for one ledger (see module docstring).

    Usage::

        ledger.sync("chain_dir")            # first sync creates the directory
        ...append blocks...
        ledger.sync()                       # O(new rows): appends the delta
        restarted = Ledger.open("chain_dir")  # memory-mapped columns
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    @property
    def manifest_path(self) -> Path:
        return self.path / "manifest.json"

    def exists(self) -> bool:
        """True when the directory holds a committed manifest."""
        return self.manifest_path.is_file()

    def _column_path(self, name: str) -> Path:
        return self.path / f"col_{name}.bin"

    # ------------------------------------------------------------- manifest
    def read_manifest(self) -> dict:
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except FileNotFoundError:
            raise BackendFormatError(
                f"{self.path} has no committed manifest; not a ledger backend "
                f"directory (or the first sync never finished)") from None
        except json.JSONDecodeError as exc:
            raise BackendFormatError(
                f"{self.manifest_path} is not valid JSON: {exc}") from exc
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise BackendFormatError(
                f"{self.path} uses backend format {version!r}; this build "
                f"reads format {FORMAT_VERSION}")
        return manifest

    def _write_manifest(self, manifest: dict) -> None:
        tmp = self.manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest, indent=2) + "\n")
        with open(tmp, "rb") as f:
            os.fsync(f.fileno())
        os.replace(tmp, self.manifest_path)

    def _empty_manifest(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "num_rows": 0,
            "num_addresses": 0,
            "addresses_bytes": 0,
            "num_blocks": 0,
            "num_accounts": 0,
            "accounts_bytes": 0,
            "num_labels": 0,
            "labels_bytes": 0,
            "data_version": 0,
            "submitted_ts_min": None,
            "submitted_ts_max": None,
            "explicit_hashes": {},
        }

    # ----------------------------------------------------------------- sync
    def sync(self, ledger: "Ledger") -> dict:
        """Persist every row/address/block/account/label appended since the
        last sync; returns the committed manifest.

        The first sync of a directory writes everything; later syncs write
        only the new entries: column bytes past the committed row count, and
        the accounts and labels past the committed counts, taken from the
        insertion-ordered registry and label cloud without listing them.
        The columns are read as views (:meth:`ColumnarTxStore.columns`, O(1)),
        so what still grows with the ledger is a C-level walk over the
        committed registry (or label) prefix, and only when accounts (or
        labels) were added.

        Raises :class:`BackendFormatError` when ``ledger`` holds fewer rows
        than the directory has committed (it cannot be the ledger this
        directory was built from — appends are the only mutation), and
        ``ValueError`` for a new address that contains ``"\\n"``; either
        way nothing is written.
        """
        self.path.mkdir(parents=True, exist_ok=True)
        manifest = self.read_manifest() if self.exists() else self._empty_manifest()
        store = ledger.store
        cols = store.columns()
        num_rows = store.num_rows
        synced_rows = manifest["num_rows"]
        if num_rows < synced_rows:
            raise BackendFormatError(
                f"ledger holds {num_rows} rows but {self.path} has already "
                f"committed {synced_rows}; refusing to sync a shorter ledger")

        # Every address file is encoded before anything is written, so an
        # address that holds a newline leaves the directory as it was.
        addresses = store.addresses
        address_lines = _address_lines(addresses[manifest["num_addresses"]:])
        keyed = {key: _fresh_entries(mapping, manifest[f"num_{key}"],
                                     _KEYED_FILES[key][2])
                 for key, mapping in (("accounts", ledger._accounts),
                                      ("labels", ledger.labels._labels))}

        for name, disk_dtype in _DISK_DTYPES.items():
            fresh = getattr(cols, name)[synced_rows:]
            _append_bytes(self._column_path(name),
                          synced_rows * disk_dtype.itemsize,
                          np.ascontiguousarray(fresh, dtype=disk_dtype).tobytes())

        _append_bytes(self.path / "addresses.txt", manifest["addresses_bytes"],
                      address_lines)
        manifest["addresses_bytes"] += len(address_lines)
        manifest["num_addresses"] = len(addresses)

        blocks = np.empty(ledger.num_blocks - manifest["num_blocks"],
                          dtype=_BLOCK_DTYPE)
        for i, index in enumerate(range(manifest["num_blocks"], ledger.num_blocks)):
            start, stop = ledger._block_bounds[index]
            blocks[i] = (ledger._block_numbers[index],
                         ledger._block_timestamps[index], start, stop)
        _append_bytes(self.path / "blocks.bin",
                      manifest["num_blocks"] * _BLOCK_DTYPE.itemsize,
                      blocks.tobytes())
        manifest["num_blocks"] = ledger.num_blocks

        for key, (lines, codes) in keyed.items():
            text_name, code_name, _members = _KEYED_FILES[key]
            count = manifest[f"num_{key}"]
            _append_bytes(self.path / text_name, manifest[f"{key}_bytes"], lines)
            _append_bytes(self.path / code_name, count, codes)
            manifest[f"{key}_bytes"] += len(lines)
            manifest[f"num_{key}"] = count + len(codes)

        span = store.submitted_timespan()
        manifest.update(
            num_rows=num_rows,
            data_version=store.data_version,
            submitted_ts_min=None if span is None else span[0],
            submitted_ts_max=None if span is None else span[1],
            explicit_hashes={str(row): tx_hash for row, tx_hash
                             in store._explicit_hash_by_row.items()},
            block_interval=ledger.block_interval,
            genesis_timestamp=ledger.genesis_timestamp,
        )
        self._write_manifest(manifest)      # last: commits the new prefix
        return manifest

    # ----------------------------------------------------------------- load
    def _load_columns(self, num_rows: int, mmap: bool) -> dict[str, np.ndarray]:
        arrays: dict[str, np.ndarray] = {}
        for name, disk_dtype in _DISK_DTYPES.items():
            path = self._column_path(name)
            memory_dtype = np.dtype(dict(_COLUMN_DTYPES)[name])
            if num_rows == 0:
                arrays[name] = np.empty(0, dtype=memory_dtype)
                continue
            try:
                size = path.stat().st_size
            except FileNotFoundError:
                raise _missing(path) from None
            if size < num_rows * disk_dtype.itemsize:
                raise BackendFormatError(
                    f"{path.name} is shorter than the manifest's {num_rows} "
                    f"committed rows; the backend directory is damaged")
            column = np.memmap(path, dtype=disk_dtype, mode="r",
                               shape=(num_rows,))
            arrays[name] = column if mmap else np.array(column, dtype=memory_dtype)
        return arrays

    def _read_keyed(self, manifest: dict, key: str) -> dict:
        """One address file and its code column as ``{address: member}``."""
        text_name, code_name, members = _KEYED_FILES[key]
        count = manifest[f"num_{key}"]
        addresses = _read_lines(self.path / text_name,
                                manifest[f"{key}_bytes"], count)
        codes = _read_prefix(self.path / code_name, count)
        top = int(np.frombuffer(codes, dtype=np.uint8).max()) if codes else 0
        if top >= len(members):
            raise BackendFormatError(
                f"{code_name} holds code {top}, but "
                f"{type(members[0]).__name__} has {len(members)} members; "
                f"the backend directory is damaged")
        return dict(zip(addresses, map(members.__getitem__, codes)))

    def load(self, mmap: bool = True) -> "Ledger":
        """Rebuild the persisted :class:`Ledger`, columns memory-mapped.

        ``mmap=False`` materialises the columns into RAM instead (useful when
        the directory will be deleted while the ledger object lives on).
        The returned ledger has this backend attached, so ``ledger.sync()``
        keeps appending to the same directory.  Its first append copies the
        mapped columns into growable buffers once; later appends fill those.
        """
        from repro.chain.ledger import Ledger

        manifest = self.read_manifest()
        num_rows = manifest["num_rows"]

        store = ColumnarTxStore()
        store._buffers = self._load_columns(num_rows, mmap)
        store._filled = num_rows
        addresses = _read_lines(self.path / "addresses.txt",
                                manifest["addresses_bytes"],
                                manifest["num_addresses"])
        store._addresses = addresses
        store._addr_to_id = dict(zip(addresses, range(len(addresses))))
        store._explicit_hash_by_row = {
            int(row): tx_hash for row, tx_hash in manifest["explicit_hashes"].items()}
        store._row_by_explicit_hash = {
            tx_hash: row for row, tx_hash in store._explicit_hash_by_row.items()}
        store._submitted_ts_min = manifest["submitted_ts_min"]
        store._submitted_ts_max = manifest["submitted_ts_max"]
        store._data_version = manifest["data_version"]

        ledger = Ledger(block_interval=manifest["block_interval"],
                        genesis_timestamp=manifest["genesis_timestamp"])
        ledger._store = store
        if manifest["num_blocks"]:
            blocks = np.frombuffer(
                _read_prefix(self.path / "blocks.bin",
                             manifest["num_blocks"] * _BLOCK_DTYPE.itemsize),
                dtype=_BLOCK_DTYPE)
            ledger._block_numbers = blocks["number"].tolist()
            ledger._block_timestamps = blocks["timestamp"].tolist()
            ledger._block_bounds = list(zip(blocks["start"].tolist(),
                                            blocks["stop"].tolist()))
        ledger._accounts = self._read_keyed(manifest, "accounts")
        ledger.labels._labels = self._read_keyed(manifest, "labels")
        ledger._backend = self
        return ledger
