"""npz+json state persistence for fitted models.

A *state* is the nested structure returned by the ``get_state()`` methods
threaded through the model stack: dicts with string keys, lists/tuples,
scalars (int/float/bool/str/None) and numpy arrays.  :func:`save_state`
splits it into two files inside a model directory —

* ``state.json`` — the structure itself, with every numpy array replaced by a
  ``{"__ndarray__": "arr_<i>"}`` placeholder (and tuples tagged so they
  round-trip as tuples);
* ``arrays.npz`` — the array payloads, keyed by placeholder name.

Arrays round-trip bit-for-bit (npz stores raw dtype bytes) and JSON floats
round-trip exactly (``json`` emits ``repr``-style shortest representations),
so a model restored with :func:`load_state` reproduces its predictions
bit-for-bit.  The split keeps the manifest human-readable — configs, class
names and calibration weights can be inspected with any text editor — while
the weight tensors stay binary.

Saving is crash-safe.  Each file is written to a temporary file beside it,
flushed to disk and renamed over its target, the arrays first and the
manifest last.  The manifest records the SHA-256 of the arrays file, and
:func:`load_state` checks it, so a save that dies between the two renames
(new arrays, old manifest) or a damaged arrays file raises
:class:`StateFormatError` instead of loading a mix.  Manifests without a
digest, written before it was recorded, load unchecked.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

__all__ = ["save_state", "load_state", "dumps_state", "loads_state",
           "StateFormatError"]

_ARRAY_TAG = "__ndarray__"
_TUPLE_TAG = "__tuple__"
STATE_FILE = "state.json"
ARRAYS_FILE = "arrays.npz"

#: Bumped whenever the on-disk layout changes incompatibly.
FORMAT_VERSION = 1


class StateFormatError(ValueError):
    """Raised when a model directory does not hold a readable state."""


def _encode(value, arrays: dict[str, np.ndarray]):
    """Recursively convert ``value`` into a json-able tree, extracting arrays."""
    if isinstance(value, np.ndarray):
        key = f"arr_{len(arrays)}"
        arrays[key] = value
        return {_ARRAY_TAG: key}
    if isinstance(value, np.generic):          # numpy scalar -> python scalar
        return value.item()
    if isinstance(value, dict):
        encoded = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise StateFormatError(f"state dict keys must be strings, got {k!r}")
            if k in (_ARRAY_TAG, _TUPLE_TAG):
                raise StateFormatError(f"state dict key {k!r} collides with a tag")
            encoded[k] = _encode(v, arrays)
        return encoded
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [_encode(v, arrays) for v in value]}
    if isinstance(value, list):
        return [_encode(v, arrays) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise StateFormatError(f"cannot serialize value of type {type(value).__name__}")


def _decode(value, arrays):
    if isinstance(value, dict):
        if set(value) == {_ARRAY_TAG}:
            return arrays[value[_ARRAY_TAG]]
        if set(value) == {_TUPLE_TAG}:
            return tuple(_decode(v, arrays) for v in value[_TUPLE_TAG])
        return {k: _decode(v, arrays) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v, arrays) for v in value]
    return value


def _atomic_write(target: Path, data: bytes) -> None:
    """Write ``data`` to a temporary file, fsync it and rename it over ``target``."""
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)


def save_state(path: str | Path, state: dict) -> Path:
    """Write ``state`` into directory ``path`` as ``state.json`` + ``arrays.npz``.

    The directory is created if needed; existing state files are replaced,
    the arrays first and the manifest, with the arrays' SHA-256, last.
    Returns the directory path.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    encoded = _encode(state, arrays)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    payload = buffer.getvalue()
    _atomic_write(path / ARRAYS_FILE, payload)
    document = {"format_version": FORMAT_VERSION,
                "arrays_sha256": hashlib.sha256(payload).hexdigest(), "state": encoded}
    _atomic_write(path / STATE_FILE,
                  json.dumps(document, indent=2, sort_keys=False).encode("utf-8"))
    return path


def dumps_state(state: dict) -> bytes:
    """Serialize ``state`` to one in-memory blob (same payload as :func:`save_state`).

    Layout: an 8-byte big-endian manifest length, the ``state.json`` document
    bytes, then the ``arrays.npz`` bytes.  The blob is what :func:`loads_state`
    reads back bit-for-bit — the transport for shipping a fitted model to
    process-pool workers (or over a wire) without touching the filesystem.
    """
    arrays: dict[str, np.ndarray] = {}
    document = {"format_version": FORMAT_VERSION, "state": _encode(state, arrays)}
    manifest = json.dumps(document, sort_keys=False).encode("utf-8")
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return len(manifest).to_bytes(8, "big") + manifest + buffer.getvalue()


def loads_state(blob: bytes) -> dict:
    """Read a state previously serialized by :func:`dumps_state`."""
    if len(blob) < 8:
        raise StateFormatError("state blob is truncated (missing manifest length)")
    manifest_len = int.from_bytes(blob[:8], "big")
    if len(blob) < 8 + manifest_len:
        raise StateFormatError("state blob is truncated (manifest shorter than declared)")
    document = json.loads(blob[8:8 + manifest_len].decode("utf-8"))
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise StateFormatError(
            f"unsupported state format version {version!r} (this build reads {FORMAT_VERSION})")
    with np.load(io.BytesIO(blob[8 + manifest_len:])) as payload:
        arrays = {key: payload[key] for key in payload.files}
    return _decode(document["state"], arrays)


def load_state(path: str | Path) -> dict:
    """Read a state previously written by :func:`save_state`."""
    path = Path(path)
    state_file = path / STATE_FILE
    arrays_file = path / ARRAYS_FILE
    if not state_file.exists() or not arrays_file.exists():
        raise StateFormatError(
            f"{path} is not a model directory (expected {STATE_FILE} and {ARRAYS_FILE})")
    document = json.loads(state_file.read_text())
    version = document.get("format_version")
    if version != FORMAT_VERSION:
        raise StateFormatError(
            f"unsupported state format version {version!r} (this build reads {FORMAT_VERSION})")
    payload = arrays_file.read_bytes()
    digest = document.get("arrays_sha256")
    if digest is not None and hashlib.sha256(payload).hexdigest() != digest:
        raise StateFormatError(
            f"{arrays_file} does not match the SHA-256 recorded in {STATE_FILE}: "
            f"the file is damaged, or a save was interrupted between the two files")
    with np.load(io.BytesIO(payload)) as arrays_npz:
        arrays = {key: arrays_npz[key] for key in arrays_npz.files}
    return _decode(document["state"], arrays)
