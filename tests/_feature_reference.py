"""Scalar per-address reference for the Table I deep features.

``reference_features`` computes one account's 15-dim vector from its
materialised ``Transaction`` list, one transaction at a time.  It is the
parity reference for ``DeepFeatureExtractor.extract_many``, which folds one
table over the ledger's columns: sums are sequential left folds (plain
``sum``), the same order the table's row-order ``np.add.at`` accumulates
in, so the two agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.chain.ledger import Ledger
from repro.chain.transactions import Transaction

__all__ = ["reference_features"]


def _interval_stats(timestamps: list[float]) -> tuple[float, float]:
    """(min, max) absolute gap between consecutive timestamps; zeros if < 2 events."""
    if len(timestamps) < 2:
        return (0.0, 0.0)
    ordered = sorted(timestamps)
    gaps = np.abs(np.diff(ordered))
    return (float(gaps.min()), float(gaps.max()))


def _feature_vector(sent: list[Transaction], received: list[Transaction],
                    num_contract_calls: int) -> np.ndarray:
    """The Table I vector from pre-split sent/received transaction lists."""
    nts = float(len(sent))
    stv = float(sum(tx.value for tx in sent))
    sav = stv / nts if nts else 0.0
    min_sti, max_sti = _interval_stats([tx.timestamp for tx in sent])

    ntr = float(len(received))
    rtv = float(sum(tx.value for tx in received))
    rav = rtv / ntr if ntr else 0.0
    min_rti, max_rti = _interval_stats([tx.timestamp for tx in received])

    setf = float(sum(tx.fee_eth for tx in sent))
    retf = float(sum(tx.fee_eth for tx in received))
    saetf = setf / nts if nts else 0.0
    raetf = retf / ntr if ntr else 0.0

    nc = float(num_contract_calls)

    return np.array([
        nts, stv, sav, min_sti, max_sti,
        ntr, rtv, rav, min_rti, max_rti,
        setf, retf, saetf, raetf,
        nc,
    ])


def reference_features(ledger: Ledger, address: str,
                       transactions: list[Transaction] | None = None) -> np.ndarray:
    """The feature vector (length 15) of ``address``.

    ``transactions`` defaults to every submitted ledger transaction touching
    the address (``Ledger.transactions_for``, where a self-transfer appears
    once); pass a list to restrict the statistics to it.
    """
    if transactions is None:
        transactions = ledger.transactions_for(address)
    sent = [tx for tx in transactions if tx.sender == address]
    received = [tx for tx in transactions if tx.receiver == address]
    nc = sum(1 for tx in transactions if tx.is_contract_call)
    return _feature_vector(sent, received, nc)
