"""Ethereum account model: externally-owned accounts and contract accounts."""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["AccountType", "Account"]


class AccountType(str, enum.Enum):
    """The two Ethereum account kinds (Section II-A of the paper)."""

    EOA = "eoa"
    CONTRACT = "contract"


@dataclass(frozen=True, slots=True)
class Account:
    """A single Ethereum account: its address and its kind.

    The ledger's registry stores only ``address -> AccountType``;
    :meth:`~repro.chain.ledger.Ledger.get_account` and
    :attr:`~repro.chain.ledger.Ledger.accounts` build these records on
    request.

    Attributes
    ----------
    address:
        Hex address string (``0x`` + 40 hex chars).
    account_type:
        :class:`AccountType.EOA` for key-controlled accounts or
        :class:`AccountType.CONTRACT` for deployed contracts.
    """

    address: str
    account_type: AccountType = AccountType.EOA

    @property
    def is_contract(self) -> bool:
        return self.account_type is AccountType.CONTRACT


def make_address(index: int, prefix: str = "") -> str:
    """Deterministically derive a syntactically valid Ethereum address.

    The ``prefix`` (e.g. ``"ex"`` for exchanges) is embedded as hex so that
    addresses remain human-attributable when debugging generated ledgers.
    """
    prefix_hex = prefix.encode("utf-8").hex()
    body = f"{index:x}"
    payload = (prefix_hex + body).rjust(40, "0")[-40:]
    return "0x" + payload


def make_addresses(count: int, prefix: str = "", start: int = 0) -> list[str]:
    """Batch :func:`make_address` for indices ``start .. start+count-1``.

    Equal element-for-element to the scalar function.  The prefix is hexed
    once and the per-index work is a single expression — measured ~4x faster
    than both the scalar call loop and an ``np.char`` pipeline (whose
    fixed-width unicode round trip costs more than the formatting it saves)
    on the ~716k-account populations the 10M-tx configs register.
    """
    if count <= 0:
        return []
    prefix_hex = prefix.encode("utf-8").hex()
    return ["0x" + (prefix_hex + f"{index:x}").rjust(40, "0")[-40:]
            for index in range(start, start + count)]
