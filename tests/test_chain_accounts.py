"""Tests for the Ethereum account model."""

import pytest

from repro.chain import Account, AccountType
from repro.chain.accounts import make_address


class TestAccount:
    def test_default_is_eoa(self):
        account = Account("0x" + "0" * 40)
        assert account.account_type is AccountType.EOA
        assert not account.is_contract

    def test_contract_flag(self):
        account = Account("0x" + "1" * 40, AccountType.CONTRACT)
        assert account.is_contract

    def test_is_a_frozen_address_and_type(self):
        account = Account("0x" + "0" * 40, AccountType.CONTRACT)
        assert account == Account("0x" + "0" * 40, AccountType.CONTRACT)
        with pytest.raises(AttributeError):
            account.account_type = AccountType.EOA


class TestMakeAddress:
    def test_format(self):
        address = make_address(7, prefix="ex")
        assert address.startswith("0x") and len(address) == 42

    def test_is_hex(self):
        int(make_address(123, prefix="L")[2:], 16)

    def test_distinct_indices_give_distinct_addresses(self):
        assert make_address(1, "u") != make_address(2, "u")

    def test_distinct_prefixes_give_distinct_addresses(self):
        assert make_address(1, "u") != make_address(1, "c")
