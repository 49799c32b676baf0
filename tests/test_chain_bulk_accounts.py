"""Tests for vectorised account registration and the address -> type registry."""

import pytest

from repro.chain import Account, AccountType, Ledger
from repro.chain.accounts import make_address, make_addresses


class TestMakeAddresses:
    def test_matches_scalar_function(self):
        assert make_addresses(5) == [make_address(i) for i in range(5)]

    def test_matches_scalar_with_prefix_and_start(self):
        assert make_addresses(7, prefix="ex", start=100) == \
            [make_address(i, prefix="ex") for i in range(100, 107)]

    def test_large_indices_keep_width(self):
        start = 16 ** 12
        for address in make_addresses(3, prefix="phish", start=start):
            assert address.startswith("0x") and len(address) == 42

    def test_empty_and_negative_counts(self):
        assert make_addresses(0) == []
        assert make_addresses(-3) == []


class TestAddAccountsBulk:
    def test_parity_with_scalar_loop(self):
        addresses = make_addresses(10, prefix="ex")
        bulk, scalar = Ledger(), Ledger()
        bulk.add_accounts_bulk(addresses, AccountType.CONTRACT)
        for address in addresses:
            scalar.add_account(Account(address, AccountType.CONTRACT))
        assert bulk.num_accounts == scalar.num_accounts
        assert [a.address for a in bulk.accounts] == \
            [a.address for a in scalar.accounts]
        for address in addresses:
            assert bulk.get_account(address) == scalar.get_account(address)

    def test_duplicate_within_batch_is_all_or_nothing(self):
        ledger = Ledger()
        with pytest.raises(ValueError, match="duplicate"):
            ledger.add_accounts_bulk(["0xaa", "0xbb", "0xaa"], AccountType.EOA)
        assert ledger.num_accounts == 0

    def test_duplicate_against_registry_is_all_or_nothing(self):
        ledger = Ledger()
        ledger.add_account(Account("0xbb"))
        with pytest.raises(ValueError, match="0xbb"):
            ledger.add_accounts_bulk(["0xaa", "0xbb"], AccountType.EOA)
        assert ledger.num_accounts == 1
        assert not ledger.has_account("0xaa")

    def test_registration_order_preserved_across_batches(self):
        ledger = Ledger()
        ledger.add_accounts_bulk(["0xcc", "0xaa"], AccountType.EOA)
        ledger.add_account(Account("0xbb"))
        assert [a.address for a in ledger.accounts] == ["0xcc", "0xaa", "0xbb"]


class TestRecordsOnRequest:
    def test_get_account_builds_the_registered_record(self):
        ledger = Ledger()
        ledger.add_accounts_bulk(["0xaa"], AccountType.CONTRACT)
        account = ledger.get_account("0xaa")
        assert isinstance(account, Account)
        assert account.account_type is AccountType.CONTRACT
        assert ledger.get_account("0xaa") == account

    def test_is_contract_reads_the_registry(self):
        ledger = Ledger()
        ledger.add_accounts_bulk(["0xcc"], AccountType.CONTRACT)
        ledger.add_account(Account("0xee"))
        assert ledger.is_contract("0xcc")
        assert not ledger.is_contract("0xee")
        # The registry holds each account's kind and nothing else.
        assert ledger._accounts == {"0xcc": AccountType.CONTRACT,
                                    "0xee": AccountType.EOA}

    def test_summary_counts_contracts(self):
        ledger = Ledger()
        ledger.add_accounts_bulk(make_addresses(4, prefix="ct"),
                                 AccountType.CONTRACT)
        ledger.add_accounts_bulk(make_addresses(3, prefix="us", start=50),
                                 AccountType.EOA)
        assert ledger.summary()["num_contracts"] == 4
        assert ledger.summary()["num_accounts"] == 7


class TestAccountRecords:
    def test_accounts_lists_records_in_registration_order(self):
        ledger = Ledger()
        ledger.add_accounts_bulk(["0xaa"], AccountType.CONTRACT)
        ledger.add_account(Account("0xbb"))
        assert ledger.accounts == [Account("0xaa", AccountType.CONTRACT),
                                   Account("0xbb", AccountType.EOA)]

    def test_bulk_registered_ledger_round_trips(self, tmp_path):
        ledger = Ledger()
        ledger.add_accounts_bulk(make_addresses(5, prefix="ex"),
                                 AccountType.CONTRACT)
        ledger.add_accounts_bulk(make_addresses(5, prefix="us", start=10),
                                 AccountType.EOA)
        ledger.sync(tmp_path / "chain")
        reopened = Ledger.open(tmp_path / "chain")
        assert reopened.accounts == ledger.accounts
        for address in make_addresses(5, prefix="ex"):
            assert reopened.is_contract(address)
        for address in make_addresses(5, prefix="us", start=10):
            assert not reopened.is_contract(address)
