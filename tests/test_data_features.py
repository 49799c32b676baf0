"""Tests for the 15-dimensional deep features (Table I)."""

import numpy as np
import pytest

from repro.chain import Account, Block, Ledger, Transaction
from repro.data import FEATURE_GROUPS, FEATURE_NAMES, DeepFeatureExtractor, category_feature_matrix

from tests._feature_reference import reference_features


def features_of(ledger: Ledger, address: str) -> dict:
    """``address``'s Table I features by name, from the extractor's table."""
    return dict(zip(FEATURE_NAMES, DeepFeatureExtractor(ledger).extract_many([address])[0]))


def build_ledger_with_known_activity() -> Ledger:
    """A tiny ledger where every feature of account 0xaa can be computed by hand."""
    ledger = Ledger()
    for address in ("0xaa", "0xbb", "0xcc"):
        ledger.add_account(Account(address))
    txs = [
        # 0xaa sends twice: values 2 and 4, 100s apart, gas fee 21000 * 50 gwei each.
        Transaction("0x1", "0xaa", "0xbb", 2.0, 50.0, 21_000, 1000.0),
        Transaction("0x2", "0xaa", "0xcc", 4.0, 50.0, 21_000, 1100.0),
        # 0xaa receives three times: values 1, 1, 7 at 2000/2500/2600.
        Transaction("0x3", "0xbb", "0xaa", 1.0, 20.0, 21_000, 2000.0),
        Transaction("0x4", "0xcc", "0xaa", 1.0, 20.0, 21_000, 2500.0),
        Transaction("0x5", "0xbb", "0xaa", 7.0, 20.0, 90_000, 2600.0, is_contract_call=True),
    ]
    ledger.append_block(Block(0, 3000.0, txs))
    return ledger


@pytest.fixture()
def known_features():
    return features_of(build_ledger_with_known_activity(), "0xaa")


class TestFeatureDefinitions:
    def test_fifteen_features(self):
        assert len(FEATURE_NAMES) == 15
        assert sum(len(v) for v in FEATURE_GROUPS.values()) == 15

    def test_sender_counts_and_values(self, known_features):
        assert known_features["NTS"] == 2
        assert known_features["STV"] == pytest.approx(6.0)
        assert known_features["SAV"] == pytest.approx(3.0)

    def test_send_intervals(self, known_features):
        assert known_features["min_STI"] == pytest.approx(100.0)
        assert known_features["max_STI"] == pytest.approx(100.0)

    def test_receiver_counts_and_values(self, known_features):
        assert known_features["NTR"] == 3
        assert known_features["RTV"] == pytest.approx(9.0)
        assert known_features["RAV"] == pytest.approx(3.0)

    def test_receive_intervals(self, known_features):
        assert known_features["min_RTI"] == pytest.approx(100.0)
        assert known_features["max_RTI"] == pytest.approx(500.0)

    def test_send_fees(self, known_features):
        expected = 2 * (50.0 * 21_000 / 1e9)
        assert known_features["SETF"] == pytest.approx(expected)
        assert known_features["SAETF"] == pytest.approx(expected / 2)

    def test_receive_fees(self, known_features):
        expected = 2 * (20.0 * 21_000 / 1e9) + 20.0 * 90_000 / 1e9
        assert known_features["RETF"] == pytest.approx(expected)
        assert known_features["RAETF"] == pytest.approx(expected / 3)

    def test_contract_calls(self, known_features):
        assert known_features["NC"] == 1

    def test_inactive_account_is_all_zero(self):
        ledger = build_ledger_with_known_activity()
        ledger.add_account(Account("0xdd"))
        vector = DeepFeatureExtractor(ledger).extract_many(["0xdd"])[0]
        np.testing.assert_array_equal(vector, np.zeros(15))

    def test_single_transaction_has_zero_intervals(self):
        features = features_of(build_ledger_with_known_activity(), "0xcc")
        assert features["min_STI"] == 0.0 and features["max_STI"] == 0.0

    def test_extract_many_stacks_rows(self):
        ledger = build_ledger_with_known_activity()
        matrix = DeepFeatureExtractor(ledger).extract_many(["0xaa", "0xbb"])
        assert matrix.shape == (2, 15)

    def test_extract_many_empty(self):
        ledger = build_ledger_with_known_activity()
        assert DeepFeatureExtractor(ledger).extract_many([]).shape == (0, 15)

    def test_restricted_transaction_list(self):
        """The reference over a transaction subset equals the table of a
        ledger that holds only that subset."""
        ledger = build_ledger_with_known_activity()
        subset = ledger.transactions_for("0xaa")[:1]
        vector = reference_features(ledger, "0xaa", transactions=subset)
        assert dict(zip(FEATURE_NAMES, vector))["NTS"] == 1
        restricted = Ledger()
        restricted.append_block(Block(0, 3000.0, subset))
        np.testing.assert_array_equal(
            vector, DeepFeatureExtractor(restricted).extract_many(["0xaa"])[0])


class TestSelfTransferCounting:
    """Regression: self-transfers were double-counted per role (they used to
    appear twice in ``Ledger.transactions_for``)."""

    @staticmethod
    def build_self_transfer_ledger() -> Ledger:
        ledger = Ledger()
        for address in ("0xaa", "0xbb"):
            ledger.add_account(Account(address))
        ledger.append_block(Block(0, 3000.0, [
            # One self-transfer (a contract call) and one ordinary send.
            Transaction("0x1", "0xaa", "0xaa", 3.0, 50.0, 90_000, 1000.0,
                        is_contract_call=True),
            Transaction("0x2", "0xaa", "0xbb", 5.0, 40.0, 21_000, 1500.0),
        ]))
        return ledger

    def test_self_transfer_counts_once_per_role(self):
        features = features_of(self.build_self_transfer_ledger(), "0xaa")
        assert features["NTS"] == 2            # the self-transfer + the send
        assert features["STV"] == pytest.approx(8.0)
        assert features["NTR"] == 1            # the self-transfer, once
        assert features["RTV"] == pytest.approx(3.0)
        assert features["NC"] == 1             # one contract-call transaction
        self_fee = 50.0 * 90_000 / 1e9
        send_fee = 40.0 * 21_000 / 1e9
        assert features["SETF"] == pytest.approx(self_fee + send_fee)
        assert features["RETF"] == pytest.approx(self_fee)

    def test_extract_many_parity_with_self_transfers(self):
        ledger = self.build_self_transfer_ledger()
        looped = np.vstack([reference_features(ledger, a) for a in ("0xaa", "0xbb")])
        batched = DeepFeatureExtractor(ledger).extract_many(["0xaa", "0xbb"])
        np.testing.assert_array_equal(looped, batched)

    def test_intervals_see_self_transfer_once(self):
        features = features_of(self.build_self_transfer_ledger(), "0xaa")
        # Send timestamps are [1000, 1500]: one 500s gap (a duplicated
        # self-transfer would have produced a spurious 0s minimum gap).
        assert features["min_STI"] == pytest.approx(500.0)
        assert features["max_STI"] == pytest.approx(500.0)


class TestCategoryFeatureMatrix:
    def test_output_shape(self, small_dataset):
        grouped = category_feature_matrix(small_dataset.feature_matrix())
        assert grouped.shape == (len(small_dataset), 4)

    def test_values_in_unit_interval(self, small_dataset):
        grouped = category_feature_matrix(small_dataset.feature_matrix())
        assert grouped.min() >= 0.0 and grouped.max() <= 1.0

    def test_wrong_width_raises(self):
        with pytest.raises(ValueError):
            category_feature_matrix(np.zeros((3, 7)))

    def test_constant_column_maps_to_zero(self):
        features = np.ones((4, 15))
        grouped = category_feature_matrix(features)
        np.testing.assert_allclose(grouped, np.zeros((4, 4)))
