"""Property tests for the scenario synthesis engine.

Every registered scenario must uphold the hard invariants of the
:class:`~repro.chain.scenarios.Scenario` contract for *any* seed and pool
shape — timestamps inside the observation window, strictly positive values
and gas, no self-transfers, the centre on exactly one side of every row —
and its statistical envelope must hold on non-degenerate pools.  A slow
end-to-end smoke verifies the three new attack families survive the full
labelcloud → features → classification pipeline.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.chain import AccountCategory
from repro.chain.scenarios import (
    RawTxBlock,
    ScenarioCheckError,
    registered_scenarios,
    scenario_for,
    segment_arange,
)

CATEGORIES = sorted(registered_scenarios(), key=lambda c: c.value)

START = 1_438_900_000.0
SPAN = 3600.0 * 24 * 365


def make_pools(n_centers: int, n_users: int = 60, n_contracts: int = 12):
    users = np.arange(n_users, dtype=np.int64)
    contracts = np.arange(n_users, n_users + n_contracts, dtype=np.int64)
    centers = np.arange(n_users + n_contracts,
                        n_users + n_contracts + n_centers, dtype=np.int64)
    return centers, users, contracts


def assert_hard_invariants(block: RawTxBlock, centers: np.ndarray,
                           start: float, span: float) -> None:
    assert np.all(block.value > 0)
    assert np.all(block.gas_price > 0)
    assert np.all(block.gas_used > 0)
    assert np.all(block.sender_id != block.receiver_id)
    low = start - 0.01 * span
    high = start + span + max(3600.0, 0.05 * span)
    assert np.all((block.timestamp >= low) & (block.timestamp <= high))
    # The labelled centre sits on exactly one side of every transaction.
    sender_is_center = np.isin(block.sender_id, centers)
    receiver_is_center = np.isin(block.receiver_id, centers)
    assert np.all(sender_is_center ^ receiver_is_center)


def with_larger_pools(test):
    """One more input per category: 12 centres, 400 users, 40 contracts and
    seed 7, the pools of the scenario-synthesis benchmark these checks replace."""
    for category in CATEGORIES:
        test = example(category=category, seed=7, n_centers=12, n_users=400,
                       n_contracts=40)(test)
    return test


class TestScenarioProperties:
    @given(category=st.sampled_from(CATEGORIES),
           seed=st.integers(0, 2**16),
           n_centers=st.integers(1, 6))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_hard_invariants(self, category, seed, n_centers):
        centers, users, contracts = make_pools(n_centers)
        block = scenario_for(category).synthesize(
            centers, users, contracts, np.random.default_rng(seed), START, SPAN)
        assert len(block) > 0
        assert_hard_invariants(block, centers, START, SPAN)

    @given(category=st.sampled_from(CATEGORIES), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_synthesis_is_deterministic(self, category, seed):
        centers, users, contracts = make_pools(3)
        scenario = scenario_for(category)
        a = scenario.synthesize(centers, users, contracts,
                                np.random.default_rng(seed), START, SPAN)
        b = scenario.synthesize(centers, users, contracts,
                                np.random.default_rng(seed), START, SPAN)
        for name in ("sender_id", "receiver_id", "value", "gas_price",
                     "gas_used", "timestamp", "is_contract_call"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name),
                                          err_msg=name)

    @with_larger_pools
    @given(category=st.sampled_from(CATEGORIES),
           seed=st.integers(0, 64),
           n_centers=st.integers(3, 8),
           n_users=st.just(60),
           n_contracts=st.just(12))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_self_check_passes_on_healthy_pools(self, category, seed, n_centers,
                                                n_users, n_contracts):
        centers, users, contracts = make_pools(n_centers, n_users, n_contracts)
        scenario = scenario_for(category)
        block = scenario.synthesize(centers, users, contracts,
                                    np.random.default_rng(seed), START, SPAN)
        scenario.self_check(block, centers, START, SPAN)

    @given(category=st.sampled_from(CATEGORIES),
           seed=st.integers(0, 256),
           n_users=st.integers(0, 1),
           n_contracts=st.integers(0, 1))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_degenerate_pools_do_not_raise(self, category, seed, n_users,
                                           n_contracts):
        centers, users, contracts = make_pools(2, n_users=n_users,
                                               n_contracts=n_contracts)
        block = scenario_for(category).synthesize(
            centers, users, contracts, np.random.default_rng(seed), START, SPAN)
        if len(block):
            assert_hard_invariants(block, centers, START, SPAN)

    def test_empty_centers_give_empty_block(self):
        centers, users, contracts = make_pools(0)
        for category, scenario in registered_scenarios().items():
            block = scenario.synthesize(centers, users, contracts,
                                        np.random.default_rng(0), START, SPAN)
            assert len(block) == 0, category


class TestRegistry:
    def test_covers_every_account_category(self):
        assert set(registered_scenarios()) == set(AccountCategory)

    def test_scenario_for_accepts_value_strings(self):
        for category in AccountCategory:
            assert scenario_for(category.value) is scenario_for(category)

    def test_scenario_categories_match_registry_keys(self):
        for category, scenario in registered_scenarios().items():
            assert AccountCategory(scenario.category) is category


class TestRawTxBlock:
    def test_concat_of_empties_is_empty(self):
        assert len(RawTxBlock.concat([])) == 0
        assert len(RawTxBlock.concat([RawTxBlock.empty(), RawTxBlock.empty()])) == 0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            RawTxBlock(np.zeros(2, dtype=np.int64), np.ones(3, dtype=np.int64),
                       np.ones(2), np.ones(2), np.ones(2, dtype=np.int64),
                       np.ones(2), np.zeros(2, dtype=bool))

    def test_take_reorders_all_columns(self):
        centers, users, contracts = make_pools(2)
        block = scenario_for("exchange").synthesize(
            centers, users, contracts, np.random.default_rng(1), START, SPAN)
        order = np.argsort(block.timestamp, kind="stable")
        taken = block.take(order)
        assert np.all(np.diff(taken.timestamp) >= 0)
        assert len(taken) == len(block)
        assert taken.value.sum() == pytest.approx(block.value.sum())


class TestSelfCheckCatchesViolations:
    def test_self_transfer_is_rejected(self):
        centers, users, contracts = make_pools(1)
        scenario = scenario_for("exchange")
        block = scenario.synthesize(centers, users, contracts,
                                    np.random.default_rng(0), START, SPAN)
        block.receiver_id[:] = block.sender_id
        with pytest.raises(ScenarioCheckError):
            scenario.self_check(block, centers, START, SPAN)

    def test_out_of_window_timestamp_is_rejected(self):
        centers, users, contracts = make_pools(1)
        scenario = scenario_for("exchange")
        block = scenario.synthesize(centers, users, contracts,
                                    np.random.default_rng(0), START, SPAN)
        block.timestamp[0] = START + SPAN * 10
        with pytest.raises(ScenarioCheckError):
            scenario.self_check(block, centers, START, SPAN)


class TestSegmentArange:
    @given(counts=st.lists(st.integers(0, 7), min_size=0, max_size=10))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_matches_python_reference(self, counts):
        expected = [i for c in counts for i in range(c)]
        got = segment_arange(np.asarray(counts, dtype=np.int64))
        assert got.tolist() == expected


@pytest.mark.slow
def test_new_families_classify_end_to_end():
    """The three new attack families flow through the full pipeline."""
    from repro.core import DBG4ETH
    from repro.experiments import ExperimentConfig, build_experiment_dataset, \
        run_category_experiment
    from repro.experiments.runner import fast_dbg4eth_config

    dataset, _ledger = build_experiment_dataset(
        ExperimentConfig(scale=0.35, top_k=40, max_nodes_per_subgraph=40, seed=7))
    for category in AccountCategory.attack_families():
        report = run_category_experiment(
            dataset, category,
            model_factory=lambda: DBG4ETH(fast_dbg4eth_config(epochs=6)),
            seed=7)
        assert report["accuracy"] >= 0.5, (category, report)
        assert report["f1"] >= 0.3, (category, report)
