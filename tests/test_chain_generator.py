"""Tests for the synthetic ledger generator and the behavioural archetypes."""

import numpy as np
import pytest

from repro.chain import AccountCategory, LedgerConfig, LedgerGenerator, generate_ledger
from repro.chain.scenarios import MIXER_DENOMINATIONS, registered_scenarios, scenario_for


@pytest.fixture()
def behavior_env(rng):
    users = [f"0xu{i:02d}" for i in range(60)]
    contracts = [f"0xc{i:02d}" for i in range(10)]
    return users, contracts, rng, 1_000_000.0, 1_000_000.0


def synthesize(category, center, users, contracts, rng, start, span):
    """One centre's transactions from ``category``'s scenario, as tuples of
    ``(sender, receiver, value, gas_price, gas_used, timestamp, is_contract_call)``
    over the address strings."""
    addresses = [center, *users, *contracts]
    block = scenario_for(category).synthesize(
        np.zeros(1, dtype=np.int64),
        np.arange(1, 1 + len(users), dtype=np.int64),
        np.arange(1 + len(users), len(addresses), dtype=np.int64),
        rng, start, span)
    return [
        (addresses[s], addresses[r], float(v), float(g), int(gu), float(t), bool(c))
        for s, r, v, g, gu, t, c in zip(
            block.sender_id.tolist(), block.receiver_id.tolist(),
            block.value.tolist(), block.gas_price.tolist(),
            block.gas_used.tolist(), block.timestamp.tolist(),
            block.is_contract_call.tolist())
    ]


class TestBehaviors:
    def test_registry_covers_all_categories(self):
        assert set(registered_scenarios()) == set(AccountCategory)

    def test_scenario_for_accepts_strings(self):
        assert scenario_for("defi") is scenario_for(AccountCategory.DEFI)

    def test_exchange_has_bidirectional_flow(self, behavior_env):
        txs = synthesize(AccountCategory.EXCHANGE, "0xex", *behavior_env)
        senders = {t[0] for t in txs}
        receivers = {t[1] for t in txs}
        assert "0xex" in senders and "0xex" in receivers
        assert len(senders | receivers) > 20

    def test_ico_wallet_inflow_precedes_disbursement(self, behavior_env):
        txs = synthesize(AccountCategory.ICO_WALLET, "0xico", *behavior_env)
        inflow_times = [t[5] for t in txs if t[1] == "0xico"]
        outflow_times = [t[5] for t in txs if t[0] == "0xico"]
        assert max(inflow_times) < min(outflow_times)
        assert len(inflow_times) > len(outflow_times)

    def test_mining_rewards_are_periodic_and_constant(self, behavior_env):
        txs = synthesize(AccountCategory.MINING, "0xminer", *behavior_env)
        rewards = [t[2] for t in txs if t[1] == "0xminer"]
        assert len(rewards) >= 30
        assert np.std(rewards) / np.mean(rewards) < 0.1

    def test_phish_sweeps_most_of_the_stolen_funds(self, behavior_env):
        txs = synthesize(AccountCategory.PHISH_HACK, "0xbad", *behavior_env)
        stolen = sum(t[2] for t in txs if t[1] == "0xbad")
        swept = sum(t[2] for t in txs if t[0] == "0xbad")
        assert swept == pytest.approx(stolen * 0.98, rel=1e-6)

    def test_phish_burst_is_short(self, behavior_env):
        span = behavior_env[-1]
        txs = synthesize(AccountCategory.PHISH_HACK, "0xbad", *behavior_env)
        times = [t[5] for t in txs]
        assert (max(times) - min(times)) < span * 0.2

    def test_bridge_pairs_match_amounts(self, behavior_env):
        txs = synthesize(AccountCategory.BRIDGE, "0xbridge", *behavior_env)
        inflows = sorted(t for t in txs if t[1] == "0xbridge")
        outflows = sorted(t for t in txs if t[0] == "0xbridge")
        assert len(inflows) == len(outflows)
        assert all(t[6] for t in txs)  # every leg is a contract call

    def test_defi_is_contract_call_heavy(self, behavior_env):
        contracts = behavior_env[1]
        txs = synthesize(AccountCategory.DEFI, "0xdefi", *behavior_env)
        assert all(t[6] for t in txs)
        counterparties = {t[0] for t in txs} | {t[1] for t in txs}
        assert counterparties - {"0xdefi"} <= set(contracts)

    def test_wash_trading_round_trips_balance(self, behavior_env):
        txs = synthesize(AccountCategory.WASH_TRADING, "0xwash", *behavior_env)
        inflow = sum(t[2] for t in txs if t[1] == "0xwash")
        outflow = sum(t[2] for t in txs if t[0] == "0xwash")
        assert abs(inflow - outflow) / max(inflow, outflow) < 0.05
        clique = ({t[0] for t in txs} | {t[1] for t in txs}) - {"0xwash"}
        assert len(clique) <= 6

    def test_airdrop_claims_are_near_identical_and_bursty(self, behavior_env):
        span = behavior_env[-1]
        txs = synthesize(AccountCategory.AIRDROP_FARMING, "0xfarm", *behavior_env)
        claims = [t for t in txs if t[1] == "0xfarm"]
        values = [t[2] for t in claims]
        assert len(claims) >= 40
        assert np.std(values) / np.mean(values) < 0.1
        times = [t[5] for t in txs]
        assert (max(times) - min(times)) < span * 0.1

    def test_mixer_uses_fixed_denominations(self, behavior_env):
        txs = synthesize(AccountCategory.MIXER, "0xmix", *behavior_env)
        assert all(t[6] for t in txs)
        deposits = {t[2] for t in txs if t[1] == "0xmix"}
        assert deposits <= set(MIXER_DENOMINATIONS.tolist())
        withdrawals = [t for t in txs if t[0] == "0xmix"]
        assert len(withdrawals) == len(txs) - len(withdrawals)


class TestLedgerConfig:
    def test_scaled_reduces_counts(self):
        config = LedgerConfig().scaled(0.1)
        assert config.labeled_per_category[AccountCategory.PHISH_HACK] \
            < LedgerConfig().labeled_per_category[AccountCategory.PHISH_HACK]

    def test_scaled_keeps_minimum_of_two(self):
        config = LedgerConfig().scaled(0.0001)
        assert all(v >= 2 for v in config.labeled_per_category.values())

    def test_with_scenarios_restricts_categories(self):
        config = LedgerConfig().with_scenarios(["exchange", "mixer"])
        assert set(config.labeled_per_category) == \
            {AccountCategory.EXCHANGE, AccountCategory.MIXER}
        ledger = LedgerGenerator(config.scaled(0.2)).generate()
        assert set(ledger.labels.counts()) == \
            {AccountCategory.EXCHANGE, AccountCategory.MIXER}

    def test_with_scenarios_rejects_empty(self):
        with pytest.raises(ValueError):
            LedgerConfig().with_scenarios([])

    def test_validate_scenarios_passes_at_default_scale(self):
        config = LedgerConfig()
        config.validate_scenarios = True
        ledger = LedgerGenerator(config).generate()
        assert ledger.num_transactions > 0


class TestLedgerGenerator:
    def test_generation_is_deterministic(self):
        config = LedgerConfig().scaled(0.1)
        a = LedgerGenerator(config).generate()
        b = LedgerGenerator(config).generate()
        assert a.num_transactions == b.num_transactions
        assert [t.tx_hash for t in a.transactions()][:10] == \
            [t.tx_hash for t in b.transactions()][:10]

    def test_different_seeds_differ(self):
        a = generate_ledger(LedgerConfig().scaled(0.1), seed=1)
        b = generate_ledger(LedgerConfig().scaled(0.1), seed=2)
        assert a.num_transactions != b.num_transactions or \
            [t.value for t in a.transactions()][:20] != [t.value for t in b.transactions()][:20]

    def test_all_categories_are_labelled(self, small_ledger):
        counts = small_ledger.labels.counts()
        assert set(counts) == set(AccountCategory)
        assert all(v >= 2 for v in counts.values())

    def test_every_labeled_account_has_transactions(self, small_ledger):
        for address, _category in small_ledger.labels.items():
            assert len(small_ledger.transactions_for(address)) > 0

    def test_blocks_are_ordered_by_timestamp(self, small_ledger):
        timestamps = [b.timestamp for b in small_ledger.blocks]
        assert timestamps == sorted(timestamps)

    def test_transactions_within_configured_timespan(self, small_ledger):
        config = LedgerConfig()
        low, high = small_ledger.timespan()
        assert low >= config.start_timestamp - 1e4
        assert high <= config.start_timestamp + config.timespan + 1e5

    def test_some_contract_calls_exist(self, small_ledger):
        assert any(tx.is_contract_call for tx in small_ledger.transactions())

    def test_unsubmitted_fraction_is_small(self, small_ledger):
        all_txs = list(small_ledger.transactions(include_unsubmitted=True))
        unsubmitted = [t for t in all_txs if not t.submitted]
        assert len(unsubmitted) < 0.05 * len(all_txs)

    def test_registered_accounts_cover_transaction_endpoints(self, small_ledger):
        for tx in list(small_ledger.transactions())[:200]:
            assert small_ledger.has_account(tx.sender)
            assert small_ledger.has_account(tx.receiver)
