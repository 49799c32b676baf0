"""The six seed behaviour families, vectorised.

Each scenario reproduces the qualitative pattern of the historical per-tuple
behaviour of the same category with batched RNG draws across *all* centres at
once: one ``synthesize`` call emits the full column block for a category
regardless of how many labelled accounts it has.  The RNG layout therefore
differs from the per-tuple implementation — an intentional data regeneration
pinned by the re-computed golden digests in ``tests/test_graph_golden.py``
and guarded qualitatively by each scenario's envelope.
"""

from __future__ import annotations

import numpy as np

from repro.chain.labelcloud import AccountCategory
from repro.chain.scenarios.base import (
    CONTRACT_GAS,
    TRANSFER_GAS,
    RawTxBlock,
    Scenario,
    ScenarioEnvelope,
    draw_from_pool,
    register_scenario,
    segment_arange,
)

__all__ = [
    "ExchangeScenario",
    "IcoWalletScenario",
    "MiningScenario",
    "PhishHackScenario",
    "BridgeScenario",
    "DefiScenario",
]


def _block(senders, receivers, values, gas_prices, gas_used, timestamps,
           is_call) -> RawTxBlock:
    n = len(senders)
    if np.isscalar(gas_used):
        gas_used = np.full(n, gas_used, dtype=np.int64)
    if np.isscalar(is_call):
        is_call = np.full(n, is_call, dtype=np.bool_)
    return RawTxBlock(senders, receivers, values, gas_prices, gas_used,
                      timestamps, is_call)


@register_scenario
class ExchangeScenario(Scenario):
    """Hot-wallet hub: many deposits in, most users withdrawn to, window-long."""

    category = AccountCategory.EXCHANGE

    def synthesize(self, centers, users, contracts, rng, start, span):
        n_centers = len(centers)
        if n_centers == 0 or len(users) == 0:
            return RawTxBlock.empty()
        n_cp = rng.integers(25, 45, size=n_centers)
        cp = draw_from_pool(rng, users, int(n_cp.sum()))
        cp_center = np.repeat(centers, n_cp)

        deposits = rng.integers(1, 4, size=len(cp))
        d_total = int(deposits.sum())
        dep_sender = np.repeat(cp, deposits)
        dep_receiver = np.repeat(cp_center, deposits)
        dep = _block(dep_sender, dep_receiver,
                     rng.lognormal(mean=0.5, sigma=1.0, size=d_total),
                     rng.uniform(20, 60, size=d_total),
                     TRANSFER_GAS,
                     start + rng.uniform(0.0, span, size=d_total), False)

        withdraws = rng.random(len(cp)) < 0.8
        w_total = int(withdraws.sum())
        wd = _block(cp_center[withdraws], cp[withdraws],
                    rng.lognormal(mean=0.3, sigma=1.0, size=w_total),
                    rng.uniform(20, 60, size=w_total),
                    TRANSFER_GAS,
                    start + rng.uniform(0.0, span, size=w_total), False)
        return RawTxBlock.concat([dep, wd])

    def envelope(self):
        return ScenarioEnvelope(
            txs_per_center=(25, 181),
            in_fraction=(0.55, 0.85),
            contract_call_fraction=(0.0, 0.01),
            mean_distinct_counterparties=(12, 46),
            span_fraction=(0.6, 1.0),
        )


@register_scenario
class IcoWalletScenario(Scenario):
    """Crowd-sale inflow burst followed by a few large treasury disbursements."""

    category = AccountCategory.ICO_WALLET

    def synthesize(self, centers, users, contracts, rng, start, span):
        n_centers = len(centers)
        if n_centers == 0 or len(users) == 0:
            return RawTxBlock.empty()
        sale_window = span * 0.15
        sale_start = start + rng.uniform(0.0, span * 0.2, size=n_centers)

        n_contrib = rng.integers(20, 40, size=n_centers)
        total = int(n_contrib.sum())
        contributors = draw_from_pool(rng, users, total)
        center_per_row = np.repeat(centers, n_contrib)
        values = rng.lognormal(mean=-0.5, sigma=0.7, size=total)
        inflow = _block(contributors, center_per_row, values,
                        rng.uniform(30, 80, size=total), TRANSFER_GAS,
                        np.repeat(sale_start, n_contrib)
                        + rng.uniform(0.0, sale_window, size=total), False)

        raised = np.bincount(np.repeat(np.arange(n_centers), n_contrib),
                             weights=values, minlength=n_centers)
        n_treasury = rng.integers(2, 5, size=n_centers)
        t_total = int(n_treasury.sum())
        treasuries = draw_from_pool(rng, users, t_total)
        outflow = _block(
            np.repeat(centers, n_treasury), treasuries,
            np.repeat(raised * 0.95 / n_treasury, n_treasury),
            rng.uniform(20, 40, size=t_total), TRANSFER_GAS,
            np.repeat(sale_start + sale_window, n_treasury)
            + rng.uniform(span * 0.2, span * 0.6, size=t_total), False)
        return RawTxBlock.concat([inflow, outflow])

    def envelope(self):
        return ScenarioEnvelope(
            txs_per_center=(22, 44),
            in_fraction=(0.8, 0.97),
            contract_call_fraction=(0.0, 0.01),
            mean_distinct_counterparties=(12, 44),
            span_fraction=(0.2, 0.85),
        )


@register_scenario
class MiningScenario(Scenario):
    """Near-periodic, near-constant reward income with occasional pooled payouts."""

    category = AccountCategory.MINING

    def synthesize(self, centers, users, contracts, rng, start, span):
        n_centers = len(centers)
        if n_centers == 0 or len(users) == 0:
            return RawTxBlock.empty()
        pools = draw_from_pool(rng, users, n_centers)
        n_rewards = rng.integers(30, 60, size=n_centers)
        total = int(n_rewards.sum())
        period = np.repeat(span / n_rewards, n_rewards)
        reward = rng.uniform(1.8, 3.2, size=n_centers)
        ts = (np.repeat(np.full(n_centers, start), n_rewards)
              + segment_arange(n_rewards) * period
              + rng.normal(0.0, 1.0, size=total) * period * 0.02)
        rewards = _block(
            np.repeat(pools, n_rewards), np.repeat(centers, n_rewards),
            np.repeat(reward, n_rewards) * rng.uniform(0.97, 1.03, size=total),
            rng.uniform(10, 25, size=total), TRANSFER_GAS, ts, False)

        n_payees = rng.integers(2, 5, size=n_centers)
        p_total = int(n_payees.sum())
        payees = draw_from_pool(rng, users, p_total)
        payouts = _block(
            np.repeat(centers, n_payees), payees,
            np.repeat(reward, n_payees) * rng.uniform(5, 15, size=p_total),
            rng.uniform(10, 25, size=p_total), TRANSFER_GAS,
            start + rng.uniform(span * 0.3, span, size=p_total), False)
        return RawTxBlock.concat([rewards, payouts])

    def envelope(self):
        return ScenarioEnvelope(
            txs_per_center=(32, 64),
            in_fraction=(0.85, 0.97),
            contract_call_fraction=(0.0, 0.01),
            mean_distinct_counterparties=(2, 7),
            in_value_cv=(0.0, 0.06),
            span_fraction=(0.9, 1.02),
        )


@register_scenario
class PhishHackScenario(Scenario):
    """Victim-inflow burst immediately swept out to collectors at high gas price."""

    category = AccountCategory.PHISH_HACK

    def synthesize(self, centers, users, contracts, rng, start, span):
        n_centers = len(centers)
        if n_centers == 0 or len(users) == 0:
            return RawTxBlock.empty()
        burst_start = start + rng.uniform(0.0, span * 0.7, size=n_centers)
        burst_len = span * rng.uniform(0.01, 0.05, size=n_centers)

        n_victims = rng.integers(10, 30, size=n_centers)
        total = int(n_victims.sum())
        victims = draw_from_pool(rng, users, total)
        values = rng.lognormal(mean=0.0, sigma=1.2, size=total)
        inflow = _block(
            victims, np.repeat(centers, n_victims), values,
            rng.uniform(40, 120, size=total), TRANSFER_GAS,
            np.repeat(burst_start, n_victims)
            + rng.uniform(0.0, 1.0, size=total) * np.repeat(burst_len, n_victims),
            False)

        stolen = np.bincount(np.repeat(np.arange(n_centers), n_victims),
                             weights=values, minlength=n_centers)
        n_collectors = rng.integers(1, 3, size=n_centers)
        c_total = int(n_collectors.sum())
        collectors = draw_from_pool(rng, users, c_total)
        sweep = _block(
            np.repeat(centers, n_collectors), collectors,
            np.repeat(stolen * 0.98 / n_collectors, n_collectors),
            rng.uniform(80, 200, size=c_total), TRANSFER_GAS,
            np.repeat(burst_start + burst_len, n_collectors)
            + rng.uniform(0.0, 1.0, size=c_total)
            * np.repeat(burst_len, n_collectors), False)
        return RawTxBlock.concat([inflow, sweep])

    def envelope(self):
        return ScenarioEnvelope(
            txs_per_center=(11, 32),
            in_fraction=(0.8, 0.97),
            contract_call_fraction=(0.0, 0.01),
            mean_distinct_counterparties=(8, 33),
            span_fraction=(0.002, 0.12),
        )


@register_scenario
class BridgeScenario(Scenario):
    """Lock/release pairs mediated by contract calls with matched amounts."""

    category = AccountCategory.BRIDGE

    def is_contract_center(self, index: int) -> bool:
        return index % 2 == 0

    def synthesize(self, centers, users, contracts, rng, start, span):
        n_centers = len(centers)
        relay_pool = contracts if len(contracts) else users
        if n_centers == 0 or len(users) == 0 or len(relay_pool) == 0:
            return RawTxBlock.empty()
        n_pairs = rng.integers(15, 35, size=n_centers)
        total = int(n_pairs.sum())
        depositors = draw_from_pool(rng, users, total)
        center_per_row = np.repeat(centers, n_pairs)
        t_lock = start + rng.uniform(0.0, span * 0.95, size=total)
        values = rng.lognormal(mean=0.8, sigma=0.8, size=total)
        lock = _block(depositors, center_per_row, values,
                      rng.uniform(25, 70, size=total), CONTRACT_GAS, t_lock, True)
        # Releases fan out through a small per-centre basket of relay
        # contracts (1-3), matching the seed archetype's low relay degree.
        n_relays = np.minimum(rng.integers(1, 4, size=n_centers), len(relay_pool))
        basket = draw_from_pool(rng, relay_pool, int(n_relays.sum()))
        basket_start = np.cumsum(n_relays) - n_relays
        pick = np.floor(rng.random(total)
                        * np.repeat(n_relays, n_pairs)).astype(np.int64)
        relays = basket[np.repeat(basket_start, n_pairs) + pick]
        release = _block(
            center_per_row, relays,
            values * rng.uniform(0.985, 0.999, size=total),
            rng.uniform(25, 70, size=total), CONTRACT_GAS,
            t_lock + rng.uniform(120.0, 3600.0, size=total), True)
        return RawTxBlock.concat([lock, release])

    def envelope(self):
        return ScenarioEnvelope(
            txs_per_center=(30, 68),
            in_fraction=(0.45, 0.55),
            contract_call_fraction=(0.99, 1.0),
            mean_distinct_counterparties=(8, 40),
            span_fraction=(0.7, 1.01),
            net_flow_imbalance=(0.0, 0.05),
        )


@register_scenario
class DefiScenario(Scenario):
    """Contract-call-heavy bidirectional interaction with a few protocol contracts."""

    category = AccountCategory.DEFI

    def is_contract_center(self, index: int) -> bool:
        return index % 2 == 0

    def synthesize(self, centers, users, contracts, rng, start, span):
        n_centers = len(centers)
        protocol_pool = contracts if len(contracts) else users
        if n_centers == 0 or len(protocol_pool) == 0:
            return RawTxBlock.empty()
        # A per-centre protocol basket (1-5 contracts) drawn once, then each
        # interaction picks from its centre's basket — preserving the seed
        # archetype's low protocol degree at any pool size.
        n_protocols = rng.integers(1, 6, size=n_centers)
        n_protocols = np.minimum(n_protocols, len(protocol_pool))
        basket = draw_from_pool(rng, protocol_pool, int(n_protocols.sum()))
        basket_start = np.cumsum(n_protocols) - n_protocols

        n_interactions = rng.integers(30, 60, size=n_centers)
        total = int(n_interactions.sum())
        pick = np.floor(rng.random(total)
                        * np.repeat(n_protocols, n_interactions)).astype(np.int64)
        protocols = basket[np.repeat(basket_start, n_interactions) + pick]
        center_per_row = np.repeat(centers, n_interactions)
        outbound = rng.random(total) < 0.55
        senders = np.where(outbound, center_per_row, protocols)
        receivers = np.where(outbound, protocols, center_per_row)
        return _block(senders, receivers,
                      rng.lognormal(mean=-0.3, sigma=0.9, size=total),
                      rng.uniform(30, 90, size=total), CONTRACT_GAS,
                      start + rng.uniform(0.0, span, size=total), True)

    def envelope(self):
        return ScenarioEnvelope(
            txs_per_center=(30, 60),
            in_fraction=(0.3, 0.6),
            contract_call_fraction=(0.99, 1.0),
            mean_distinct_counterparties=(1, 6),
            span_fraction=(0.7, 1.0),
        )
