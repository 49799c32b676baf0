"""Deterministic synthetic-ledger generation via the scenario engine.

The generator registers the account population (background users, contracts,
labelled centres), then asks each registered scenario
(:mod:`repro.chain.scenarios`) to synthesize its labelled behaviour as one
columnar :class:`RawTxBlock` per category — batched RNG draws across all of
the category's centres at once, no per-transaction Python objects.  The
concatenated stream is sorted by timestamp and appended to the ledger's
columnar store in one bulk call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.chain.accounts import Account, AccountType, make_address, make_addresses
from repro.chain.labelcloud import AccountCategory
from repro.chain.ledger import Ledger
from repro.chain.scenarios import RawTxBlock, scenario_for
from repro.chain.scenarios.base import CONTRACT_GAS, TRANSFER_GAS

__all__ = ["LedgerConfig", "LedgerGenerator", "generate_ledger"]


@dataclass
class LedgerConfig:
    """Configuration for :class:`LedgerGenerator`.

    The default category counts are scaled-down versions of the paper's Table
    II (which has 231 exchanges, 155 ICO wallets, 56 miners, 1991 phishers,
    105 bridges and 105 DeFi accounts) so that the full pipeline runs on a
    laptop, extended with the three post-paper attack families the scenario
    engine adds (wash-trading, airdrop-farming, mixer).
    """

    labeled_per_category: dict[AccountCategory, int] = field(default_factory=lambda: {
        AccountCategory.EXCHANGE: 24,
        AccountCategory.ICO_WALLET: 16,
        AccountCategory.MINING: 12,
        AccountCategory.PHISH_HACK: 40,
        AccountCategory.BRIDGE: 12,
        AccountCategory.DEFI: 12,
        AccountCategory.WASH_TRADING: 10,
        AccountCategory.AIRDROP_FARMING: 14,
        AccountCategory.MIXER: 10,
    })
    num_background_users: int = 400
    num_contracts: int = 40
    start_timestamp: float = 1_438_900_000.0   # 2015-08-07, the paper's data start
    timespan: float = 3600.0 * 24 * 365        # one simulated year
    transactions_per_block: int = 50
    background_tx_count: int = 600
    unsubmitted_fraction: float = 0.01
    seed: int = 7
    #: Run each scenario's statistical self-check after synthesis (skipped
    #: automatically when the counterparty pools are degenerate).
    validate_scenarios: bool = False

    def scaled(self, factor: float) -> "LedgerConfig":
        """Return a copy with category counts and background sizes scaled by ``factor``."""
        return LedgerConfig(
            labeled_per_category={
                cat: max(2, int(round(n * factor)))
                for cat, n in self.labeled_per_category.items()
            },
            num_background_users=max(20, int(round(self.num_background_users * factor))),
            num_contracts=max(5, int(round(self.num_contracts * factor))),
            start_timestamp=self.start_timestamp,
            timespan=self.timespan,
            transactions_per_block=self.transactions_per_block,
            background_tx_count=max(50, int(round(self.background_tx_count * factor))),
            unsubmitted_fraction=self.unsubmitted_fraction,
            seed=self.seed,
            validate_scenarios=self.validate_scenarios,
        )

    def with_scenarios(self, categories: Iterable[AccountCategory | str]) -> "LedgerConfig":
        """Return a copy restricted to the given scenario families.

        ``categories`` accepts :class:`AccountCategory` members or their value
        strings; categories absent from the current count table get the
        default config's count for that category.
        """
        wanted = [AccountCategory(c) for c in categories]
        if not wanted:
            raise ValueError("at least one scenario category is required")
        defaults = LedgerConfig().labeled_per_category
        counts = {cat: self.labeled_per_category.get(cat, defaults.get(cat, 2))
                  for cat in wanted}
        clone = LedgerConfig(**{**vars(self)})
        clone.labeled_per_category = counts
        return clone


class LedgerGenerator:
    """Build a :class:`~repro.chain.Ledger` from a :class:`LedgerConfig`.

    The synthesized :class:`RawTxBlock` is sorted and appended column-wise
    straight into the ledger's :class:`~repro.chain.txstore.ColumnarTxStore`
    without creating a single :class:`~repro.chain.transactions.Transaction`
    object.  ``tests/test_graph_golden.py`` pins the generated ledger's bits
    with a SHA-256 digest.
    """

    def __init__(self, config: LedgerConfig | None = None):
        self.config = config or LedgerConfig()

    def generate(self) -> Ledger:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        ledger = Ledger(genesis_timestamp=cfg.start_timestamp)
        raw = self.synthesize(ledger, rng)
        self._assemble_blocks(ledger, raw, rng)
        return ledger

    def synthesize(self, ledger: Ledger, rng: np.random.Generator) -> RawTxBlock:
        """Register the account population and synthesize every raw transaction.

        Returns the unsorted concatenated :class:`RawTxBlock` of all scenario
        and background traffic; account addresses are pre-interned into the
        ledger's store in creation order, so the block's id columns are valid
        store account ids.
        """
        cfg = self.config
        background = self._create_background_accounts(ledger)
        contracts = self._create_contract_accounts(ledger)
        labeled = self._create_labeled_accounts(ledger)

        store = ledger.store
        user_ids = store.intern_many(background)
        contract_ids = store.intern_many(contracts)
        labeled_ids = store.intern_many([address for address, _ in labeled])

        blocks: list[RawTxBlock] = []
        offset = 0
        for category, count in cfg.labeled_per_category.items():
            centers = labeled_ids[offset:offset + count]
            offset += count
            scenario = scenario_for(category)
            block = scenario.synthesize(centers, user_ids, contract_ids, rng,
                                        cfg.start_timestamp, cfg.timespan)
            if (cfg.validate_scenarios and len(user_ids) > 1
                    and len(contract_ids) > 1):
                scenario.self_check(block, centers, cfg.start_timestamp,
                                    cfg.timespan)
            blocks.append(block)
        blocks.append(self._background_traffic_block(user_ids, contract_ids, rng))
        return RawTxBlock.concat(blocks)

    # ------------------------------------------------------------------ helpers
    def _create_background_accounts(self, ledger: Ledger) -> list[str]:
        addresses = make_addresses(self.config.num_background_users, prefix="u")
        ledger.add_accounts_bulk(addresses, AccountType.EOA)
        return addresses

    def _create_contract_accounts(self, ledger: Ledger) -> list[str]:
        addresses = make_addresses(self.config.num_contracts, prefix="c")
        ledger.add_accounts_bulk(addresses, AccountType.CONTRACT)
        return addresses

    def _create_labeled_accounts(self, ledger: Ledger) -> list[tuple[str, AccountCategory]]:
        labeled: list[tuple[str, AccountCategory]] = []
        index = 0
        for category, count in self.config.labeled_per_category.items():
            scenario = scenario_for(category)
            for position in range(count):
                address = make_address(index, prefix="L")
                account_type = (AccountType.CONTRACT
                                if scenario.is_contract_center(position)
                                else AccountType.EOA)
                ledger.add_account(Account(address, account_type))
                ledger.labels.add(address, category)
                labeled.append((address, category))
                index += 1
        return labeled

    def _background_traffic_block(self, user_ids: np.ndarray,
                                  contract_ids: np.ndarray,
                                  rng: np.random.Generator) -> RawTxBlock:
        """Random peer-to-peer chatter among unlabeled users (vectorised)."""
        cfg = self.config
        n = cfg.background_tx_count
        num_users = len(user_ids)
        if n == 0 or num_users == 0:
            return RawTxBlock.empty()
        senders = user_ids[rng.integers(0, num_users, size=n)]
        # Distinct receiver via a nonzero modular offset (uniform over the
        # other users); degenerate single-user pools keep only contract calls.
        if num_users > 1:
            offsets = rng.integers(1, num_users, size=n)
            receivers = user_ids[(np.searchsorted(user_ids, senders) + offsets)
                                 % num_users]
        else:
            receivers = senders.copy()
        is_call = rng.random(n) < 0.15
        if len(contract_ids):
            receivers = np.where(
                is_call, contract_ids[rng.integers(0, len(contract_ids), size=n)],
                receivers)
        else:
            is_call[:] = False
        block = RawTxBlock(
            senders, receivers,
            rng.lognormal(mean=-0.5, sigma=1.0, size=n),
            rng.uniform(15, 60, size=n),
            np.where(is_call, CONTRACT_GAS, TRANSFER_GAS),
            cfg.start_timestamp + rng.uniform(0.0, cfg.timespan, size=n),
            is_call)
        if num_users == 1:
            block = block.take(np.flatnonzero(block.is_contract_call))
        return block

    def _assemble_blocks(self, ledger: Ledger, raw: RawTxBlock,
                         rng: np.random.Generator) -> None:
        """Column-wise block assembly: no per-``Transaction`` object creation.

        Rows are stably sorted by timestamp, values rounded to 8 and gas
        prices to 4 decimals, one ``rng.random(n)`` call draws every row's
        submitted flag, and each block of ``transactions_per_block`` rows
        takes its last row's timestamp; rows keep the derived
        ``0x{row:064x}`` hashes.
        """
        cfg = self.config
        n = len(raw)
        if n == 0:
            return
        ordered = raw.take(np.argsort(raw.timestamp, kind="stable"))
        submitted = rng.random(n) >= cfg.unsubmitted_fraction
        ledger.append_blocks_columnar(
            ordered.sender_id, ordered.receiver_id,
            np.round(ordered.value, 8), np.round(ordered.gas_price, 4),
            ordered.gas_used, ordered.timestamp, ordered.is_contract_call,
            submitted, transactions_per_block=cfg.transactions_per_block)


def generate_ledger(config: LedgerConfig | None = None, seed: int | None = None) -> Ledger:
    """Convenience wrapper: generate a ledger, optionally overriding the seed."""
    config = config or LedgerConfig()
    if seed is not None:
        config = LedgerConfig(**{**vars(config), "seed": seed})
    return LedgerGenerator(config).generate()
