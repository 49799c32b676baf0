"""Shared fixtures: a small synthetic ledger and subgraph dataset.

The heavier fixtures are session-scoped so the ~40 test modules share one
ledger/dataset build instead of regenerating them per test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chain import LedgerConfig, generate_ledger
from repro.data import DatasetConfig, SubgraphDatasetBuilder

from tests._dict_reference import build_graph


@pytest.fixture(scope="session")
def small_ledger():
    """A small but complete synthetic ledger covering all six categories."""
    config = LedgerConfig().scaled(0.25)
    config.seed = 11
    return generate_ledger(config)


@pytest.fixture(scope="session")
def small_dataset(small_ledger):
    """Account-centred subgraph dataset built from :func:`small_ledger`."""
    builder = SubgraphDatasetBuilder(
        small_ledger, DatasetConfig(top_k=40, max_nodes_per_subgraph=40, seed=3))
    return builder.build()


@pytest.fixture(scope="session")
def exchange_task(small_dataset):
    """(samples, labels) for the exchange one-vs-rest task."""
    return small_dataset.binary_task("exchange", rng=np.random.default_rng(1))


@pytest.fixture()
def toy_graph():
    """A hand-built 5-node transaction graph with known structure."""
    return build_graph([
        ("a", "b", 3.0, 1, 100.0),
        ("a", "b", 1.0, 1, 200.0),          # merges with the first
        ("b", "c", 5.0, 1, 300.0),
        ("c", "d", 0.5, 1, 400.0),
        ("d", "a", 2.0, 1, 500.0),
        ("a", "e", 10.0, 1, 600.0),
    ])


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
