"""Scores memoized on cached samples equal the heads' own result, bit for bit.

:meth:`DeAnonymizer.score` keeps every head's probability on the cached
:class:`~repro.data.dataset.AccountSubgraph` (``head_scores``), under the
token of the :class:`~repro.core.inference.StackedHeads` that computed it,
and runs the heads only on samples without a memo under the current token.
The property drives interleavings of everything that touches either side of
that memo: scoring batches and single addresses, ledger appends with
``sync`` and ``refresh``, refits, ``set_state`` and ``load``,
``clear_sample_cache``, ``attach_ledger`` and LRU bounds.  It runs them on
two facades that share one dataset's sample objects, with different heads,
and checks every ``score()`` result against a freshly built ``StackedHeads``
of the facade's current heads on the samples that ``score()`` served.
"""

from __future__ import annotations

import pickle
import sys
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import DeAnonymizer
from repro.chain import LedgerConfig, generate_ledger
from repro.core import CalibrationConfig, DBG4ETHConfig, GSGConfig, LDGConfig, StackedHeads
from repro.data import DatasetConfig, SubgraphDatasetBuilder

DATASET_CONFIG = DatasetConfig(top_k=30, max_nodes_per_subgraph=20, seed=3)
POOL = 8                     # addresses the steps pick from: 4 dataset centres, 4 others


def micro_config(seed: int) -> DBG4ETHConfig:
    return DBG4ETHConfig(
        gsg=GSGConfig(hidden_dim=8, epochs=1, contrastive_batch=4, seed=seed),
        ldg=LDGConfig(hidden_dim=8, epochs=1, num_slices=3, first_pool_clusters=4,
                      seed=seed),
        calibration=CalibrationConfig(), seed=seed)


def fresh_ledger():
    config = LedgerConfig().scaled(0.15)
    config.seed = 9
    return generate_ledger(config)


def fit(facade: DeAnonymizer, dataset, category: str, seed: int) -> DeAnonymizer:
    facade.model_config = micro_config(seed)
    samples, labels = dataset.binary_task(category, rng=np.random.default_rng(0))
    return facade.fit_category(category, samples, labels)


def pool_of(dataset, ledger) -> list[str]:
    """Dataset centres, whose samples the facades share, then addresses that
    each facade samples on demand."""
    centres = [sample.center for sample in dataset]
    graph = SubgraphDatasetBuilder(ledger, DATASET_CONFIG).graph
    others = [node for node in graph.nodes if node not in set(centres)
              and graph.degree(node) >= 2]
    return centres[:POOL // 2] + others[:POOL - POOL // 2]


def append_touching(ledger, addresses: list[str]) -> None:
    """One block in which every address in ``addresses`` sends and receives."""
    senders = list(addresses) + ["0xmemo-counterparty"] * len(addresses)
    receivers = ["0xmemo-counterparty"] * len(addresses) + list(addresses)
    n = len(senders)
    start = ledger.timespan()[1] + ledger.block_interval
    ledger.append_blocks_columnar(
        senders, receivers, values=np.linspace(5.0, 9.0, n),
        gas_prices=np.full(n, 20.0), gas_used=np.full(n, 21_000, dtype=np.int64),
        timestamps=start + np.arange(n, dtype=np.float64),
        is_contract_call=np.zeros(n, dtype=bool), submitted=np.ones(n, dtype=bool),
        transactions_per_block=n)


@contextmanager
def recording(facade: DeAnonymizer):
    """``{address: sample}`` of every sample ``facade.sample_for`` serves meanwhile."""
    served = {}
    sample_for = facade.sample_for

    def record(address):
        served[address] = sample = sample_for(address)
        return sample

    facade.sample_for = record
    try:
        yield served
    finally:
        del facade.sample_for


def expected_scores(facade: DeAnonymizer, samples) -> list[dict[str, float]]:
    """A freshly built stack of the facade's current heads on ``samples``."""
    stacked = StackedHeads({name: facade.head(name) for name in facade.categories})
    per_head = stacked.predict_proba(samples)
    return [{name: float(p[i]) for name, p in per_head.items()} for i in range(len(samples))]


def checked_score(facade: DeAnonymizer, addresses) -> dict:
    """``score(addresses)``, checked against fresh stacked heads on the samples
    it served; the returned dicts are then overwritten, as a caller may."""
    with recording(facade) as served:
        result = facade.score(addresses)
    batch = list(dict.fromkeys([addresses] if isinstance(addresses, str) else addresses))
    assert list(result) == batch
    expected = expected_scores(facade, [served[address] for address in batch])
    assert [result[address] for address in batch] == expected
    for scores in result.values():
        for name in scores:
            scores[name] = -1.0
    return result


@pytest.fixture(scope="module")
def restorable(tmp_path_factory) -> list[tuple[dict, Path]]:
    """Head sets to restore: ``(state, saved directory)`` pairs."""
    ledger = fresh_ledger()
    dataset = SubgraphDatasetBuilder(ledger, DATASET_CONFIG).build()
    out = []
    for k, heads in enumerate(({"exchange": 3}, {"exchange": 4, "mining": 4})):
        facade = DeAnonymizer.from_dataset(dataset, ledger=ledger,
                                           dataset_config=DATASET_CONFIG)
        for category, seed in heads.items():
            fit(facade, dataset, category, seed)
        out.append((facade.get_state(), facade.save(tmp_path_factory.mktemp(f"heads{k}"))))
    return out


facade_index = st.integers(0, 1)
picks = st.lists(st.integers(0, POOL - 1), min_size=1, max_size=5)
steps = st.lists(st.one_of(
    st.tuples(st.just("batch"), facade_index, picks),
    st.tuples(st.just("single"), facade_index, st.integers(0, POOL - 1)),
    st.tuples(st.just("append"), picks),
    st.tuples(st.just("refit"), facade_index, st.integers(0, 2)),
    st.tuples(st.just("set_state"), facade_index, st.integers(0, 1)),
    st.tuples(st.just("load"), facade_index, st.integers(0, 1)),
    st.tuples(st.just("clear"), facade_index),
    st.tuples(st.just("attach"), facade_index),
    st.tuples(st.just("cache_size"), facade_index, st.sampled_from([None, 1, 3])),
), min_size=1, max_size=10)


@settings(max_examples=25, deadline=None)
@given(steps=steps)
def test_every_score_equals_fresh_stacked_heads_on_the_served_sample(restorable, steps):
    ledger = fresh_ledger()
    with tempfile.TemporaryDirectory() as directory:
        ledger.sync(Path(directory) / "ledger")
        dataset = SubgraphDatasetBuilder(ledger, DATASET_CONFIG).build()
        pool = pool_of(dataset, ledger)
        # Two facades over one dataset's sample objects, with different heads.
        facades = [fit(DeAnonymizer.from_dataset(dataset, ledger=ledger,
                                                 dataset_config=DATASET_CONFIG),
                       dataset, "exchange", seed) for seed in (0, 1)]
        for op, *args in steps:
            if op == "batch":
                checked_score(facades[args[0]], [pool[i] for i in args[1]])
            elif op == "single":
                checked_score(facades[args[0]], pool[args[1]])
            elif op == "append":
                append_touching(ledger, [pool[i] for i in args[0]])
                ledger.sync()
                for facade in facades:
                    facade.refresh()
            elif op == "refit":
                fit(facades[args[0]], dataset, "exchange", args[1])
            elif op == "set_state":
                facades[args[0]].set_state(restorable[args[1]][0])
            elif op == "load":
                facades[args[0]] = DeAnonymizer.load(restorable[args[1]][1], ledger)
            elif op == "clear":
                facades[args[0]].clear_sample_cache()
            elif op == "attach":
                facades[args[0]].attach_ledger(ledger)
            else:
                facades[args[0]].sample_cache_size = args[1]
            for facade in facades:
                checked_score(facade, [pool[0], pool[-1]])


@pytest.fixture(scope="module")
def shared():
    """A ledger, its dataset and two facades over the dataset with different heads."""
    ledger = fresh_ledger()
    dataset = SubgraphDatasetBuilder(ledger, DATASET_CONFIG).build()
    facades = [fit(DeAnonymizer.from_dataset(dataset, ledger=ledger,
                                             dataset_config=DATASET_CONFIG),
                   dataset, "exchange", seed) for seed in (0, 1)]
    return ledger, dataset, facades


def test_facades_over_one_dataset_never_see_each_others_memo(shared):
    _, dataset, facades = shared
    samples = list(dataset)[:12]
    batch = [sample.center for sample in samples]
    expected = [expected_scores(facade, samples) for facade in facades]
    # The heads differ on these samples, so a shared memo would show.
    assert expected[0] != expected[1]
    for _ in range(2):
        for facade, want in zip(facades, expected):
            got = facade.score(batch)
            assert [got[address] for address in batch] == want


def test_threads_of_two_facades_racing_on_shared_samples_get_their_own_scores(shared):
    """Eight threads, half on each facade, score the same sample objects while
    the other facade's scores overwrite their memos."""
    ledger, dataset, _ = shared
    facades = [fit(DeAnonymizer.from_dataset(dataset, ledger=ledger,
                                             dataset_config=DATASET_CONFIG),
                   dataset, "exchange", seed) for seed in (0, 1)]
    samples = list(dataset)[:16]
    batch = [sample.center for sample in samples]
    expected = [expected_scores(facade, samples) for facade in facades]
    assert expected[0] != expected[1]
    barrier = threading.Barrier(8)
    results = [None] * 8

    def work(i):
        barrier.wait(30)
        results[i] = [facades[i % 2].score(batch) for _ in range(4)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i, rounds in enumerate(results):
        assert all([got[address] for address in batch] == expected[i % 2] for got in rounds)


def test_a_repeat_is_answered_from_the_memo(shared):
    ledger, dataset, _ = shared
    facade = fit(DeAnonymizer.from_dataset(dataset, ledger=ledger,
                                           dataset_config=DATASET_CONFIG),
                 dataset, "exchange", 2)
    batch = [sample.center for sample in dataset][:10]
    first = facade.score(batch)
    passes = facade.stats()["serving"]["stages"]["score.head_passes"]["total"]
    assert passes > 0 and facade.metrics.counter("score.memo_hits") == 0
    first[batch[0]]["exchange"] = -1.0           # the caller's copy, not the memo
    again = facade.score(batch + batch[:3])
    assert facade.metrics.counter("score.memo_hits") == len(batch)
    stages = facade.stats()["serving"]["stages"]
    assert stages["score.head_passes"]["total"] == passes     # no forward ran
    assert [again[address] for address in batch] == expected_scores(facade, list(dataset)[:10])
    # A new address costs its own forwards; the rest still come from the memo.
    other = pool_of(dataset, ledger)[-1]
    facade.score(batch[:4] + [other])
    assert facade.metrics.counter("score.memo_hits") == len(batch) + 4
    assert facade.stats()["serving"]["stages"]["score.head_passes"]["total"] == passes + 2


def test_a_pickled_sample_leaves_its_memo_behind(shared):
    ledger, dataset, facades = shared
    sample = dataset[0]
    facades[0].score([sample.center])
    assert sample.head_scores is not None
    copy = pickle.loads(pickle.dumps(sample))
    assert copy.head_scores is None
    assert copy.center == sample.center and sample.head_scores is not None
    unscored = SubgraphDatasetBuilder(ledger, DATASET_CONFIG).build_sample(sample.center)
    assert pickle.loads(pickle.dumps(unscored)).head_scores is None
