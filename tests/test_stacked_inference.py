"""Stacked scoring equals each head's own per-sample forward, bit for bit.

:meth:`DeAnonymizer.score` and :meth:`DeAnonymizer.score_samples` run one
stacked GSG and one stacked LDG forward per chunk of equal-size samples for
every group of same-architecture heads
(:class:`~repro.core.inference.StackedHeads`).  The reference here is the
training forward: each branch's ``_network`` on one prepared sample, then
the head's calibration and classifier.  The heads mix the shapes the
stacking must handle: two heads of one architecture, the
``use_gsg=False`` / ``use_ldg=False`` ablations, a wider head that forms its
own groups, and a head with two attention heads per GAT layer and three
DiffPool layers (coarse graphs pooled again).  The batches mix node counts,
repeat samples and fill a node count past one chunk.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import DeAnonymizer
from repro.core import CalibrationConfig, DBG4ETHConfig, GSGConfig, LDGConfig, StackedHeads
from repro.core.inference import _CHUNK, _CoarseGraphs, _chunks
from repro.data import DatasetConfig
from repro.data.dataset import AccountSubgraph
from repro.graph import TxGraph
from repro.graph.sparse import SparseAdjacency

DATASET_CONFIG = DatasetConfig(top_k=40, max_nodes_per_subgraph=40, seed=3)


def micro_config(hidden_dim: int = 8, seed: int = 0, gsg=None, ldg=None,
                 **switches) -> DBG4ETHConfig:
    return DBG4ETHConfig(
        gsg=GSGConfig(hidden_dim=hidden_dim, epochs=1, contrastive_batch=4, seed=seed,
                      **(gsg or {})),
        ldg=LDGConfig(hidden_dim=hidden_dim, epochs=1, num_slices=3, first_pool_clusters=4,
                      seed=seed, **(ldg or {})),
        calibration=CalibrationConfig(), seed=seed, **switches)


HEADS = {
    "exchange": micro_config(),
    "phish/hack": micro_config(),
    "mining": micro_config(use_gsg=False),
    "defi": micro_config(use_ldg=False),
    "bridge": micro_config(hidden_dim=12),
    "mixer": micro_config(gsg={"num_heads": 2}, ldg={"pooling_layers": 3}),
}


@pytest.fixture(scope="module")
def fitted(small_ledger, small_dataset) -> DeAnonymizer:
    facade = DeAnonymizer.from_dataset(small_dataset, ledger=small_ledger,
                                       dataset_config=DATASET_CONFIG)
    for name, config in HEADS.items():
        facade.model_config = config
        samples, labels = small_dataset.binary_task(name, rng=np.random.default_rng(0))
        facade.fit_category(name, samples, labels)
    return facade


@pytest.fixture(scope="module")
def addresses(small_dataset) -> list[str]:
    return [sample.center for sample in list(small_dataset)[:12]]


@pytest.fixture(scope="module")
def pool(small_dataset) -> list[str]:
    """Every dataset centre: most samples hit the 40-node cap, a few are smaller."""
    return [sample.center for sample in small_dataset]


@pytest.fixture(scope="module")
def lone(small_dataset) -> AccountSubgraph:
    """A one-node sample (an account that only pays itself); the fixture
    ledger has none."""
    graph = TxGraph()
    graph.add_edge("self-payer", "self-payer", amount=2.0, timestamp=5.0)
    return AccountSubgraph("self-payer", None, graph,
                           small_dataset[0].node_features[:1].copy(), 0)


@pytest.fixture(scope="module")
def reference(fitted):
    """Memoized :func:`forward_scores` of one fitted head on one sample."""
    memo = {}

    def scores(name, sample):
        key = (name, sample.center)
        if key not in memo:
            memo[key] = forward_scores(fitted.head(name), [sample])
        return memo[key]

    return scores


def serving(fitted: DeAnonymizer, names, ledger) -> DeAnonymizer:
    """A fresh facade over ``ledger`` restoring only the heads ``names``."""
    state = fitted.get_state()
    state["heads"] = {name: state["heads"][name] for name in names}
    return DeAnonymizer(ledger, DATASET_CONFIG).set_state(state)


def forward_scores(head, samples) -> tuple:
    """Raw ``(gsg, ldg)`` scores from each branch's per-sample training forward."""
    def branch_scores(branch):
        if branch is None:
            return None
        return np.array([branch._network(*branch._prepare(sample)).data.item()
                         for sample in samples])

    return branch_scores(head.gsg_branch), branch_scores(head.ldg_branch)


def forward_reference(head, samples) -> np.ndarray:
    """The head's probabilities from its per-sample training forward."""
    gsg, ldg = forward_scores(head, samples)
    gsg = ldg if gsg is None else gsg
    ldg = gsg if ldg is None else ldg
    return head.classifier.predict_proba(head.calibration.transform(gsg, ldg))


def same_scores(got, expected) -> bool:
    """Bitwise equality of two score arrays, either of which may be ``None``."""
    if got is None or expected is None:
        return got is expected
    return np.array_equal(got, expected)


@settings(max_examples=20, deadline=None)
@given(names=st.lists(st.sampled_from(sorted(HEADS)), min_size=1, unique=True),
       picks=st.lists(st.integers(0, 11), min_size=1, max_size=8))
def test_score_equals_each_heads_per_sample_forward(fitted, addresses, small_ledger,
                                                    names, picks):
    facade = serving(fitted, names, small_ledger)
    batch = [addresses[i] for i in picks]
    scores = facade.score(batch)
    samples = [facade.sample_for(address) for address in batch]
    by_sample = facade.score_samples(samples)
    heads = {name: facade.head(name) for name in names}
    # The classifier's output moves in steps, so compare the raw branch
    # scores too: the stacked ones for every head, and each branch alone.
    raw = StackedHeads(heads).branch_scores(samples)
    for name, head in heads.items():
        gsg, ldg = forward_scores(head, samples)
        assert same_scores(raw[name][0], gsg) and same_scores(raw[name][1], ldg)
        for branch, expected in ((head.gsg_branch, gsg), (head.ldg_branch, ldg)):
            if branch is not None:
                assert np.array_equal(branch.predict_scores(samples), expected)
        expected = forward_reference(head, samples)
        assert [scores[address][name] for address in batch] == expected.tolist()
        assert np.array_equal(by_sample[name], expected)
        assert np.array_equal(head.predict_proba(samples), expected)


@settings(max_examples=20, deadline=None)
@given(names=st.lists(st.sampled_from(sorted(HEADS)), min_size=1, unique=True),
       picks=st.lists(st.integers(0, 1000), min_size=1, max_size=40),
       lone_at=st.integers(0, 40))
@example(names=sorted(HEADS), picks=list(range(40)), lone_at=3)
@example(names=["exchange", "mixer"], picks=[5] * 40, lone_at=40)
def test_a_batch_scores_every_sample_as_it_scores_alone(fitted, pool, lone, reference,
                                                       small_ledger, names, picks,
                                                       lone_at):
    facade = serving(fitted, names, small_ledger)
    batch = [pool[i % len(pool)] for i in picks]
    scores = facade.score(batch)
    for address in set(batch):
        assert scores[address] == facade.score([address])[address]
    samples = [facade.sample_for(address) for address in batch]
    samples.insert(min(lone_at, len(samples)), lone)
    raw = StackedHeads({name: facade.head(name) for name in names}).branch_scores(samples)
    for name in names:
        expected = [reference(name, sample) for sample in samples]
        for kind in (0, 1):
            column = (None if expected[0][kind] is None
                      else np.concatenate([pair[kind] for pair in expected]))
            assert same_scores(raw[name][kind], column)


def test_heads_group_by_architecture(fitted, small_ledger):
    stacked = serving(fitted, sorted(HEADS), small_ledger)._stacked_heads()
    groups = sorted(sorted(members) for members, _ in stacked._groups)
    assert groups == [
        [("bridge", "gsg")], [("bridge", "ldg")],
        [("defi", "gsg"), ("exchange", "gsg"), ("phish/hack", "gsg")],
        [("exchange", "ldg"), ("mining", "ldg"), ("phish/hack", "ldg")],
        [("mixer", "gsg")], [("mixer", "ldg")],
    ]


def test_score_records_one_pass_per_group_and_chunk(fitted, pool, small_ledger):
    facade = serving(fitted, ["exchange", "phish/hack", "bridge"], small_ledger)
    facade.score(pool)
    # Two groups per architecture: one GSG and one LDG stack each.
    sizes = Counter(facade.sample_for(address).num_nodes for address in pool)
    forwards = sum(-(-count // _CHUNK) for count in sizes.values())
    assert max(sizes.values()) > _CHUNK and len(sizes) > 1
    assert forwards == len(_chunks([facade.sample_for(address) for address in pool]))
    passes = facade.stats()["serving"]["stages"]["score.head_passes"]
    assert passes["count"] == 1 and passes["total"] == 4 * forwards


def test_threads_scoring_through_a_cold_stack_match_sequential(fitted, addresses,
                                                              small_ledger):
    names = sorted(HEADS)
    expected = serving(fitted, names, small_ledger).score(addresses)
    facade = serving(fitted, names, small_ledger)       # stack and samples cold
    barrier = threading.Barrier(8)
    results = [None] * 8

    def work(i):
        barrier.wait(30)
        results[i] = facade.score(addresses)

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
    assert all(result == expected for result in results)


def test_refitting_a_head_after_score_rebuilds_the_stack(fitted, addresses, small_ledger,
                                                         small_dataset):
    facade = serving(fitted, ["exchange", "phish/hack"], small_ledger)
    samples = [facade.sample_for(address) for address in addresses]
    before = facade.score_samples(samples)
    old = facade.head("exchange")
    facade.model_config = micro_config(seed=7)
    task, labels = small_dataset.binary_task("exchange", rng=np.random.default_rng(0))
    facade.fit_category("exchange", task, labels)
    after = facade.score(addresses)
    new = facade.head("exchange")
    expected = forward_reference(new, samples)
    # Stale stacked weights would feed the old head's branch scores to the
    # new head's calibration and classifier, which gives other values.
    stale = new.classifier.predict_proba(new.calibration.transform(*forward_scores(old, samples)))
    assert not np.array_equal(stale, expected)
    assert [after[address]["exchange"] for address in addresses] == expected.tolist()
    assert [after[address]["phish/hack"] for address in addresses] == \
        before["phish/hack"].tolist()


def test_a_head_trained_on_sample_stacks_keeps_its_own_predict(fitted, addresses,
                                                               small_ledger, small_dataset):
    facade = serving(fitted, ["exchange"], small_ledger)
    facade.model_config = micro_config(gsg={"batch_size": 4}, ldg={"batch_size": 4})
    task, labels = small_dataset.binary_task("ico-wallet", rng=np.random.default_rng(0))
    facade.fit_category("ico-wallet", task, labels)
    samples = [facade.sample_for(address) for address in addresses]
    scores = facade.score_samples(samples)
    batched = facade.head("ico-wallet")
    raw = StackedHeads({"ico-wallet": batched}).branch_scores(samples)["ico-wallet"]
    assert np.array_equal(raw[0], batched.gsg_branch.predict_scores(samples))
    assert np.array_equal(raw[1], batched.ldg_branch.predict_scores(samples))
    assert np.array_equal(scores["ico-wallet"], batched.predict_proba(samples))
    assert np.array_equal(scores["exchange"],
                          forward_reference(facade.head("exchange"), samples))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), heads=st.integers(1, 3), batch=st.integers(1, 4),
       nodes=st.integers(1, 9), dim=st.integers(1, 5),
       zero_share=st.sampled_from([0.0, 0.0, 0.3, 1.0]))
def test_coarse_graphs_match_each_heads_csr_graph(seed, heads, batch, nodes, dim,
                                                  zero_share):
    rng = np.random.default_rng(seed)
    dense = rng.uniform(0.01, 3.0, size=(heads, batch, nodes, nodes))
    dense[rng.random(dense.shape) < zero_share] = 0.0
    x = rng.normal(size=(heads, batch, nodes, dim))
    graphs = _CoarseGraphs(dense)
    propagated, transposed = graphs.gcn(x), graphs.rmatmul(x)
    for h in range(heads):
        for b in range(batch):
            csr = SparseAdjacency.from_dense(dense[h, b])
            assert np.array_equal(propagated[h, b], csr.gcn_normalized().matmul(x[h, b]))
            assert np.array_equal(transposed[h, b], csr.rmatmul(x[h, b]))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), heads=st.integers(1, 3), nodes=st.integers(1, 12),
       dim=st.integers(1, 6), density=st.floats(0.0, 1.0))
def test_sparse_products_over_a_head_axis_match_each_slice(seed, heads, nodes, dim, density):
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((nodes, nodes)) < density,
                     rng.uniform(0.1, 2.0, (nodes, nodes)), 0.0)
    adjacency = SparseAdjacency.from_dense(dense)
    x = rng.normal(size=(heads, nodes, dim))
    product, transposed = adjacency.matmul(x, axis=1), adjacency.rmatmul(x, axis=1)
    for h in range(heads):
        assert np.array_equal(product[h], adjacency.matmul(x[h]))
        assert np.array_equal(transposed[h], adjacency.rmatmul(x[h]))
