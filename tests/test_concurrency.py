"""Concurrency tests for the serving tier.

Three layers under test:

* lazy-structure thread safety — many threads hammering the graph/feature
  caches of a *cold* object must observe exactly the structures a
  single-threaded warm-up builds, bit for bit;
* the facade's LRU sample cache and aggregated unknown-address semantics;
* the :class:`ParallelScorer` fan-out and the asyncio
  :class:`ScoringService` micro-batcher, both of which must reproduce
  sequential ``score()`` results exactly while demonstrably parallelising /
  coalescing.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time

import numpy as np
import pytest

import repro.api.scorer as scorer_module
from repro.api import (
    DeAnonymizer,
    ParallelScorer,
    ScoringService,
    UnknownAddressError,
    WorkerCrashedError,
)
from repro.core import CalibrationConfig, DBG4ETHConfig, GSGConfig, LDGConfig
from repro.data import DatasetConfig, SubgraphDatasetBuilder

DATASET_CONFIG = DatasetConfig(top_k=40, max_nodes_per_subgraph=40, seed=3)
N_THREADS = 8


def micro_config() -> DBG4ETHConfig:
    return DBG4ETHConfig(
        gsg=GSGConfig(hidden_dim=8, epochs=2, contrastive_batch=4),
        ldg=LDGConfig(hidden_dim=8, epochs=2, num_slices=3, first_pool_clusters=4),
        calibration=CalibrationConfig(),
    )


def _hammer(n_threads, work):
    """Run ``work(thread_index)`` on ``n_threads`` barrier-synchronised threads.

    Returns the per-thread results; re-raises the first worker exception.
    """
    barrier = threading.Barrier(n_threads)
    results = [None] * n_threads
    errors = []

    def runner(i):
        try:
            barrier.wait()
            results[i] = work(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(i,)) for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


@pytest.fixture(scope="module")
def facade(small_ledger, small_dataset):
    """A fitted facade sharing the session dataset (one head keeps fit cheap)."""
    deanon = DeAnonymizer.from_dataset(
        small_dataset, ledger=small_ledger, dataset_config=DATASET_CONFIG,
        model_config=micro_config)
    deanon.fit(["exchange"])
    return deanon


@pytest.fixture(scope="module")
def served_addresses(small_dataset):
    return [sample.center for sample in small_dataset][:24]


# --------------------------------------------------------------------------
# Lazy-structure thread safety
# --------------------------------------------------------------------------

def _csr_arrays(graph, weighted, symmetric):
    return graph.to_csr(weighted=weighted, symmetric=symmetric)


def test_txgraph_concurrent_csr_builds_match_warm(small_ledger):
    """Racing first-builds of every lazy TxGraph structure are bit-identical
    to a single-threaded warm() on an identical graph."""
    reference = SubgraphDatasetBuilder(small_ledger, DATASET_CONFIG).graph
    reference.warm()
    cold = SubgraphDatasetBuilder(small_ledger, DATASET_CONFIG).graph
    nodes = cold.nodes[:N_THREADS]

    def work(i):
        node = nodes[i % len(nodes)]
        return (_csr_arrays(cold, False, True), _csr_arrays(cold, True, True),
                cold.out_slots(node), cold.in_slots(node), cold.degree(node))

    results = _hammer(N_THREADS, work)
    for key in ((False, True), (True, True)):
        want = _csr_arrays(reference, *key)
        got = _csr_arrays(cold, *key)
        for w, g in zip(want, got):
            np.testing.assert_array_equal(w, g)
    # Every thread observed the same memoized CSR objects (built exactly once).
    for i in range(1, N_THREADS):
        assert results[i][0][0] is results[0][0][0]
        assert results[i][1][0] is results[0][1][0]


def test_txgraph_freeze_blocks_mutation(small_ledger):
    graph = SubgraphDatasetBuilder(small_ledger, DATASET_CONFIG).graph
    assert not graph.frozen
    graph.freeze()
    assert graph.frozen
    with pytest.raises(RuntimeError, match="frozen"):
        graph.add_node("0xNEW")
    with pytest.raises(RuntimeError, match="frozen"):
        graph.add_edge(graph.nodes[0], graph.nodes[1])
    # freeze() is idempotent and scoring reads still work.
    graph.freeze()
    indptr, indices, data = graph.to_csr(False, True)
    assert indptr[-1] == len(indices) == len(data)


def test_sparse_adjacency_concurrent_memo_single_instance(small_dataset):
    """Concurrent normalisations memoize exactly one instance, equal to a
    single-threaded compute on an identical cold adjacency."""
    sample = small_dataset[0]
    cold = sample.adjacency_sparse(weighted=True)
    warm = sample.adjacency_sparse(weighted=True)
    assert cold is warm  # AccountSubgraph memoizes the CSR itself

    def work(_):
        return (cold.gcn_normalized(), cold.mean_normalized(), cold.transpose(),
                cold.rows)

    results = _hammer(N_THREADS, work)
    for i in range(1, N_THREADS):
        for j in range(4):
            assert results[i][j] is results[0][j]
    # Parity with a fresh single-threaded computation.
    fresh = type(cold)(cold.indptr.copy(), cold.indices.copy(), cold.data.copy())
    np.testing.assert_array_equal(results[0][0].data, fresh.gcn_normalized().data)
    np.testing.assert_array_equal(results[0][1].data, fresh.mean_normalized().data)


def test_feature_table_concurrent_build_matches_sequential(small_ledger):
    from repro.data.features import DeepFeatureExtractor

    reference = DeepFeatureExtractor(small_ledger)
    addresses = [a.address for a in small_ledger.accounts[:40]]
    want = reference.extract_many(addresses)

    cold = DeepFeatureExtractor(small_ledger)
    results = _hammer(N_THREADS, lambda _: cold.extract_many(addresses))
    for got in results:
        np.testing.assert_array_equal(want, got)


def test_sample_for_concurrent_hammer_bit_identical(small_ledger, served_addresses):
    """Many threads sampling overlapping addresses on a cold facade produce
    exactly the samples a sequential facade builds."""
    sequential = DeAnonymizer(small_ledger, dataset_config=DATASET_CONFIG)
    expected = {a: sequential.sample_for(a) for a in served_addresses}

    concurrent = DeAnonymizer(small_ledger, dataset_config=DATASET_CONFIG)

    def work(i):
        rotated = served_addresses[i:] + served_addresses[:i]
        return [concurrent.sample_for(a) for a in rotated]

    _hammer(N_THREADS, work)
    assert len(concurrent._samples) == len(served_addresses)
    for address, want in expected.items():
        got = concurrent.sample_for(address)
        assert got.center == want.center
        np.testing.assert_array_equal(got.node_features, want.node_features)
        np.testing.assert_array_equal(got.adjacency(weighted=True),
                                      want.adjacency(weighted=True))


# --------------------------------------------------------------------------
# LRU sample cache
# --------------------------------------------------------------------------

def test_sample_cache_unbounded_by_default(small_ledger, served_addresses):
    deanon = DeAnonymizer(small_ledger, dataset_config=DATASET_CONFIG)
    assert deanon.sample_cache_size is None
    for address in served_addresses:
        deanon.sample_for(address)
    cache = deanon.stats()["serving"]["sample_cache"]
    assert cache["size"] == len(served_addresses)
    assert cache["evictions"] == 0


def test_sample_cache_lru_bound_and_counters(small_ledger, served_addresses):
    deanon = DeAnonymizer(small_ledger, dataset_config=DATASET_CONFIG,
                          sample_cache_size=2)
    a, b, c = served_addresses[:3]
    deanon.sample_for(a)
    deanon.sample_for(b)
    deanon.sample_for(a)          # a is now most recent
    deanon.sample_for(c)          # evicts b (least recently served)
    assert set(deanon._samples) == {a, c}
    cache = deanon.stats()["serving"]["sample_cache"]
    assert cache == {"size": 2, "max_size": 2, "hits": 1, "misses": 3,
                     "evictions": 1, "invalidations": 0}
    deanon.sample_for(b)          # miss again: b was evicted
    assert deanon.stats()["serving"]["sample_cache"]["misses"] == 4
    assert len(deanon._samples) == 2


def test_sample_cache_size_validation(small_ledger):
    with pytest.raises(ValueError, match="sample_cache_size"):
        DeAnonymizer(small_ledger, sample_cache_size=0)


# --------------------------------------------------------------------------
# ParallelScorer
# --------------------------------------------------------------------------

def test_parallel_scorer_thread_parity(facade, served_addresses):
    expected = facade.score(served_addresses)
    with ParallelScorer(facade, max_workers=4, mode="thread", chunk_size=3) as scorer:
        got = scorer.score(served_addresses)
    assert list(got) == list(expected)
    for address in expected:
        assert got[address] == expected[address]
    snap = facade.metrics.snapshot()
    assert snap["counters"]["parallel.calls"] >= 1
    assert snap["stages"]["parallel.sample"]["count"] >= 1


def test_parallel_scorer_unknown_semantics(facade, served_addresses):
    request = served_addresses[:3] + ["0xMISSING1", "0xMISSING2"]
    with ParallelScorer(facade, max_workers=2, chunk_size=2) as scorer:
        with pytest.raises(UnknownAddressError) as excinfo:
            scorer.score(request)
        assert set(excinfo.value.addresses) == {"0xMISSING1", "0xMISSING2"}
        partial = scorer.score(request, skip_unknown=True)
    assert list(partial) == served_addresses[:3]


def test_parallel_scorer_single_address_delegates(facade, served_addresses):
    scorer = ParallelScorer(facade, max_workers=2)
    got = scorer.score(served_addresses[0])
    assert got == facade.score(served_addresses[0])
    assert scorer._executor is None  # no pool was spun up for one address
    scorer.close()


def test_parallel_scorer_validation(facade):
    with pytest.raises(ValueError, match="mode"):
        ParallelScorer(facade, mode="fiber")
    with pytest.raises(ValueError, match="max_workers"):
        ParallelScorer(facade, max_workers=0)
    with pytest.raises(ValueError, match="chunk_size"):
        ParallelScorer(facade, chunk_size=0)


def test_parallel_scorer_process_parity(facade, served_addresses):
    expected = facade.score(served_addresses)
    with ParallelScorer(facade, max_workers=2, mode="process") as scorer:
        got = scorer.score(served_addresses)
    assert list(got) == list(expected)
    for address in expected:
        assert got[address] == expected[address]


def test_parallel_scorer_process_unknown_semantics(facade, served_addresses):
    request = served_addresses[:4] + ["0xMISSING"]
    with ParallelScorer(facade, max_workers=2, mode="process", chunk_size=2) as scorer:
        with pytest.raises(UnknownAddressError) as excinfo:
            scorer.score(request)
        assert excinfo.value.addresses == ("0xMISSING",)
        partial = scorer.score(request, skip_unknown=True)
    assert list(partial) == served_addresses[:4]


def _crash_worker(addresses):
    """Stands in for the worker's chunk function: the process dies mid-batch."""
    os._exit(1)


def test_parallel_scorer_process_worker_crash_raises_typed_error(
        facade, served_addresses, monkeypatch):
    """A dead worker raises WorkerCrashedError (chained from the broken pool),
    and the next call runs on a fresh pool, bit-identical to score()."""
    expected = facade.score(served_addresses)
    with ParallelScorer(facade, max_workers=2, mode="process") as scorer:
        monkeypatch.setattr(scorer_module, "_score_chunk_in_worker", _crash_worker)
        with pytest.raises(WorkerCrashedError) as excinfo:
            scorer.score(served_addresses)
        assert type(excinfo.value.__cause__).__name__ == "BrokenProcessPool"
        assert scorer._executor is None
        monkeypatch.undo()
        got = scorer.score(served_addresses)
    assert list(got) == list(expected)
    for address in expected:
        assert got[address] == expected[address]


# --------------------------------------------------------------------------
# ScoringService (asyncio micro-batcher)
# --------------------------------------------------------------------------

def test_scoring_service_coalesces_and_matches_sequential(facade, served_addresses):
    """N concurrent callers are served in fewer batched passes, and each
    caller's result equals the sequential facade score."""
    expected = facade.score(served_addresses)
    before = facade.metrics.counter("service.batches")

    async def main():
        async with ScoringService(facade, batch_window=0.05, max_batch=64) as svc:
            return await svc.score_many(served_addresses)

    results = asyncio.run(main())
    for address, result in zip(served_addresses, results):
        assert result == expected[address]
    batches = facade.metrics.counter("service.batches") - before
    assert 1 <= batches < len(served_addresses)
    assert facade.metrics.counter("service.requests") >= len(served_addresses)


def test_scoring_service_unknown_is_per_request(facade, served_addresses):
    async def main():
        async with ScoringService(facade, batch_window=0.05) as svc:
            return await svc.score_many([served_addresses[0], "0xMISSING",
                                         served_addresses[1]])

    good0, bad, good1 = asyncio.run(main())
    expected = facade.score(served_addresses[:2])
    assert good0 == expected[served_addresses[0]]
    assert good1 == expected[served_addresses[1]]
    assert isinstance(bad, UnknownAddressError)
    assert bad.addresses == ("0xMISSING",)


def test_scoring_service_batch_wide_failure_propagates(facade, served_addresses):
    class Boom(RuntimeError):
        pass

    class BrokenScorer:
        deanonymizer = facade

        def score(self, addresses, skip_unknown=False):
            raise Boom("backend down")

    async def main():
        async with ScoringService(BrokenScorer(), batch_window=0.01) as svc:
            return await svc.score_many(served_addresses[:3])

    results = asyncio.run(main())
    assert all(isinstance(r, Boom) for r in results)


def test_scoring_service_timeout(facade, served_addresses):
    release = threading.Event()

    class SlowScorer:
        deanonymizer = facade

        def score(self, addresses, skip_unknown=False):
            release.wait(5.0)
            return facade.score(addresses, skip_unknown=skip_unknown)

    async def main():
        async with ScoringService(SlowScorer(), batch_window=0.0) as svc:
            try:
                with pytest.raises(asyncio.TimeoutError):
                    await svc.score(served_addresses[0], timeout=0.05)
            finally:
                release.set()

    asyncio.run(main())


def test_scoring_service_timeout_covers_a_full_queue(facade, served_addresses):
    """At max_queue behind a stalled backend, the timeout also bounds the wait
    for a queue slot: the caller gets TimeoutError, not the backend's delay."""
    release = threading.Event()
    dispatched = threading.Event()

    class StalledScorer:
        deanonymizer = facade

        def score(self, addresses, skip_unknown=False):
            dispatched.set()
            release.wait(5.0)
            return facade.score(addresses, skip_unknown=skip_unknown)

    async def main():
        async with ScoringService(StalledScorer(), batch_window=0.0, max_batch=1,
                                  max_queue=1) as svc:
            try:
                in_flight = asyncio.ensure_future(svc.score(served_addresses[0]))
                while not dispatched.is_set():
                    await asyncio.sleep(0.001)
                queued = asyncio.ensure_future(svc.score(served_addresses[1]))
                await asyncio.sleep(0.01)
                assert svc._queue.full()
                start = time.perf_counter()
                with pytest.raises(asyncio.TimeoutError):
                    await svc.score(served_addresses[2], timeout=0.05)
                waited = time.perf_counter() - start
            finally:
                release.set()
            await asyncio.gather(in_flight, queued)
        return waited

    assert asyncio.run(main()) < 0.5


def test_scoring_service_requires_start(facade, served_addresses):
    svc = ScoringService(facade)

    async def main():
        with pytest.raises(RuntimeError, match="not running"):
            await svc.score(served_addresses[0])

    asyncio.run(main())


def test_scoring_service_validation(facade):
    with pytest.raises(ValueError, match="batch_window"):
        ScoringService(facade, batch_window=-0.1)
    with pytest.raises(ValueError, match="max_batch"):
        ScoringService(facade, max_batch=0)
    with pytest.raises(ValueError, match="max_queue"):
        ScoringService(facade, max_queue=0)


def test_scoring_service_over_parallel_scorer(facade, served_addresses):
    """Coalescer over fan-out: the composed stack still matches sequential."""
    expected = facade.score(served_addresses)

    async def main():
        with ParallelScorer(facade, max_workers=2, chunk_size=4) as scorer:
            async with ScoringService(scorer, batch_window=0.05) as svc:
                return await svc.score_many(served_addresses)

    results = asyncio.run(main())
    for address, result in zip(served_addresses, results):
        assert result == expected[address]
