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
import multiprocessing
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
from repro.core.inference import node_count_groups
from repro.data import (DatasetConfig, SubgraphDatasetBuilder, adjacency_blocks,
                        time_slice_blocks)
from repro.gnn import attention_mask, normalize_adjacency
from tests._dict_reference import add_edge
from tests.test_follow_chain import append_block_touching, fresh_ledger

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

def test_txgraph_concurrent_row_index_builds_match_warm(small_ledger):
    """Racing first builds of the row index — the one lazy TxGraph
    structure — are bit-identical to a single-threaded warm() on an
    identical graph, and every thread reads the one index the winner
    built."""
    reference = SubgraphDatasetBuilder(small_ledger, DATASET_CONFIG).graph.warm()
    cold = SubgraphDatasetBuilder(small_ledger, DATASET_CONFIG).graph
    ids = np.arange(cold.num_nodes)
    nodes = cold.nodes[:N_THREADS]

    def work(i):
        out_slots, _out_len = cold.gather_slots(ids)
        in_slots, _in_len = cold.gather_slots(ids, incoming=True)
        index = (cold._out_indptr, cold._out_slots, cold._in_indptr, cold._in_slots)
        return out_slots, in_slots, cold.degree(nodes[i % len(nodes)]), index

    results = _hammer(N_THREADS, work)
    want_out, _lengths = reference.gather_slots(ids)
    want_in, _lengths = reference.gather_slots(ids, incoming=True)
    for i, (out_slots, in_slots, degree, index) in enumerate(results):
        np.testing.assert_array_equal(out_slots, want_out)
        np.testing.assert_array_equal(in_slots, want_in)
        assert degree == reference.degree(nodes[i % len(nodes)])
        assert all(got is first for got, first in zip(index, results[0][3]))


def test_txgraph_freeze_blocks_mutation(small_ledger):
    graph = SubgraphDatasetBuilder(small_ledger, DATASET_CONFIG).graph
    assert not graph.frozen
    graph.freeze()
    assert graph.frozen
    with pytest.raises(RuntimeError, match="frozen"):
        add_edge(graph, "0xNEW", graph.nodes[0])
    with pytest.raises(RuntimeError, match="frozen"):
        add_edge(graph, graph.nodes[0], graph.nodes[1])
    assert "0xNEW" not in graph
    # freeze() is idempotent and scoring reads still work.
    graph.freeze()
    columns = graph.edge_arrays()
    assert {len(column) for column in columns} == {graph.num_edges}


def test_dense_forms_build_concurrently_from_shared_samples(small_dataset):
    """Threads building one group's forms from the same samples at once get
    the serial build's bits: the builders only read the samples' edge
    columns and keep nothing on them."""
    sizes = [sample.num_nodes for sample in small_dataset]
    graphs = [small_dataset[i].graph for i in max(node_count_groups(sizes), key=len)[:12]]

    def build(_):
        return (attention_mask(adjacency_blocks(graphs)),
                adjacency_blocks(graphs, weighted=True),
                normalize_adjacency(time_slice_blocks(graphs, 4)))

    serial = build(None)
    for result in _hammer(N_THREADS, build):
        for got, want in zip(result, serial):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


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
        for got_column, want_column in zip(got.graph.edge_arrays(),
                                           want.graph.edge_arrays()):
            np.testing.assert_array_equal(got_column, want_column)


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


def test_from_dataset_seeds_at_most_the_bound(small_ledger, small_dataset):
    """The dataset's samples seed the cache under the bound, the oldest
    evicted first: unbounded, every one of them stayed cached."""
    assert len(small_dataset) > 3
    deanon = DeAnonymizer.from_dataset(small_dataset, ledger=small_ledger,
                                       dataset_config=DATASET_CONFIG,
                                       sample_cache_size=3)
    cache = deanon.stats()["serving"]["sample_cache"]
    assert cache["size"] == 3 and cache["max_size"] == 3
    assert cache["evictions"] == len(small_dataset) - 3
    assert list(deanon._samples) == [s.center for s in small_dataset][-3:]


def test_dataset_property_seeds_at_most_the_bound(small_ledger):
    deanon = DeAnonymizer(small_ledger, dataset_config=DATASET_CONFIG,
                          sample_cache_size=3)
    assert len(deanon.dataset) > 3
    assert deanon.stats()["serving"]["sample_cache"]["size"] == 3


def test_lowering_the_bound_trims_at_once(small_ledger, served_addresses):
    """An unbounded cache keeps insertion order, so the first sampled go."""
    deanon = DeAnonymizer(small_ledger, dataset_config=DATASET_CONFIG)
    for address in served_addresses[:10]:
        deanon.sample_for(address)
    deanon.sample_cache_size = 3
    cache = deanon.stats()["serving"]["sample_cache"]
    assert cache["size"] == 3 and cache["evictions"] == 7
    assert list(deanon._samples) == served_addresses[7:10]
    deanon.sample_for(served_addresses[7])      # bounded: a hit moves it last
    deanon.sample_cache_size = 2
    assert list(deanon._samples) == [served_addresses[9], served_addresses[7]]


def test_sample_cache_size_validation(small_ledger):
    with pytest.raises(ValueError, match="sample_cache_size"):
        DeAnonymizer(small_ledger, sample_cache_size=0)


@pytest.mark.parametrize("size", [0, -1])
def test_sample_cache_size_is_checked_when_reassigned(small_ledger, served_addresses,
                                                      size):
    """A bound assigned after construction gets the constructor's check:
    unchecked, -1 made the first miss raise ``KeyError`` from ``popitem``
    and 0 evicted every sample as soon as it was stored."""
    deanon = DeAnonymizer(small_ledger, dataset_config=DATASET_CONFIG,
                          sample_cache_size=2)
    with pytest.raises(ValueError, match="sample_cache_size"):
        deanon.sample_cache_size = size
    assert deanon.sample_cache_size == 2
    deanon.sample_cache_size = None
    for address in served_addresses[:3]:
        deanon.sample_for(address)
    assert deanon.stats()["serving"]["sample_cache"]["evictions"] == 0


# --------------------------------------------------------------------------
# ParallelScorer
# --------------------------------------------------------------------------

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
    with pytest.raises(ValueError, match="max_workers"):
        ParallelScorer(facade, max_workers=0)
    with pytest.raises(ValueError, match="chunk_size"):
        ParallelScorer(facade, chunk_size=0)


def test_parallel_scorer_needs_a_ledger(facade, served_addresses):
    """Workers sample from their own copy of the facade's ledger, so a fitted
    facade without one fans out nothing: score() raises and starts no pool."""
    ledgerless = DeAnonymizer().set_state(facade.get_state())
    with ParallelScorer(ledgerless, max_workers=2) as scorer:
        with pytest.raises(RuntimeError, match="ledger"):
            scorer.score(served_addresses[:4])
        assert scorer._executor is None


def test_parallel_scorer_process_parity(facade, served_addresses):
    expected = facade.score(served_addresses)
    calls = facade.metrics.counter("parallel.calls")
    with ParallelScorer(facade, max_workers=2) as scorer:
        got = scorer.score(served_addresses)
    assert list(got) == list(expected)
    for address in expected:
        assert got[address] == expected[address]
    assert facade.metrics.counter("parallel.calls") == calls + 1


def test_parallel_scorer_process_unknown_semantics(facade, served_addresses):
    request = served_addresses[:4] + ["0xMISSING"]
    with ParallelScorer(facade, max_workers=2, chunk_size=2) as scorer:
        with pytest.raises(UnknownAddressError) as excinfo:
            scorer.score(request)
        assert excinfo.value.addresses == ("0xMISSING",)
        partial = scorer.score(request, skip_unknown=True)
    assert list(partial) == served_addresses[:4]


def test_parallel_scorer_process_warm_starts_every_worker(facade, served_addresses):
    """Regression: warm() only constructed the pool, whose processes start on
    the first submit, so rehydration and each worker's graph build landed in
    the first score().  Right after warm() every worker is alive and has a
    built graph; scores stay bit-identical to score()."""
    expected = facade.score(served_addresses)
    nodes = facade.builder.graph.num_nodes
    with ParallelScorer(facade, max_workers=2) as scorer:
        scorer.warm()
        processes = scorer._executor._processes
        assert len(processes) == 2
        assert all(process.is_alive() for process in processes.values())
        reports = [future.result() for future in [
            scorer._executor.submit(scorer_module._warm_process_worker)
            for _ in range(2)]]
        assert sorted(pid for pid, _ in reports) == sorted(processes)
        assert [graph_nodes for _, graph_nodes in reports] == [nodes, nodes]
        got = scorer.score(served_addresses)
    assert got == expected


def test_parallel_scorer_keeps_a_current_pool(facade, served_addresses):
    """Nothing changed in the parent, so later score() and warm() calls run on
    the pool that the first warm() started: no worker is rehydrated again."""
    with ParallelScorer(facade, max_workers=2) as scorer:
        scorer.warm()
        executor = scorer._executor
        pids = sorted(executor._processes)
        first = scorer.score(served_addresses)
        assert scorer.score(served_addresses) == first
        scorer.warm()
        assert scorer._executor is executor
        assert sorted(executor._processes) == pids


def _fitted_on_a_private_ledger():
    """A one-head facade over its own ledger, which a test may append to."""
    ledger = fresh_ledger(seed=11)
    dataset = SubgraphDatasetBuilder(ledger, DATASET_CONFIG).build()
    deanon = DeAnonymizer.from_dataset(dataset, ledger=ledger,
                                       dataset_config=DATASET_CONFIG,
                                       model_config=micro_config)
    deanon.fit(["exchange"])
    return ledger, deanon, [sample.center for sample in dataset][:6]


@pytest.mark.parametrize("change", ["append", "fit"])
def test_parallel_scorer_replaces_a_stale_pool(change):
    """Regression: a pool kept answering with the ledger and heads it started
    with.  After a block that changes scores in the parent, or a head fitted
    there, the pool's answers equal a cold facade's over the parent's ledger
    and heads.  (The parent facade itself re-serves cached scores of
    untouched neighbours of an append, so it is not the reference here.)"""
    ledger, deanon, addresses = _fitted_on_a_private_ledger()
    with ParallelScorer(deanon, max_workers=2) as scorer:
        before = scorer.score(addresses)
        assert before == deanon.score(addresses)
        if change == "append":
            append_block_touching(ledger, addresses[:3])
        else:
            deanon.fit(["mining"])
        cold = DeAnonymizer(ledger).set_state(deanon.get_state())
        expected = cold.score(addresses)
        assert expected != before
        assert scorer.score(addresses) == expected


def test_parallel_scorer_warm_replaces_a_stale_pool():
    """warm() after an append in the parent starts a fresh pool, and each of
    its workers holds the grown graph before any score() call."""
    ledger, deanon, addresses = _fitted_on_a_private_ledger()
    with ParallelScorer(deanon, max_workers=2) as scorer:
        scorer.warm()
        stale = scorer._executor
        nodes_before = deanon.builder.graph.num_nodes
        append_block_touching(ledger, addresses[:3])
        scorer.warm()
        assert scorer._executor is not stale
        nodes = deanon.builder.graph.num_nodes
        assert nodes > nodes_before
        reports = [future.result() for future in [
            scorer._executor.submit(scorer_module._warm_process_worker)
            for _ in range(2)]]
        assert [graph_nodes for _, graph_nodes in reports] == [nodes, nodes]
        cold = DeAnonymizer(ledger).set_state(deanon.get_state())
        assert scorer.score(addresses) == cold.score(addresses)


@pytest.mark.skipif("forkserver" not in multiprocessing.get_all_start_methods(),
                    reason="the platform has no forkserver start method")
def test_parallel_scorer_workers_start_from_a_forkserver(facade, served_addresses):
    """Regression: pools forked the calling process, so a pool started on a
    service's executor thread could fork while another thread held a lock,
    which then stays held in the child.  Workers now come from a forkserver,
    so none of them is a child of this process."""
    with ParallelScorer(facade, max_workers=2) as scorer:
        scorer.warm()
        assert scorer._executor._mp_context.get_start_method() == "forkserver"
        parents = {future.result() for future in [
            scorer._executor.submit(os.getppid) for _ in range(4)]}
        assert os.getpid() not in parents
        assert scorer.score(served_addresses) == facade.score(served_addresses)


def _crash_worker(addresses):
    """Stands in for the worker's chunk function: the process dies mid-batch."""
    os._exit(1)


def test_parallel_scorer_process_worker_crash_raises_typed_error(
        facade, served_addresses, monkeypatch):
    """A dead worker raises WorkerCrashedError (chained from the broken pool),
    and the next call runs on a fresh pool, bit-identical to score()."""
    expected = facade.score(served_addresses)
    with ParallelScorer(facade, max_workers=2) as scorer:
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
        async with ScoringService(facade, max_batch=64) as svc:
            return await svc.score_many(served_addresses)

    results = asyncio.run(main())
    for address, result in zip(served_addresses, results):
        assert result == expected[address]
    batches = facade.metrics.counter("service.batches") - before
    assert 1 <= batches < len(served_addresses)
    assert facade.metrics.counter("service.requests") >= len(served_addresses)


def test_scoring_service_batches_what_queues_behind_a_running_batch(
        facade, served_addresses):
    """A lone request goes out at once; the requests sent while its batch
    runs are the next batches, split by max_batch in arrival order."""
    release = threading.Event()
    dispatched = threading.Event()
    batches = []

    class GatedScorer:
        deanonymizer = facade

        def score(self, addresses, skip_unknown=False):
            batches.append(list(addresses))
            dispatched.set()
            if len(batches) == 1:
                release.wait(5.0)
            return {address: {"stub": float(i)} for i, address in enumerate(addresses)}

    first, queued = served_addresses[0], served_addresses[1:11]

    async def main():
        async with ScoringService(GatedScorer(), max_batch=4) as svc:
            try:
                lone = asyncio.ensure_future(svc.score(first))
                while not dispatched.is_set():
                    await asyncio.sleep(0.001)
                behind = [asyncio.ensure_future(svc.score(a)) for a in queued]
                while svc._queue.qsize() < len(queued):
                    await asyncio.sleep(0.001)
            finally:
                release.set()
            return await asyncio.gather(lone, *behind)

    results = asyncio.run(main())
    assert batches == [[first], queued[:4], queued[4:8], queued[8:]]
    assert results == [{"stub": 0.0}] + [{"stub": float(i % 4)}
                                         for i in range(len(queued))]


def test_scoring_service_coalesced_callers_get_their_own_dicts(
        facade, served_addresses):
    """Regression: callers of one address coalesced into one batch all got
    the same result dict, so one caller's change showed in the other's."""
    release = threading.Event()
    dispatched = threading.Event()

    class GatedScorer:
        deanonymizer = facade
        calls = 0

        def score(self, addresses, skip_unknown=False):
            GatedScorer.calls += 1
            dispatched.set()
            if GatedScorer.calls == 1:
                release.wait(5.0)
            return {address: {"stub": 1.0} for address in addresses}

    first, address = served_addresses[0], served_addresses[1]

    async def main():
        async with ScoringService(GatedScorer(), max_batch=8) as svc:
            try:
                lone = asyncio.ensure_future(svc.score(first))
                while not dispatched.is_set():
                    await asyncio.sleep(0.001)
                both = [asyncio.ensure_future(svc.score(address)) for _ in range(2)]
                while svc._queue.qsize() < 2:
                    await asyncio.sleep(0.001)
            finally:
                release.set()
            await lone
            return await asyncio.gather(*both)

    r0, r1 = asyncio.run(main())
    assert GatedScorer.calls == 2                    # the two calls coalesced
    assert r0 == r1 == {"stub": 1.0}
    assert r0 is not r1
    r0["stub"] = -1.0
    assert r1 == {"stub": 1.0}


def test_scoring_service_idle_round_trip_waits_for_no_window(facade, served_addresses):
    """Through an idle service, a request costs one hand-off to the worker
    thread and back: the median of 50 sequential round trips over a scorer
    that returns at once is far below the 5 ms a batch window would add."""
    class InstantScorer:
        deanonymizer = facade

        def score(self, addresses, skip_unknown=False):
            return {address: {"stub": 1.0} for address in addresses}

    async def main():
        seconds = []
        async with ScoringService(InstantScorer()) as svc:
            await svc.score(served_addresses[0])         # starts the worker thread
            for _ in range(50):
                start = time.perf_counter()
                await svc.score(served_addresses[0])
                seconds.append(time.perf_counter() - start)
        return float(np.median(seconds))

    assert asyncio.run(main()) < 2.5e-3


def test_scoring_service_unknown_is_per_request(facade, served_addresses):
    async def main():
        async with ScoringService(facade) as svc:
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
        async with ScoringService(BrokenScorer()) as svc:
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
        async with ScoringService(SlowScorer()) as svc:
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
        async with ScoringService(StalledScorer(), max_batch=1, max_queue=1) as svc:
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


def test_scoring_service_full_queue_makes_callers_wait(facade, served_addresses):
    """Overload is backpressure, not rejection: at max_queue behind a stalled
    backend, a caller with no timeout waits for a slot, is admitted when the
    stall clears and gets the direct score() reply; every caller is served
    exactly once."""
    release = threading.Event()
    dispatched = threading.Event()

    class StalledScorer:
        deanonymizer = facade

        def score(self, addresses, skip_unknown=False):
            dispatched.set()
            release.wait(5.0)
            return facade.score(addresses, skip_unknown=skip_unknown)

    addresses = served_addresses[:3]
    expected = facade.score(addresses)
    before = facade.metrics.counter("service.requests")

    async def main():
        async with ScoringService(StalledScorer(), max_batch=1, max_queue=1) as svc:
            try:
                in_flight = asyncio.ensure_future(svc.score(addresses[0]))
                while not dispatched.is_set():
                    await asyncio.sleep(0.001)
                queued = asyncio.ensure_future(svc.score(addresses[1]))
                waiting = asyncio.ensure_future(svc.score(addresses[2]))
                await asyncio.sleep(0.05)
                assert svc._queue.full() and svc._queue.qsize() == 1
                assert not waiting.done()
            finally:
                release.set()
            return await asyncio.gather(in_flight, queued, waiting)

    results = asyncio.run(main())
    assert results == [expected[address] for address in addresses]
    assert facade.metrics.counter("service.requests") - before == len(addresses)


def test_scoring_service_requires_start(facade, served_addresses):
    svc = ScoringService(facade)

    async def main():
        with pytest.raises(RuntimeError, match="not running"):
            await svc.score(served_addresses[0])

    asyncio.run(main())


def test_scoring_service_validation(facade):
    with pytest.raises(ValueError, match="max_batch"):
        ScoringService(facade, max_batch=0)
    with pytest.raises(ValueError, match="max_queue"):
        ScoringService(facade, max_queue=0)


def test_scoring_service_over_parallel_scorer(facade, served_addresses):
    """Coalescer over fan-out: the composed stack still matches sequential."""
    expected = facade.score(served_addresses)

    async def main(scorer):
        async with ScoringService(scorer) as svc:
            return await svc.score_many(served_addresses)

    with ParallelScorer(facade, max_workers=2, chunk_size=4) as scorer:
        scorer.warm()
        results = asyncio.run(main(scorer))
    for address, result in zip(served_addresses, results):
        assert result == expected[address]


def test_scoring_service_over_a_warmed_scorer_follows_an_append():
    """A service over a warmed scorer answers as a facade's score() does, and
    after an append its next batch starts a fresh pool from the service's
    executor thread, whose answers equal a cold facade's over the grown
    ledger.  (The fitted facade itself re-serves cached scores of untouched
    neighbours of an append, so it is not the reference after it.)"""
    ledger, deanon, addresses = _fitted_on_a_private_ledger()

    async def serve(scorer):
        async with ScoringService(scorer) as svc:
            return await svc.score_many(addresses)

    with ParallelScorer(deanon, max_workers=2) as scorer:
        scorer.warm()
        before = asyncio.run(serve(scorer))
        expected = deanon.score(addresses)
        assert before == [expected[address] for address in addresses]
        stale = scorer._executor
        append_block_touching(ledger, addresses[:3])
        after = asyncio.run(serve(scorer))
        assert scorer._executor is not stale
    expected = DeAnonymizer(ledger).set_state(deanon.get_state()).score(addresses)
    assert after == [expected[address] for address in addresses]
    assert after != before
