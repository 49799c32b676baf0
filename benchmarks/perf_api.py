"""Perf harness: batched end-to-end scoring through the `repro.api` facade.

Measures the serving path — "addresses in, probabilities out" — of
:class:`repro.api.DeAnonymizer` against the naive per-(address, head) loop it
replaces:

* ``batched``  — one ``score(addresses)`` call: every address is ego-sampled
  and featurized exactly once, and all category heads share the resulting
  subgraphs (and each scoring chunk's graph structure, built once);
* ``naive``    — for every head, re-sample and re-featurize every address and
  predict one sample at a time (cold caches, the pre-facade pattern).

On top of the sequential comparison, the harness exercises the concurrent
serving tier:

* ``latency``    — per-request wall times of warm single-address ``score()``
  calls, reported as p50/p95/mean/max percentiles.  Every address was
  scored just before, so each call is a repeat answered from the facade's
  score memo (a cached sample and its memoized probabilities, no head
  pass);
* ``concurrent`` — a :class:`repro.api.ParallelScorer` worker-count sweep
  (default 1/2/4) over its process pool.  Every timed run scores cold
  addresses on a fresh pool: the pool is first warmed, untimed, by scoring
  as many other addresses (this starts the processes, and each worker
  builds its own graph).  The addresses timed were never scored in that
  pool, so no worker answers them from a sample cache or score memo;
* ``service``    — N asyncio callers pushed through the
  :class:`repro.api.ScoringService` micro-batcher on a cold sample cache,
  recording how many batched passes served them and the per-caller latency
  percentiles.  All N callers queue before the batcher wakes, so they are
  served together.

Every path is asserted to produce bit-identical probabilities: the
sequential paths before timings are recorded, the sweep and the service on
the results of their timed runs.  Results are written to ``BENCH_api.json``.
On a single-core host the sweep's multi-worker rows hover around 1x.

Run::

    PYTHONPATH=src python benchmarks/perf_api.py                 # default scale
    PYTHONPATH=src python benchmarks/perf_api.py --scale 0.15 --output /tmp/b.json
    PYTHONPATH=src python benchmarks/perf_api.py --scale 0.2 --addresses 20 \
        --epochs 3 --workers 1,2 --min-concurrent-throughput 20   # CI smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from pathlib import Path

import numpy as np

from repro.api import DeAnonymizer, ParallelScorer, ScoringService
from repro.chain import LedgerConfig, generate_ledger
from repro.core import CalibrationConfig, DBG4ETHConfig, GSGConfig, LDGConfig
from repro.data import DatasetConfig

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_api.json"
DEFAULT_CATEGORIES = ("exchange", "mining", "phish/hack")


def serving_config(epochs: int) -> DBG4ETHConfig:
    """A small but fully featured head configuration for the benchmark."""
    return DBG4ETHConfig(
        gsg=GSGConfig(hidden_dim=16, epochs=epochs, contrastive_batch=6),
        ldg=LDGConfig(hidden_dim=16, epochs=epochs, num_slices=4, first_pool_clusters=6),
        calibration=CalibrationConfig(),
    )


def naive_score(deanon: DeAnonymizer, addresses: list[str]) -> dict[str, dict[str, float]]:
    """The pre-facade serving loop: sample + featurize per (address, head)."""
    results: dict[str, dict[str, float]] = {address: {} for address in addresses}
    for category in deanon.categories:
        head = deanon.head(category)
        for address in addresses:
            sample = deanon.builder.build_sample(address)   # fresh, unmemoized sample
            results[address][category] = float(head.predict_proba([sample])[0])
    return results


def percentile_summary(latencies: list[float]) -> dict:
    """p50/p95/mean/max of a latency sample, in milliseconds."""
    arr = np.asarray(latencies, dtype=np.float64) * 1e3
    return {
        "count": int(len(arr)),
        "p50_ms": float(np.percentile(arr, 50)),
        "p95_ms": float(np.percentile(arr, 95)),
        "mean_ms": float(arr.mean()),
        "max_ms": float(arr.max()),
    }


def assert_parity(expected: dict, got: dict, label: str) -> None:
    """Bit-for-bit equality of two {address: {category: p}} result dicts."""
    assert set(expected) == set(got), f"{label}: address sets differ"
    for address, per_category in expected.items():
        for category, probability in per_category.items():
            assert got[address][category] == probability, (
                f"{label}: parity violated for {address} / {category}: "
                f"{got[address][category]} != {probability}")


def bench_concurrent(deanon: DeAnonymizer, addresses: list[str],
                     expected: dict, warmup: list[str], workers: list[int],
                     reps: int) -> dict:
    """Worker-count sweep of the ParallelScorer, parity-checked on every run.

    Each run gets a fresh pool warmed on ``warmup`` (addresses disjoint from
    ``addresses``) outside the timing: a worker keeps its own samples and
    their scores, so a pool that had scored ``addresses`` would answer them
    from its memos.
    """
    sweep = []
    for count in workers:
        best = float("inf")
        for _ in range(reps):
            with ParallelScorer(deanon, max_workers=count) as scorer:
                scorer.score(warmup)
                t0 = time.perf_counter()
                got = scorer.score(addresses)
                best = min(best, time.perf_counter() - t0)
            assert_parity(expected, got, f"concurrent[x{count}]")
        sweep.append({"workers": count, "seconds": best,
                      "addresses_per_second": len(addresses) / best})
    baseline = sweep[0]["seconds"]
    for row in sweep:
        row["speedup_vs_single_worker"] = baseline / row["seconds"]
    return {"sweep": sweep}


def bench_service(deanon: DeAnonymizer, addresses: list[str], expected: dict) -> dict:
    """N concurrent asyncio callers through the micro-batcher, one address each.

    The sample cache is cleared first, so the batch samples and scores every
    address instead of reading the memos of the runs before it.
    """
    deanon.clear_sample_cache()
    latencies: list[float] = []
    before_batches = deanon.metrics.counter("service.batches")

    async def call(service: ScoringService, address: str) -> dict[str, float]:
        t0 = time.perf_counter()
        result = await service.score(address)
        latencies.append(time.perf_counter() - t0)
        return result

    async def main():
        async with ScoringService(deanon, max_batch=len(addresses)) as service:
            t0 = time.perf_counter()
            results = await asyncio.gather(
                *(call(service, address) for address in addresses))
            return time.perf_counter() - t0, results

    total_seconds, results = asyncio.run(main())
    for address, result in zip(addresses, results):
        for category, probability in expected[address].items():
            assert result[category] == probability, (
                f"service: parity violated for {address} / {category}")
    batches = deanon.metrics.counter("service.batches") - before_batches
    assert batches < len(addresses), (
        f"micro-batcher did not coalesce: {batches} batches for "
        f"{len(addresses)} concurrent callers")
    return {
        "callers": len(addresses),
        "total_seconds": total_seconds,
        "batches": batches,
        "requests_per_second": len(addresses) / total_seconds,
        "latency": percentile_summary(latencies),
    }


def run(scale: float = 0.3, num_addresses: int = 30, epochs: int = 4,
        categories=DEFAULT_CATEGORIES, reps: int = 3, seed: int = 7,
        workers: list[int] | None = None,
        output: Path | None = DEFAULT_OUTPUT) -> dict:
    config = LedgerConfig().scaled(scale)
    config.seed = seed
    ledger = generate_ledger(config)
    deanon = DeAnonymizer(ledger,
                          dataset_config=DatasetConfig(top_k=40, max_nodes_per_subgraph=40,
                                                       seed=seed),
                          model_config=lambda: serving_config(epochs),
                          seed=seed)

    t0 = time.perf_counter()
    deanon.fit(categories)
    fit_seconds = time.perf_counter() - t0

    # Score addresses drawn from the global graph (mix of labelled and not).
    rng = np.random.default_rng(seed)
    nodes = list(deanon.builder.graph.nodes)
    order = rng.permutation(len(nodes))
    addresses = [nodes[i] for i in order[:num_addresses]]
    # Warms each timed sweep run's pool without touching ``addresses``.
    warmup = [nodes[i] for i in order[num_addresses:2 * num_addresses]]

    # Pre-build the shared graph/feature structures so every timed path —
    # sequential and concurrent alike — measures serving, not first-build.
    deanon.warm()

    # Parity first: the batched facade path must equal the naive loop bit-for-bit.
    expected = naive_score(deanon, addresses)
    deanon.clear_sample_cache()                  # cold start for the timed runs
    batched = deanon.score(addresses)
    assert_parity(expected, batched, "batched")

    best_naive = float("inf")
    best_batched = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        naive_score(deanon, addresses)
        best_naive = min(best_naive, time.perf_counter() - t0)

        deanon.clear_sample_cache()
        t0 = time.perf_counter()
        deanon.score(addresses)
        best_batched = min(best_batched, time.perf_counter() - t0)

    # Warm single-address latency percentiles (the interactive request shape).
    single_latencies = []
    for address in addresses:
        t0 = time.perf_counter()
        deanon.score([address])
        single_latencies.append(time.perf_counter() - t0)

    concurrent = bench_concurrent(deanon, addresses, expected, warmup,
                                  workers or [1, 2, 4], reps)
    service = bench_service(deanon, addresses, expected)

    results = {
        "config": {"scale": scale, "num_addresses": num_addresses, "epochs": epochs,
                   "categories": list(categories), "reps": reps, "seed": seed,
                   "num_transactions": ledger.num_transactions,
                   "num_graph_nodes": deanon.builder.graph.num_nodes},
        "fit_seconds": fit_seconds,
        "batched_seconds": best_batched,
        "naive_seconds": best_naive,
        "speedup": best_naive / best_batched,
        "batched_addresses_per_second": num_addresses / best_batched,
        "naive_addresses_per_second": num_addresses / best_naive,
        "latency": {"single_address_warm": percentile_summary(single_latencies)},
        "concurrent": concurrent,
        "service": service,
    }
    print(f"[{num_addresses} addresses x {len(categories)} heads] "
          f"batched {best_batched * 1e3:7.1f} ms ({results['batched_addresses_per_second']:6.1f} addr/s) | "
          f"naive {best_naive * 1e3:7.1f} ms | speedup {results['speedup']:.2f}x")
    lat = results["latency"]["single_address_warm"]
    print(f"single-address warm latency: p50 {lat['p50_ms']:.1f} ms | "
          f"p95 {lat['p95_ms']:.1f} ms")
    for row in concurrent["sweep"]:
        print(f"parallel[x{row['workers']}]: "
              f"{row['seconds'] * 1e3:7.1f} ms ({row['addresses_per_second']:6.1f} addr/s, "
              f"{row['speedup_vs_single_worker']:.2f}x vs 1 worker)")
    print(f"service: {service['callers']} callers in {service['batches']} batches | "
          f"{service['requests_per_second']:6.1f} req/s | "
          f"p95 {service['latency']['p95_ms']:.1f} ms")
    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {output}")
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.3,
                        help="ledger scale multiplier (default 0.3)")
    parser.add_argument("--addresses", type=int, default=30,
                        help="batch size of the scoring request (default 30)")
    parser.add_argument("--epochs", type=int, default=4,
                        help="training epochs per head (default 4)")
    parser.add_argument("--reps", type=int, default=3,
                        help="best-of repetitions per measurement")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="path of the JSON results file")
    parser.add_argument("--workers", type=str, default="1,2,4",
                        help="comma-separated ParallelScorer worker counts "
                             "to sweep (default 1,2,4)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless batched scoring beats the naive loop "
                             "by this factor")
    parser.add_argument("--min-concurrent-throughput", type=float, default=None,
                        help="fail unless every concurrent sweep row reaches "
                             "this many addresses/second")
    args = parser.parse_args()
    workers = [int(w) for w in args.workers.split(",") if w.strip()]
    results = run(scale=args.scale, num_addresses=args.addresses, epochs=args.epochs,
                  reps=args.reps, workers=workers, output=args.output)
    if args.min_speedup is not None:
        assert results["speedup"] >= args.min_speedup, (
            f"batched scoring speedup {results['speedup']:.2f}x below "
            f"{args.min_speedup}x")
    if args.min_concurrent_throughput is not None:
        slowest = min(row["addresses_per_second"]
                      for row in results["concurrent"]["sweep"])
        assert slowest >= args.min_concurrent_throughput, (
            f"concurrent throughput {slowest:.1f} addr/s below "
            f"{args.min_concurrent_throughput}")


if __name__ == "__main__":
    main()
