"""The benchmark's workloads over the DBG4ETH pipeline.

Every run starts with the training phase both workloads share: fit the three
one-vs-rest heads (exchange, mining, phish/hack) on a small generated ledger
and save them.  The fit time is printed, not gated: on a shared 2-vCPU host
one fit takes 6-11 s of CPU and the host's slow phases last minutes, so ten
runs of it spread by a quarter or more.  The workload's own phase then
serves the saved heads:

* ``serve`` scores a held-out ledger cold with the fresh heads (quality and
  cold batches) at the start, the middle and the end of the run, then
  answers an open loop of single-address requests through ``ScoringService``
  over a larger ledger;
* ``follow_chain`` scores fresh addresses on a persisted ~1M-transaction
  ledger while blocks are appended, synced and folded in.

Every input is generated from the seed.  Each phase checks its outputs
against a second computation and counts violations as failed operations.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api import DeAnonymizer, ScoringService
from repro.chain import Ledger, LedgerConfig, generate_ledger
from repro.data import DatasetConfig, SubgraphDataset, SubgraphDatasetBuilder
from repro.experiments.runner import fast_dbg4eth_config
from repro.metrics.classification import f1_score

from loadgen import poisson_schedule, run_open_loop, zipf_draws
from stats import median, tail

CATEGORIES = ("exchange", "mining", "phish/hack")
DATASET = DatasetConfig(top_k=60, max_nodes_per_subgraph=50)
TXS_PER_UNIT_SCALE = 8316        # transactions LedgerConfig().scaled(1.0) generates
BATCH = 64                       # most addresses per cold batch

SERVE_RATE = 15.0                # requests per second; the scorer stays under half busy
SERVE_ZIPF = 1.2
SERVE_CACHE = 512                # LRU sample-cache entries, below the node count
SERVE_WARMUP = 4000              # requests replayed during set-up, so the cache is full

CHAIN_APPEND = 5000              # transactions appended per round
CHAIN_TOUCHED = 16               # of the round's addresses the appended traffic touches
CHAIN_MIN_ROUNDS = 12            # rounds per run; even, like CHAIN_TRACE_ROUNDS
CHAIN_TRACE_ROUNDS = 4           # rounds of each (short) pass of a traced run; even

#: Largest gap allowed between a service reply and a direct batched score of
#: the same address: the two see different batch compositions.
REPLY_TOLERANCE = 1e-9


def model_config():
    # No batch_size argument: a change to the library default shows up here.
    return fast_dbg4eth_config(epochs=8)


def ledger_config(scale: float, seed: int) -> LedgerConfig:
    config = LedgerConfig().scaled(scale)
    config.seed = seed
    return config


def chunks(items: list, size: int) -> list[list]:
    """``items`` split into the fewest batches of at most ``size``, sizes within one."""
    count = -(-len(items) // size)
    bounds = np.linspace(0, len(items), count + 1).round().astype(int)
    return [items[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


@dataclass
class Outcome:
    """What one measured phase saw: end-to-end values, op counts, layer extras.

    ``requests`` holds the open loop's requests, from which a traced run
    derives queue waits.
    """

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: dict[str, str] = field(default_factory=dict)
    extras: dict[str, float] = field(default_factory=dict)
    requests: list | None = None

    def cold_batches(self, batch_seconds: list[float]) -> None:
        """The median batch; ``batch_seconds`` holds one time per distinct batch."""
        self.metrics["cold_batch_ms"] = median(batch_seconds) * 1e3

    def latency(self, samples_ms: list[float], label: str) -> None:
        """The median, and the tail as a printed note: ten samples cannot hold it steady."""
        value, percentile, beyond = tail(samples_ms)
        self.metrics["lat_p50_ms"] = median(samples_ms)
        self.notes["lat_tail_ms"] = (f"{value:.6g} ms, {label}: p{percentile:.1f} of "
                                     f"{len(samples_ms)} samples, {beyond} beyond")


def cache_extras(deanon: DeAnonymizer, before: dict | None = None) -> dict:
    """Sample-cache counters of ``deanon`` since the ``before`` snapshot."""
    now = deanon.stats()["serving"]["sample_cache"]
    before = before or {key: 0 for key in now}
    hits = now["hits"] - before["hits"]
    misses = now["misses"] - before["misses"]
    return {"api.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "api.cache.evictions": now["evictions"] - before["evictions"],
            "api.cache.invalidations": now["invalidations"] - before["invalidations"]}


# ------------------------------------------------------------------ training
@dataclass
class TrainInputs:
    dataset: SubgraphDataset
    heldout: Ledger
    addresses: list[str]
    truth: dict[str, str | None]


def train_setup(seed: int) -> TrainInputs:
    """The training ledger and dataset, and the held-out ledger and addresses.

    The held-out set is every labelled address in the held-out graph plus as
    many unlabelled addresses of degree two or more, drawn from the seed.
    """
    dataset = DeAnonymizer(generate_ledger(ledger_config(0.4, seed)), DATASET).dataset
    heldout = generate_ledger(ledger_config(1.0, seed + 1))
    graph = SubgraphDatasetBuilder(heldout, DATASET).graph
    labelled = [address for address, _ in heldout.labels.items() if address in graph]
    unlabelled = [node for node in graph.nodes
                  if heldout.labels.get(node) is None and graph.degree(node) >= 2]
    rng = np.random.default_rng([seed, 1])
    picked = [unlabelled[i] for i in rng.permutation(len(unlabelled))[:len(labelled)]]
    truth = {address: heldout.labels.get(address).value for address in labelled}
    truth.update((address, None) for address in picked)
    return TrainInputs(dataset, heldout, labelled + picked, truth)


def fit_heads(inputs: TrainInputs) -> tuple[DeAnonymizer, float]:
    """A fresh facade over the training dataset with the three heads fitted."""
    model = DeAnonymizer.from_dataset(inputs.dataset, dataset_config=DATASET,
                                      model_config=model_config)
    start = time.perf_counter()
    model.fit(CATEGORIES)
    return model, time.perf_counter() - start


def score_batches(model: DeAnonymizer, addresses: list[str]) -> tuple[dict, list[float]]:
    """Scores of ``addresses`` in batches of ``BATCH``, and seconds per batch."""
    scores, seconds = {}, []
    for batch in chunks(addresses, BATCH):
        start = time.perf_counter()
        scores.update(model.score(batch))
        seconds.append(time.perf_counter() - start)
    return scores, seconds


def heldout_f1(inputs: TrainInputs, scores: dict) -> float:
    """Mean over heads of one-vs-rest F1 at threshold 0.5."""
    values = []
    for category in CATEGORIES:
        truth = np.array([inputs.truth[a] == category for a in inputs.addresses], dtype=int)
        predicted = np.array([scores[a][category] >= 0.5 for a in inputs.addresses], dtype=int)
        values.append(f1_score(truth, predicted, average="binary"))
    return float(np.mean(values))


def check_heads(model: DeAnonymizer, batch: list[str], scores: dict) -> tuple[int, int]:
    """``score()`` of ``batch`` against each head's ``predict_proba`` on its samples.

    Returns ``(compared, mismatched)`` over (address, head) pairs.
    """
    compared = mismatched = 0
    samples = [model.sample_for(address) for address in batch]
    for category in CATEGORIES:
        direct = model.head(category).predict_proba(samples)
        for address, probability in zip(batch, direct):
            compared += 1
            mismatched += scores[address][category] != float(probability)
    return compared, mismatched


class Workload:
    """The training phase every workload shares; subclasses add the rest.

    A run is ``prepare``, ``setup`` (repeated ``setup_repeats`` times),
    ``rescore``, ``measure``, ``rescore`` and ``finish``; a short pass skips
    both ``rescore`` calls.  With ``scores_heldout`` the held-out ledger is
    thus scored cold at the start, the middle and the end of a run, and
    ``cold_batch_ms`` takes each batch's fastest pass: a slow phase of a
    shared host has to last the whole run to move it.
    """

    primary = "lat_p50_ms"          # the metric a traced run compares untraced
    setup_repeats = 3
    scores_heldout = False

    def prepare(self, seed: int, workdir: Path) -> dict:
        """Fit and save the heads; with ``scores_heldout``, score a held-out ledger cold."""
        inputs = train_setup(seed)
        model, fit_s = fit_heads(inputs)
        context = {"seed": seed, "workdir": workdir, "inputs": inputs, "model": model,
                   "fit_s": fit_s, "cold_passes": [], "heads": workdir / "heads",
                   "notes": {}, "checked": 0, "mismatched": 0}
        model.save(context["heads"])
        if self.scores_heldout:
            scores = self.cold_pass(context)
            context["first_scores"] = scores
            context["checked"], context["mismatched"] = check_heads(
                model, chunks(inputs.addresses, BATCH)[0], scores)
            context["notes"]["f1"] = (
                f"{heldout_f1(inputs, scores):.4f} mean one-vs-rest F1 over "
                f"{len(CATEGORIES)} heads, {len(scores)} held-out addresses")
        return context

    def cold_pass(self, context: dict) -> dict:
        """Score the held-out addresses from a freshly attached ledger; keep the times."""
        model, inputs = context["model"], context["inputs"]
        model.attach_ledger(inputs.heldout)         # cold: no graph, no samples yet
        scores, batch_seconds = score_batches(model, inputs.addresses)
        context["cold_passes"].append(batch_seconds)
        return scores

    def rescore(self, context: dict) -> None:
        """With ``scores_heldout``, score cold again; the scores must repeat."""
        if self.scores_heldout:
            scores, first = self.cold_pass(context), context["first_scores"]
            context["checked"] += len(scores)
            context["mismatched"] += sum(scores[a] != first[a] for a in scores)

    def finish(self, context: dict, outcome: Outcome) -> None:
        """Fold the training phase into ``outcome``; per batch the fastest cold pass."""
        outcome.notes["fit_s"] = (f"{context['fit_s']:.6g} s to fit {len(CATEGORIES)} heads "
                                  f"(printed, not gated)")
        if self.scores_heldout:
            passes = context["cold_passes"]
            fastest = [min(times) for times in zip(*passes)]
            outcome.cold_batches(fastest)
            outcome.notes["score_aps"] = (
                f"{len(context['first_scores']) / sum(fastest):.4g} held-out addresses/s "
                f"scored cold, fastest of {len(passes)} passes per batch")
        outcome.notes.update(context["notes"])
        outcome.attempted += len(CATEGORIES) + context["checked"]
        outcome.failed += context["mismatched"]


# --------------------------------------------------------------------- serve
@dataclass
class ServeState:
    model: DeAnonymizer
    due: np.ndarray
    addresses: list[str]


class Serve(Workload):
    """Open loop of single-address requests at a fixed rate through the service.

    Popularity follows activity: Zipf rank 1 is the node of highest degree,
    ties broken by the seed.
    """

    scores_heldout = True

    def setup(self, context: dict, seconds: float) -> ServeState:
        seed = context["seed"]
        ledger = generate_ledger(ledger_config(4.0, seed))
        model = DeAnonymizer.load(context["heads"], ledger)
        model.sample_cache_size = SERVE_CACHE
        model.warm()
        graph = model.builder.graph
        nodes = list(graph.nodes)
        rng = np.random.default_rng([seed, 2])
        due = poisson_schedule(rng, SERVE_RATE, seconds)
        degrees = np.array([graph.degree(node) for node in nodes])
        ranked = [nodes[i] for i in np.lexsort((rng.random(len(nodes)), -degrees))]
        draws = zipf_draws(rng, len(nodes), SERVE_WARMUP + len(due), SERVE_ZIPF)
        addresses = [ranked[i] for i in draws]
        for address in addresses[:SERVE_WARMUP]:
            model.sample_for(address)
        return ServeState(model, due, addresses[SERVE_WARMUP:])

    def measure(self, context: dict, state: ServeState, seconds: float,
                short: bool = False) -> Outcome:
        model = state.model
        before = model.stats()["serving"]["sample_cache"]

        async def open_loop():
            # One worker thread: the event loop plus the scorer fit in two cores.
            asyncio.get_running_loop().set_default_executor(ThreadPoolExecutor(max_workers=1))
            async with ScoringService(model) as service:
                return await run_open_loop(state.due, state.addresses, service.score)

        requests = asyncio.run(open_loop())
        outcome = Outcome()
        outcome.latency([r.latency * 1e3 for r in requests], "request")
        outcome.extras = cache_extras(model, before)
        outcome.extras["bench.gen_late_ms"] = tail([(r.sent - r.due) * 1e3
                                                    for r in requests])[0]
        outcome.requests = requests
        # Check: every reply against a direct batched score() of its address.
        replied = [r for r in requests if r.ok]
        direct = model.score(list(dict.fromkeys(r.item for r in replied)))
        mismatched = sum(
            any(abs(r.result[c] - direct[r.item][c]) > REPLY_TOLERANCE for c in CATEGORIES)
            for r in replied)
        outcome.attempted = len(requests)
        outcome.failed = len(requests) - len(replied) + mismatched
        outcome.metrics["exact_share"] = 1.0 - outcome.failed / len(requests)
        return outcome


# -------------------------------------------------------------- follow_chain
@dataclass
class ChainState:
    ledger: Ledger
    model: DeAnonymizer
    fresh: list[str]


def append_inputs(ledger: Ledger, rng: np.random.Generator, touch: list[str]) -> dict:
    """Arguments of ``append_blocks_columnar`` for ``CHAIN_APPEND`` transfers.

    Transfers run between existing accounts; every address in ``touch`` sends
    one and receives one, so those accounts demonstrably gain transactions.
    """
    n = CHAIN_APPEND
    existing = ledger.store.addresses
    picks = rng.integers(0, len(existing), size=2 * n)
    senders = [existing[i] for i in picks[:n]]
    receivers = [existing[i] for i in picks[n:]]
    for i, address in enumerate(touch):
        senders[i] = address
        receivers[i + len(touch)] = address
    start = ledger.timespan()[1] + ledger.block_interval
    return {"senders": senders, "receivers": receivers,
            "values": rng.uniform(0.5, 20.0, n),
            "gas_prices": rng.uniform(10.0, 60.0, n),
            "gas_used": np.full(n, 21_000, dtype=np.int64),
            "timestamps": start + np.arange(n, dtype=np.float64) * 0.2,
            "is_contract_call": np.zeros(n, dtype=bool),
            "submitted": np.ones(n, dtype=bool),
            "transactions_per_block": 50}


def compare_rescored(batch: list[str], served: dict, reference: dict,
                     touched: set[str]) -> tuple[int, int]:
    """Count re-served results that differ from a cold pipeline's.

    ``served`` maps address to ``{category: probability}``; ``reference``
    maps category to probabilities in ``batch`` order.  An address that
    ``refresh()`` reported touched was re-sampled, so a difference there is
    a failure; any other difference is a stale cached sample.  Returns
    ``(stale, failed)``.
    """
    stale = failed = 0
    for i, address in enumerate(batch):
        if any(served[address][c] != float(reference[c][i]) for c in CATEGORIES):
            if address in touched:
                failed += 1
            else:
                stale += 1
    return stale, failed


class FollowChain(Workload):
    """Score fresh addresses on a persisted 1M-tx ledger while blocks land.

    Every second round's re-served results are compared with a cold
    pipeline's, which is what the stale share is measured on; the run ends
    on such a round.
    """

    setup_repeats = 2

    def setup(self, context: dict, seconds: float) -> ChainState:
        seed, workdir = context["seed"], context["workdir"]
        path = workdir / f"chain-{time.perf_counter_ns()}"
        generate_ledger(ledger_config(1_000_000 / TXS_PER_UNIT_SCALE, seed)).sync(path)
        ledger = Ledger.open(path)
        model = DeAnonymizer.load(context["heads"], ledger).warm()
        nodes = list(model.builder.graph.nodes)
        order = np.random.default_rng([seed, 3]).permutation(len(nodes))
        return ChainState(ledger, model, [nodes[i] for i in order])

    def measure(self, context: dict, state: ChainState, seconds: float,
                short: bool = False) -> Outcome:
        ledger, model = state.ledger, state.model
        min_rounds = CHAIN_TRACE_ROUNDS if short else CHAIN_MIN_ROUNDS
        before = model.stats()["serving"]["sample_cache"]
        cold_seconds, fresh_ms = [], []
        compared = stale = failed = 0
        busy, rounds = 0.0, 0
        while rounds % 2 or rounds < min_rounds or busy < seconds:
            batch = state.fresh[rounds * BATCH:(rounds + 1) * BATCH]
            rng = np.random.default_rng([context["seed"], 4, rounds])
            touch = [batch[i] for i in rng.choice(BATCH, CHAIN_TOUCHED, replace=False)]
            blocks = append_inputs(ledger, rng, touch)
            start = time.perf_counter()
            model.score(batch)
            appended = time.perf_counter()
            ledger.append_blocks_columnar(**blocks)
            ledger.sync()
            touched = set(model.refresh())
            again = model.score(batch)
            done = time.perf_counter()
            cold_seconds.append(appended - start)
            fresh_ms.append((done - appended) * 1e3)
            busy += done - start
            rounds += 1
            if rounds % 2:
                continue
            # Reference: fresh samples from the live pipeline, through the heads.
            reference = model.score_samples([model.builder.build_sample(a) for a in batch])
            round_stale, round_failed = compare_rescored(batch, again, reference, touched)
            compared += len(batch)
            stale += round_stale
            failed += round_failed
            checked = batch
        # The live pipeline's graph and features must equal a cold one's.
        cold = DeAnonymizer.load(context["heads"], ledger).score(checked)
        failed += sum(any(cold[a][c] != float(reference[c][i]) for c in CATEGORIES)
                      for i, a in enumerate(checked))
        outcome = Outcome()
        outcome.cold_batches(cold_seconds)
        outcome.latency(fresh_ms, "append to re-scored results")
        outcome.metrics["exact_share"] = 1.0 - (stale + failed) / compared
        outcome.notes["stale_share"] = f"{stale / compared:.4f} of {compared} re-served"
        outcome.attempted = 2 * rounds * BATCH + compared + len(checked)
        outcome.failed = failed
        outcome.extras = cache_extras(model, before)
        return outcome


WORKLOADS = {"serve": Serve(), "follow_chain": FollowChain()}
