"""Address-in, prediction-out: the serving facade over the DBG4ETH pipeline.

:class:`DeAnonymizer` owns the full paper pipeline behind a two-call surface —
``fit()`` then ``score(addresses)``:

* **construction** from a :class:`~repro.chain.ledger.Ledger` (the facade
  builds the global transaction graph, the feature extractor and the subgraph
  dataset itself) or, via :meth:`from_dataset`, from an already-built
  :class:`~repro.data.dataset.SubgraphDataset`;
* **training** of one one-vs-rest DBG4ETH head per account category;
* **serving**: ``score(addresses)`` goes end-to-end — on-demand 2-hop ego
  sampling, single-pass feature extraction, cached-CSR branch encoding,
  calibration and classification — for raw addresses the model has never seen;
* **persistence**: ``save(path)`` / ``DeAnonymizer.load(path, ledger)`` write
  and restore every head bit-for-bit (npz weights + json manifest).

Batched execution: a request for N addresses samples and featurizes each
address exactly once; the resulting :class:`AccountSubgraph` objects (and the
CSR adjacency / time-slice caches memoized on them) are then shared by every
category head.  Heads whose branches share one architecture are scored
together (:class:`~repro.core.inference.StackedHeads`): one stacked GSG and
one stacked LDG forward per chunk of samples with equal node counts serve
all of them, and only calibration and the classifier run per head.  Scores
stay bit-identical to each head's own ``predict_proba``, whatever else the
batch holds.

Ledger path: the facade reads the attached ledger through its columnar
transaction store — the global graph is ingested with the vectorised
``TxGraph.add_edges_bulk`` path and the feature extractor's single-pass table
is computed straight from the column arrays — so construction over
million-transaction ledgers stays tractable.  :meth:`DeAnonymizer.stats`
exposes the O(1) ledger counters alongside serving-cache state for
monitoring endpoints.
"""

from __future__ import annotations

import threading
import time

from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.api.metrics import ServingMetrics
from repro.api.persistence import load_state, save_state
from repro.chain.labelcloud import AccountCategory
from repro.chain.ledger import Ledger
from repro.core.inference import StackedHeads
from repro.core.model import DBG4ETH, DBG4ETHConfig
from repro.data.dataset import (
    AccountSubgraph,
    DatasetConfig,
    SubgraphDataset,
    SubgraphDatasetBuilder,
)

__all__ = ["DeAnonymizer", "UnknownAddressError"]


class UnknownAddressError(KeyError):
    """Raised when addresses cannot be sampled from the transaction graph.

    Carries every offending address of a batched request: ``addresses`` is
    the full tuple (request order), ``address`` the first one (back-compat
    with the single-address form).  Batched :meth:`DeAnonymizer.score` raises
    one aggregated instance instead of failing on the first unknown address —
    callers see the complete rejection list in a single round trip (or pass
    ``skip_unknown=True`` for partial results).
    """

    def __init__(self, addresses: str | Sequence[str]):
        if isinstance(addresses, str):
            addresses = (addresses,)
        self.addresses = tuple(addresses)
        if not self.addresses:
            raise ValueError("UnknownAddressError needs at least one address")
        self.address = self.addresses[0]
        if len(self.addresses) == 1:
            message = (
                f"address {self.address!r} has no submitted transactions in the "
                f"ledger's transaction graph, so no account subgraph can be "
                f"sampled for it")
        else:
            listed = ", ".join(repr(a) for a in self.addresses)
            message = (
                f"{len(self.addresses)} addresses have no submitted transactions "
                f"in the ledger's transaction graph, so no account subgraphs can "
                f"be sampled for them: {listed}")
        super().__init__(message)

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


def _category_name(category) -> str:
    """Normalise a category argument (enum, known string or free-form string)."""
    try:
        return AccountCategory(category).value
    except ValueError:
        return str(category)


class DeAnonymizer:
    """Serving-grade facade: fit one-vs-rest heads, score raw addresses.

    Usage::

        deanon = DeAnonymizer(ledger)
        deanon.fit(["exchange", "phish/hack"])
        deanon.score(["0xabc...", "0xdef..."])
        # {'0xabc...': {'exchange': 0.93, 'phish/hack': 0.04}, ...}
        deanon.save("model_dir")
        served = DeAnonymizer.load("model_dir", ledger)

    ``model_config`` may be a :class:`DBG4ETHConfig` (shared by every head) or
    a zero-argument factory returning one (a fresh config per head).

    ``sample_cache_size`` bounds the subgraph sample cache: ``None`` (the
    default) keeps every sample forever — the right call for small ledgers and
    batch experiments — while a positive integer turns the cache into an LRU,
    so a long-running server over a large address space holds at most that
    many subgraphs in memory.  Hit/miss/eviction counts appear in
    :meth:`stats`.
    """

    def __init__(self, ledger: Ledger | None = None,
                 dataset_config: DatasetConfig | None = None,
                 model_config: DBG4ETHConfig | Callable[[], DBG4ETHConfig] | None = None,
                 seed: int = 0, sample_cache_size: int | None = None):
        if sample_cache_size is not None and sample_cache_size < 1:
            raise ValueError("sample_cache_size must be a positive integer or None")
        self.ledger = ledger
        self.dataset_config = dataset_config or DatasetConfig()
        self.model_config = model_config
        self.seed = seed
        self.sample_cache_size = sample_cache_size
        self._builder: SubgraphDatasetBuilder | None = None
        self._dataset: SubgraphDataset | None = None
        self._heads: dict[str, DBG4ETH] = {}
        # The heads' stacked weights, rebuilt when the head set changes.
        self._stacked: StackedHeads | None = None
        self._samples: OrderedDict[str, AccountSubgraph] = OrderedDict()
        # Reentrant: sample_for() may be re-entered through the builder while
        # the dataset property seeds the cache under the same lock.
        self._sample_lock = threading.RLock()
        self._cache_hits = 0
        self._cache_misses = 0
        self._cache_evictions = 0
        self._cache_invalidations = 0
        # Follow-the-chain epoch: the ledger data_version this facade has
        # reconciled its caches against (see refresh()).
        self._seen_data_version = ledger.data_version if ledger is not None else None
        self._seen_rows = ledger.num_transactions if ledger is not None else 0
        #: Shared serving metrics hook: score() records per-stage timings and
        #: batch sizes here, and the parallel scorer / asyncio service layers
        #: record their fan-out and queue-wait observations into the same
        #: registry, so ``stats()`` is the one monitoring surface.
        self.metrics = ServingMetrics()

    # ---------------------------------------------------------- constructors
    @classmethod
    def from_dataset(cls, dataset: SubgraphDataset, ledger: Ledger | None = None,
                     dataset_config: DatasetConfig | None = None,
                     model_config: DBG4ETHConfig | Callable[[], DBG4ETHConfig] | None = None,
                     seed: int = 0, sample_cache_size: int | None = None) -> "DeAnonymizer":
        """Wrap an already-built dataset (its samples seed the serving cache).

        Pass the ledger as well if addresses beyond the dataset's centre
        accounts should be scorable — and then ``dataset_config`` is required,
        because on-demand samples must be drawn with the same sampling
        parameters the dataset was built with (a silent default would hand the
        heads out-of-distribution subgraphs).
        """
        if ledger is not None and dataset_config is None:
            raise ValueError(
                "from_dataset() with a ledger requires the dataset_config the "
                "dataset was built with, so on-demand samples match the training "
                "distribution")
        instance = cls(ledger=ledger, dataset_config=dataset_config,
                       model_config=model_config, seed=seed,
                       sample_cache_size=sample_cache_size)
        instance._dataset = dataset
        instance._samples = OrderedDict((sample.center, sample) for sample in dataset)
        return instance

    def attach_ledger(self, ledger: Ledger) -> "DeAnonymizer":
        """Attach (or replace) the ledger used for on-demand subgraph sampling.

        Cached subgraphs and the training dataset belong to the previous
        ledger, so they are dropped along with the builder.
        """
        self.ledger = ledger
        self._builder = None
        self._dataset = None
        self._samples = OrderedDict()
        self._seen_data_version = ledger.data_version
        self._seen_rows = ledger.num_transactions
        return self

    # -------------------------------------------------------------- plumbing
    @property
    def builder(self) -> SubgraphDatasetBuilder:
        """The sampling/feature pipeline over the attached ledger."""
        builder = self._builder
        if builder is None:
            if self.ledger is None:
                raise RuntimeError(
                    "this DeAnonymizer has no ledger attached; construct it with a "
                    "ledger, or call attach_ledger() after load()")
            with self._sample_lock:
                builder = self._builder
                if builder is None:
                    builder = SubgraphDatasetBuilder(self.ledger, self.dataset_config)
                    self._builder = builder
        return builder

    @property
    def dataset(self) -> SubgraphDataset:
        """The training dataset (built from the ledger on first use)."""
        if self._dataset is None:
            dataset = self.builder.build()
            with self._sample_lock:
                for sample in dataset:
                    self._samples.setdefault(sample.center, sample)
            self._dataset = dataset
        return self._dataset

    @property
    def categories(self) -> list[str]:
        """The categories with a fitted head, sorted."""
        return sorted(self._heads)

    def _head_config(self) -> DBG4ETHConfig:
        if self.model_config is None:
            return DBG4ETHConfig()
        if callable(self.model_config):
            return self.model_config()
        return self.model_config

    def _check_fitted(self) -> None:
        if not self._heads:
            raise RuntimeError("DeAnonymizer has no fitted heads; call fit() first")

    def _stacked_heads(self) -> StackedHeads:
        """Every head, stacked for scoring; rebuilt once the heads change.

        ``fit_category`` and ``set_state`` replace heads, and fitting or
        restoring a head replaces its branch networks, so an identity check
        of those objects tells a stale stack.
        """
        stacked = self._stacked
        if stacked is None or not stacked.serves(self._heads):
            stacked = StackedHeads(self._heads)
            self._stacked = stacked
        return stacked

    # -------------------------------------------------------------- training
    def fit(self, categories: Iterable | None = None) -> "DeAnonymizer":
        """Train one one-vs-rest head per category (all dataset categories by default)."""
        names = ([_category_name(c) for c in categories] if categories is not None
                 else self.dataset.categories())
        if not names:
            raise ValueError("no categories to fit")
        for name in names:
            self.fit_category(name)
        return self

    def fit_category(self, category, samples: Sequence[AccountSubgraph] | None = None,
                     labels=None) -> "DeAnonymizer":
        """Train a single head.

        Without explicit ``samples``/``labels`` the head trains on the
        dataset's balanced one-vs-rest task for ``category``; with them (the
        experiment-runner path) the dataset is not touched at all.
        """
        name = _category_name(category)
        if samples is None:
            samples, labels = self.dataset.binary_task(
                name, rng=np.random.default_rng(self.seed))
        elif labels is None:
            raise ValueError("labels are required when samples are given")
        head = DBG4ETH(self._head_config())
        head.fit(list(samples), labels)
        self._heads[name] = head
        return self

    def head(self, category) -> DBG4ETH:
        """The fitted head for ``category`` (raises KeyError if not fitted)."""
        name = _category_name(category)
        if name not in self._heads:
            raise KeyError(
                f"no fitted head for category {name!r}; fitted: {self.categories}")
        return self._heads[name]

    # --------------------------------------------------------------- serving
    def refresh(self) -> list[str]:
        """Reconcile every cache with ledger growth; returns touched addresses.

        O(1) when the ledger has not grown (a single ``data_version``
        comparison — :meth:`score` and :meth:`sample_for` call this on every
        request).  When it has, the appended rows are folded in incrementally:

        * the cached global graph ingests the new rows
          (:meth:`TxGraph.ingest <repro.graph.txgraph.TxGraph.ingest>` —
          bit-identical to a cold rebuild, O(new rows));
        * the builder is then warmed (:meth:`SubgraphDatasetBuilder.warm`):
          the new edges are merged into the graph's row index and the
          extractor's feature table is carried forward over the new rows, so
          that work runs here rather than on the first scoring thread;
        * cached subgraph samples of accounts touched by the new transactions
          are evicted, so their next score is sampled fresh.

        The whole reconciliation is timed as the ``refresh`` stage of
        ``stats()["serving"]``.

        Untouched accounts keep their cached samples.  Note the documented
        approximation: a cached sample whose *neighbourhood* (but not the
        account itself) gained transactions is served unchanged until it is
        evicted by LRU pressure, touched later, or dropped via
        :meth:`clear_sample_cache`.

        Follows the graph write contract — must not run concurrently with
        in-flight scoring threads; a frozen graph raises ``RuntimeError``
        (freeze() declares the topology immutable; use ``warm()`` without
        freezing for follow-the-chain serving).
        """
        ledger = self.ledger
        if ledger is None or ledger.data_version == self._seen_data_version:
            return []
        with self._sample_lock:
            if ledger.data_version == self._seen_data_version:
                return []
            with self.metrics.timed("refresh"):
                builder = self._builder
                if builder is not None:
                    builder.refresh()
                    if builder.graph_if_built() is not None:
                        builder.warm()
                cols = ledger.tx_columns()
                old_rows = self._seen_rows
                new_submitted = cols.submitted[old_rows:]
                touched_ids = np.unique(np.concatenate([
                    cols.sender_id[old_rows:][new_submitted],
                    cols.receiver_id[old_rows:][new_submitted]]))
                addresses = ledger.store.addresses
                touched = [addresses[i] for i in touched_ids.tolist()]
                for address in touched:
                    if self._samples.pop(address, None) is not None:
                        self._cache_invalidations += 1
                self._seen_rows = len(cols.sender_id)
                self._seen_data_version = ledger.data_version
            self.metrics.increment("refresh.calls")
            self.metrics.increment("refresh.touched", len(touched))
            return touched

    def warm(self, freeze: bool = False) -> "DeAnonymizer":
        """Eagerly build every shared structure the scoring path reads.

        Builds the global transaction graph with its pair->slot dict and row
        index, plus the extractor's single-pass feature table, so a pool of
        concurrent scoring threads never contends on a first-build lock.
        ``freeze=True`` additionally seals the graph against mutation
        (:meth:`TxGraph.freeze <repro.graph.txgraph.TxGraph.freeze>`), the
        recommended setting for a dedicated serving process.
        """
        self.refresh()                      # never warm (or seal) a stale graph
        with self.metrics.timed("warm"):
            self.builder.warm(freeze=freeze)
        return self

    def sample_for(self, address: str) -> AccountSubgraph:
        """The account subgraph for ``address`` (sampled once, then cached).

        The cache is an LRU when ``sample_cache_size`` is set (least recently
        *served* sample evicted first) and unbounded otherwise.  Cache lookups
        are thread-safe; the expensive sampling itself runs outside the lock,
        so concurrent misses on *different* addresses proceed in parallel
        (two racing misses on the same address both sample, and the first
        writer's deterministic result is kept — identical to the loser's).

        Raises :class:`UnknownAddressError` when the address has no presence in
        the transaction graph (never transacted, or all its transactions were
        filtered out).
        """
        self.refresh()
        with self._sample_lock:
            sample = self._samples.get(address)
            if sample is not None:
                self._cache_hits += 1
                if self.sample_cache_size is not None:
                    self._samples.move_to_end(address)
                return sample
            self._cache_misses += 1
        builder = self.builder
        if address not in builder.graph:
            raise UnknownAddressError(address)
        sample = builder.build_sample(address)
        with self._sample_lock:
            kept = self._samples.setdefault(address, sample)
            if self.sample_cache_size is not None:
                self._samples.move_to_end(address)
                while len(self._samples) > self.sample_cache_size:
                    self._samples.popitem(last=False)
                    self._cache_evictions += 1
        return kept

    def clear_sample_cache(self) -> None:
        """Drop every cached subgraph sample (e.g. to bound server memory)."""
        with self._sample_lock:
            self._samples.clear()

    def score(self, addresses: str | Sequence[str],
              skip_unknown: bool = False) -> dict[str, dict[str, float]]:
        """Per-category probabilities for raw addresses, end-to-end and batched.

        Sampling and feature extraction run once per distinct address; the
        heads then score the same cached subgraph objects, reusing their
        memoized CSR adjacency and time slices.  Each group of
        same-architecture branches runs one stacked forward per chunk of
        samples with equal node counts (the forwards run are recorded as
        ``score.head_passes`` in :meth:`stats`).
        Returns ``{address: {category: probability}}``.

        Addresses that cannot be sampled are collected across the whole batch
        and raised as **one** aggregated :class:`UnknownAddressError` (its
        ``addresses`` tuple lists every offender) — a batch never fails on
        just the first bad address.  With ``skip_unknown=True`` they are
        silently omitted from the result instead (the partial-result escape
        hatch for best-effort serving).
        """
        self._check_fitted()
        self.refresh()
        if isinstance(addresses, str):
            addresses = [addresses]
        addresses = list(addresses)
        unique = list(dict.fromkeys(addresses))
        t0 = time.perf_counter()
        samples: dict[str, AccountSubgraph] = {}
        unknown: list[str] = []
        for address in unique:
            try:
                samples[address] = self.sample_for(address)
            except UnknownAddressError:
                unknown.append(address)
        if unknown and not skip_unknown:
            raise UnknownAddressError(unknown)
        known = [address for address in unique if address in samples]
        sample_list = [samples[address] for address in known]
        t1 = time.perf_counter()
        stacked = self._stacked_heads()
        per_head = stacked.predict_proba(sample_list) if known else {}
        metrics = self.metrics
        metrics.record_seconds("score.sample", t1 - t0)
        metrics.record_seconds("score.heads", time.perf_counter() - t1)
        metrics.record_value("score.batch_size", len(unique))
        metrics.record_value("score.head_passes", stacked.passes(sample_list))
        metrics.increment("score.calls")
        metrics.increment("score.addresses", len(addresses))
        metrics.increment("score.unknown", len(unknown))
        index = {address: i for i, address in enumerate(known)}
        return {address: {name: float(per_head[name][index[address]])
                          for name in self._heads}
                for address in addresses if address in samples}

    def score_all(self) -> dict[str, dict[str, float]]:
        """Score every account in the transaction graph (or, without a ledger,
        every cached dataset sample)."""
        self._check_fitted()
        self.refresh()                      # new accounts become scorable too
        if self.ledger is not None:
            addresses = list(self.builder.graph.nodes)
        else:
            addresses = list(self._samples)
        return self.score(addresses)

    def stats(self) -> dict:
        """Serving statistics for monitoring endpoints (cheap to call).

        Every ledger-level counter is O(1) against the columnar store
        (row/account counts, the incrementally maintained submitted-tx
        timespan); graph statistics appear once the global transaction graph
        has been built and are ``None`` before then, so calling ``stats()``
        never forces the expensive build.
        """
        ledger_stats = None
        if self.ledger is not None:
            low, high = self.ledger.timespan()
            ledger_stats = {
                "num_transactions": self.ledger.num_transactions,
                "num_accounts": self.ledger.num_accounts,
                "num_blocks": self.ledger.num_blocks,
                "timespan": (low, high),
            }
        graph = self._builder.graph_if_built() if self._builder is not None else None
        with self._sample_lock:
            cache_stats = {
                "size": len(self._samples),
                "max_size": self.sample_cache_size,
                "hits": self._cache_hits,
                "misses": self._cache_misses,
                "evictions": self._cache_evictions,
                "invalidations": self._cache_invalidations,
            }
        return {
            "ledger": ledger_stats,
            "graph": (None if graph is None
                      else {"num_nodes": graph.num_nodes, "num_edges": graph.num_edges}),
            "fitted_heads": self.categories,
            "cached_samples": cache_stats["size"],
            "dataset_built": self._dataset is not None,
            "serving": {"sample_cache": cache_stats, **self.metrics.snapshot()},
        }

    def predict(self, addresses: str | Sequence[str],
                threshold: float = 0.5) -> dict[str, str | None]:
        """The most probable category per address, or ``None`` below ``threshold``."""
        scores = self.score(addresses)
        predictions: dict[str, str | None] = {}
        for address, per_category in scores.items():
            best = max(per_category, key=per_category.get)
            predictions[address] = best if per_category[best] >= threshold else None
        return predictions

    # ----------------------------------------------------- sample-level API
    def score_samples(self, samples: Sequence[AccountSubgraph],
                      category=None) -> np.ndarray | dict[str, np.ndarray]:
        """Head probabilities for pre-built subgraph samples.

        With ``category`` returns that head's ``(n,)`` probability array;
        without it, a ``{category: probabilities}`` dict over all heads,
        scored together as in :meth:`score`.
        """
        self._check_fitted()
        samples = list(samples)
        if category is not None:
            return self.head(category).predict_proba(samples)
        return self._stacked_heads().predict_proba(samples)

    def predict_samples(self, category, samples: Sequence[AccountSubgraph]) -> np.ndarray:
        """Binary one-vs-rest predictions of one head for pre-built samples."""
        self._check_fitted()
        return self.head(category).predict(list(samples))

    # ------------------------------------------------------------ persistence
    def get_state(self) -> dict:
        """The persistable state: sampling config + every head's full state."""
        self._check_fitted()
        return {
            "kind": "DeAnonymizer",
            "seed": int(self.seed),
            "dataset_config": asdict(self.dataset_config),
            "heads": {name: head.get_state() for name, head in self._heads.items()},
        }

    def set_state(self, state: dict) -> "DeAnonymizer":
        """Restore fitted heads and sampling config from :meth:`get_state` output."""
        if state.get("kind") != "DeAnonymizer":
            raise ValueError(f"state is not a DeAnonymizer state (kind={state.get('kind')!r})")
        self.seed = int(state["seed"])
        self.dataset_config = DatasetConfig(**state["dataset_config"])
        # Subgraphs sampled under the previous dataset_config (or for previous
        # heads) must not be served to the restored model.
        self._builder = None
        self._dataset = None
        self._samples = OrderedDict()
        if self.ledger is not None:
            self._seen_data_version = self.ledger.data_version
            self._seen_rows = self.ledger.num_transactions
        self._heads = {name: DBG4ETH.from_state(head_state)
                       for name, head_state in state["heads"].items()}
        return self

    def save(self, path: str | Path) -> Path:
        """Persist the fitted model to ``path`` (a directory; npz + json)."""
        return save_state(path, self.get_state())

    @classmethod
    def load(cls, path: str | Path, ledger: Ledger | None = None) -> "DeAnonymizer":
        """Restore a model saved with :meth:`save`.

        Scoring raw addresses needs a ledger — pass it here or call
        :meth:`attach_ledger` later (e.g. once the serving process has its own
        chain connection).
        """
        instance = cls(ledger=ledger)
        instance.set_state(load_state(path))
        return instance
