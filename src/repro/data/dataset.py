"""Account-centred subgraph dataset construction (Section III-B)."""

from __future__ import annotations

import pickle
import threading

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.chain.labelcloud import AccountCategory
from repro.chain.ledger import Ledger
from repro.data.features import FEATURE_NAMES, DeepFeatureExtractor
from repro.data.pipeline import build_transaction_graph
from repro.data.slicing import time_slice_adjacency, time_slice_csr
from repro.graph.sampling import ego_subgraph
from repro.graph.sparse import SparseAdjacency
from repro.graph.txgraph import TxGraph

__all__ = ["AccountSubgraph", "SubgraphDataset", "SubgraphDatasetBuilder", "DatasetConfig"]


@dataclass
class AccountSubgraph:
    """One sample of the subgraph-classification dataset.

    Attributes
    ----------
    center:
        Address of the target (labelled or negative) account.
    category:
        The account category string, or ``None`` for negative samples drawn from
        the unlabeled population.
    graph:
        The sampled ego subgraph: Eq. 2's top-K ego graph, cut to the centre
        plus its highest-degree nodes when larger than
        ``DatasetConfig.max_nodes_per_subgraph``.
    node_features:
        ``(n, 15)`` deep feature matrix, row order matching ``graph.nodes``.
    center_index:
        Row index of the centre node in ``node_features`` / adjacency matrices.
    """

    center: str
    category: str | None
    graph: TxGraph
    node_features: np.ndarray
    center_index: int
    # Lazily built sparse forms: the subgraph topology never changes after
    # sampling, so the CSR adjacency and time-slice sequences (plus their
    # memoized normalisations) are shared across every training epoch.  Builds
    # are double-check-locked so concurrent scoring threads sharing a sample
    # all observe the single instance the winning thread built.
    _sparse_cache: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)
    _cache_lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                        repr=False, compare=False)

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_cache_lock"]            # locks are not picklable
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._cache_lock = threading.Lock()

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def adjacency(self, weighted: bool = False) -> np.ndarray:
        """Symmetric adjacency matrix for message passing."""
        return self.graph.adjacency_matrix(weighted=weighted, symmetric=True)

    def adjacency_sparse(self, weighted: bool = False,
                         log_scale: bool = False) -> SparseAdjacency:
        """Cached CSR view of :meth:`adjacency` (same symmetric ``max(A, A.T)``).

        ``log_scale=True`` applies ``log1p`` to the stored values (the
        amount-weighted variant used by TSGN-style baselines); since amounts are
        non-negative the non-zero structure — and therefore the memoized
        normalisations — match the dense ``np.log1p(A)`` exactly.
        """
        key = ("adjacency", weighted, log_scale)
        cached = self._sparse_cache.get(key)
        if cached is None:
            with self._cache_lock:
                cached = self._sparse_cache.get(key)
                if cached is None:
                    cached = SparseAdjacency.from_graph(self.graph, weighted=weighted,
                                                        symmetric=True)
                    if log_scale:
                        cached = SparseAdjacency(cached.indptr, cached.indices,
                                                 np.log1p(cached.data))
                    self._sparse_cache[key] = cached
        return cached

    def edge_features(self) -> np.ndarray:
        """Edge feature matrix ``[total amount, count]`` (Section III-B3)."""
        return self.graph.edge_feature_matrix()

    def node_edge_features(self) -> np.ndarray:
        """Per-node aggregate of incident edge features ``[amount, count]``.

        Used by the GSG feature-alignment step (Eq. 6), which concatenates each
        neighbour's node features with the features of its connecting edge.
        """
        n = self.graph.num_nodes
        src_idx, dst_idx, amount, count, _ts = self.graph.edge_arrays()
        m = len(src_idx)
        if m == 0:
            return np.zeros((n, 2))
        # Interleave (src_0, dst_0, src_1, ...) so each bincount bin folds its
        # contributions in exactly the order the per-edge loop added them.
        endpoints = np.empty(2 * m, dtype=np.int64)
        endpoints[0::2] = src_idx
        endpoints[1::2] = dst_idx
        payload = np.empty(2 * m, dtype=np.float64)
        agg = np.zeros((n, 2))
        payload[0::2] = amount
        payload[1::2] = amount
        agg[:, 0] = np.bincount(endpoints, weights=payload, minlength=n)
        payload[0::2] = count
        payload[1::2] = count
        agg[:, 1] = np.bincount(endpoints, weights=payload, minlength=n)
        return agg

    def time_slices(self, num_slices: int, weighted: bool = True,
                    sparse: bool = False):
        """The LDG's discrete-time adjacency sequence (Eq. 1).

        With ``sparse=True`` the slices are cached :class:`SparseAdjacency`
        instances built straight from the edge arrays (no dense allocation);
        the default remains the seed's dense matrices.
        """
        if not sparse:
            return time_slice_adjacency(self.graph, num_slices, weighted=weighted)
        key = ("slices", num_slices, weighted)
        cached = self._sparse_cache.get(key)
        if cached is None:
            with self._cache_lock:
                cached = self._sparse_cache.get(key)
                if cached is None:
                    cached = time_slice_csr(self.graph, num_slices, weighted=weighted)
                    self._sparse_cache[key] = cached
        return cached


@dataclass
class DatasetConfig:
    """Sampling parameters (Section V-A4: 2 hops, top-K = 2000 by default).

    ``max_nodes_per_subgraph`` caps each sample: a larger ego set keeps its
    centre plus the highest-degree nodes (see
    :func:`~repro.graph.sampling.ego_subgraph`).
    """

    hops: int = 2
    top_k: int = 2000
    negatives_per_positive: float = 1.0
    max_nodes_per_subgraph: int = 200
    seed: int = 13


class SubgraphDataset:
    """A list of :class:`AccountSubgraph` samples with task helpers."""

    def __init__(self, samples: list[AccountSubgraph]):
        self.samples = list(samples)
        # Per-category sample-index arrays, built on first task access: the
        # task helpers are called once per head (9 categories x repeated
        # experiment sweeps), so the O(n) category scans are paid once instead
        # of on every call.
        self._category_indices: dict[str | None, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.samples)

    def __getitem__(self, index: int) -> AccountSubgraph:
        return self.samples[index]

    def __iter__(self):
        return iter(self.samples)

    def _category_index(self) -> dict[str | None, np.ndarray]:
        """Map category (or ``None``) -> ascending sample-index array."""
        if self._category_indices is None:
            by_category: dict[str | None, list[int]] = {}
            for i, sample in enumerate(self.samples):
                by_category.setdefault(sample.category, []).append(i)
            self._category_indices = {
                category: np.array(idx, dtype=np.intp)
                for category, idx in by_category.items()}
        return self._category_indices

    def categories(self) -> list[str]:
        """Distinct non-null categories present in the dataset."""
        return sorted(c for c in self._category_index() if c is not None)

    def binary_task(self, category: AccountCategory | str,
                    rng: np.random.Generator | None = None,
                    ) -> tuple[list[AccountSubgraph], np.ndarray]:
        """One-vs-rest task for ``category``.

        Positives are samples of the category; negatives are an equally sized
        mix of other categories and unlabeled accounts (matching the paper's
        roughly 1:1 graph counts in Table II).
        """
        category = AccountCategory(category).value
        rng = rng or np.random.default_rng(0)
        index = self._category_index()
        pos_idx = index.get(category)
        if pos_idx is None or len(pos_idx) == 0:
            raise ValueError(f"no samples with category {category!r}")
        positives = [self.samples[i] for i in pos_idx]
        # Ascending complement == the order the original linear scan produced.
        others_idx = np.setdiff1d(np.arange(len(self.samples), dtype=np.intp),
                                  pos_idx, assume_unique=True)
        others = [self.samples[i] for i in others_idx]
        n_neg = min(len(others), len(positives))
        idx = rng.permutation(len(others))[:n_neg]
        negatives = [others[i] for i in idx]
        samples = positives + negatives
        labels = np.array([1] * len(positives) + [0] * len(negatives))
        order = rng.permutation(len(samples))
        return [samples[i] for i in order], labels[order]

    def multiclass_task(self) -> tuple[list[AccountSubgraph], np.ndarray, list[str]]:
        """All labelled samples with integer class indices."""
        index = self._category_index()
        classes = self.categories()
        labelled_idx = np.sort(np.concatenate(
            [index[c] for c in classes])) if classes else np.array([], dtype=np.intp)
        labelled = [self.samples[i] for i in labelled_idx]
        class_to_idx = {c: i for i, c in enumerate(classes)}
        labels = np.array([class_to_idx[s.category] for s in labelled])
        return labelled, labels, classes

    def statistics(self) -> dict[str, dict[str, float]]:
        """Per-category statistics mirroring Table II."""
        index = self._category_index()
        negatives_count = len(index.get(None, ()))
        stats: dict[str, dict[str, float]] = {}
        for category in self.categories():
            positives = [self.samples[i] for i in index[category]]
            stats[category] = {
                "num_positive": len(positives),
                "num_graphs": len(positives) + min(negatives_count, len(positives)),
                "avg_nodes": float(np.mean([s.num_nodes for s in positives])),
                "avg_edges": float(np.mean([s.num_edges for s in positives])),
            }
        return stats

    def feature_matrix(self) -> np.ndarray:
        """Centre-node features for every sample, ``(num_samples, 15)``."""
        return np.vstack([s.node_features[s.center_index] for s in self.samples])


class SubgraphDatasetBuilder:
    """Build a :class:`SubgraphDataset` from a ledger (Stage 1 of the paper).

    Besides the batch :meth:`build`, the builder supports on-demand sampling of
    a single account through :meth:`build_sample` — the primitive the serving
    facade (:class:`repro.api.DeAnonymizer`) uses to answer "what category is
    address X?" for addresses that were never part of a training dataset.  The
    global transaction graph is built once and cached on the builder.
    """

    def __init__(self, ledger: Ledger, config: DatasetConfig | None = None):
        self.ledger = ledger
        self.config = config or DatasetConfig()
        self._extractor = DeepFeatureExtractor(ledger)
        self._graph: TxGraph | None = None
        self._graph_lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_graph_lock"]            # locks are not picklable
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._graph_lock = threading.Lock()

    @property
    def graph(self) -> TxGraph:
        """The global account-interaction graph (built lazily, cached).

        Concurrent first accesses serialise on a lock; every thread receives
        the single graph the winning thread built.
        """
        graph = self._graph
        if graph is None:
            with self._graph_lock:
                graph = self._graph
                if graph is None:
                    graph = build_transaction_graph(self.ledger)
                    self._graph = graph
        return graph

    def warm(self, freeze: bool = False) -> "SubgraphDatasetBuilder":
        """Eagerly build every shared lazy structure the sampling path reads.

        Builds the global graph, its pair/row indexes (:meth:`TxGraph.warm`)
        and the extractor's single-pass feature table, so a pool of sampling
        threads never contends on a build lock.  After :meth:`refresh` this
        is the cheap incremental step: the new edges are merged into the row
        index and the table is carried forward over the appended rows.  With
        ``freeze=True`` the graph is sealed against mutation on top
        (:meth:`TxGraph.freeze`) — the strongest serving guarantee.
        """
        graph = self.graph
        if freeze:
            graph.freeze()
        else:
            graph.warm()
        self._extractor.warm()              # forces the global feature table
        return self

    def graph_if_built(self) -> TxGraph | None:
        """The cached global graph, or ``None`` — never triggers the build.

        Monitoring surfaces (e.g. ``DeAnonymizer.stats``) use this to report
        graph sizes without paying for an O(T) construction.
        """
        return self._graph

    def refresh(self) -> list[str]:
        """Fold ledger rows appended since the graph build into the pipeline.

        Incrementally ingests the new rows into the cached global graph
        (:meth:`TxGraph.ingest` — O(new rows), bit-identical to a cold
        rebuild) and returns the addresses incident to the new edges: the
        invalidation set for per-account caches downstream.  The graph's row
        index and the extractor's feature table (keyed on ledger growth)
        catch up on their next read, or eagerly in :meth:`warm`, which is
        what :meth:`DeAnonymizer.refresh <repro.api.DeAnonymizer.refresh>`
        calls next.  Neither re-sorts nor re-reduces the whole ledger: the
        index merges the new slots in, and the table folds in only the
        appended rows.  With no cached graph yet — or no new rows — this is
        a cheap no-op returning ``[]``; later builds see the full ledger
        anyway.

        Follows the graph's write contract: must not run concurrently with
        readers (freeze()d graphs refuse; warm()-only serving deployments
        should call this from a single maintenance thread between batches).
        """
        graph = self._graph
        if graph is None:
            return []
        with self._graph_lock:
            return graph.ingest(self.ledger)

    def build(self, workers: int | None = None,
              mode: str = "thread") -> SubgraphDataset:
        """Build the dataset, optionally fanning out across centre accounts.

        The build has two phases with a strict contract between them: the
        *task list* (which accounts to sample, in which order, with which
        label) consumes all of the build's randomness up front, and
        :meth:`build_sample` is a deterministic pure function of the frozen
        builder state.  Sampling is therefore embarrassingly parallel —
        ``workers > 1`` maps the task list over a thread or process pool
        (``mode``) in task order, and the result is bit-identical to the
        sequential build.

        Thread workers share this builder's graph and feature table (warmed
        first so no worker pays a build); process workers receive a pickled
        warmed copy once per worker via the pool initializer — the scaling
        path on multi-core machines.
        """
        tasks = self._build_tasks()
        if workers is None or workers <= 1:
            samples = [self.build_sample(address, category)
                       for address, category in tasks]
        elif mode == "thread":
            self.warm()
            with ThreadPoolExecutor(max_workers=workers) as pool:
                samples = list(pool.map(
                    lambda task: self.build_sample(*task), tasks))
        elif mode == "process":
            self.warm()
            payload = pickle.dumps(self)
            with ProcessPoolExecutor(
                    max_workers=workers, initializer=_init_worker_builder,
                    initargs=(payload,)) as pool:
                samples = list(pool.map(_worker_build_sample, tasks,
                                        chunksize=max(1, len(tasks) // (4 * workers))))
        else:
            raise ValueError(f"unknown build mode {mode!r} "
                             "(expected 'thread' or 'process')")
        return SubgraphDataset(samples)

    def _build_tasks(self) -> list[tuple[str, str | None]]:
        """The ``(address, category)`` sampling plan, in dataset order.

        All RNG happens here (the negative-candidate shuffle), before any
        sample is built — the ordering/randomness contract parallel builds
        rely on.
        """
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        graph = self.graph
        labelled_addresses = [addr for addr, _ in self.ledger.labels.items()
                              if graph.has_node(addr)]
        tasks: list[tuple[str, str | None]] = [
            (address, self.ledger.labels.get(address).value)
            for address in labelled_addresses]
        # Negative samples: unlabeled accounts with enough activity.
        n_negatives = int(round(len(labelled_addresses) * cfg.negatives_per_positive))
        candidates = [node for node in graph.nodes
                      if node not in self.ledger.labels and graph.degree(node) >= 2]
        rng.shuffle(candidates)
        tasks.extend((address, None) for address in candidates[:n_negatives])
        return tasks

    def build_sample(self, address: str, category: str | None = None) -> AccountSubgraph:
        """Sample one account-centred subgraph (2-hop top-K ego + deep features).

        One :func:`~repro.graph.sampling.ego_subgraph` call expands, induces
        and truncates to ``max_nodes_per_subgraph`` (the centre plus the
        highest-degree nodes of the ego subgraph), building only the graph
        the sample keeps.
        """
        cfg = self.config
        graph = self.graph
        if address not in graph:
            raise KeyError(f"address {address!r} is not in the transaction graph")
        sub = ego_subgraph(graph, address, hops=cfg.hops, k=cfg.top_k,
                           max_nodes=cfg.max_nodes_per_subgraph)
        # One batched extraction per subgraph instead of a per-node loop: the
        # extractor serves all rows from its single-pass feature table.
        features = self._extractor.extract_many(sub.nodes)
        return AccountSubgraph(
            center=address,
            category=category,
            graph=sub,
            node_features=features,
            center_index=sub.node_index(address),
        )


# Process-pool plumbing for :meth:`SubgraphDatasetBuilder.build`: each worker
# unpickles the warmed builder once into a module global, then serves
# ``build_sample`` calls from it (initargs are delivered before any task).
_WORKER_BUILDER: SubgraphDatasetBuilder | None = None


def _init_worker_builder(payload: bytes) -> None:
    global _WORKER_BUILDER
    _WORKER_BUILDER = pickle.loads(payload)


def _worker_build_sample(task: tuple[str, str | None]) -> AccountSubgraph:
    address, category = task
    return _WORKER_BUILDER.build_sample(address, category)
