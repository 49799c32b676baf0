"""Local dynamic account transaction encoding module (Section IV-B)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.inference import StackedLDG, stacks_samples
from repro.data.dataset import AccountSubgraph
from repro.gnn.layers import GCNLayer
from repro.gnn.pooling import DiffPool
from repro.gnn.recurrent import GRUCell
from repro.gnn.sparse_ops import segment_mean_batch
from repro.graph.sparse import BatchedAdjacency, SparseAdjacency
from repro.nn import Adam, Linear, Module, Parameter, Tensor, concat, no_grad
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.functional import relu, softmax

__all__ = ["LDGConfig", "LDGBranch"]


@dataclass
class LDGConfig:
    """Hyperparameters of the LDG branch.

    ``num_slices`` is the paper's ``T`` (10 by default); ``pooling_layers`` is
    the DiffPool depth studied in Figure 9(b) (2 by default, with pooling rates
    0.1 then collapse-to-one).

    ``batch_size`` selects the training granularity: 1 (the default) keeps the
    legacy one-subgraph-per-optimizer-step loop bit-for-bit; larger values
    train on minibatches whose time slices are stacked block-diagonally per
    slice index and forwarded as ``num_slices`` batched sparse passes.
    """

    hidden_dim: int = 32
    num_slices: int = 5
    pooling_layers: int = 2
    first_pool_clusters: int = 10
    epochs: int = 20
    batch_size: int = 1
    learning_rate: float = 0.01
    seed: int = 0


class _LDGNetwork(Module):
    """GCN per slice + GRU over slices + DiffPool + attention read-out (Eq. 14-23)."""

    def __init__(self, in_dim: int, config: LDGConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.input_proj = Linear(in_dim, config.hidden_dim, rng=rng)
        self.gcn = GCNLayer(config.hidden_dim, config.hidden_dim, rng=rng)
        self.gru = GRUCell(config.hidden_dim, config.hidden_dim, rng=rng)
        self.pools = self._build_pools(config, rng)
        # Adaptive time-slice weights of the read-out (Eq. 22), learned end-to-end.
        self.slice_logits = Parameter(np.zeros(config.num_slices))
        self.head = Linear(config.hidden_dim, 1, rng=rng)

    @staticmethod
    def _build_pools(config: LDGConfig, rng: np.random.Generator) -> list[DiffPool]:
        """A shrinking sequence of DiffPool layers ending in a single cluster.

        The paper pools twice: first to ``N * 0.1`` clusters, then to one.  With
        soft assignments the first stage can use a fixed cluster budget
        (``first_pool_clusters``) regardless of the subgraph size.
        """
        pools = []
        clusters = config.first_pool_clusters
        for layer in range(config.pooling_layers):
            is_last = layer == config.pooling_layers - 1
            pools.append(DiffPool(config.hidden_dim, 1 if is_last else clusters, rng=rng))
            clusters = max(1, clusters // 2)
        return pools

    def slice_representations(self, features: np.ndarray, slices) -> list[Tensor]:
        """Per-slice pooled evolutionary features ``h^pool_t`` (Eq. 20/22 inputs).

        ``slices`` is a sequence of per-slice adjacencies — sparse
        :class:`~repro.graph.sparse.SparseAdjacency` instances in the training
        path, dense matrices for backward compatibility.
        """
        projected = relu(self.input_proj(Tensor(features)))
        hidden = projected
        pooled_per_slice: list[Tensor] = []
        for adjacency in slices:
            topo = self.gcn(hidden, adjacency)            # Eq. 14
            hidden = self.gru(topo, hidden)               # Eq. 15-18
            pooled, pooled_adj = hidden, adjacency
            for pool in self.pools:
                pooled, pooled_adj, _assign = pool(pooled, pooled_adj)   # Eq. 19-21
            pooled_per_slice.append(pooled.mean(axis=0, keepdims=True))
        return pooled_per_slice

    def forward(self, features: np.ndarray, slices) -> Tensor:
        pooled_per_slice = self.slice_representations(features, slices)
        weights = softmax(self.slice_logits.reshape(1, -1), axis=1)
        representation = None
        for t, pooled in enumerate(pooled_per_slice):
            weighted = pooled * weights[0, t].reshape(1, 1)
            representation = weighted if representation is None else representation + weighted
        return self.head(relu(representation))            # Eq. 23

    def slice_representations_batched(self, features: np.ndarray,
                                      slices) -> list[Tensor]:
        """Batched ``h^pool_t``: one ``(B, hidden)`` tensor per time slice.

        ``features`` is the per-sample node-feature matrices stacked
        vertically; ``slices`` is a length-``T`` sequence of
        :class:`~repro.graph.sparse.BatchedAdjacency` — slice ``t`` of every
        sample stacked block-diagonally (all ``T`` share the batch's node
        offsets, since slicing partitions edges, not nodes).  GCN and GRU are
        block-/row-local so they run unchanged on the stack; DiffPool and the
        final mean read-out reduce per segment.
        """
        projected = relu(self.input_proj(Tensor(features)))
        hidden = projected
        pooled_per_slice: list[Tensor] = []
        for adjacency in slices:
            topo = self.gcn(hidden, adjacency)            # Eq. 14
            hidden = self.gru(topo, hidden)               # Eq. 15-18
            pooled, pooled_adj = hidden, adjacency
            for pool in self.pools:
                pooled, pooled_adj, _assign = pool.forward_batched(pooled, pooled_adj)
            pooled_per_slice.append(
                segment_mean_batch(pooled, pooled_adj.node_offsets))
        return pooled_per_slice

    def forward_batched(self, features: np.ndarray, slices) -> Tensor:
        """``(B, 1)`` logits for a block-diagonal minibatch."""
        pooled_per_slice = self.slice_representations_batched(features, slices)
        weights = softmax(self.slice_logits.reshape(1, -1), axis=1)
        representation = None
        for t, pooled in enumerate(pooled_per_slice):
            weighted = pooled * weights[0, t].reshape(1, 1)
            representation = weighted if representation is None else representation + weighted
        return self.head(relu(representation))            # Eq. 23


class LDGBranch:
    """Train/evaluate the local dynamic graph encoder on subgraph samples."""

    def __init__(self, config: LDGConfig | None = None):
        self.config = config or LDGConfig()
        self._network: _LDGNetwork | None = None
        self._feature_stats: tuple[np.ndarray, np.ndarray] | None = None
        # Parity escape hatch — see GSGBranch: with batch_size > 1 and this
        # flag off, the same minibatch schedule runs with per-sample forwards.
        self._batched_kernel = True

    def _prepare(self, sample: AccountSubgraph):
        mean, std = self._feature_stats
        features = (sample.node_features - mean) / std
        # Cached CSR slices: built once per sample, no dense per-slice matrices.
        slices = sample.time_slices(self.config.num_slices, weighted=False,
                                    sparse=True)
        return features, slices

    def _prepare_batch(self, samples: list[AccountSubgraph]):
        """Stack a minibatch: features vertically, slice ``t`` across samples.

        Each stacked slice seeds its GCN normalisation from the per-sample
        memoized ones, so repeated epochs never re-derive them.
        """
        prepared = [self._prepare(s) for s in samples]
        features = np.vstack([p[0] for p in prepared])
        slices = [SparseAdjacency.block_diagonal(
            [p[1][t] for p in prepared], derived=("gcn_normalized",),
            compose_plans=True)
            for t in range(self.config.num_slices)]
        return features, slices

    def _minibatch_logits(self, batch: list[AccountSubgraph]) -> Tensor:
        """``(len(batch),)`` logits — stacked kernel or looped reference."""
        if self._batched_kernel:
            features, slices = self._prepare_batch(batch)
            return self._network.forward_batched(features, slices).reshape(len(batch))
        return concat([self._network(*self._prepare(s)).reshape(1)
                       for s in batch], axis=0)

    def _fit_feature_stats(self, samples: list[AccountSubgraph]) -> None:
        stacked = np.vstack([s.node_features for s in samples])
        mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        std[std < 1e-12] = 1.0
        self._feature_stats = (mean, std)

    def fit(self, samples: list[AccountSubgraph], labels: np.ndarray) -> "LDGBranch":
        if len(samples) != len(labels):
            raise ValueError("samples and labels must have the same length")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self._fit_feature_stats(samples)
        in_dim = samples[0].node_features.shape[1]
        self._network = _LDGNetwork(in_dim, cfg, rng)
        optimizer = Adam(self._network.parameters(), lr=cfg.learning_rate)
        labels = np.asarray(labels, dtype=float)
        indices = np.arange(len(samples))
        batch_size = max(1, cfg.batch_size)
        if batch_size > 1:
            # Minibatch compositions are fixed by one seeded shuffle; epochs
            # re-shuffle only the visit order, so each minibatch's per-slice
            # stacks (and their composed GCN normalisations / transpose plans)
            # are built once per fit and reused every epoch.
            rng.shuffle(indices)
            chunks = [indices[start:start + batch_size]
                      for start in range(0, len(indices), batch_size)]
            batches = [[samples[i] for i in chunk] for chunk in chunks]
            stacks = [self._prepare_batch(batch) for batch in batches] \
                if self._batched_kernel else None
            order = np.arange(len(chunks))
        for _epoch in range(cfg.epochs):
            if batch_size == 1:
                # Legacy per-sample-step loop, bit-for-bit.
                rng.shuffle(indices)
                for idx in indices:
                    features, slices = self._prepare(samples[idx])
                    optimizer.zero_grad()
                    logit = self._network(features, slices)
                    loss = binary_cross_entropy_with_logits(logit.reshape(1), [labels[idx]])
                    loss.backward()
                    optimizer.step()
            else:
                rng.shuffle(order)
                for j in order:
                    optimizer.zero_grad()
                    if stacks is not None:
                        logits = self._network.forward_batched(
                            *stacks[j]).reshape(len(chunks[j]))
                    else:
                        logits = self._minibatch_logits(batches[j])
                    loss = binary_cross_entropy_with_logits(logits, labels[chunks[j]])
                    loss.backward()
                    optimizer.step()
        return self

    def predict_scores(self, samples: list[AccountSubgraph]) -> np.ndarray:
        """Raw (uncalibrated) predicted values — the "local predicted value".

        Scored like :meth:`GSGBranch.predict_scores
        <repro.core.gsg.GSGBranch.predict_scores>`: through the stacked
        inference path in chunks of samples with equal node counts, or by the
        block-diagonal training forward with ``batch_size > 1``.
        """
        if self._network is None:
            raise RuntimeError("LDGBranch has not been fitted")
        if not (stacks_samples(self) and len(samples) > 1):
            return StackedLDG([self]).scores(samples)[0]
        batch_size = self.config.batch_size
        scores = np.empty(len(samples), dtype=np.float64)
        with no_grad():
            for start in range(0, len(samples), batch_size):
                chunk = samples[start:start + batch_size]
                features, slices = self._prepare_batch(chunk)
                logits = self._network.forward_batched(features, slices)
                scores[start:start + len(chunk)] = logits.data.ravel()
        return scores

    def predict_proba(self, samples: list[AccountSubgraph]) -> np.ndarray:
        scores = self.predict_scores(samples)
        return 1.0 / (1.0 + np.exp(-np.clip(scores, -30, 30)))

    def slice_weights(self) -> np.ndarray:
        """The learned adaptive time-slice weights ``alpha_t`` (Eq. 22)."""
        if self._network is None:
            raise RuntimeError("LDGBranch has not been fitted")
        logits = self._network.slice_logits.data
        exp = np.exp(logits - logits.max())
        return exp / exp.sum()

    # ------------------------------------------------------------- persistence
    def get_state(self) -> dict:
        """Serializable fitted state: feature scaler stats + network weights.

        The branch hyperparameters are *not* part of the state — restore into a
        branch constructed with the same :class:`LDGConfig`.
        """
        if self._network is None:
            raise RuntimeError("LDGBranch has not been fitted")
        mean, std = self._feature_stats
        return {
            "in_dim": int(self._network.input_proj.in_features),
            "feature_mean": np.asarray(mean),
            "feature_std": np.asarray(std),
            "params": self._network.state_dict(),
        }

    def set_state(self, state: dict) -> "LDGBranch":
        """Restore a fitted branch from :meth:`get_state` output."""
        self._feature_stats = (np.asarray(state["feature_mean"], dtype=float),
                               np.asarray(state["feature_std"], dtype=float))
        self._network = _LDGNetwork(int(state["in_dim"]), self.config,
                                    np.random.default_rng(self.config.seed))
        self._network.load_state_dict([np.asarray(p, dtype=float) for p in state["params"]])
        return self
