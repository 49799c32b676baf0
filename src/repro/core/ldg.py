"""Local dynamic account transaction encoding module (Section IV-B)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.inference import StackedLDG
from repro.core.training import fit_branch
from repro.data.dataset import AccountSubgraph
from repro.gnn.layers import GCNLayer
from repro.gnn.pooling import DiffPool
from repro.gnn.recurrent import GRUCell
from repro.gnn.sparse_ops import segment_mean_batch
from repro.graph.sparse import SparseAdjacency
from repro.nn import Linear, Module, Parameter, Tensor
from repro.nn.functional import relu, softmax

__all__ = ["LDGConfig", "LDGBranch"]


@dataclass
class LDGConfig:
    """Hyperparameters of the LDG branch.

    ``num_slices`` is the paper's ``T`` (10 by default); ``pooling_layers`` is
    the DiffPool depth studied in Figure 9(b) (2 by default, with pooling rates
    0.1 then collapse-to-one).

    ``batch_size`` is the number of subgraphs per optimizer step: their time
    slices are stacked block-diagonally per slice index and forwarded as
    ``num_slices`` sparse passes (see
    :func:`~repro.core.training.fit_branch`); 1, the default, is a batch
    of one.  It must be at least 1.  Scoring does not depend on it: every
    fitted branch scores each sample with the bits of its own one-sample
    forward.
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

        Returns one ``(B, hidden)`` tensor per time slice for a stack of ``B``
        samples.  ``features`` holds the samples' node-feature rows stacked
        in block order; ``slices`` is a length-``T`` sequence whose entry
        ``t`` is slice ``t`` of every sample stacked block-diagonally (all
        ``T`` share the stack's node offsets: slicing partitions edges, not
        nodes).  One sample is a one-block stack: its own per-slice
        :class:`SparseAdjacency` (dense matrices also work).  GCN and GRU are
        block- and row-local; DiffPool and the mean read-out reduce per block.
        """
        hidden = relu(self.input_proj(Tensor(features)))
        pooled_per_slice: list[Tensor] = []
        for adjacency in slices:
            adjacency = SparseAdjacency.coerce(adjacency)
            topo = self.gcn(hidden, adjacency)            # Eq. 14
            hidden = self.gru(topo, hidden)               # Eq. 15-18
            pooled, graph = hidden, adjacency
            for pool in self.pools[:-1]:
                pooled, graph, _assign = pool.forward_batched(pooled, graph)  # Eq. 19-21
            offsets = graph.node_offsets
            if self.pools:
                # The last layer leaves one cluster per block, and nothing
                # reads its coarse graph, so it is never built.
                pooled, _assign = self.pools[-1].pool_features(pooled, graph)  # Eq. 19-20
                offsets = np.arange(graph.num_graphs + 1)
            pooled_per_slice.append(segment_mean_batch(pooled, offsets))
        return pooled_per_slice

    def forward(self, features: np.ndarray, slices) -> Tensor:
        """``(B, 1)`` logits of a stack of ``B`` samples (see :meth:`slice_representations`)."""
        pooled_per_slice = self.slice_representations(features, slices)
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

    def _prepare(self, sample: AccountSubgraph):
        mean, std = self._feature_stats
        features = (sample.node_features - mean) / std
        # Cached CSR slices: built once per sample, no dense per-slice matrices.
        slices = sample.time_slices(self.config.num_slices, weighted=False)
        return features, slices

    @staticmethod
    def _stack(prepared: list[tuple]) -> tuple:
        """One forward's inputs for a list of :meth:`_prepare` outputs.

        A single sample is its own features and slices.  Several are stacked:
        features vertically, slice ``t`` across samples, each stacked slice
        with its GCN normalisation and transpose plans composed from the
        samples' memoized ones, so a fit's fixed minibatches never re-derive
        them.
        """
        if len(prepared) == 1:
            return prepared[0]
        features, slices = zip(*prepared)
        return np.vstack(features), [SparseAdjacency.block_diagonal(
            slice_t, derived=("gcn_normalized",), compose_plans=True)
            for slice_t in zip(*slices)]

    def fit(self, samples: list[AccountSubgraph], labels: np.ndarray) -> "LDGBranch":
        fit_branch(self, lambda in_dim, rng: _LDGNetwork(in_dim, self.config, rng),
                   samples, labels)
        return self

    def predict_scores(self, samples: list[AccountSubgraph]) -> np.ndarray:
        """Raw (uncalibrated) predicted values — the "local predicted value".

        Scored like :meth:`GSGBranch.predict_scores
        <repro.core.gsg.GSGBranch.predict_scores>`: through the stacked
        inference path in chunks of samples with equal node counts.
        """
        if self._network is None:
            raise RuntimeError("LDGBranch has not been fitted")
        return StackedLDG([self]).scores(samples)[0]

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
