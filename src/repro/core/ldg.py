"""Local dynamic account transaction encoding module (Section IV-B).

The network runs on dense blocks: a group of ``B`` samples with ``n`` nodes
forwards its ``(B, n, F)`` features with its ``(T, B, n, n)`` time slices
(Eq. 1) and their GCN normalisations, built once per group from the
samples' edge columns.  DiffPool's coarse graphs stay dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.inference import StackedLDG
from repro.core.training import fit_branch
from repro.data.dataset import AccountSubgraph
from repro.data.slicing import time_slice_blocks
from repro.gnn.layers import GCNLayer, normalize_adjacency
from repro.gnn.pooling import DiffPool, coarsen
from repro.gnn.recurrent import GRUCell
from repro.nn import Linear, Module, Parameter, Tensor
from repro.nn.functional import relu, softmax

__all__ = ["LDGConfig", "LDGBranch"]


@dataclass
class LDGConfig:
    """Hyperparameters of the LDG branch.

    ``num_slices`` is the paper's ``T`` (10 by default); ``pooling_layers`` is
    the DiffPool depth studied in Figure 9(b) (2 by default, with pooling rates
    0.1 then collapse-to-one).

    ``batch_size`` is the number of subgraphs per optimizer step, forwarded
    one group of equal node counts at a time (see
    :func:`~repro.core.training.fit_branch`); 1, the default, is a batch of
    one.  It must be at least 1.  Scoring does not depend on it: every
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

    def slice_representations(self, features: np.ndarray, slices: np.ndarray,
                              normalized: np.ndarray) -> list[Tensor]:
        """Per-slice pooled evolutionary features ``h^pool_t`` (Eq. 20/22 inputs).

        Returns one ``(B, hidden)`` tensor per time slice for ``B`` samples
        with ``n`` nodes each: ``features`` is ``(B, n, F)``, ``slices`` the
        ``(T, B, n, n)`` time slices and ``normalized`` their
        :func:`~repro.gnn.layers.normalize_adjacency`.
        """
        hidden = relu(self.input_proj(Tensor(features)))
        pooled_per_slice: list[Tensor] = []
        for adjacency, a_hat in zip(slices, normalized):
            topo = self.gcn(hidden, a_hat)                # Eq. 14
            hidden = self.gru(topo, hidden)               # Eq. 15-18
            pooled = hidden
            for i, pool in enumerate(self.pools):         # Eq. 19-21
                pooled, assignment = pool.pool_features(pooled, a_hat)
                if i < len(self.pools) - 1:
                    # Nothing reads the last layer's coarse graph.
                    adjacency = coarsen(assignment.data, adjacency)
                    a_hat = normalize_adjacency(adjacency)
            pooled_per_slice.append(pooled.mean(axis=-2))
        return pooled_per_slice

    def forward(self, features: np.ndarray, slices: np.ndarray,
                normalized: np.ndarray) -> Tensor:
        """``(B, 1)`` logits of ``B`` samples (see :meth:`slice_representations`)."""
        pooled_per_slice = self.slice_representations(features, slices, normalized)
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

    def _inputs(self, samples: list[AccountSubgraph]) -> tuple:
        """One forward's arguments for samples with one node count."""
        mean, std = self._feature_stats
        features = (np.array([sample.node_features for sample in samples]) - mean) / std
        slices = time_slice_blocks([sample.graph for sample in samples],
                                   self.config.num_slices)
        return features, slices, normalize_adjacency(slices)

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
