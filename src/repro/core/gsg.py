"""Global static account transaction encoding module (Section IV-A)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.augmentation import AugmentationConfig, adaptive_augmentation
from repro.core.inference import StackedGSG
from repro.core.training import fit_branch
from repro.data.dataset import AccountSubgraph
from repro.gnn.hierarchical import HierarchicalAttentionEncoder
from repro.graph.sparse import SparseAdjacency
from repro.nn import Adam, Linear, Module, Tensor, concat, nt_xent_loss
from repro.nn.functional import leaky_relu

__all__ = ["GSGConfig", "GSGBranch"]


@dataclass
class GSGConfig:
    """Hyperparameters of the GSG branch.

    Defaults mirror Section V-A4 at laptop scale: a 2-layer GAT encoder, max
    pooling read-out, and the two augmented views with
    ``(P_e, P_f) = (0.3, 0.1)`` and ``(0.4, 0.0)``.

    ``batch_size`` is the number of subgraphs per optimizer step, forwarded
    as one block-diagonal stack with the loss averaged over its samples
    (see :func:`~repro.core.training.fit_branch`); 1, the default, is a
    batch of one.  It must be at least 1.  Scoring does not depend on it:
    every fitted branch scores each sample with the bits of its own
    one-sample forward.
    """

    hidden_dim: int = 32
    num_layers: int = 2
    num_heads: int = 1
    epochs: int = 20
    batch_size: int = 1
    learning_rate: float = 0.01
    contrastive_weight: float = 0.1
    use_contrastive: bool = True
    contrastive_batch: int = 8
    view1: AugmentationConfig = field(default_factory=lambda: AugmentationConfig(0.3, 0.1))
    view2: AugmentationConfig = field(default_factory=lambda: AugmentationConfig(0.4, 0.0))
    seed: int = 0


class _GSGNetwork(Module):
    """Feature alignment (Eq. 6) + hierarchical attention encoder + prediction head."""

    def __init__(self, in_dim: int, edge_dim: int, config: GSGConfig,
                 rng: np.random.Generator):
        super().__init__()
        self.align = Linear(in_dim + edge_dim, config.hidden_dim, rng=rng)
        self.encoder = HierarchicalAttentionEncoder(
            config.hidden_dim, config.hidden_dim, num_layers=config.num_layers,
            num_heads=config.num_heads, rng=rng)
        self.head = Linear(config.hidden_dim, 1, rng=rng)

    def embed(self, features: np.ndarray, edge_features: np.ndarray,
              adjacency) -> Tensor:
        """``(B, hidden)`` embeddings of a stack of ``B`` samples.

        ``features`` / ``edge_features`` hold the samples' rows stacked in
        block order and ``adjacency`` is their block-diagonal graph.  One
        sample is a one-block stack: its own :class:`SparseAdjacency` (a
        dense matrix also works).  The alignment layer and the GAT stack are
        row- and block-local, and the read-out runs per block.
        """
        aligned = leaky_relu(self.align(Tensor(np.hstack([features, edge_features]))))
        return self.encoder(aligned, adjacency)

    def forward(self, features: np.ndarray, edge_features: np.ndarray,
                adjacency) -> Tensor:
        """``(B, 1)`` logits of a stack of ``B`` samples (see :meth:`embed`)."""
        return self.head(self.embed(features, edge_features, adjacency))


class GSGBranch:
    """Train/evaluate the global static graph encoder on subgraph samples.

    The branch is a binary scorer: :meth:`fit` trains on one-vs-rest labels and
    :meth:`predict_scores` returns raw (uncalibrated) scores — the "global
    predicted value" fed to the joint calibration module.
    """

    def __init__(self, config: GSGConfig | None = None):
        self.config = config or GSGConfig()
        self._network: _GSGNetwork | None = None
        self._feature_stats: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------ helpers
    def _prepare(self, sample: AccountSubgraph):
        mean, std = self._feature_stats
        features = (sample.node_features - mean) / std
        edge_features = np.log1p(np.abs(sample.node_edge_features()))
        # The sample's cached CSR adjacency: its memoized attention structure
        # and normalisations are shared across every epoch and both
        # contrastive views' un-augmented uses.
        adjacency = sample.adjacency_sparse()
        return features, edge_features, adjacency

    @staticmethod
    def _stack(prepared: list[tuple], derived: tuple = ("attention_structure",)) -> tuple:
        """One forward's inputs for a list of :meth:`_prepare` outputs.

        A single sample is its own arrays and adjacency, memoized forms and
        all.  Several are stacked block-diagonally, with the ``derived`` forms
        and transpose plans composed from the samples' memoized ones, so a
        fit's fixed minibatches never re-derive them.  Freshly augmented
        views have no memoized forms to reuse: pass ``derived=()``.
        """
        if len(prepared) == 1:
            return prepared[0]
        features, edge_features, adjacencies = zip(*prepared)
        return (np.vstack(features), np.vstack(edge_features),
                SparseAdjacency.block_diagonal(adjacencies, derived=derived,
                                               compose_plans=bool(derived)))

    # ----------------------------------------------------------------- training
    def fit(self, samples: list[AccountSubgraph], labels: np.ndarray) -> "GSGBranch":
        fit_branch(self, lambda in_dim, rng: _GSGNetwork(in_dim, 2, self.config, rng),
                   samples, labels, self._contrastive_step)
        return self

    def _contrastive_step(self, prepared: list[tuple], rng: np.random.Generator,
                          optimizer: Adam) -> None:
        """One contrastive-regularisation step on a random minibatch of subgraphs."""
        cfg = self.config
        batch_size = min(cfg.contrastive_batch, len(prepared))
        if batch_size < 2 or not (cfg.use_contrastive and cfg.contrastive_weight > 0.0):
            return
        batch_idx = rng.choice(len(prepared), size=batch_size, replace=False)
        view1, view2 = [], []
        for idx in batch_idx:
            features, edge_features, adjacency = prepared[idx]
            # RNG order is part of the training contract: view 1 then view 2,
            # in sample order, regardless of how the forwards are grouped.
            adj1, feat1 = adaptive_augmentation(adjacency, features, cfg.view1, rng)
            adj2, feat2 = adaptive_augmentation(adjacency, features, cfg.view2, rng)
            view1.append((feat1, edge_features, adj1))
            view2.append((feat2, edge_features, adj2))
        optimizer.zero_grad()
        z1 = self._embed_views(view1)
        z2 = self._embed_views(view2)
        loss = nt_xent_loss(z1, z2) * cfg.contrastive_weight
        loss.backward()
        optimizer.step()

    def _embed_views(self, views: list[tuple]) -> Tensor:
        """Embed ``(features, edge_features, adjacency)`` views, ``batch_size``
        views per stacked forward (one at a time at ``batch_size=1``)."""
        step = self.config.batch_size
        pieces = [self._network.embed(*self._stack(views[start:start + step], derived=()))
                  for start in range(0, len(views), step)]
        return pieces[0] if len(pieces) == 1 else concat(pieces, axis=0)

    # ---------------------------------------------------------------- inference
    def predict_scores(self, samples: list[AccountSubgraph]) -> np.ndarray:
        """Raw (uncalibrated) predicted values, one per sample.

        Samples go through the stacked inference path as its one-head case,
        one forward per chunk of samples with equal node counts, and every
        score is bit-identical to the training forward on that one sample.
        """
        if self._network is None:
            raise RuntimeError("GSGBranch has not been fitted")
        return StackedGSG([self]).scores(samples)[0]

    def predict_proba(self, samples: list[AccountSubgraph]) -> np.ndarray:
        """Sigmoid of the raw scores (used when the branch runs standalone)."""
        scores = self.predict_scores(samples)
        return 1.0 / (1.0 + np.exp(-np.clip(scores, -30, 30)))

    def embed(self, sample: AccountSubgraph) -> np.ndarray:
        """The subgraph embedding (useful for inspection and tests)."""
        if self._network is None:
            raise RuntimeError("GSGBranch has not been fitted")
        features, edge_features, adjacency = self._prepare(sample)
        return self._network.embed(features, edge_features, adjacency).data.ravel()

    # ------------------------------------------------------------- persistence
    def get_state(self) -> dict:
        """Serializable fitted state: feature scaler stats + network weights.

        The branch hyperparameters are *not* part of the state — restore into a
        branch constructed with the same :class:`GSGConfig`.
        """
        if self._network is None:
            raise RuntimeError("GSGBranch has not been fitted")
        mean, std = self._feature_stats
        return {
            "in_dim": int(self._network.align.in_features - 2),
            "feature_mean": np.asarray(mean),
            "feature_std": np.asarray(std),
            "params": self._network.state_dict(),
        }

    def set_state(self, state: dict) -> "GSGBranch":
        """Restore a fitted branch from :meth:`get_state` output."""
        self._feature_stats = (np.asarray(state["feature_mean"], dtype=float),
                               np.asarray(state["feature_std"], dtype=float))
        self._network = _GSGNetwork(int(state["in_dim"]), 2, self.config,
                                    np.random.default_rng(self.config.seed))
        self._network.load_state_dict([np.asarray(p, dtype=float) for p in state["params"]])
        return self
