"""Global static account transaction encoding module (Section IV-A).

The network runs on dense blocks: a group of ``B`` samples with ``n`` nodes
forwards its ``(B, n, ·)`` features and the :func:`attention mask
<repro.gnn.layers.attention_mask>` of its ``(B, n, n)`` symmetric adjacency,
built once per group from the samples' edge columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.augmentation import AugmentationConfig, adaptive_augmentation
from repro.core.inference import StackedGSG, node_count_groups
from repro.core.training import fit_branch
from repro.data.dataset import AccountSubgraph
from repro.data.slicing import adjacency_blocks
from repro.gnn.hierarchical import HierarchicalAttentionEncoder
from repro.gnn.layers import attention_mask
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
    one group of equal node counts at a time with the loss averaged over its
    samples (see :func:`~repro.core.training.fit_branch`); 1, the default, is
    a batch of one.  It must be at least 1.  Scoring does not depend on it:
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
              mask: np.ndarray) -> Tensor:
        """``(B, hidden)`` embeddings of ``B`` samples with ``n`` nodes each.

        ``features`` / ``edge_features`` are ``(B, n, ·)`` and ``mask`` is the
        ``(B, n, n)`` attention mask of their adjacency.
        """
        aligned = leaky_relu(self.align(Tensor(np.concatenate([features, edge_features],
                                                              axis=-1))))
        return self.encoder(aligned, mask)

    def forward(self, features: np.ndarray, edge_features: np.ndarray,
                mask: np.ndarray) -> Tensor:
        """``(B, 1)`` logits of ``B`` samples with ``n`` nodes each (see :meth:`embed`)."""
        return self.head(self.embed(features, edge_features, mask))


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
    def _view(self, sample: AccountSubgraph) -> tuple:
        """``(features, edge_features, adjacency)`` of one sample, unbatched:
        what the contrastive views augment."""
        mean, std = self._feature_stats
        return ((sample.node_features - mean) / std,
                np.log1p(np.abs(sample.node_edge_features())),
                adjacency_blocks([sample.graph])[0])

    def _inputs(self, samples: list[AccountSubgraph]) -> tuple:
        """One forward's arguments for samples with one node count."""
        mean, std = self._feature_stats
        features = (np.array([sample.node_features for sample in samples]) - mean) / std
        edge_features = np.log1p(np.abs(np.array(
            [sample.node_edge_features() for sample in samples])))
        mask = attention_mask(adjacency_blocks([sample.graph for sample in samples]))
        return features, edge_features, mask

    # ----------------------------------------------------------------- training
    def fit(self, samples: list[AccountSubgraph], labels: np.ndarray) -> "GSGBranch":
        fit_branch(self, lambda in_dim, rng: _GSGNetwork(in_dim, 2, self.config, rng),
                   samples, labels, self._contrastive_step)
        return self

    def _contrastive_step(self, samples: list[AccountSubgraph], rng: np.random.Generator,
                          optimizer: Adam) -> None:
        """One contrastive-regularisation step on a random minibatch of subgraphs."""
        cfg = self.config
        batch_size = min(cfg.contrastive_batch, len(samples))
        if batch_size < 2 or not (cfg.use_contrastive and cfg.contrastive_weight > 0.0):
            return
        batch_idx = rng.choice(len(samples), size=batch_size, replace=False)
        view1, view2 = [], []
        for idx in batch_idx:
            features, edge_features, adjacency = self._view(samples[idx])
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
        views per step, one forward per group of equal node counts (one view
        at a time at ``batch_size=1``).

        The rows come out group after group; both views of a sample have its
        node count, so the two view lists come out in one order and the
        contrastive pairs stay aligned.
        """
        step = self.config.batch_size
        pieces = []
        for start in range(0, len(views), step):
            chunk = views[start:start + step]
            for group in node_count_groups([len(view[0]) for view in chunk]):
                features, edge_features, adjacency = (
                    np.array(column) for column in zip(*(chunk[i] for i in group)))
                pieces.append(self._network.embed(features, edge_features,
                                                  attention_mask(adjacency)))
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
        return self._network.embed(*self._inputs([sample])).data.ravel()

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
