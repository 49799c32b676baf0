"""Global static account transaction encoding module (Section IV-A)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.augmentation import AugmentationConfig, adaptive_augmentation
from repro.core.inference import StackedGSG, stacks_samples
from repro.data.dataset import AccountSubgraph
from repro.gnn.hierarchical import HierarchicalAttentionEncoder
from repro.graph.sparse import BatchedAdjacency, SparseAdjacency
from repro.nn import Adam, Linear, Module, Tensor, concat, no_grad, nt_xent_loss
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.functional import leaky_relu

__all__ = ["GSGConfig", "GSGBranch"]


@dataclass
class GSGConfig:
    """Hyperparameters of the GSG branch.

    Defaults mirror Section V-A4 at laptop scale: a 2-layer GAT encoder, max
    pooling read-out, and the two augmented views with
    ``(P_e, P_f) = (0.3, 0.1)`` and ``(0.4, 0.0)``.

    ``batch_size`` selects the training granularity: 1 (the default) keeps the
    legacy one-subgraph-per-optimizer-step loop bit-for-bit; larger values
    train on minibatches forwarded as a single block-diagonal sparse pass
    (one optimizer step per minibatch, loss averaged over its samples).
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
        """``adjacency`` is a :class:`SparseAdjacency` (dense arrays also work)."""
        aligned = leaky_relu(self.align(Tensor(np.hstack([features, edge_features]))))
        return self.encoder(aligned, adjacency)

    def forward(self, features: np.ndarray, edge_features: np.ndarray,
                adjacency) -> Tensor:
        return self.head(self.embed(features, edge_features, adjacency))

    def embed_batched(self, features: np.ndarray, edge_features: np.ndarray,
                      adjacency: BatchedAdjacency) -> Tensor:
        """``(B, hidden)`` embeddings of a block-diagonal minibatch.

        ``features`` / ``edge_features`` are the per-sample matrices stacked
        vertically in batch order; the alignment layer and GAT stack are
        row-/block-local, so one stacked pass equals the per-sample loop.
        """
        aligned = leaky_relu(self.align(Tensor(np.hstack([features, edge_features]))))
        return self.encoder.forward_batched(aligned, adjacency)

    def forward_batched(self, features: np.ndarray, edge_features: np.ndarray,
                        adjacency: BatchedAdjacency) -> Tensor:
        return self.head(self.embed_batched(features, edge_features, adjacency))


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
        # Parity escape hatch: with batch_size > 1 and this flag off, fit and
        # predict follow the same minibatch schedule but forward each sample
        # separately — the looped reference the stacked kernel is pinned
        # against (and timed against in benchmarks/perf_train.py).
        self._batched_kernel = True

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

    def _prepare_batch(self, samples: list[AccountSubgraph]):
        """Stack a minibatch into one block-diagonal sparse pass.

        The stacked adjacency's attention structure is seeded from the
        per-sample memoized structures (block-local derived forms compose),
        so repeated epochs over the same samples never re-derive it.
        """
        prepared = [self._prepare(s) for s in samples]
        features = np.vstack([p[0] for p in prepared])
        edge_features = np.vstack([p[1] for p in prepared])
        adjacency = SparseAdjacency.block_diagonal(
            [p[2] for p in prepared], derived=("attention_structure",),
            compose_plans=True)
        return features, edge_features, adjacency

    def _minibatch_logits(self, batch: list[AccountSubgraph]) -> Tensor:
        """``(len(batch),)`` logits — stacked kernel or looped reference."""
        if self._batched_kernel:
            features, edge_features, adjacency = self._prepare_batch(batch)
            return self._network.forward_batched(
                features, edge_features, adjacency).reshape(len(batch))
        return concat([self._network(*self._prepare(s)).reshape(1)
                       for s in batch], axis=0)

    def _fit_feature_stats(self, samples: list[AccountSubgraph]) -> None:
        stacked = np.vstack([s.node_features for s in samples])
        mean = stacked.mean(axis=0)
        std = stacked.std(axis=0)
        std[std < 1e-12] = 1.0
        self._feature_stats = (mean, std)

    # ----------------------------------------------------------------- training
    def fit(self, samples: list[AccountSubgraph], labels: np.ndarray) -> "GSGBranch":
        if len(samples) != len(labels):
            raise ValueError("samples and labels must have the same length")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self._fit_feature_stats(samples)
        in_dim = samples[0].node_features.shape[1]
        self._network = _GSGNetwork(in_dim, 2, cfg, rng)
        optimizer = Adam(self._network.parameters(), lr=cfg.learning_rate)
        labels = np.asarray(labels, dtype=float)
        indices = np.arange(len(samples))
        batch_size = max(1, cfg.batch_size)
        if batch_size > 1:
            # Minibatch compositions are fixed by one seeded shuffle; epochs
            # re-shuffle only the visit order.  Each minibatch's block-diagonal
            # stack — with its composed attention structure and transpose
            # plans — is therefore built once per fit and reused every epoch.
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
                    sample = samples[idx]
                    features, edge_features, adjacency = self._prepare(sample)
                    optimizer.zero_grad()
                    logit = self._network(features, edge_features, adjacency)
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
            if cfg.use_contrastive and cfg.contrastive_weight > 0.0:
                self._contrastive_step(samples, rng, optimizer)
        return self

    def _contrastive_step(self, samples: list[AccountSubgraph], rng: np.random.Generator,
                          optimizer: Adam) -> None:
        """One contrastive-regularisation step on a random minibatch of subgraphs."""
        cfg = self.config
        batch_size = min(cfg.contrastive_batch, len(samples))
        if batch_size < 2:
            return
        batch_idx = rng.choice(len(samples), size=batch_size, replace=False)
        view1, view2 = [], []
        for idx in batch_idx:
            sample = samples[idx]
            features, edge_features, adjacency = self._prepare(sample)
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
        """Embed a list of ``(features, edge_features, adjacency)`` views.

        With batching enabled the augmented subgraphs are stacked into one
        block-diagonal pass (their adjacencies are freshly augmented, so there
        are no per-sample memos to seed); otherwise each view is embedded
        separately and the results concatenated — identical float ops to the
        pre-batching implementation.
        """
        if self.config.batch_size > 1 and self._batched_kernel:
            features = np.vstack([v[0] for v in views])
            edge_features = np.vstack([v[1] for v in views])
            adjacency = SparseAdjacency.block_diagonal([v[2] for v in views])
            return self._network.embed_batched(features, edge_features, adjacency)
        return concat([self._network.embed(*view) for view in views], axis=0)

    # ---------------------------------------------------------------- inference
    def predict_scores(self, samples: list[AccountSubgraph]) -> np.ndarray:
        """Raw (uncalibrated) predicted values, one per sample.

        Samples go through the stacked inference path as its one-head case,
        one forward per chunk of samples with equal node counts, and every
        score is bit-identical to the per-sample training forward.  With
        ``batch_size > 1`` they are scored by the block-diagonal training
        forward, ``batch_size`` at a time.
        """
        if self._network is None:
            raise RuntimeError("GSGBranch has not been fitted")
        if not (stacks_samples(self) and len(samples) > 1):
            return StackedGSG([self]).scores(samples)[0]
        batch_size = self.config.batch_size
        scores = np.empty(len(samples), dtype=np.float64)
        with no_grad():
            for start in range(0, len(samples), batch_size):
                chunk = samples[start:start + batch_size]
                features, edge_features, adjacency = self._prepare_batch(chunk)
                logits = self._network.forward_batched(features, edge_features, adjacency)
                scores[start:start + len(chunk)] = logits.data.ravel()
        return scores

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
