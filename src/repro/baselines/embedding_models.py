"""Walk-embedding baselines: DeepWalk, Node2Vec and Trans2Vec graph classifiers.

Each baseline embeds every subgraph by average-pooling skip-gram node vectors
(Section V-A4: walk length 30, embedding dimension 64, average pooling), then
fits a gradient-boosting classifier on the graph embeddings.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineClassifier
from repro.data.dataset import AccountSubgraph
from repro.embedding import DeepWalk, Node2Vec, Trans2Vec
from repro.ensemble import GradientBoostingClassifier

__all__ = ["DeepWalkClassifier", "Node2VecClassifier", "Trans2VecClassifier"]


class _WalkBaseline(BaselineClassifier):
    """Shared fit/predict machinery for walk-embedding baselines."""

    def __init__(self, dim: int = 16, walk_length: int = 10, walks_per_node: int = 2,
                 window: int = 3, epochs: int = 1, seed: int = 0):
        self.dim = dim
        self.walk_length = walk_length
        self.walks_per_node = walks_per_node
        self.window = window
        self.epochs = epochs
        self.seed = seed
        self._downstream = GradientBoostingClassifier(n_estimators=40, max_depth=3,
                                                      seed=seed)

    def _make_embedder(self):
        raise NotImplementedError

    def _embed(self, samples: list[AccountSubgraph]) -> np.ndarray:
        embedder = self._make_embedder()
        return embedder.embed_graphs([sample.graph for sample in samples])

    def fit(self, samples: list[AccountSubgraph], labels) -> "_WalkBaseline":
        embeddings = self._embed(samples)
        self._downstream.fit(embeddings, np.asarray(labels).astype(int))
        return self

    def predict_proba(self, samples: list[AccountSubgraph]) -> np.ndarray:
        embeddings = self._embed(samples)
        return self._downstream.predict_proba(embeddings)[:, 1]


class DeepWalkClassifier(_WalkBaseline):
    """DeepWalk graph embeddings + gradient boosting."""

    name = "DeepWalk"

    def _make_embedder(self) -> DeepWalk:
        return DeepWalk(dim=self.dim, walk_length=self.walk_length,
                        walks_per_node=self.walks_per_node, window=self.window,
                        epochs=self.epochs, seed=self.seed)


class Node2VecClassifier(_WalkBaseline):
    """Node2Vec graph embeddings (p=1, q=0.5) + gradient boosting."""

    name = "Node2Vec"

    def __init__(self, p: float = 1.0, q: float = 0.5, **kwargs):
        super().__init__(**kwargs)
        self.p = p
        self.q = q

    def _make_embedder(self) -> Node2Vec:
        return Node2Vec(dim=self.dim, walk_length=self.walk_length,
                        walks_per_node=self.walks_per_node, window=self.window,
                        epochs=self.epochs, p=self.p, q=self.q, seed=self.seed)


class Trans2VecClassifier(_WalkBaseline):
    """Trans2Vec: amount/recency-biased walks + gradient boosting."""

    name = "Trans2Vec"

    def __init__(self, amount_bias: float = 0.5, **kwargs):
        super().__init__(**kwargs)
        self.amount_bias = amount_bias

    def _make_embedder(self) -> Trans2Vec:
        return Trans2Vec(dim=self.dim, walk_length=self.walk_length,
                         walks_per_node=self.walks_per_node, window=self.window,
                         epochs=self.epochs, amount_bias=self.amount_bias, seed=self.seed)
