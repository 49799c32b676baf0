"""Adaptive graph augmentation for contrastive learning (Section IV-A3).

Two augmentation operators following Zhu et al. (2021):

* **Topology-level** — edges are dropped with probability inversely related to
  their edge centrality (mean of the endpoints' node centrality under degree /
  eigenvector / PageRank measures), so unimportant edges are perturbed while
  important topology is preserved.
* **Node-attribute-level** — feature dimensions are masked with probability
  inversely related to their global importance (mean absolute value), so
  salient attributes survive augmentation.

Views are built per sample on its dense ``(n, n)`` adjacency, drawing from
the RNG in a fixed order: one vector over the positive edge slots in
row-major order, then one over the feature columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["AugmentationConfig", "adaptive_augmentation"]


@dataclass
class AugmentationConfig:
    """Augmentation strengths for one generated view.

    ``edge_drop_prob`` and ``feature_mask_prob`` correspond to the paper's
    :math:`P_e` and :math:`P_f` hyperparameters (Section V-F1); the defaults
    match the reported configuration (view 1: 0.3 / 0.1, view 2: 0.4 / 0.0).
    """

    edge_drop_prob: float = 0.3
    feature_mask_prob: float = 0.1
    centrality_measure: str = "degree"

    def __post_init__(self):
        if not 0.0 <= self.edge_drop_prob <= 1.0:
            raise ValueError("edge_drop_prob must be in [0, 1]")
        if not 0.0 <= self.feature_mask_prob <= 1.0:
            raise ValueError("feature_mask_prob must be in [0, 1]")


def _node_centrality(binary: np.ndarray, measure: str) -> np.ndarray:
    """Node centrality scores of a 0/1 adjacency."""
    n = binary.shape[0]
    if measure == "degree":
        return binary.sum(axis=1)
    if measure == "eigenvector":
        x = np.full(n, 1.0 / max(n, 1))
        for _ in range(50):
            x_next = binary @ x + 1e-12
            x_next /= np.linalg.norm(x_next)
            x = x_next
        return np.abs(x)
    if measure == "pagerank":
        damping = 0.85
        out_degree = np.maximum(binary.sum(axis=1), 1.0)
        transition = binary / out_degree[:, None]
        rank = np.full(n, 1.0 / max(n, 1))
        for _ in range(50):
            rank = (1.0 - damping) / max(n, 1) + damping * transition.T @ rank
        return rank
    raise ValueError(f"unknown centrality measure: {measure!r}")


def _edge_centrality_matrix(adjacency: np.ndarray, measure: str) -> np.ndarray:
    """Centrality score per edge slot, from node centralities of the adjacency."""
    binary = (adjacency > 0).astype(float)
    node_scores = _node_centrality(binary, measure)
    return 0.5 * (node_scores[:, None] + node_scores[None, :])


def _drop_mask(scores: np.ndarray, edge_drop_prob: float,
               rng: np.random.Generator) -> np.ndarray:
    """Per-slot drop decisions from edge-centrality scores.

    Higher centrality -> lower drop probability; probabilities are rescaled so
    the mean matches ``edge_drop_prob`` and clipped at 0.95.
    """
    inverse = scores.max() - scores + 1e-9
    drop_probs = inverse / inverse.mean() * edge_drop_prob
    drop_probs = np.clip(drop_probs, 0.0, 0.95)
    return rng.random(len(drop_probs)) < drop_probs


def _mask_features(features: np.ndarray, feature_mask_prob: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Column-wise masking scaled by inverse feature importance."""
    augmented = features.copy()
    if feature_mask_prob > 0.0 and features.size:
        importance = np.abs(features).mean(axis=0) + 1e-9
        inverse = importance.max() - importance + 1e-9
        mask_probs = inverse / inverse.mean() * feature_mask_prob
        mask_probs = np.clip(mask_probs, 0.0, 0.95)
        column_mask = rng.random(features.shape[1]) < mask_probs
        augmented[:, column_mask] = 0.0
    return augmented


def _drop_edges(adjacency: np.ndarray, config: AugmentationConfig,
                rng: np.random.Generator) -> np.ndarray:
    """The adjacency with centrality-scaled edge drops; a symmetric input
    stays symmetric (an undirected edge survives unless both slots drop)."""
    augmented_adj = adjacency.copy()
    edge_mask = adjacency > 0
    if config.edge_drop_prob > 0.0 and edge_mask.any():
        centrality = _edge_centrality_matrix(adjacency, config.centrality_measure)
        dropped = _drop_mask(centrality[edge_mask], config.edge_drop_prob, rng)
        kept_values = augmented_adj[edge_mask]
        kept_values[dropped] = 0.0
        augmented_adj[edge_mask] = kept_values
        augmented_adj = np.maximum(augmented_adj, augmented_adj.T) \
            if np.allclose(adjacency, adjacency.T) else augmented_adj
    return augmented_adj


def adaptive_augmentation(adjacency: np.ndarray, features: np.ndarray,
                          config: AugmentationConfig,
                          rng: np.random.Generator | None = None,
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Return an augmented ``(adjacency, features)`` view of a subgraph.

    Edge drop probabilities are scaled so that, on average, a fraction
    ``edge_drop_prob`` of edges is removed, but low-centrality edges are removed
    preferentially.  Feature-mask probabilities are likewise scaled by inverse
    column importance.  ``adjacency`` is the sample's dense ``(n, n)`` matrix.
    """
    rng = rng or np.random.default_rng(0)
    features = np.asarray(features, dtype=float)
    augmented_adj = _drop_edges(np.asarray(adjacency, dtype=float), config, rng)
    augmented_features = _mask_features(features, config.feature_mask_prob, rng)
    return augmented_adj, augmented_features
