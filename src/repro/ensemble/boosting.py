"""Boosted tree classifiers: gradient boosting, LightGBM-style, XGBoost-style, AdaBoost.

All four heads fit on the flat histogram engine
(:mod:`repro.ensemble.engine`): features are quantile-binned once per fit and
every node's best split comes from one vectorised bincount pass.  The three
additive heads predict by descending the stacked flat trees of the whole
ensemble at once.

The heads differ in the boosting mathematics, mirroring their namesakes:

* :class:`GradientBoostingClassifier` — first-order logistic boosting; each
  tree fits the residual ``y - sigmoid(raw)`` with mean leaves.
* :class:`XGBoostClassifier` — second-order (Newton) logistic boosting; each
  tree fits gradient/hessian sums with L2-regularised leaves ``-G/(H+λ)``.
* :class:`LightGBMClassifier` — Newton boosting with *leaf-wise* (best-gain
  first) growth under a ``max_leaves`` budget plus row subsampling — the
  engineering profile the paper cites for robustness to outliers.
"""

from __future__ import annotations

import numpy as np

from repro.ensemble.engine import (
    FlatClassifierTree,
    FlatTree,
    FlatTreeStack,
    GrowthParams,
    HistogramBinner,
    grow_classification_tree,
    grow_regression_tree,
)

__all__ = [
    "GradientBoostingClassifier",
    "LightGBMClassifier",
    "XGBoostClassifier",
    "AdaBoostClassifier",
]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _validate_binary(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y)
    classes = np.unique(y)
    if not np.array_equal(classes, np.array([0, 1])) and not np.array_equal(classes, np.array([0])) \
            and not np.array_equal(classes, np.array([1])):
        raise ValueError("boosted classifiers expect binary labels in {0, 1}")
    return y.astype(float)


class _BoostedTreesState:
    """Shared machinery for additive regression-tree ensembles.

    Hosts expose ``learning_rate``, ``max_depth``, ``min_samples_leaf``,
    ``max_features``, ``_base_score`` and ``_trees`` (a list of
    :class:`FlatTree`).  Prediction stacks every tree's flat arrays once and
    descends them together; the per-tree leaf contributions are accumulated
    left-to-right so scores stay bit-identical to the sequential loop.
    """

    _input_space = "raw"

    def _transform_inputs(self, X: np.ndarray) -> np.ndarray:
        """Hook for heads whose persisted trees expect preprocessed inputs."""
        return X

    def decision_function(self, X) -> np.ndarray:
        X = self._transform_inputs(np.atleast_2d(np.asarray(X, dtype=float)))
        raw = np.full(len(X), self._base_score)
        if self._trees:
            if self._stack is None:
                self._stack = FlatTreeStack(self._trees)
            leaves = self._stack.leaf_values(X)
            for t in range(len(self._trees)):
                raw += self.learning_rate * leaves[t]
        return raw

    def predict_proba(self, X) -> np.ndarray:
        positive = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - positive, positive])

    def predict(self, X) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(int)

    # ------------------------------------------------------------- persistence
    def get_state(self) -> dict:
        """Serializable fitted state: base score, shrinkage and every tree.

        The per-tree payload is the PR-3 preorder-array contract;
        ``tree_params`` additionally records the fitted tree hyperparameters
        so ``set_state`` restores them (older states that lack the key leave
        the host's constructor values untouched).
        """
        return {
            "learning_rate": float(self.learning_rate),
            "base_score": float(self._base_score),
            "tree_params": {
                "max_depth": int(self.max_depth),
                "min_samples_leaf": int(self.min_samples_leaf),
                "max_features": None if self.max_features is None else int(self.max_features),
            },
            "trees": [tree.get_state() for tree in self._trees],
        }

    def set_state(self, state: dict):
        if "native_model" in state:
            raise ValueError(
                f"this {type(self).__name__} state holds a native "
                f"{state.get('native_backend', 'lightgbm/xgboost')} booster, but "
                f"only histogram-engine trees can be scored: refit the head")
        self.learning_rate = float(state["learning_rate"])
        self._base_score = float(state["base_score"])
        tree_params = state.get("tree_params")
        if tree_params is not None:
            self.max_depth = int(tree_params["max_depth"])
            self.min_samples_leaf = int(tree_params["min_samples_leaf"])
            max_features = tree_params["max_features"]
            self.max_features = None if max_features is None else int(max_features)
        self._trees = [FlatTree.from_state(tree) for tree in state["trees"]]
        self._stack = None
        return self


class GradientBoostingClassifier(_BoostedTreesState):
    """Binary gradient boosting with logistic loss and regression-tree weak learners."""

    def __init__(self, n_estimators: int = 50, learning_rate: float = 0.1,
                 max_depth: int = 3, subsample: float = 1.0, seed: int = 0,
                 min_samples_leaf: int = 1, max_features: int | None = None,
                 max_bins: int = 32):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.seed = seed
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_bins = max_bins
        self._trees: list[FlatTree] = []
        self._stack: FlatTreeStack | None = None
        self._base_score = 0.0

    def _subsample_mask(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.subsample < 1.0:
            idx = rng.random(n) < self.subsample
            if idx.sum() < 2:
                idx = np.ones(n, dtype=bool)
            return idx
        return np.ones(n, dtype=bool)

    def _growth_params(self) -> GrowthParams:
        return GrowthParams(max_depth=self.max_depth,
                            min_samples_leaf=self.min_samples_leaf,
                            max_features=self.max_features)

    def fit(self, X, y) -> "GradientBoostingClassifier":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = _validate_binary(y)
        rng = np.random.default_rng(self.seed)
        positive_rate = np.clip(y.mean(), 1e-6, 1.0 - 1e-6)
        self._base_score = float(np.log(positive_rate / (1.0 - positive_rate)))
        raw = np.full(len(y), self._base_score)
        self._trees = []
        self._stack = None
        self._boost(X, y, raw, rng)
        return self

    def _boost(self, X: np.ndarray, y: np.ndarray, raw: np.ndarray,
               rng: np.random.Generator) -> None:
        binner = HistogramBinner(self.max_bins).fit(X)
        codes = binner.transform(X)
        params = self._growth_params()
        for _ in range(self.n_estimators):
            residual = y - _sigmoid(raw)          # negative gradient of logistic loss
            idx = self._subsample_mask(rng, len(y))
            tree_rng = np.random.default_rng(rng.integers(1 << 31))
            tree = grow_regression_tree(codes[idx], binner.edges_, residual[idx],
                                        np.ones(int(idx.sum())), params, tree_rng)
            raw += self.learning_rate * tree.predict_values(X)
            self._trees.append(tree)


class LightGBMClassifier(GradientBoostingClassifier):
    """LightGBM-style boosting: histogram bins, Newton steps, leaf-wise growth.

    The defining engineering tricks of LightGBM are reproduced natively:
    features are quantile-binned once (``max_bins``), trees grow *leaf-wise*
    (always splitting the frontier leaf with the best gain, bounded by
    ``max_leaves`` and capped at ``max_depth``), and leaves take second-order
    Newton values ``-G/(H+λ)``.  Row subsampling mirrors bagging.  States
    saved before the histogram engine hold trees that split on *binned*
    inputs (``input_space == "binned"``); they still load and score, with
    inputs re-binned through the persisted ``bin_edges``.
    """

    def __init__(self, n_estimators: int = 60, learning_rate: float = 0.1,
                 max_depth: int = 4, max_bins: int = 32, subsample: float = 0.9,
                 seed: int = 0, min_samples_leaf: int = 1,
                 max_features: int | None = None, max_leaves: int = 15,
                 reg_lambda: float = 1e-3):
        super().__init__(n_estimators=n_estimators, learning_rate=learning_rate,
                         max_depth=max_depth, subsample=subsample, seed=seed,
                         min_samples_leaf=min_samples_leaf, max_features=max_features,
                         max_bins=max_bins)
        self.max_leaves = max_leaves
        self.reg_lambda = reg_lambda
        self._bin_edges: list[np.ndarray] = []

    def _growth_params(self) -> GrowthParams:
        return GrowthParams(max_depth=self.max_depth,
                            min_samples_leaf=self.min_samples_leaf,
                            max_features=self.max_features,
                            reg_lambda=self.reg_lambda,
                            leaf_wise=True, max_leaves=self.max_leaves)

    def fit(self, X, y) -> "LightGBMClassifier":
        self._input_space = "raw"
        super().fit(X, y)
        return self

    def _boost(self, X: np.ndarray, y: np.ndarray, raw: np.ndarray,
               rng: np.random.Generator) -> None:
        binner = HistogramBinner(self.max_bins).fit(X)
        self._bin_edges = binner.edges_
        codes = binner.transform(X)
        params = self._growth_params()
        for _ in range(self.n_estimators):
            p = _sigmoid(raw)
            gradient = p - y
            hessian = np.maximum(p * (1.0 - p), 1e-6)
            idx = self._subsample_mask(rng, len(y))
            tree_rng = np.random.default_rng(rng.integers(1 << 31))
            tree = grow_regression_tree(codes[idx], binner.edges_, gradient[idx],
                                        hessian[idx], params, tree_rng,
                                        leaf_sign=-1.0)
            raw += self.learning_rate * tree.predict_values(X)
            self._trees.append(tree)

    def _legacy_bin(self, X: np.ndarray) -> np.ndarray:
        """Bin codes (as floats) of ``X`` under the persisted ``bin_edges``."""
        binned = np.empty_like(X)
        for j in range(X.shape[1]):
            binned[:, j] = np.searchsorted(self._bin_edges[j], X[:, j])
        return binned

    def _transform_inputs(self, X: np.ndarray) -> np.ndarray:
        # PR-3-era states hold trees fitted on binned values; new trees split
        # on raw feature space and need no preprocessing.
        if self._input_space == "binned":
            return self._legacy_bin(X)
        return X

    def get_state(self) -> dict:
        state = super().get_state()
        state["bin_edges"] = [np.asarray(edges, dtype=float) for edges in self._bin_edges]
        state["input_space"] = self._input_space
        return state

    def set_state(self, state: dict) -> "LightGBMClassifier":
        super().set_state(state)
        self._bin_edges = [np.asarray(edges, dtype=float) for edges in state["bin_edges"]]
        # States predating the histogram engine carry binned-space trees.
        self._input_space = state.get("input_space", "binned")
        return self


class XGBoostClassifier(_BoostedTreesState):
    """Second-order (Newton) boosted trees with L2 leaf regularisation.

    Captures XGBoost's distinguishing features relative to plain gradient
    boosting: every split is scored by the second-order gain
    ``GL²/(HL+λ) + GR²/(HR+λ) − G²/(H+λ)`` and leaves take the Newton value
    ``-G/(H+λ)`` using both the gradient and Hessian of the logistic loss.
    """

    def __init__(self, n_estimators: int = 50, learning_rate: float = 0.1,
                 max_depth: int = 3, reg_lambda: float = 1.0, seed: int = 0,
                 min_samples_leaf: int = 1, max_features: int | None = None,
                 max_bins: int = 32):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.seed = seed
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.max_bins = max_bins
        self._trees: list[FlatTree] = []
        self._stack: FlatTreeStack | None = None
        self._base_score = 0.0

    def fit(self, X, y) -> "XGBoostClassifier":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = _validate_binary(y)
        positive_rate = np.clip(y.mean(), 1e-6, 1.0 - 1e-6)
        self._base_score = float(np.log(positive_rate / (1.0 - positive_rate)))
        raw = np.full(len(y), self._base_score)
        rng = np.random.default_rng(self.seed)
        self._trees = []
        self._stack = None
        binner = HistogramBinner(self.max_bins).fit(X)
        codes = binner.transform(X)
        params = GrowthParams(max_depth=self.max_depth,
                              min_samples_leaf=self.min_samples_leaf,
                              max_features=self.max_features,
                              reg_lambda=self.reg_lambda)
        for _ in range(self.n_estimators):
            p = _sigmoid(raw)
            gradient = p - y
            hessian = np.maximum(p * (1.0 - p), 1e-6)
            tree_rng = np.random.default_rng(rng.integers(1 << 31))
            tree = grow_regression_tree(codes, binner.edges_, gradient, hessian,
                                        params, tree_rng, leaf_sign=-1.0)
            raw += self.learning_rate * tree.predict_values(X)
            self._trees.append(tree)
        return self


class AdaBoostClassifier:
    """Discrete AdaBoost (SAMME) over shallow decision stumps.

    Stumps are histogram-grown flat trees (one shared binning per fit), and
    each stump predicts all rows in one batched descent.
    """

    def __init__(self, n_estimators: int = 50, max_depth: int = 1, seed: int = 0,
                 max_bins: int = 32):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.seed = seed
        self.max_bins = max_bins
        self._stumps: list[FlatClassifierTree] = []
        self._alphas: list[float] = []

    def fit(self, X, y) -> "AdaBoostClassifier":
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = _validate_binary(y).astype(int)
        signed = 2 * y - 1
        rng = np.random.default_rng(self.seed)
        n = len(y)
        weights = np.full(n, 1.0 / n)
        self._stumps, self._alphas = [], []
        binner = HistogramBinner(self.max_bins).fit(X)
        codes = binner.transform(X)
        for _ in range(self.n_estimators):
            # Weighted fitting via weighted resampling (keeps the tree code simple).
            idx = rng.choice(n, size=n, replace=True, p=weights)
            stump_rng = np.random.default_rng(rng.integers(1 << 31))
            sub_y = y[idx]
            classes = np.unique(sub_y)
            y_idx = np.searchsorted(classes, sub_y)
            grown = grow_classification_tree(
                codes[idx], binner.edges_, y_idx, len(classes),
                GrowthParams(max_depth=self.max_depth), stump_rng)
            stump = FlatClassifierTree(grown, classes)
            predictions = 2 * stump.predict(X).astype(int) - 1
            error = float(weights[predictions != signed].sum())
            error = np.clip(error, 1e-10, 1.0 - 1e-10)
            alpha = 0.5 * np.log((1.0 - error) / error)
            weights = weights * np.exp(-alpha * signed * predictions)
            weights /= weights.sum()
            self._stumps.append(stump)
            self._alphas.append(float(alpha))
            if error < 1e-9:
                break
        return self

    def decision_function(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        score = np.zeros(len(X))
        for stump, alpha in zip(self._stumps, self._alphas):
            score += alpha * (2 * stump.predict(X).astype(int) - 1)
        return score

    def predict_proba(self, X) -> np.ndarray:
        score = self.decision_function(X)
        total = sum(abs(a) for a in self._alphas) or 1.0
        positive = (score / total + 1.0) / 2.0
        return np.column_stack([1.0 - positive, positive])

    def predict(self, X) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(int)

    def get_state(self) -> dict:
        """Serializable fitted state: the weighted stump ensemble."""
        return {
            "alphas": [float(a) for a in self._alphas],
            "stumps": [stump.get_state() for stump in self._stumps],
        }

    def set_state(self, state: dict) -> "AdaBoostClassifier":
        self._alphas = [float(a) for a in state["alphas"]]
        self._stumps = [FlatClassifierTree.from_state(stump)
                        for stump in state["stumps"]]
        return self
