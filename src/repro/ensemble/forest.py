"""Random forest classifier (bagged Gini trees with feature subsampling).

Trees are histogram-grown flat trees (quantile binning shared by the whole
forest, one vectorised split search per node).  Prediction stacks every
tree's preorder arrays once (:class:`~repro.ensemble.engine.FlatTreeStack`)
and descends the whole forest per batch; per-tree class probabilities are
pre-aligned to the forest's global class order, and votes are accumulated
tree-by-tree in the same left-to-right order as a per-tree loop so results
stay bit-identical to it.
"""

from __future__ import annotations

import numpy as np

from repro.ensemble.engine import FlatClassifierTree, FlatTree, FlatTreeStack, \
    GrowthParams, HistogramBinner, grow_classification_tree

__all__ = ["RandomForestClassifier"]


class RandomForestClassifier:
    """Bootstrap-aggregated decision trees with per-split feature subsampling."""

    def __init__(self, n_estimators: int = 50, max_depth: int = 6,
                 max_features: str | int | None = "sqrt", min_samples_leaf: int = 1,
                 seed: int = 0, max_bins: int = 32):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_features = max_features
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self.max_bins = max_bins
        self._trees: list[FlatClassifierTree] = []
        self.classes_: np.ndarray | None = None
        self._stack: FlatTreeStack | None = None
        self._aligned: list[np.ndarray] = []

    def _resolve_max_features(self, n_features: int) -> int | None:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if isinstance(self.max_features, int):
            return max(1, min(self.max_features, n_features))
        raise ValueError(f"unsupported max_features: {self.max_features!r}")

    def fit(self, X, y) -> "RandomForestClassifier":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        rng = np.random.default_rng(self.seed)
        max_features = self._resolve_max_features(X.shape[1])
        self._trees = []
        self._invalidate_stack()
        n = len(y)
        binner = HistogramBinner(self.max_bins).fit(X)
        codes = binner.transform(X)
        params = GrowthParams(max_depth=self.max_depth,
                              min_samples_leaf=self.min_samples_leaf,
                              max_features=max_features)
        for _ in range(self.n_estimators):
            idx = rng.choice(n, size=n, replace=True)
            tree_rng = np.random.default_rng(rng.integers(1 << 31))
            sub_y = y[idx]
            classes = np.unique(sub_y)
            y_idx = np.searchsorted(classes, sub_y)
            grown = grow_classification_tree(codes[idx], binner.edges_,
                                             y_idx, len(classes),
                                             params, tree_rng)
            self._trees.append(FlatClassifierTree(grown, classes))
        return self

    def _invalidate_stack(self) -> None:
        self._stack = None
        self._aligned = []

    def _build_stack(self) -> None:
        """Stack all trees and pre-align their leaf rows to the global classes.

        Bootstrap samples may miss classes, so each tree's value rows are
        scattered into the forest-wide class columns (disjoint columns — the
        scatter is bitwise-exact, no arithmetic involved).  The stack is built
        from class-aligned tree copies, not the raw trees: per-tree ``values``
        widths differ when a tree saw a class subset, and
        :class:`FlatTreeStack` needs uniform rows to concatenate.
        """
        n_classes = len(self.classes_)
        self._aligned = []
        stackable = []
        for tree in self._trees:
            columns = np.searchsorted(self.classes_, tree.classes_)
            aligned = np.zeros((tree.flat.n_nodes, n_classes))
            aligned[:, columns] = tree.flat.values
            self._aligned.append(aligned)
            stackable.append(FlatTree(tree.flat.feature, tree.flat.threshold,
                                      tree.flat.left, tree.flat.right,
                                      aligned, tree.flat.n_features))
        self._stack = FlatTreeStack(stackable)

    def predict_proba(self, X) -> np.ndarray:
        if not self._trees:
            raise RuntimeError("forest has not been fitted")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self._stack is None:
            self._build_stack()
        node = self._stack.apply(X)                 # (n_trees, n_rows) global idx
        votes = np.zeros((len(X), len(self.classes_)))
        for t, (aligned, root) in enumerate(zip(self._aligned, self._stack.roots)):
            votes += aligned[node[t] - root]
        return votes / len(self._trees)

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    def get_state(self) -> dict:
        """Serializable fitted state: the class labels and every bagged tree."""
        if not self._trees:
            raise RuntimeError("forest has not been fitted")
        return {
            "classes": np.asarray(self.classes_),
            "trees": [tree.get_state() for tree in self._trees],
        }

    def set_state(self, state: dict) -> "RandomForestClassifier":
        self.classes_ = np.asarray(state["classes"])
        self._trees = [FlatClassifierTree.from_state(tree)
                       for tree in state["trees"]]
        self._invalidate_stack()
        return self
