"""Property-based tests for the flat histogram-GBDT engine.

Three invariants the engine must hold for *any* input, checked with
Hypothesis over randomly generated datasets:

* the histogram splitter's chosen split never has lower gain than any
  bin-boundary split found by brute force with the same criterion;
* batched flat-array prediction, of single grown trees and of every tree
  head's stacked ``predict_proba``, is bit-identical to a per-row walk of the
  same flat trees (:func:`recursive_reference_proba`), including forests
  whose bootstraps missed a class and the golden binned-space LightGBM state;
* fitting is deterministic per seed — same seed, same data → bitwise
  identical states and predictions.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api.persistence import load_state
from repro.core.classifier import AccountClassificationModule
from repro.ensemble import (
    AdaBoostClassifier,
    FlatClassifierTree,
    GradientBoostingClassifier,
    GrowthParams,
    HistogramBinner,
    LightGBMClassifier,
    RandomForestClassifier,
    XGBoostClassifier,
)
from repro.ensemble.engine import (MIN_GAIN, best_histogram_split, grow_classification_tree,
                                   grow_regression_tree, newton_gain)

SETTINGS = settings(max_examples=40, deadline=None)
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "classifier_states"


def _dataset(seed: int, n: int, n_features: int, n_unique: int):
    """Deterministic random dataset with controllable feature cardinality."""
    rng = np.random.default_rng(seed)
    levels = rng.normal(size=(n_features, n_unique))
    X = levels[np.arange(n_features), rng.integers(0, n_unique, size=(n, n_features))]
    g = rng.normal(size=n)
    h = np.abs(rng.normal(size=n)) + 0.1
    y = rng.integers(0, 2, size=n)
    return X, g, h, y


def _brute_force_best_gain(codes, g, h, n_edges, params):
    """Score every (feature, bin) boundary directly from the raw rows."""
    best = -np.inf
    n = len(codes)
    g_total, h_total = float(g.sum()), float(h.sum())
    for feature in range(codes.shape[1]):
        for bin_idx in range(int(n_edges[feature])):
            mask = codes[:, feature] <= bin_idx
            n_left = int(mask.sum())
            if n_left < params.min_samples_leaf or n - n_left < params.min_samples_leaf:
                continue
            gain = float(newton_gain(
                np.array(float(g[mask].sum())), np.array(float(h[mask].sum())),
                g_total, h_total, params.reg_lambda))
            best = max(best, gain)
    return best


class TestSplitGainDominance:
    """The vectorised splitter never picks a worse split than brute force."""

    @SETTINGS
    @given(seed=st.integers(0, 10_000), n=st.integers(4, 60),
           n_features=st.integers(1, 4), n_unique=st.integers(1, 12),
           reg_lambda=st.sampled_from([0.0, 1e-3, 1.0]))
    def test_histogram_split_matches_brute_force(self, seed, n, n_features,
                                                 n_unique, reg_lambda):
        X, g, h, _ = _dataset(seed, n, n_features, n_unique)
        binner = HistogramBinner(max_bins=8).fit(X)
        codes = binner.transform(X)
        n_edges = np.asarray([len(e) for e in binner.edges_])
        params = GrowthParams(min_samples_leaf=2, reg_lambda=reg_lambda)
        chosen = best_histogram_split(codes, np.arange(n), g, h, n_edges,
                                      8, params)
        brute = _brute_force_best_gain(codes, g, h, n_edges, params)
        if chosen is None:
            # No usable split — brute force must agree nothing clears the bar.
            assert brute <= MIN_GAIN + 1e-9
        else:
            _, _, gain = chosen
            tolerance = 1e-9 * max(1.0, abs(brute))
            assert gain >= brute - tolerance

    @SETTINGS
    @given(seed=st.integers(0, 10_000), n=st.integers(4, 60),
           n_unique=st.integers(2, 12))
    def test_chosen_split_gain_is_achievable(self, seed, n, n_unique):
        """The reported gain equals the gain recomputed from the partition."""
        X, g, h, _ = _dataset(seed, n, 2, n_unique)
        binner = HistogramBinner(max_bins=8).fit(X)
        codes = binner.transform(X)
        n_edges = np.asarray([len(e) for e in binner.edges_])
        params = GrowthParams(min_samples_leaf=1)
        chosen = best_histogram_split(codes, np.arange(n), g, h, n_edges, 8, params)
        if chosen is None:
            return
        feature, bin_idx, gain = chosen
        mask = codes[:, feature] <= bin_idx
        recomputed = float(newton_gain(
            np.array(float(g[mask].sum())), np.array(float(h[mask].sum())),
            float(g.sum()), float(h.sum()), 0.0))
        assert gain == pytest.approx(recomputed, rel=1e-9, abs=1e-9)


# ------------------------------------------------------------- per-row reference
def _walk_tree(tree, row: np.ndarray):
    """Per-row descent of a flat tree from the root: the reference predictor."""
    idx = 0
    while tree.feature[idx] >= 0:
        if row[tree.feature[idx]] <= tree.threshold[idx]:
            idx = int(tree.left[idx])
        else:
            idx = int(tree.right[idx])
    return tree.values[idx]


def recursive_reference_proba(model, X: np.ndarray) -> np.ndarray:
    """``model.predict_proba(X)`` from per-row walks of every tree, in fit order."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if isinstance(model, RandomForestClassifier):
        votes = np.zeros((len(X), len(model.classes_)))
        for tree in model._trees:
            columns = np.searchsorted(model.classes_, tree.classes_)
            for i, row in enumerate(X):
                votes[i, columns] += _walk_tree(tree.flat, row)
        return votes / len(model._trees)
    if isinstance(model, AdaBoostClassifier):
        score = np.zeros(len(X))
        for stump, alpha in zip(model._stumps, model._alphas):
            votes = np.array([
                stump.classes_[int(np.argmax(_walk_tree(stump.flat, row)))]
                for row in X])
            score += alpha * (2 * votes.astype(int) - 1)
        total = sum(abs(a) for a in model._alphas) or 1.0
        positive = (score / total + 1.0) / 2.0
    else:
        X_in = model._transform_inputs(X)
        raw = np.full(len(X), model._base_score)
        for tree in model._trees:
            raw += model.learning_rate * np.array([_walk_tree(tree, row) for row in X_in])
        positive = 1.0 / (1.0 + np.exp(-np.clip(raw, -30.0, 30.0)))
    return np.column_stack([1.0 - positive, positive])


TREE_HEADS = {
    "gbm": lambda seed: GradientBoostingClassifier(seed=seed, subsample=0.8),
    "lightgbm": lambda seed: LightGBMClassifier(seed=seed),
    "xgboost": lambda seed: XGBoostClassifier(seed=seed),
    "adaboost": lambda seed: AdaBoostClassifier(seed=seed),
    "random_forest": lambda seed: RandomForestClassifier(seed=seed),
}


def _thresholds(model) -> np.ndarray:
    """Every split threshold of the model's trees."""
    trees = model._stumps if isinstance(model, AdaBoostClassifier) else model._trees
    flats = [getattr(tree, "flat", tree) for tree in trees]
    return np.concatenate([flat.threshold[flat.feature >= 0] for flat in flats])


class TestFlatRecursiveBitIdentity:
    """Batched flat descent must reproduce the per-row walk bit for bit: for
    single grown trees and for the stacked prediction of every tree head."""

    @SETTINGS
    @given(seed=st.integers(0, 10_000), n=st.integers(5, 80),
           n_features=st.integers(1, 4), max_depth=st.integers(1, 5))
    def test_regressor_predict(self, seed, n, n_features, max_depth):
        X, g, h, _ = _dataset(seed, n, n_features, 10)
        binner = HistogramBinner(max_bins=16).fit(X)
        tree = grow_regression_tree(binner.transform(X), binner.edges_, g, h,
                                    GrowthParams(max_depth=max_depth), leaf_sign=-1.0)
        X_eval = np.random.default_rng(seed + 1).normal(size=(32, n_features))
        assert np.array_equal(tree.predict_values(X_eval),
                              np.array([_walk_tree(tree, row) for row in X_eval]))

    @SETTINGS
    @given(seed=st.integers(0, 10_000), n=st.integers(5, 80),
           n_features=st.integers(1, 4), max_depth=st.integers(1, 5))
    def test_classifier_predict_proba(self, seed, n, n_features, max_depth):
        X, _, _, y = _dataset(seed, n, n_features, 10)
        binner = HistogramBinner(max_bins=16).fit(X)
        tree = FlatClassifierTree(grow_classification_tree(
            binner.transform(X), binner.edges_, y, 2, GrowthParams(max_depth=max_depth)),
            [0, 1])
        X_eval = np.random.default_rng(seed + 1).normal(size=(32, n_features))
        assert np.array_equal(tree.predict_proba(X_eval),
                              np.vstack([_walk_tree(tree.flat, row) for row in X_eval]))

    @SETTINGS
    @given(seed=st.integers(0, 10_000))
    def test_eval_points_on_thresholds(self, seed):
        """Rows landing exactly on split thresholds route identically."""
        X, g, h, _ = _dataset(seed, 40, 2, 6)
        binner = HistogramBinner(max_bins=16).fit(X)
        tree = grow_regression_tree(binner.transform(X), binner.edges_, g, h,
                                    GrowthParams(max_depth=4))
        thresholds = tree.threshold[tree.feature >= 0]
        if not len(thresholds):
            return
        X_eval = np.column_stack([np.resize(thresholds, 16), np.resize(thresholds[::-1], 16)])
        assert np.array_equal(tree.predict_values(X_eval),
                              np.array([_walk_tree(tree, row) for row in X_eval]))

    @pytest.mark.parametrize("name", sorted(TREE_HEADS))
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 80),
           n_features=st.integers(1, 4), n_unique=st.integers(1, 12),
           positives=st.integers(0, 80))
    @example(seed=0, n=60, n_features=4, n_unique=12, positives=2)
    def test_predict_proba_equals_per_row_walk(self, name, seed, n, n_features,
                                               n_unique, positives):
        X, _, _, _ = _dataset(seed, n, n_features, n_unique)
        rng = np.random.default_rng(seed + 2)
        y = np.zeros(n, dtype=int)
        y[rng.choice(n, size=min(positives, n), replace=False)] = 1
        model = TREE_HEADS[name](seed).fit(X, y)
        thresholds = _thresholds(model)
        on_thresholds = (np.resize(thresholds, (8, n_features)) if len(thresholds)
                         else np.empty((0, n_features)))
        X_eval = np.vstack([rng.normal(size=(16, n_features)), X[:8], on_thresholds])
        assert np.array_equal(model.predict_proba(X_eval),
                              recursive_reference_proba(model, X_eval))

    def test_forest_whose_bootstraps_missed_a_class(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 4))
        y = np.zeros(60, dtype=int)
        y[:2] = 1
        forest = RandomForestClassifier(n_estimators=30, max_depth=4, seed=0).fit(X, y)
        assert {len(tree.classes_) for tree in forest._trees} == {1, 2}
        X_eval = np.vstack([X, rng.normal(size=(20, 4))])
        assert np.array_equal(forest.predict_proba(X_eval),
                              recursive_reference_proba(forest, X_eval))

    @pytest.mark.parametrize("name", ["adaboost", "lightgbm", "random_forest", "xgboost"])
    def test_golden_state_equals_per_row_walk(self, name):
        """Legacy states, the binned-space LightGBM one included, score as walked."""
        golden = np.load(FIXTURE_DIR / "golden_predictions.npz")
        model = AccountClassificationModule(name).set_state(
            load_state(FIXTURE_DIR / name))._model
        if name == "lightgbm":
            assert model._input_space == "binned"
        X_eval = np.vstack([golden["X_eval"], golden["X_fit"]])
        assert np.array_equal(model.predict_proba(X_eval),
                              recursive_reference_proba(model, X_eval))


class TestDeterminism:
    """Same seed + same data → bitwise identical fits."""

    HEADS = [
        lambda seed: GradientBoostingClassifier(n_estimators=8, seed=seed,
                                                subsample=0.8, max_features=1),
        lambda seed: LightGBMClassifier(n_estimators=8, seed=seed),
        lambda seed: RandomForestClassifier(n_estimators=8, seed=seed),
    ]

    @SETTINGS
    @given(seed=st.integers(0, 10_000), head=st.integers(0, 2))
    def test_refit_is_bitwise_identical(self, seed, head):
        X, _, _, y = _dataset(seed, 50, 2, 10)
        X_eval = np.random.default_rng(seed + 1).normal(size=(16, 2))
        first = self.HEADS[head](seed).fit(X, y)
        second = self.HEADS[head](seed).fit(X, y)
        assert np.array_equal(first.predict_proba(X_eval),
                              second.predict_proba(X_eval))
        for tree_a, tree_b in zip(first.get_state()["trees"],
                                  second.get_state()["trees"]):
            for key in ("feature", "threshold", "left", "right", "values"):
                assert np.array_equal(tree_a[key], tree_b[key], equal_nan=True)
