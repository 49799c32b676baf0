"""Tests for the from-scratch boosting, forest and MLP classifiers."""

import numpy as np
import pytest

from repro.ensemble import (
    AdaBoostClassifier,
    GradientBoostingClassifier,
    LightGBMClassifier,
    MLPClassifier,
    RandomForestClassifier,
    XGBoostClassifier,
)
from repro.metrics import accuracy, auc_score

BINARY_MODELS = [
    GradientBoostingClassifier,
    LightGBMClassifier,
    XGBoostClassifier,
    AdaBoostClassifier,
]
ALL_MODELS = BINARY_MODELS + [RandomForestClassifier, MLPClassifier]


def two_moons_like(n=200, seed=0):
    """A linearly-inseparable binary dataset (XOR-ish blobs)."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0, 0], [3, 3], [0, 3], [3, 0]])
    labels = np.array([0, 0, 1, 1])
    idx = rng.integers(0, 4, size=n)
    X = centers[idx] + rng.normal(scale=0.4, size=(n, 2))
    return X, labels[idx]


class TestBoostedModels:
    @pytest.mark.parametrize("model_cls", BINARY_MODELS)
    def test_fits_nonlinear_boundary(self, model_cls):
        X, y = two_moons_like(300)
        # Depth-3 trees are needed because the blobs form an XOR-style layout.
        model = model_cls(n_estimators=30, max_depth=3).fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.85

    @pytest.mark.parametrize("model_cls", BINARY_MODELS)
    def test_probabilities_valid(self, model_cls):
        X, y = two_moons_like(150)
        model = model_cls(n_estimators=15).fit(X, y)
        probs = model.predict_proba(X)
        assert probs.shape == (len(X), 2)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(len(X)), atol=1e-9)
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    @pytest.mark.parametrize("model_cls", BINARY_MODELS)
    def test_auc_beats_chance(self, model_cls):
        X, y = two_moons_like(300, seed=2)
        model = model_cls(n_estimators=25, max_depth=3).fit(X, y)
        assert auc_score(y, model.predict_proba(X)[:, 1]) > 0.9

    @pytest.mark.parametrize("model_cls", BINARY_MODELS)
    def test_non_binary_labels_raise(self, model_cls):
        with pytest.raises(ValueError):
            model_cls().fit(np.ones((6, 2)), np.array([0, 1, 2, 0, 1, 2]))

    def test_more_estimators_do_not_hurt_training_fit(self):
        X, y = two_moons_like(200, seed=4)
        small = GradientBoostingClassifier(n_estimators=3).fit(X, y)
        large = GradientBoostingClassifier(n_estimators=40).fit(X, y)
        assert accuracy(y, large.predict(X)) >= accuracy(y, small.predict(X)) - 1e-9

    def test_lightgbm_binning_is_fitted(self):
        X, y = two_moons_like(100)
        model = LightGBMClassifier(n_estimators=5, max_bins=8).fit(X, y)
        assert len(model._bin_edges) == X.shape[1]

    def test_xgboost_regularisation_changes_predictions(self):
        X, y = two_moons_like(150, seed=1)
        weak_reg = XGBoostClassifier(n_estimators=10, reg_lambda=0.0).fit(X, y)
        strong_reg = XGBoostClassifier(n_estimators=10, reg_lambda=50.0).fit(X, y)
        assert not np.allclose(weak_reg.decision_function(X), strong_reg.decision_function(X))

    def test_adaboost_alphas_are_finite(self):
        X, y = two_moons_like(100)
        model = AdaBoostClassifier(n_estimators=10).fit(X, y)
        assert all(np.isfinite(a) for a in model._alphas)


class TestRandomForest:
    def test_accuracy_on_separable_data(self):
        X, y = two_moons_like(300)
        forest = RandomForestClassifier(n_estimators=20, max_depth=5).fit(X, y)
        assert accuracy(y, forest.predict(X)) > 0.9

    def test_probabilities_are_valid(self):
        X, y = two_moons_like(100)
        forest = RandomForestClassifier(n_estimators=10).fit(X, y)
        probs = forest.predict_proba(X)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(len(X)), atol=1e-9)

    def test_multiclass_support(self):
        rng = np.random.default_rng(1)
        X = np.vstack([rng.normal(loc=c, scale=0.3, size=(25, 2)) for c in (0, 4, 8)])
        y = np.repeat([0, 1, 2], 25)
        forest = RandomForestClassifier(n_estimators=15, max_depth=4).fit(X, y)
        assert accuracy(y, forest.predict(X)) > 0.9

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict_proba(np.ones((2, 2)))

    def test_invalid_max_features_raises(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(max_features="bogus").fit(np.ones((4, 2)), np.array([0, 1, 0, 1]))

    def test_rare_class_missing_from_bootstraps(self):
        """Regression: bootstraps that miss a rare class used to crash the stack.

        Trees grown on a resample without the minority class have narrower
        ``values`` rows than the rest; stacking them for batched predict must
        class-align first, not concatenate raw arrays.
        """
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 4))
        y = np.zeros(60, dtype=int)
        y[:2] = 1
        forest = RandomForestClassifier(n_estimators=30, max_depth=4, seed=0).fit(X, y)
        # The scenario only bites if some (not all) trees missed the rare class.
        widths = {len(tree.classes_) for tree in forest._trees}
        assert widths == {1, 2}
        probs = forest.predict_proba(X)
        assert probs.shape == (60, 2)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(60), atol=1e-9)

    def test_rare_class_state_round_trip(self):
        """Persisted states holding subset-class trees must predict after load."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 4))
        y = np.zeros(60, dtype=int)
        y[:2] = 1
        forest = RandomForestClassifier(n_estimators=30, max_depth=4, seed=0).fit(X, y)
        assert {len(tree.classes_) for tree in forest._trees} == {1, 2}
        restored = RandomForestClassifier().set_state(forest.get_state())
        np.testing.assert_array_equal(restored.predict_proba(X),
                                      forest.predict_proba(X))


class TestNativeStates:
    """A state saved by a native lightgbm/xgboost booster cannot be scored here."""

    @pytest.mark.parametrize("factory", [LightGBMClassifier, XGBoostClassifier],
                             ids=["lightgbm", "xgboost"])
    def test_native_state_raises_value_error(self, factory):
        state = {"native_backend": "lightgbm", "native_model": "tree\n"}
        with pytest.raises(ValueError, match="native lightgbm booster"):
            factory().set_state(state)


class TestMLP:
    def test_learns_xor_like_data(self):
        X, y = two_moons_like(300)
        mlp = MLPClassifier(hidden_dim=16, epochs=300, learning_rate=0.02).fit(X, y)
        assert accuracy(y, mlp.predict(X)) > 0.85

    def test_probabilities_sum_to_one(self):
        X, y = two_moons_like(60)
        mlp = MLPClassifier(hidden_dim=8, epochs=50).fit(X, y)
        np.testing.assert_allclose(mlp.predict_proba(X).sum(axis=1), np.ones(len(X)), atol=1e-9)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            MLPClassifier().predict_proba(np.ones((2, 2)))

    def test_multiclass(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(loc=c, scale=0.3, size=(30, 2)) for c in (0, 4, 8)])
        y = np.repeat([0, 1, 2], 30)
        mlp = MLPClassifier(hidden_dim=16, epochs=200).fit(X, y)
        assert accuracy(y, mlp.predict(X)) > 0.85


class TestDeterminism:
    @pytest.mark.parametrize("model_cls", ALL_MODELS)
    def test_same_seed_same_predictions(self, model_cls):
        X, y = two_moons_like(120, seed=6)
        a = model_cls(seed=0).fit(X, y).predict(X)
        b = model_cls(seed=0).fit(X, y).predict(X)
        np.testing.assert_array_equal(a, b)
