"""Tests for the joint calibration module and the account classification module."""

import numpy as np
import pytest

from repro.core import DBG4ETH, CalibrationConfig, JointCalibrationModule
from repro.core.classifier import CLASSIFIER_FACTORIES, AccountClassificationModule
from repro.experiments.runner import fast_dbg4eth_config


def synthetic_branch_scores(n=200, seed=0):
    """Raw GSG/LDG-like scores where both branches carry signal."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    gsg = labels * 2.0 - 1.0 + rng.normal(scale=0.8, size=n)
    ldg = labels * 1.5 - 0.75 + rng.normal(scale=1.0, size=n)
    return gsg, ldg, labels


class TestCalibrationConfig:
    def test_method_pool_full_by_default(self):
        assert len(CalibrationConfig().method_names()) == 6

    def test_parametric_only(self):
        config = CalibrationConfig(use_nonparametric=False)
        assert set(config.method_names()) == {"temperature_scaling", "beta_calibration",
                                              "logistic_calibration"}

    def test_nonparametric_only(self):
        config = CalibrationConfig(use_parametric=False)
        assert set(config.method_names()) == {"histogram_binning", "isotonic_regression", "bbq"}


class TestJointCalibrationModule:
    def test_transform_shape(self):
        gsg, ldg, labels = synthetic_branch_scores()
        module = JointCalibrationModule().fit(gsg, ldg, labels)
        calibrated = module.transform(gsg, ldg)
        assert calibrated.shape == (len(labels), 2)

    def test_outputs_are_probabilities(self):
        gsg, ldg, labels = synthetic_branch_scores()
        calibrated = JointCalibrationModule().fit_transform(gsg, ldg, labels)
        assert np.all(calibrated >= 0.0) and np.all(calibrated <= 1.0)

    def test_calibrated_probabilities_track_labels(self):
        gsg, ldg, labels = synthetic_branch_scores(seed=2)
        calibrated = JointCalibrationModule().fit_transform(gsg, ldg, labels)
        assert calibrated[labels == 1, 0].mean() > calibrated[labels == 0, 0].mean()
        assert calibrated[labels == 1, 1].mean() > calibrated[labels == 0, 1].mean()

    def test_weights_reported_per_branch(self):
        gsg, ldg, labels = synthetic_branch_scores()
        module = JointCalibrationModule().fit(gsg, ldg, labels)
        weights = module.weights()
        assert set(weights) == {"gsg", "ldg"}
        assert len(weights["gsg"]) == 6
        assert sum(weights["gsg"].values()) == pytest.approx(1.0)

    def test_disabled_calibration_returns_scaled_confidences(self):
        gsg, ldg, labels = synthetic_branch_scores()
        module = JointCalibrationModule(CalibrationConfig(use_calibration=False))
        calibrated = module.fit_transform(gsg, ldg, labels)
        assert np.all(calibrated > 0.0) and np.all(calibrated < 1.0)
        assert module.weights() == {"gsg": {}, "ldg": {}}

    def test_non_adaptive_mode_gives_uniform_weights(self):
        gsg, ldg, labels = synthetic_branch_scores()
        module = JointCalibrationModule(CalibrationConfig(adaptive=False)).fit(gsg, ldg, labels)
        weights = module.weights()["gsg"]
        assert all(w == pytest.approx(1.0 / 6.0) for w in weights.values())

    def test_restricted_method_pools(self):
        gsg, ldg, labels = synthetic_branch_scores()
        module = JointCalibrationModule(CalibrationConfig(use_parametric=False))
        module.fit(gsg, ldg, labels)
        assert set(module.weights()["ldg"]) == {"histogram_binning", "isotonic_regression", "bbq"}


class TestAccountClassificationModule:
    def test_unknown_classifier_raises(self):
        with pytest.raises(ValueError):
            AccountClassificationModule("svm")

    @pytest.mark.parametrize("name", sorted(CLASSIFIER_FACTORIES))
    def test_every_classifier_fits_and_predicts(self, name):
        gsg, ldg, labels = synthetic_branch_scores(seed=4)
        calibrated = JointCalibrationModule().fit_transform(gsg, ldg, labels)
        module = AccountClassificationModule(name).fit(calibrated, labels)
        predictions = module.predict(calibrated)
        assert predictions.shape == labels.shape
        assert set(np.unique(predictions)) <= {0, 1}
        assert (predictions == labels).mean() > 0.7

    def test_predict_proba_in_unit_interval(self):
        gsg, ldg, labels = synthetic_branch_scores(seed=5)
        calibrated = JointCalibrationModule().fit_transform(gsg, ldg, labels)
        module = AccountClassificationModule("lightgbm").fit(calibrated, labels)
        probs = module.predict_proba(calibrated)
        assert probs.shape == labels.shape
        assert np.all(probs >= 0.0) and np.all(probs <= 1.0)

    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("name", sorted(CLASSIFIER_FACTORIES))
    def test_a_head_trained_on_one_class_scores_that_class(self, name, label):
        """The forest and the MLP emit one column per class they saw, so
        P(class 1) is read through ``classes_``: 0.0 if class 1 never appeared."""
        gsg, ldg, _ = synthetic_branch_scores(n=40, seed=6)
        calibrated = 1.0 / (1.0 + np.exp(-np.column_stack([gsg, ldg])))
        module = AccountClassificationModule(name).fit(calibrated, np.full(40, label))
        probs = module.predict_proba(calibrated)
        assert probs.shape == (40,)
        assert np.all(np.abs(probs - label) < 1e-3)

    @pytest.mark.parametrize("name", ["mlp", "random_forest"])
    def test_dbg4eth_trained_on_one_class_scores_zero(self, name, small_dataset):
        samples = list(small_dataset)[:12]
        model = DBG4ETH(fast_dbg4eth_config(epochs=1, classifier=name)).fit(
            samples, np.zeros(12, dtype=int))
        assert np.array_equal(model.predict_proba(samples), np.zeros(12))
