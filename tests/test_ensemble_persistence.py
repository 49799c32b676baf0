"""Persistence regression tests for the ensemble heads.

The golden fixtures under ``tests/fixtures/classifier_states/`` were written
by the PR-3-era recursive tree engine, in commit d20a42a; the engine that
wrote them is gone, so they are kept as checked in and never regenerated.
Loading them through the current flat histogram engine must reproduce the
recorded predictions bit for bit — that is the backward-compatibility
contract deployed model directories rely on.  Fresh fits must also survive a save/load round trip losslessly,
including every tree hyperparameter.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.api.persistence import load_state, save_state
from repro.core.classifier import CLASSIFIER_FACTORIES, AccountClassificationModule
from repro.ensemble import GradientBoostingClassifier, LightGBMClassifier

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures" / "classifier_states"
HEAD_NAMES = sorted(CLASSIFIER_FACTORIES)


@pytest.fixture(scope="module")
def golden():
    return np.load(FIXTURE_DIR / "golden_predictions.npz")


class TestGoldenStates:
    """PR-3-format state directories must load and predict bit-identically."""

    @pytest.mark.parametrize("name", HEAD_NAMES)
    def test_golden_state_predicts_bitwise(self, name, golden):
        module = AccountClassificationModule(name).set_state(
            load_state(FIXTURE_DIR / name))
        X_eval = golden["X_eval"]
        assert np.array_equal(module.predict_proba(X_eval), golden[f"{name}_proba"])
        assert np.array_equal(module.predict(X_eval), golden[f"{name}_predict"])

    @pytest.mark.parametrize("name", HEAD_NAMES)
    def test_golden_state_survives_resave(self, name, golden, tmp_path):
        """Loading a PR-3 state and saving it again must not change predictions."""
        module = AccountClassificationModule(name).set_state(
            load_state(FIXTURE_DIR / name))
        save_state(tmp_path / name, module.get_state())
        reloaded = AccountClassificationModule(name).set_state(
            load_state(tmp_path / name))
        X_eval = golden["X_eval"]
        assert np.array_equal(reloaded.predict_proba(X_eval),
                              golden[f"{name}_proba"])

    def test_golden_lightgbm_state_is_binned_space(self):
        """PR-3 LightGBM trees split on binned inputs; the loader must honour it."""
        module = AccountClassificationModule("lightgbm").set_state(
            load_state(FIXTURE_DIR / "lightgbm"))
        assert module._model._input_space == "binned"


class TestFreshRoundTrip:
    """New-engine fits must round-trip through save_state/load_state losslessly."""

    @pytest.mark.parametrize("name", HEAD_NAMES)
    def test_round_trip_bitwise(self, name, golden, tmp_path):
        module = AccountClassificationModule(name, seed=3).fit(
            golden["X_fit"], golden["labels"])
        save_state(tmp_path / name, module.get_state())
        reloaded = AccountClassificationModule(name).set_state(
            load_state(tmp_path / name))
        X_eval = golden["X_eval"]
        assert np.array_equal(module.predict_proba(X_eval),
                              reloaded.predict_proba(X_eval))
        assert np.array_equal(module.predict(X_eval), reloaded.predict(X_eval))

    def test_fresh_lightgbm_state_is_raw_space(self, golden):
        module = AccountClassificationModule("lightgbm", seed=3).fit(
            golden["X_fit"], golden["labels"])
        state = module.get_state()["model"]
        assert state["input_space"] == "raw"


class TestHyperparameterRestore:
    """Regression: set_state used to silently reset every tree hyperparameter
    except max_depth (min_samples_leaf / max_features came back as defaults)."""

    def test_boosted_state_restores_tree_params(self, golden):
        fitted = GradientBoostingClassifier(
            n_estimators=4, max_depth=5, min_samples_leaf=7, max_features=1,
            seed=3).fit(golden["X_fit"], golden["labels"])
        loaded = GradientBoostingClassifier().set_state(fitted.get_state())
        assert loaded.max_depth == 5
        assert loaded.min_samples_leaf == 7
        assert loaded.max_features == 1
        assert loaded.learning_rate == fitted.learning_rate

    def test_lightgbm_state_restores_tree_params(self, golden):
        fitted = LightGBMClassifier(
            n_estimators=4, max_depth=6, min_samples_leaf=3, seed=3,
        ).fit(golden["X_fit"], golden["labels"])
        loaded = LightGBMClassifier().set_state(fitted.get_state())
        assert loaded.max_depth == 6
        assert loaded.min_samples_leaf == 3
        assert loaded.max_features is None

    def test_legacy_state_without_tree_params_keeps_constructor_values(self, golden):
        """Old states lack ``tree_params``; the host's settings must survive."""
        fitted = GradientBoostingClassifier(n_estimators=4, seed=3).fit(
            golden["X_fit"], golden["labels"])
        state = fitted.get_state()
        del state["tree_params"]
        loaded = GradientBoostingClassifier(max_depth=9,
                                            min_samples_leaf=5).set_state(state)
        assert loaded.max_depth == 9
        assert loaded.min_samples_leaf == 5
        X_eval = golden["X_eval"]
        assert np.array_equal(loaded.predict_proba(X_eval),
                              fitted.predict_proba(X_eval))
