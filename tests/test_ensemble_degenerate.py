"""Degenerate-input coverage for every tree-based ensemble head.

Four regimes that used to be easy to crash on: single-class labels, constant
feature columns, fewer samples than ``min_samples_split``, and subsample
masks that select fewer than two rows.  Each head must fit without error and
fall back to predicting the majority class.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ensemble import (
    AdaBoostClassifier,
    GradientBoostingClassifier,
    LightGBMClassifier,
    RandomForestClassifier,
    XGBoostClassifier,
)

HEADS = {
    "gbm": lambda **kw: GradientBoostingClassifier(n_estimators=5, **kw),
    "lightgbm": lambda **kw: LightGBMClassifier(n_estimators=5, **kw),
    "xgboost": lambda **kw: XGBoostClassifier(n_estimators=5, **kw),
    "adaboost": lambda **kw: AdaBoostClassifier(n_estimators=5, **kw),
    "random_forest": lambda **kw: RandomForestClassifier(n_estimators=5, **kw),
}


def _fit_and_check_majority(model, X, y):
    model.fit(X, y)
    majority = int(np.bincount(np.asarray(y).astype(int), minlength=2).argmax())
    predictions = model.predict(X)
    assert predictions.shape == (len(X),)
    assert np.all(predictions == majority)
    proba = model.predict_proba(X)
    # Boosted heads always emit two columns; the forest emits one per
    # observed class (a single column when only one class was seen).
    assert proba.ndim == 2 and proba.shape[0] == len(X)
    assert np.all(np.isfinite(proba))


@pytest.mark.parametrize("name", sorted(HEADS))
@pytest.mark.parametrize("label", [0, 1])
def test_single_class_labels(name, label):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 3))
    y = np.full(30, label)
    _fit_and_check_majority(HEADS[name](seed=0), X, y)


@pytest.mark.parametrize("name", sorted(HEADS))
def test_constant_feature_columns(name):
    """All-constant features leave nothing to split on: majority prediction."""
    X = np.full((24, 3), 1.5)
    y = np.array([0, 1] * 11 + [1, 1])
    _fit_and_check_majority(HEADS[name](seed=0), X, y)


@pytest.mark.parametrize("name", sorted(HEADS))
def test_fewer_samples_than_min_samples_split(name):
    X = np.array([[0.1, 0.9]])
    y = np.array([1])
    _fit_and_check_majority(HEADS[name](seed=0), X, y)


@pytest.mark.parametrize("factory", [GradientBoostingClassifier, LightGBMClassifier],
                         ids=["gbm", "lightgbm"])
def test_tiny_subsample_mask_falls_back_to_all_rows(factory):
    """``subsample`` so small the mask picks <2 rows must not crash the fit."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(40, 2))
    y = (X[:, 0] > 0).astype(int)
    model = factory(n_estimators=40, seed=0, subsample=1e-9).fit(X, y)
    predictions = model.predict(X)
    assert predictions.shape == (40,)
    # With the full-rows fallback the head still actually learns the signal.
    assert (predictions == y).mean() > 0.8


@pytest.mark.parametrize("name", sorted(HEADS))
def test_single_class_on_constant_columns(name):
    """Single-class labels and constant columns combined."""
    X = np.zeros((6, 2))
    y = np.ones(6)
    _fit_and_check_majority(HEADS[name](seed=0), X, y)
