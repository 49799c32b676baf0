"""Account classification module (Section IV-D)."""

from __future__ import annotations

import numpy as np

from repro.ensemble import (
    AdaBoostClassifier,
    LightGBMClassifier,
    MLPClassifier,
    RandomForestClassifier,
    XGBoostClassifier,
)

__all__ = ["AccountClassificationModule", "CLASSIFIER_FACTORIES"]

#: Factories for the five final classifiers compared in Figure 7.  Extra
#: keyword arguments (``n_estimators``, ``max_depth``, ...) are forwarded to
#: the underlying head.
CLASSIFIER_FACTORIES = {
    "lightgbm": lambda seed, **kw: LightGBMClassifier(seed=seed, **kw),
    "xgboost": lambda seed, **kw: XGBoostClassifier(seed=seed, **kw),
    "random_forest": lambda seed, **kw: RandomForestClassifier(seed=seed, **kw),
    "adaboost": lambda seed, **kw: AdaBoostClassifier(seed=seed, **kw),
    "mlp": lambda seed, **kw: MLPClassifier(seed=seed, **kw),
}


class AccountClassificationModule:
    """Final classifier over the calibrated ``[P_g, P_l]`` probability pairs.

    The paper selects LightGBM for its robustness to outliers and noise; the
    ``classifier`` argument allows swapping in the Figure 7 alternatives and the
    Table IV "w/o LightGBM" ablation (which uses the MLP).
    """

    def __init__(self, classifier: str = "lightgbm", seed: int = 0, **model_kwargs):
        if classifier not in CLASSIFIER_FACTORIES:
            raise ValueError(
                f"unknown classifier {classifier!r}; choose from {sorted(CLASSIFIER_FACTORIES)}")
        self.classifier_name = classifier
        self.seed = seed
        self._model = CLASSIFIER_FACTORIES[classifier](seed, **model_kwargs)

    def fit(self, calibrated: np.ndarray, labels: np.ndarray) -> "AccountClassificationModule":
        calibrated = np.atleast_2d(np.asarray(calibrated, dtype=float))
        self._model.fit(calibrated, np.asarray(labels).astype(int))
        return self

    def predict(self, calibrated: np.ndarray) -> np.ndarray:
        calibrated = np.atleast_2d(np.asarray(calibrated, dtype=float))
        return np.asarray(self._model.predict(calibrated)).astype(int)

    def predict_proba(self, calibrated: np.ndarray) -> np.ndarray:
        """Probability of the positive class for each sample.

        The boosted heads always emit ``[P(0), P(1)]``; the forest and the MLP
        emit one column per class seen in training, so a head that never saw
        class 1 scores 0.0.
        """
        calibrated = np.atleast_2d(np.asarray(calibrated, dtype=float))
        probs = self._model.predict_proba(calibrated)
        classes = getattr(self._model, "classes_", None)
        if classes is None:
            return probs[:, 1]
        positive = np.flatnonzero(classes == 1)
        return probs[:, positive[0]] if len(positive) else np.zeros(len(calibrated))

    # ------------------------------------------------------------- persistence
    def get_state(self) -> dict:
        """Serializable fitted state: classifier name, seed and model internals."""
        return {
            "classifier": self.classifier_name,
            "seed": int(self.seed),
            "model": self._model.get_state(),
        }

    def set_state(self, state: dict) -> "AccountClassificationModule":
        """Restore a fitted classifier from :meth:`get_state` output."""
        name = state["classifier"]
        if name not in CLASSIFIER_FACTORIES:
            raise ValueError(
                f"unknown classifier {name!r} in state; choose from {sorted(CLASSIFIER_FACTORIES)}")
        self.classifier_name = name
        self.seed = int(state["seed"])
        self._model = CLASSIFIER_FACTORIES[name](self.seed)
        self._model.set_state(state["model"])
        return self
