"""Classical classifiers used as the final account-classification stage.

DBG4ETH feeds the calibrated GSG/LDG probabilities into a LightGBM classifier;
the Figure 7 study also compares random forest, AdaBoost, XGBoost and an MLP.
All of them are reimplemented here from scratch on numpy behind a common
``fit`` / ``predict`` / ``predict_proba`` interface.  The tree-based heads fit
and predict on one engine, the flat histogram engine of
:mod:`repro.ensemble.engine`.
"""

from repro.ensemble.engine import (
    FlatClassifierTree,
    FlatTree,
    FlatTreeStack,
    GrowthParams,
    HistogramBinner,
)
from repro.ensemble.boosting import (
    GradientBoostingClassifier,
    LightGBMClassifier,
    XGBoostClassifier,
    AdaBoostClassifier,
)
from repro.ensemble.forest import RandomForestClassifier
from repro.ensemble.mlp import MLPClassifier

__all__ = [
    "FlatTree",
    "FlatTreeStack",
    "GrowthParams",
    "HistogramBinner",
    "FlatClassifierTree",
    "GradientBoostingClassifier",
    "LightGBMClassifier",
    "XGBoostClassifier",
    "AdaBoostClassifier",
    "RandomForestClassifier",
    "MLPClassifier",
]
