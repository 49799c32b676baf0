"""DBG4ETH: the paper's primary contribution.

The pipeline (Figure 2) has four components:

1. :class:`~repro.core.gsg.GSGBranch` — global static account transaction
   encoding with a hierarchical attention network regularised by contrastive
   learning with adaptive augmentation.
2. :class:`~repro.core.ldg.LDGBranch` — local dynamic account transaction
   encoding: per-time-slice GCN, GRU evolution, DiffPool and an attention
   read-out over time slices.
3. :class:`~repro.core.calibration_module.JointCalibrationModule` — adaptive
   confidence calibration of both branches' predicted values.
4. :class:`~repro.core.classifier.AccountClassificationModule` — a LightGBM
   classifier over the two calibrated probabilities.

:class:`~repro.core.model.DBG4ETH` wires the four together behind a
``fit`` / ``predict`` / ``predict_proba`` interface and exposes ablation
switches used by the Table IV experiments.
:class:`~repro.core.inference.StackedHeads` scores several fitted heads at
once, one stacked encoder pass per chunk of equal-size samples for all heads
of one architecture.
"""

from repro.core.augmentation import AugmentationConfig, adaptive_augmentation
from repro.core.gsg import GSGBranch, GSGConfig
from repro.core.ldg import LDGBranch, LDGConfig
from repro.core.calibration_module import JointCalibrationModule, CalibrationConfig
from repro.core.classifier import AccountClassificationModule
from repro.core.model import DBG4ETH, DBG4ETHConfig
from repro.core.inference import StackedHeads

__all__ = [
    "AugmentationConfig",
    "adaptive_augmentation",
    "GSGBranch",
    "GSGConfig",
    "LDGBranch",
    "LDGConfig",
    "JointCalibrationModule",
    "CalibrationConfig",
    "AccountClassificationModule",
    "DBG4ETH",
    "DBG4ETHConfig",
    "StackedHeads",
]
