"""The end-to-end DBG4ETH model."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.augmentation import AugmentationConfig
from repro.core.calibration_module import CalibrationConfig, JointCalibrationModule
from repro.core.classifier import AccountClassificationModule
from repro.core.gsg import GSGBranch, GSGConfig
from repro.core.ldg import LDGBranch, LDGConfig
from repro.data.dataset import AccountSubgraph

__all__ = ["DBG4ETHConfig", "DBG4ETH", "dbg4eth_config_to_dict", "dbg4eth_config_from_dict"]


def dbg4eth_config_to_dict(config: "DBG4ETHConfig") -> dict:
    """A json-friendly dict of a :class:`DBG4ETHConfig` (nested dataclasses included)."""
    return asdict(config)


def dbg4eth_config_from_dict(data: dict) -> "DBG4ETHConfig":
    """Rebuild a :class:`DBG4ETHConfig` from :func:`dbg4eth_config_to_dict` output."""
    gsg = dict(data["gsg"])
    gsg["view1"] = AugmentationConfig(**gsg["view1"])
    gsg["view2"] = AugmentationConfig(**gsg["view2"])
    return DBG4ETHConfig(
        gsg=GSGConfig(**gsg),
        ldg=LDGConfig(**data["ldg"]),
        calibration=CalibrationConfig(**data["calibration"]),
        classifier=data["classifier"],
        use_gsg=bool(data["use_gsg"]),
        use_ldg=bool(data["use_ldg"]),
        cross_fit_folds=int(data["cross_fit_folds"]),
        seed=int(data["seed"]),
    )


@dataclass
class DBG4ETHConfig:
    """Configuration and ablation switches of the full pipeline.

    The boolean switches map one-to-one to the Table IV ablation rows:
    ``use_gsg=False`` is "w/o GSG", ``use_ldg=False`` is "w/o LDG",
    ``calibration.use_calibration=False`` is "w/o calibration", and
    ``classifier='mlp'`` reproduces "w/o LightGBM".
    """

    gsg: GSGConfig = field(default_factory=GSGConfig)
    ldg: LDGConfig = field(default_factory=LDGConfig)
    calibration: CalibrationConfig = field(default_factory=CalibrationConfig)
    classifier: str = "lightgbm"
    use_gsg: bool = True
    use_ldg: bool = True
    #: Fit the calibration module and final classifier on out-of-fold branch
    #: scores (2-fold cross-fitting).  Training-set scores of an overfit branch
    #: are nearly separable, which would let the stacked classifier pick an
    #: arbitrary threshold; cross-fitting keeps the downstream stages honest.
    cross_fit_folds: int = 2
    seed: int = 0

    def __post_init__(self):
        if not (self.use_gsg or self.use_ldg):
            raise ValueError("at least one of the GSG / LDG branches must be enabled")


def _mirror_disabled(gsg_scores, ldg_scores) -> tuple[np.ndarray, np.ndarray]:
    """A disabled branch (``None``) mirrors the other, so the downstream stack
    is unchanged."""
    return (ldg_scores if gsg_scores is None else gsg_scores,
            gsg_scores if ldg_scores is None else ldg_scores)


class DBG4ETH:
    """Double graph inference-based account de-anonymization.

    Usage::

        model = DBG4ETH()
        model.fit(train_samples, train_labels)
        predictions = model.predict(test_samples)
        probabilities = model.predict_proba(test_samples)

    ``samples`` are :class:`~repro.data.AccountSubgraph` instances and labels
    are binary one-vs-rest indicators for the category under study (the paper
    evaluates one category at a time, Table III).
    """

    def __init__(self, config: DBG4ETHConfig | None = None):
        self.config = config or DBG4ETHConfig()
        self.gsg_branch = GSGBranch(self.config.gsg) if self.config.use_gsg else None
        self.ldg_branch = LDGBranch(self.config.ldg) if self.config.use_ldg else None
        self.calibration = JointCalibrationModule(self.config.calibration)
        self.classifier = AccountClassificationModule(self.config.classifier, self.config.seed)
        self._fitted = False

    # -------------------------------------------------------------------- fit
    def fit(self, samples: list[AccountSubgraph], labels) -> "DBG4ETH":
        labels = np.asarray(labels).astype(int)
        if len(samples) != len(labels):
            raise ValueError("samples and labels must have the same length")
        if len(samples) == 0:
            raise ValueError("cannot fit on an empty dataset")
        oof_gsg, oof_ldg = self._cross_fitted_scores(samples, labels)
        # The deployed branches are trained on the full training set; the
        # calibration module and classifier see only out-of-fold scores.
        gsg_scores, ldg_scores = self._branch_scores(samples, labels, training=True)
        if oof_gsg is None:
            oof_gsg, oof_ldg = gsg_scores, ldg_scores
        calibrated = self.calibration.fit_transform(oof_gsg, oof_ldg, labels)
        self.classifier.fit(calibrated, labels)
        self._fitted = True
        return self

    def _cross_fitted_scores(self, samples: list[AccountSubgraph], labels: np.ndarray,
                             ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Out-of-fold branch scores used to fit the calibration and classifier."""
        folds = self.config.cross_fit_folds
        class_counts = np.bincount(labels) if labels.size else np.array([0])
        # Cross-fitting only helps when each fold still trains on a usable
        # number of samples per class; tiny tasks fall back to in-sample scores.
        if (folds < 2 or len(samples) < 6 * folds or len(np.unique(labels)) < 2
                or class_counts.min() < 2 * folds):
            return None, None
        from repro.data.splits import stratified_kfold

        oof_gsg = np.zeros(len(samples))
        oof_ldg = np.zeros(len(samples))
        for train_idx, val_idx in stratified_kfold(labels, n_splits=folds,
                                                   seed=self.config.seed):
            train_samples = [samples[i] for i in train_idx]
            val_samples = [samples[i] for i in val_idx]
            train_labels = labels[train_idx]
            if len(np.unique(train_labels)) < 2:
                return None, None
            if self.config.use_gsg:
                branch = GSGBranch(self.config.gsg)
                branch.fit(train_samples, train_labels)
                oof_gsg[val_idx] = branch.predict_scores(val_samples)
            if self.config.use_ldg:
                branch = LDGBranch(self.config.ldg)
                branch.fit(train_samples, train_labels)
                oof_ldg[val_idx] = branch.predict_scores(val_samples)
        if not self.config.use_gsg:
            oof_gsg = oof_ldg
        if not self.config.use_ldg:
            oof_ldg = oof_gsg
        return oof_gsg, oof_ldg

    def _branch_scores(self, samples: list[AccountSubgraph], labels: np.ndarray | None,
                       training: bool) -> tuple[np.ndarray, np.ndarray]:
        if training:
            if self.gsg_branch is not None:
                self.gsg_branch.fit(samples, labels)
            if self.ldg_branch is not None:
                self.ldg_branch.fit(samples, labels)
        gsg_scores = (self.gsg_branch.predict_scores(samples)
                      if self.gsg_branch is not None else None)
        ldg_scores = (self.ldg_branch.predict_scores(samples)
                      if self.ldg_branch is not None else None)
        return _mirror_disabled(gsg_scores, ldg_scores)

    # -------------------------------------------------------------- inference
    def predict_proba(self, samples: list[AccountSubgraph]) -> np.ndarray:
        """Probability that each sample belongs to the positive category."""
        self._check_fitted()
        return self.proba_from_scores(*self._branch_scores(samples, None, training=False))

    def proba_from_scores(self, gsg_scores: np.ndarray | None,
                          ldg_scores: np.ndarray | None) -> np.ndarray:
        """Probabilities from raw branch scores: calibration, then the classifier.

        ``None`` stands for a disabled branch.  Scoring several heads at once
        (:class:`~repro.core.inference.StackedHeads`) computes the branch
        scores for all of them and finishes each head here.
        """
        self._check_fitted()
        calibrated = self.calibration.transform(*_mirror_disabled(gsg_scores, ldg_scores))
        return self.classifier.predict_proba(calibrated)

    def predict(self, samples: list[AccountSubgraph]) -> np.ndarray:
        """Predicted binary labels."""
        self._check_fitted()
        gsg_scores, ldg_scores = self._branch_scores(samples, None, training=False)
        calibrated = self.calibration.transform(gsg_scores, ldg_scores)
        return self.classifier.predict(calibrated)

    def calibration_weights(self) -> dict[str, dict[str, float]]:
        """Adaptive calibration weights per branch (Figure 6)."""
        self._check_fitted()
        return self.calibration.weights()

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("DBG4ETH has not been fitted; call fit() first")

    # ------------------------------------------------------------- persistence
    def get_state(self) -> dict:
        """The full fitted state: config, branch weights, calibrators, classifier.

        The returned structure contains only json/npz-friendly values (dicts,
        lists, scalars and numpy arrays), so it can be written with
        :func:`repro.api.persistence.save_state` and restored bit-for-bit.
        """
        self._check_fitted()
        return {
            "config": dbg4eth_config_to_dict(self.config),
            "gsg": self.gsg_branch.get_state() if self.gsg_branch is not None else None,
            "ldg": self.ldg_branch.get_state() if self.ldg_branch is not None else None,
            "calibration": self.calibration.get_state(),
            "classifier": self.classifier.get_state(),
        }

    def set_state(self, state: dict) -> "DBG4ETH":
        """Restore a fitted model from :meth:`get_state` output.

        The config embedded in the state replaces this instance's config, so a
        freshly constructed ``DBG4ETH()`` restores correctly regardless of how
        it was configured.
        """
        self.config = dbg4eth_config_from_dict(state["config"])
        self.gsg_branch = None
        self.ldg_branch = None
        if self.config.use_gsg:
            if state.get("gsg") is None:
                raise ValueError("state enables the GSG branch but has no GSG weights")
            self.gsg_branch = GSGBranch(self.config.gsg).set_state(state["gsg"])
        if self.config.use_ldg:
            if state.get("ldg") is None:
                raise ValueError("state enables the LDG branch but has no LDG weights")
            self.ldg_branch = LDGBranch(self.config.ldg).set_state(state["ldg"])
        self.calibration = JointCalibrationModule(self.config.calibration)
        self.calibration.set_state(state["calibration"])
        self.classifier = AccountClassificationModule(self.config.classifier, self.config.seed)
        self.classifier.set_state(state["classifier"])
        self._fitted = True
        return self

    @classmethod
    def from_state(cls, state: dict) -> "DBG4ETH":
        """Construct a fitted model directly from :meth:`get_state` output."""
        return cls().set_state(state)
