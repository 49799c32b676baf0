"""Experiment runners for the comparison, ablation and sweep studies.

The DBG4ETH rows of every study go through the :class:`~repro.api.DeAnonymizer`
facade (one one-vs-rest head per category); baselines keep the plain
``fit``/``predict`` path via :func:`evaluate_model`.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro.api import DeAnonymizer
from repro.chain import AccountCategory
from repro.core import (
    CalibrationConfig,
    DBG4ETHConfig,
    GSGConfig,
    LDGConfig,
)
from repro.data import SubgraphDataset, train_test_split
from repro.data.dataset import AccountSubgraph
from repro.metrics import classification_report

__all__ = [
    "evaluate_model",
    "evaluate_dbg4eth_head",
    "run_category_experiment",
    "run_baseline_comparison",
    "run_ablation",
    "run_training_size_sweep",
    "fast_dbg4eth_config",
]

_DBG4ETH_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(DBG4ETHConfig))


def fast_dbg4eth_config(epochs: int = 8, batch_size: int = 1,
                        **overrides) -> DBG4ETHConfig:
    """A laptop-fast DBG4ETH configuration used across the benchmark suite.

    ``batch_size`` is forwarded to both branch configs: the subgraphs per
    optimizer step, forwarded one group of equal node counts at a time (1 is
    a batch of one).

    ``overrides`` must name actual :class:`DBG4ETHConfig` fields (``use_gsg``,
    ``classifier``, ...); unknown names raise :class:`TypeError` instead of
    silently attaching a dead attribute to the config.
    """
    config = DBG4ETHConfig(
        gsg=GSGConfig(hidden_dim=16, epochs=epochs, contrastive_batch=6,
                      batch_size=batch_size),
        ldg=LDGConfig(hidden_dim=16, epochs=epochs, num_slices=4,
                      first_pool_clusters=6, batch_size=batch_size),
        calibration=CalibrationConfig(),
    )
    for key, value in overrides.items():
        if key not in _DBG4ETH_CONFIG_FIELDS:
            raise TypeError(
                f"fast_dbg4eth_config() got an unexpected keyword argument {key!r}; "
                f"valid DBG4ETHConfig fields: {sorted(_DBG4ETH_CONFIG_FIELDS)}")
        setattr(config, key, value)
    return config


def evaluate_model(model, train_samples: list[AccountSubgraph], train_labels: np.ndarray,
                   test_samples: list[AccountSubgraph], test_labels: np.ndarray,
                   ) -> dict[str, float]:
    """Fit ``model`` on the train split and report P/R/F1/Acc on the test split."""
    model.fit(train_samples, train_labels)
    predictions = model.predict(test_samples)
    return classification_report(np.asarray(test_labels).astype(int),
                                 np.asarray(predictions).astype(int))


def evaluate_dbg4eth_head(config: DBG4ETHConfig | Callable[[], DBG4ETHConfig] | None,
                          category, train_samples: list[AccountSubgraph],
                          train_labels: np.ndarray,
                          test_samples: list[AccountSubgraph], test_labels: np.ndarray,
                          ) -> dict[str, float]:
    """Fit one facade head for ``category`` on the train split and report test metrics."""
    facade = DeAnonymizer(model_config=config)
    facade.fit_category(category, train_samples, train_labels)
    predictions = facade.predict_samples(category, test_samples)
    return classification_report(np.asarray(test_labels).astype(int),
                                 np.asarray(predictions).astype(int))


def run_category_experiment(dataset: SubgraphDataset, category: AccountCategory | str,
                            model_factory: Callable[[], object],
                            test_fraction: float = 0.3, seed: int = 0,
                            ) -> dict[str, float]:
    """One-vs-rest experiment for ``category`` with a fresh model from ``model_factory``."""
    samples, labels = dataset.binary_task(category, rng=np.random.default_rng(seed))
    train_s, train_y, test_s, test_y = train_test_split(samples, labels,
                                                        test_fraction=test_fraction,
                                                        seed=seed)
    model = model_factory()
    return evaluate_model(model, train_s, train_y, test_s, test_y)


def run_baseline_comparison(dataset: SubgraphDataset, categories: list,
                            baselines: dict[str, object] | None = None,
                            include_dbg4eth: bool = True,
                            dbg4eth_config: "DBG4ETHConfig | None" = None,
                            test_fraction: float = 0.3, seed: int = 0,
                            ) -> dict[str, dict[str, dict[str, float]]]:
    """Table III / V / VI style comparison.

    Returns ``{method: {category: {precision, recall, f1, accuracy}}}``.
    ``baselines`` maps method names to *unfitted* classifier instances; a fresh
    copy is created per category by re-instantiating from the registry when the
    caller passes factories instead of instances.
    """
    from repro.baselines import baseline_registry

    results: dict[str, dict[str, dict[str, float]]] = {}
    for category in categories:
        category_name = AccountCategory(category).value
        samples, labels = dataset.binary_task(category, rng=np.random.default_rng(seed))
        train_s, train_y, test_s, test_y = train_test_split(samples, labels,
                                                            test_fraction=test_fraction,
                                                            seed=seed)
        methods = dict(baselines) if baselines is not None else baseline_registry(seed=seed)
        for name, model in methods.items():
            report = evaluate_model(model, train_s, train_y, test_s, test_y)
            results.setdefault(name, {})[category_name] = report
        if include_dbg4eth:
            report = evaluate_dbg4eth_head(dbg4eth_config or fast_dbg4eth_config(),
                                           category_name, train_s, train_y, test_s, test_y)
            results.setdefault("DBG4ETH", {})[category_name] = report
    return results


def _ablation_variants(base: Callable[[], DBG4ETHConfig]) -> dict[str, DBG4ETHConfig]:
    """The Table IV ablation configurations."""
    def configure(**kwargs) -> DBG4ETHConfig:
        config = base()
        for key, value in kwargs.items():
            if key.startswith("calibration_"):
                setattr(config.calibration, key.removeprefix("calibration_"), value)
            else:
                setattr(config, key, value)
        return config

    return {
        "w/o GSG": configure(use_gsg=False),
        "w/o LDG": configure(use_ldg=False),
        "w/o calibration": configure(calibration_use_calibration=False),
        "w/o Param. calibration": configure(calibration_use_parametric=False),
        "w/o Non-param. calibration": configure(calibration_use_nonparametric=False),
        "w/o Ada. calibration": configure(calibration_adaptive=False),
        "w/o LightGBM": configure(classifier="mlp"),
        "DBG4ETH": configure(),
    }


def run_ablation(dataset: SubgraphDataset, categories: list,
                 base_config: Callable[[], DBG4ETHConfig] | None = None,
                 test_fraction: float = 0.3, seed: int = 0,
                 ) -> dict[str, dict[str, float]]:
    """Table IV: F1-score of each ablated variant per category."""
    base_config = base_config or fast_dbg4eth_config
    results: dict[str, dict[str, float]] = {}
    for category in categories:
        category_name = AccountCategory(category).value
        samples, labels = dataset.binary_task(category, rng=np.random.default_rng(seed))
        train_s, train_y, test_s, test_y = train_test_split(samples, labels,
                                                            test_fraction=test_fraction,
                                                            seed=seed)
        for variant_name, config in _ablation_variants(base_config).items():
            report = evaluate_dbg4eth_head(config, category_name,
                                           train_s, train_y, test_s, test_y)
            results.setdefault(variant_name, {})[category_name] = report["f1"]
    return results


def run_training_size_sweep(dataset: SubgraphDataset, category: AccountCategory | str,
                            fractions: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5),
                            config_factory: Callable[[], DBG4ETHConfig] | None = None,
                            seed: int = 0) -> dict[float, dict[str, float]]:
    """Figure 8: model performance as the training fraction grows (RQ4)."""
    config_factory = config_factory or fast_dbg4eth_config
    samples, labels = dataset.binary_task(category, rng=np.random.default_rng(seed))
    results: dict[float, dict[str, float]] = {}
    for fraction in fractions:
        train_s, train_y, test_s, test_y = train_test_split(
            samples, labels, test_fraction=1.0 - fraction, seed=seed)
        results[fraction] = evaluate_dbg4eth_head(config_factory(), category,
                                                  train_s, train_y, test_s, test_y)
    return results
