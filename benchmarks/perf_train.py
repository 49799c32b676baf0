"""Perf harness: minibatch training on dense groups vs one sample per step.

Measures, on a synthetic ledger's ``exchange`` one-vs-rest task:

* ``gsg_fit`` / ``ldg_fit`` — full-``fit`` training-step throughput
  (samples x epochs / second) with ``batch_size`` samples per optimizer
  step, grouped by node count into dense ``(B, n, ...)`` forwards (one per
  count), against the same ``fit`` at ``batch_size=1`` (one subgraph per
  step: the default, and the headline baseline).  Both run the branches' one training loop; its parity with the
  per-sample reference training is pinned by
  ``tests/test_batched_training.py``.

Scoring has one path whatever the ``batch_size``, so it is not timed here.
Results, including speedups, are written to ``BENCH_train.json``.

Run::

    PYTHONPATH=src python benchmarks/perf_train.py                 # full record
    PYTHONPATH=src python benchmarks/perf_train.py --scale 0.2 \
        --epochs 2 --reps 5 --min-step-speedup 2.0                 # CI smoke
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.chain import LedgerConfig, generate_ledger
from repro.core import GSGBranch, GSGConfig, LDGBranch, LDGConfig
from repro.data import DatasetConfig, SubgraphDatasetBuilder

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_train.json"


def _timed(fns: dict, reps: int) -> dict:
    """Best-of-``reps`` wall seconds of each callable in ``fns``, by key.

    Every rep runs the callables in turn, so a change of host speed hits
    all of them alike and moves their ratios less than when each is timed
    in its own block of reps.
    """
    best = dict.fromkeys(fns, float("inf"))
    for _ in range(reps):
        for key, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            best[key] = min(best[key], time.perf_counter() - t0)
    return best


def build_task(scale: float, seed: int):
    """(samples, labels) for the exchange one-vs-rest task.

    Subgraph extraction matches the table-3 smoke regime
    (``tests/test_experiments.py``: ``top_k=20, max_nodes_per_subgraph=25``) —
    the paper's workload is many small account ego-subgraphs, most of them at
    the node cap, so a minibatch groups into a few dense forwards.
    """
    config = LedgerConfig().scaled(scale)
    config.seed = seed
    ledger = generate_ledger(config)
    dataset = SubgraphDatasetBuilder(
        ledger, DatasetConfig(top_k=20, max_nodes_per_subgraph=25, seed=3)).build()
    return dataset.binary_task("exchange", rng=np.random.default_rng(0))


def bench_branch(name: str, branch_cls, config_factory, samples, labels,
                 reps: int) -> dict:
    """Time one branch's fit at the configured ``batch_size`` and at 1.

    ``fit.speedup`` divides the ``batch_size=1`` fit's best time (the
    ``legacy_*`` fields: one subgraph per optimizer step) by the batched
    fit's.
    """
    epochs = config_factory().epochs

    def fit(batch_size: int | None = None):
        config = config_factory()
        if batch_size is not None:
            config.batch_size = batch_size
        return branch_cls(config).fit(samples, labels)

    # The batched fit's train accuracy, recorded in the artifact.
    accuracy = float(((fit().predict_scores(samples) > 0).astype(float)
                      == np.asarray(labels, dtype=float)).mean())

    steps = len(samples) * epochs
    fits = _timed({"batched": fit, "legacy": lambda: fit(batch_size=1)}, reps)
    t_batched, t_legacy = fits["batched"], fits["legacy"]
    return {
        "num_samples": len(samples),
        "epochs": epochs,
        "train_accuracy": accuracy,
        "fit": {"batched_seconds": t_batched,
                "legacy_per_sample_seconds": t_legacy,
                "batched_steps_per_second": steps / t_batched,
                "legacy_steps_per_second": steps / t_legacy,
                "speedup": t_legacy / t_batched},
    }


def run(scale: float = 1.2, batch_size: int = 32, epochs: int = 20,
        reps: int = 3, output: Path | None = DEFAULT_OUTPUT,
        seed: int = 11) -> dict:
    samples, labels = build_task(scale, seed)
    print(f"task: {len(samples)} samples "
          f"(batch_size={batch_size}, epochs={epochs})")

    results = {"config": {"scale": scale, "batch_size": batch_size,
                          "epochs": epochs, "reps": reps, "seed": seed},
               "branches": {}}
    branch_specs = [
        ("gsg", GSGBranch, lambda: GSGConfig(
            hidden_dim=16, epochs=epochs, contrastive_batch=6,
            batch_size=batch_size)),
        ("ldg", LDGBranch, lambda: LDGConfig(
            hidden_dim=16, epochs=epochs, num_slices=4,
            first_pool_clusters=6, batch_size=batch_size)),
    ]
    for name, branch_cls, config_factory in branch_specs:
        record = bench_branch(name, branch_cls, config_factory, samples,
                              labels, reps)
        results["branches"][name] = record
        print(f"[{name}] fit {record['fit']['speedup']:5.2f}x vs batch_size=1 "
              f"({record['fit']['batched_steps_per_second']:7.1f} vs "
              f"{record['fit']['legacy_steps_per_second']:7.1f} steps/s)")

    branches = results["branches"].values()
    results["combined_fit_speedup"] = (
        sum(b["fit"]["legacy_per_sample_seconds"] for b in branches)
        / sum(b["fit"]["batched_seconds"] for b in branches))
    print(f"[combined] GSG+LDG training {results['combined_fit_speedup']:.2f}x "
          f"vs batch_size=1")

    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {output}")
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.2,
                        help="ledger scale multiplier (default: 1.2)")
    parser.add_argument("--batch-size", type=int, default=32,
                        help="training minibatch size (default: 32)")
    parser.add_argument("--epochs", type=int, default=20,
                        help="training epochs per fit (default: 20)")
    parser.add_argument("--reps", type=int, default=3,
                        help="best-of repetitions per measurement")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="path of the JSON results file")
    parser.add_argument("--min-step-speedup", type=float, default=None,
                        help="fail unless both branches hit this batched-fit "
                             "speedup over batch_size=1")
    args = parser.parse_args()
    results = run(scale=args.scale, batch_size=args.batch_size,
                  epochs=args.epochs, reps=args.reps, output=args.output)
    if args.min_step_speedup is not None:
        for name, record in results["branches"].items():
            got = record["fit"]["speedup"]
            assert got >= args.min_step_speedup, (
                f"{name} batched fit speedup {got:.2f}x below "
                f"{args.min_step_speedup}x floor")


if __name__ == "__main__":
    main()
