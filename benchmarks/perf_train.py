"""Perf harness: block-diagonal batched training vs the per-sample loop.

Measures, on a synthetic ledger's ``exchange`` one-vs-rest task:

* ``gsg_fit`` / ``ldg_fit`` — full-``fit`` training-step throughput
  (samples x epochs / second) with ``batch_size`` block-diagonal minibatches
  versus two references: the **legacy per-sample loop** (``batch_size=1``,
  one optimizer step per subgraph — the pre-batching training path and the
  headline baseline) and the **same-schedule looped kernel**
  (``_batched_kernel = False``: identical RNG draws, identical optimizer
  steps, forwards run one sample at a time — the ≤1e-9 parity reference);
* ``dataset_build`` — sequential vs thread-pool vs process-pool dataset
  construction (bit-identity asserted before timing; thread numbers are
  honest GIL-bound ~1x on single-core boxes, the process pool is the
  scaling path).

Final weights of the batched and looped fits are asserted to agree to 1e-9
before any timing is recorded.  Scoring has one path whatever the
``batch_size``, so it is not timed here.  Results, including speedups,
are written to ``BENCH_train.json``.

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
PARITY_ATOL = 1e-9


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
    """(builder factory, samples, labels) for the exchange one-vs-rest task.

    Subgraph extraction matches the table-3 smoke regime
    (``tests/test_experiments.py``: ``top_k=20, max_nodes_per_subgraph=25``) —
    the paper's workload is many small account ego-subgraphs, which is exactly
    the regime block-diagonal batching targets.
    """
    config = LedgerConfig().scaled(scale)
    config.seed = seed
    ledger = generate_ledger(config)
    dataset_config = DatasetConfig(top_k=20, max_nodes_per_subgraph=25, seed=3)

    def make_builder() -> SubgraphDatasetBuilder:
        return SubgraphDatasetBuilder(ledger, dataset_config)

    dataset = make_builder().build()
    samples, labels = dataset.binary_task("exchange",
                                          rng=np.random.default_rng(0))
    return make_builder, samples, labels


def _max_weight_diff(a, b) -> float:
    return max(float(np.abs(pa.data - pb.data).max())
               for pa, pb in zip(a._network.parameters(),
                                 b._network.parameters()))


def bench_branch(name: str, branch_cls, config_factory, samples, labels,
                 reps: int) -> dict:
    """Parity-check then time one branch's batched vs reference training.

    The headline ``fit.speedup`` compares against the legacy per-sample loop
    (``batch_size=1`` — one optimizer step per subgraph, the pre-batching
    path); ``fit.speedup_vs_looped`` compares against the same-minibatch-
    schedule looped kernel that the ≤1e-9 parity assertion runs against.
    """
    epochs = config_factory().epochs

    def fit(batched_kernel: bool, batch_size: int | None = None):
        config = config_factory()
        if batch_size is not None:
            config.batch_size = batch_size
        branch = branch_cls(config)
        branch._batched_kernel = batched_kernel
        branch.fit(samples, labels)
        return branch

    # --- parity before timing ----------------------------------------------
    batched, looped = fit(True), fit(False)
    weight_diff = _max_weight_diff(batched, looped)
    assert weight_diff < PARITY_ATOL, \
        f"{name} fit parity violated: max weight diff {weight_diff:.3e}"
    # The batched fit's train accuracy, recorded in the artifact.
    accuracy = float(((batched.predict_scores(samples) > 0).astype(float)
                      == np.asarray(labels, dtype=float)).mean())

    # --- timing -------------------------------------------------------------
    steps = len(samples) * epochs
    fits = _timed({"batched": lambda: fit(True), "looped": lambda: fit(False),
                   "legacy": lambda: fit(False, batch_size=1)}, reps)
    t_batched, t_looped, t_legacy = fits["batched"], fits["looped"], fits["legacy"]
    return {
        "num_samples": len(samples),
        "epochs": epochs,
        "max_weight_diff": weight_diff,
        "train_accuracy": accuracy,
        "fit": {"batched_seconds": t_batched,
                "legacy_per_sample_seconds": t_legacy,
                "looped_seconds": t_looped,
                "batched_steps_per_second": steps / t_batched,
                "legacy_steps_per_second": steps / t_legacy,
                "looped_steps_per_second": steps / t_looped,
                "speedup": t_legacy / t_batched,
                "speedup_vs_looped": t_looped / t_batched},
    }


def bench_build(make_builder, workers: int, reps: int,
                include_process: bool = True) -> dict:
    """Sequential vs thread vs process dataset build (bit-identity first)."""
    reference = make_builder().build()

    def check(dataset) -> None:
        assert len(dataset) == len(reference)
        for got, expected in zip(dataset.samples, reference.samples):
            assert got.center == expected.center
            assert got.category == expected.category
            assert np.array_equal(got.node_features, expected.node_features), \
                f"parallel build diverged at centre {got.center}"

    plans = ["thread", "process"] if include_process else ["thread"]
    for mode in plans:
        check(make_builder().build(workers=workers, mode=mode))
    builds = {"sequential": lambda: make_builder().build()}
    builds.update({mode: lambda mode=mode: make_builder().build(workers=workers, mode=mode)
                   for mode in plans})
    seconds = _timed(builds, reps)
    modes: dict[str, dict] = {"sequential": {"seconds": seconds["sequential"]}}
    for mode in plans:
        modes[mode] = {"seconds": seconds[mode], "workers": workers,
                       "speedup": seconds["sequential"] / seconds[mode]}
    return {"num_samples": len(reference), "modes": modes}


def run(scale: float = 1.2, batch_size: int = 32, epochs: int = 20,
        reps: int = 3, workers: int = 4, include_process: bool = True,
        output: Path | None = DEFAULT_OUTPUT, seed: int = 11) -> dict:
    make_builder, samples, labels = build_task(scale, seed)
    print(f"task: {len(samples)} samples "
          f"(batch_size={batch_size}, epochs={epochs})")

    results = {"config": {"scale": scale, "batch_size": batch_size,
                          "epochs": epochs, "reps": reps, "workers": workers,
                          "seed": seed, "parity_atol": PARITY_ATOL},
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
        print(f"[{name}] fit {record['fit']['speedup']:5.2f}x vs per-sample "
              f"loop ({record['fit']['speedup_vs_looped']:4.2f}x vs looped "
              f"schedule, {record['fit']['batched_steps_per_second']:7.1f} vs "
              f"{record['fit']['legacy_steps_per_second']:7.1f} steps/s) | "
              f"weight diff {record['max_weight_diff']:.2e}")

    branches = results["branches"].values()
    results["combined_fit_speedup"] = (
        sum(b["fit"]["legacy_per_sample_seconds"] for b in branches)
        / sum(b["fit"]["batched_seconds"] for b in branches))
    print(f"[combined] GSG+LDG training {results['combined_fit_speedup']:.2f}x "
          f"vs the per-sample loop")

    results["dataset_build"] = bench_build(make_builder, workers, reps,
                                           include_process=include_process)
    build_line = " | ".join(
        f"{mode} {record['seconds']:.2f}s"
        + (f" ({record['speedup']:.2f}x)" if "speedup" in record else "")
        for mode, record in results["dataset_build"]["modes"].items())
    print(f"[build] {build_line}")

    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {output}")
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.2,
                        help="ledger scale multiplier (default: 1.2)")
    parser.add_argument("--batch-size", type=int, default=32,
                        help="block-diagonal minibatch size (default: 32)")
    parser.add_argument("--epochs", type=int, default=20,
                        help="training epochs per fit (default: 20)")
    parser.add_argument("--reps", type=int, default=3,
                        help="best-of repetitions per measurement")
    parser.add_argument("--workers", type=int, default=4,
                        help="pool size for the dataset-build sweep")
    parser.add_argument("--skip-process", action="store_true",
                        help="skip the process-pool build measurement")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="path of the JSON results file")
    parser.add_argument("--min-step-speedup", type=float, default=None,
                        help="fail unless both branches hit this batched-fit "
                             "speedup over the legacy per-sample loop")
    args = parser.parse_args()
    results = run(scale=args.scale, batch_size=args.batch_size,
                  epochs=args.epochs, reps=args.reps, workers=args.workers,
                  include_process=not args.skip_process, output=args.output)
    if args.min_step_speedup is not None:
        for name, record in results["branches"].items():
            got = record["fit"]["speedup"]
            assert got >= args.min_step_speedup, (
                f"{name} batched fit speedup {got:.2f}x below "
                f"{args.min_step_speedup}x floor")


if __name__ == "__main__":
    main()
