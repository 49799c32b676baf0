"""End-to-end benchmark of the DBG4ETH pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with no instrumentation and reports the end-to-end
metrics.  ``--trace 1`` runs the workload twice for half as long, untraced
and then with a span around every layer boundary, and reports the per-layer
metrics; the spans are written to ``.perfbench_out/``.  Every metric is printed by name
with its unit, and the last line of standard output is one JSON object.  The
exit code is 1 when an output check failed and 2 when the sources are
missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

# (name, unit): the end-to-end metrics every workload reports.
END_TO_END = [
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("cold_batch_ms", "ms"),
    ("lat_p50_ms", "ms"), ("exact_share", "ratio"),
]

WORKLOADS = ("serve", "follow_chain")

# What the generic latency metrics are, under each workload's own names.
ALIASES = {
    "serve": {"lat_p50_ms": "req_p50_ms", "lat_tail_ms": "req_tail_ms"},
    "follow_chain": {"lat_p50_ms": "fresh_p50_ms", "lat_tail_ms": "fresh_tail_ms"},
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload, seed: int, workdir: Path, seconds: float, repeats: int,
             short: bool = False):
    """One pass of the workload: prepare, set up ``repeats`` times, measure, finish.

    A full pass rescores before and after measuring; a short one does not.
    """
    from stats import median

    context = workload.prepare(seed, workdir)
    times, state = [], None
    for _ in range(repeats):
        state = None                        # free the previous repeat first
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(context, seconds)
        times.append(time.perf_counter() - start)
    if not short:
        workload.rescore(context)
    outcome = workload.measure(context, state, seconds, short)
    state = None
    if not short:
        workload.rescore(context)
    workload.finish(context, outcome)
    outcome.metrics["setup_s"] = median(times)
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    return outcome


def traced(name: str, workload, seed: int, workdir: Path, seconds: float):
    """Untraced then traced pass of half the run each; per-layer metrics."""
    import layers
    from spans import Tracer

    plain = run_pass(workload, seed, workdir, seconds / 2, repeats=1, short=True)
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        with tracer.span(f"bench.{name}", root=True) as root:
            outcome = run_pass(workload, seed, workdir, seconds / 2, repeats=1, short=True)
    finally:
        tracer.restore()
    extras = dict(outcome.extras)
    if outcome.requests is not None:
        extras["queue_waits_ms"] = layers.queue_waits_ms(tracer, outcome.requests)
    extras["bench.trace_overhead"] = (outcome.metrics[workload.primary]
                                      / plain.metrics[workload.primary])
    tracer.dump(OUT / f"spans-{name}-seed{seed}.jsonl")
    outcome.metrics = layers.per_layer_metrics(tracer, root, extras)
    outcome.attempted += plain.attempted
    outcome.failed += plain.failed
    return outcome


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no sources at {ROOT / 'src' / 'repro'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        if args.trace:
            outcome = traced(args.workload, workload, args.seed, Path(workdir), args.seconds)
            listed = layers.PER_LAYER
        else:
            outcome = run_pass(workload, args.seed, Path(workdir), args.seconds,
                               workload.setup_repeats)
            listed = END_TO_END

    aliases = {metric: f"  ({alias})" for metric, alias in ALIASES[args.workload].items()}
    for metric, unit in listed:
        print(f"{metric:<36} {outcome.metrics[metric]:>14.6g} {unit}{aliases.get(metric, '')}")
    for metric, note in outcome.notes.items():
        print(f"{metric:<36} {note}{aliases.get(metric, '')}")
    print(f"{'fail_share':<36} {outcome.failed / outcome.attempted:>14.6g} ratio"
          f"  ({outcome.failed} of {outcome.attempted} operations)")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {metric: {"value": float(outcome.metrics[metric]), "unit": unit}
                    for metric, unit in listed},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
