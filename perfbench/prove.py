"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/prove.py --workloads serve --seeds 1 2 3 4 5
    python3 perfbench/prove.py --seeds 1 2 3 4 5 6 7 8 9 10 --record

For every workload and end-to-end metric it prints the median and the
distance between the first and third quartile as a share of the median, next
to a third of the metric's bound in ``BENCHMARK.json``.  ``--record`` also
writes the medians and quartiles, with the machine and the git commit, to
``perfbench/baseline.json``, keeping the entries of workloads not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"machine": machine(), "run_seconds": spec["run_seconds"],
              "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [run["metrics"][metric]["value"] for run in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            width = spread(values)
            ok = metric == "setup_s" or width < bound / 3
            steady &= ok
            summary[metric] = {"median": q2, "q1": q1, "q3": q3, "spread": width,
                               "unit": runs[0]["metrics"][metric]["unit"]}
            print(f"  {workload:<13} {metric:<14} median {q2:12.5g}  spread "
                  f"{width:7.4f}  (bound/3 {bound / 3:.4f}){'' if ok else '  WIDE'}")
        record["workloads"][workload] = summary
    if args.record:
        path = HERE / "baseline.json"
        if path.exists():                   # keep workloads this run did not measure
            previous = json.loads(path.read_text())["workloads"]
            record["workloads"] = {**previous, **record["workloads"]}
        path.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
