"""How steady is the benchmark?  Run it N times and look.

``python3 benchmarks/e2e/noise.py --runs 10`` runs every workload N
times (``--trace 0``, seed ``--seed`` + run number, the workloads taking
turns so each one's runs are spread over the whole session), then prints
for every (workload, end-to-end metric): the runs, their median, their
range and their interquartile range as shares of the median, and the
difference between the medians of the first and the second half of the
runs.  It exits non-zero if any such difference, or any interquartile
spread other than ``setup_s``'s, exceeds the metric's bound in
``BENCHMARK.json`` — the test the benchmark's driver applies to two
sets of runs of the same code.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from benchmarks.e2e.estimators import spread  # noqa: E402
from benchmarks.e2e.ops import WORKLOADS  # noqa: E402
from benchmarks.e2e.run import DEFAULT_SEED, child_command, contract  # noqa: E402


def collect(runs: int, seed: int, quick: bool) -> dict:
    """``{workload: {metric: [value per run]}}``, workloads interleaved."""
    values: dict = {w: {} for w in WORKLOADS}
    for run in range(runs):
        for workload in WORKLOADS:
            command = child_command(
                workload, quick, "--seed", str(seed + run), "--trace", "0"
            )
            started = time.time()
            done = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT)
            if done.returncode != 0:
                raise SystemExit(f"{workload} run {run}: exit {done.returncode}")
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} run {run}: {result['failed']} failed ops")
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(
                f"run {run} {workload}: {time.time() - started:.1f} s",
                file=sys.stderr,
            )
    return values


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def report(values: dict, metrics: list[dict]) -> list[str]:
    """Print the table; return the (workload, metric) pairs out of bounds."""
    over = []
    print(
        f"{'workload':12s} {'metric':12s} {'median':>12s} {'range':>7s} "
        f"{'iqr':>7s} {'halves':>8s} {'bound':>6s}  runs"
    )
    for workload, by_metric in values.items():
        for metric in metrics:
            runs = by_metric[metric["name"]]
            median = statistics.median(runs)
            half = len(runs) // 2
            drift = worse_by(
                statistics.median(runs[:half]),
                statistics.median(runs[half:]),
                metric["better"],
            )
            iqr = spread(runs) if len(runs) >= 4 else float("nan")
            flag = ""
            if abs(drift) > metric["bound"] or (
                metric["name"] != "setup_s" and iqr > metric["bound"]
            ):
                over.append(f"{workload}/{metric['name']}")
                flag = "  <-- out of bound"
            print(
                f"{workload:12s} {metric['name']:12s} {median:12.4f} "
                f"{(max(runs) - min(runs)) / median:7.1%} {iqr:7.1%} "
                f"{drift:+8.1%} {metric['bound']:6.0%}  "
                + " ".join(f"{v:.4g}" for v in runs)
                + flag
            )
    return over


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    values = collect(args.runs, args.seed, args.quick)
    over = report(values, contract()["end_to_end"])
    if over:
        print("out of bound: " + ", ".join(over))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
