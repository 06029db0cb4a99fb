"""Steadiness check: runs workloads many times and prints each end-to-end metric's spread.

Usage, from the root of a checkout:

    python3 bench/steady.py --runs 10 [--workload jl ...]

Run k uses seed k (1, 2, ...) and the run length from BENCHMARK.json. For
every workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median beside the
metric's bound, marked "wide" above a third of the bound. Each run's
reference-loop figure is printed with it, so that a drift of the machine can
be told apart from a change in the program; that figure is not a metric.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def one_run(spec: dict, workload: str, seed: int) -> tuple[dict, float]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    reference = float(re.search(r"reference_loop_ms=([0-9.]+)", lines[-2]).group(1))
    return json.loads(lines[-1]), reference


def spread_table(spec: dict, workload: str, runs: list[dict], references: list[float]) -> None:
    print(f"\n{workload}: {len(runs)} runs, failed/attempted "
          f"{sorted({(r['failed'], r['attempted']) for r in runs})}")
    print(f"  {'metric':20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        verdict = "" if spread <= metric["bound"] / 3 else "  wide"
        print(f"  {metric['name']:20} {med:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:8.4f} {metric['bound']:6.2f}{verdict}")
    q1, med, q3 = statistics.quantiles(references, n=4)
    print(f"  {'(reference_loop_ms)':20} {med:12.4f} {q1:12.4f} {q3:12.4f} {(q3 - q1) / med:8.4f}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    for workload in args.workload or names:
        runs, references = [], []
        for seed in range(1, args.runs + 1):
            result, reference = one_run(spec, workload, seed)
            runs.append(result)
            references.append(reference)
            figures = " ".join(f"{name}={m['value']:.4f}" for name, m in result["metrics"].items())
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {figures} "
                  f"reference_loop_ms={reference:.3f}", flush=True)
        spread_table(spec, workload, runs, references)
    return 0


if __name__ == "__main__":
    sys.exit(main())
