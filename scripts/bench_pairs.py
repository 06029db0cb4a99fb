"""Run one benchmark workload in two source trees, in alternating pairs, and summarize.

From the root of a checkout, with the parent commit unpacked in OLD and a
copy of the change in NEW:

    python3 scripts/bench_pairs.py OLD NEW --workload montecarlo --seed 1 \
        --pairs 10 --seconds 30 --out runs.json

Each tree is a checkout root holding its own `bench/` and `src/`. Each run
is `python3 bench/run.py --workload W --seed S --seconds T` started in that
tree, and its last line of output is the run's JSON. Pair i runs OLD first
when i is even and NEW first when i is odd, so a drift of the machine
favours neither side. For each end-to-end metric of `BENCHMARK.json` the
summary keeps both sides' runs, their medians and quartiles, the ratio of
the medians, and the pairs in which NEW was better. After the pairs, each
tree runs once more with `--trace 1`, and the entry keeps both sides'
per-layer metrics, to show in which layer a change moved the time. The
entry is stored under "<workload>@<seed>" in the --out file, which
collects the entries of several calls.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(runs: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1
                      else runs * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(r, 4) for r in runs]}


def per_layer(traced: tuple[dict, dict], metrics: list[dict]) -> dict:
    """Both sides' value of each per-layer metric in one traced run per tree."""
    return {m["name"]: {"unit": m["unit"], "better": m["better"],
                        "parent": round(traced[0]["metrics"][m["name"]]["value"], 4),
                        "change": round(traced[1]["metrics"][m["name"]]["value"], 4)}
            for m in metrics}


def summarize(pairs: list[tuple[dict, dict]], traced: tuple[dict, dict]) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"]
    out = {"pairs": len(pairs),
           "correct": all(run["correct"] for pair in pairs for run in pair),
           "failed": sum(run["failed"] for pair in pairs for run in pair)}
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        old = [p[0]["metrics"][name]["value"] for p in pairs]
        new = [p[1]["metrics"][name]["value"] for p in pairs]
        wins = sum(sign * (b - a) > 0.0 for a, b in zip(old, new))
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "parent": spread(old), "change": spread(new),
                     "change_over_parent": round(statistics.median(new) / statistics.median(old), 4),
                     "change_wins": f"{wins}/{len(pairs)}"}
    out["per_layer"] = per_layer(traced, spec["per_layer"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    pairs = []
    for i in range(args.pairs):
        order = (args.old, args.new) if i % 2 == 0 else (args.new, args.old)
        runs = {tree: run_once(tree, args.workload, args.seed, args.seconds) for tree in order}
        pairs.append((runs[args.old], runs[args.new]))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    traced = tuple(run_once(tree, args.workload, args.seed, args.seconds, trace=1)
                   for tree in (args.old, args.new))

    entries = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            entries = json.load(fh)
    entries[f"{args.workload}@{args.seed}"] = summarize(pairs, traced)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
