"""List the benchmark reports, and their JSON fields, that differ between two source trees.

Writes the inputs of every experiment of the benchmark workloads for one
seed (`bench/workloads.py` of this checkout), runs each experiment with
`--deterministic` against the `src/` of each tree, one fresh interpreter
per tree, and compares the reports field by field. The benchmark's
shattering classes are all +-1, with one cut per point, so the set
`multicut` adds `shatter`, `entropy` and `audit` calls on two real-valued
classes drawn from the seed (16 x 8, uniform in [-1, 1] and rounded to two
decimals, at scales 0.05 to 0.3), where points have several cuts. The
benchmark's `typecmp` vectors are orthonormal, so every signing ties, and its
`complexity` calls all give `--eps`, so the set `typecmp-ell` adds `typecmp`
on 120 unit Gaussian rows in R^12 at subset sizes 30 and 60, past the exact
sign cap of 24, under norm 2 and `sup`, and `complexity` calls on a 16 x 8
class with `--k` at most `--kmax`, above it, and without `--eps`. The set
`typecmp-gram` adds norm-2 `typecmp` on 24 unit rows in R^64, and on 30 unit
rows of rank 3 in R^30 under norm 2 and `sup`, whose Gram matrices are not
multiples of the identity. The set `wide` adds inputs whose Monte-Carlo
trials are wide: `complexity` on a 2 x 5000 class and `typecmp --norm sup`
on 5000 unit rows in R^2. From the root of a checkout, with the parent
commit unpacked in OLD:

    python3 scripts/diff_reports.py OLD . --seed 1 [--workload exact] [--workload wide]

Each tree is a checkout root holding `src/coordproj`. Both trees write each
report to the same path, so the echoed `config.output` never differs.
Prints one line per report (`same`, or its differing fields, old -> new) and
a summary that counts the reports differing only in `schema`; exits 0 when every report is byte-identical, 1 otherwise.
Nothing under `bench/` is written.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

MULTICUT = "multicut"
TYPECMP_ELL = "typecmp-ell"
TYPECMP_GRAM = "typecmp-gram"
WIDE = "wide"


def multicut_plan(seed: int, out_dir: str) -> list:
    """(name, argv) of the `multicut` calls, with their inputs written under out_dir."""
    plan = []
    for k in range(2):
        data = np.round(np.random.default_rng([seed, k]).uniform(-1.0, 1.0, (16, 8)), 2)
        path = workloads.write_csv(os.path.join(out_dir, f"class-{k}.csv"), data)
        plan += [(f"{MULTICUT}/shatter-{k}-t{t}", ["shatter", "--input", path, "--t", t])
                 for t in ("0.05", "0.15", "0.3")]
        plan.append((f"{MULTICUT}/entropy-{k}", ["entropy", "--input", path, "--t-grid",
                                                  "0.05,0.1,0.2,0.3", "--c-assumed", "1"]))
        plan.append((f"{MULTICUT}/audit-{k}", ["audit", "--input", path, "--trials", "200",
                                                "--grid-points", "5", "--seed", str(seed)]))
    return plan


def typecmp_ell_plan(seed: int, out_dir: str) -> list:
    """(name, argv) of the `typecmp-ell` calls, with their inputs written under out_dir."""
    g = np.random.default_rng([seed, 2])
    rows = g.standard_normal((120, 12))
    unit = workloads.write_csv(os.path.join(out_dir, "unit-rows.csv"),
                               rows / np.linalg.norm(rows, axis=1, keepdims=True))
    plan = [(f"{TYPECMP_ELL}/typecmp-{norm}", ["typecmp", "--input", unit, "--norm", norm,
                                               "--delta-grid", "0.25,0.5", "--trials", "200",
                                               "--seed", str(seed)])
            for norm in ("2", "sup")]
    bounded = workloads.write_csv(os.path.join(out_dir, "class.csv"),
                                  np.round(g.uniform(-1.0, 1.0, (16, 8)), 6))
    for name, extra in (("k-within-kmax", ["--k", "2", "--eps", "0.5", "--kmax", "3"]),
                        ("k-above-kmax", ["--k", "3", "--eps", "0.5", "--kmax", "2"]),
                        ("k-alone", ["--k", "3"])):
        plan.append((f"{TYPECMP_ELL}/complexity-{name}",
                     ["complexity", "--input", bounded, "--kind", "both", "--trials", "500",
                      "--seed", str(seed), *extra]))
    return plan


def typecmp_gram_plan(seed: int, out_dir: str) -> list:
    """(name, argv) of the `typecmp-gram` calls, with their inputs written under out_dir."""
    g = np.random.default_rng([seed, 3])
    few = g.standard_normal((24, 64))
    low = g.standard_normal((30, 3)) @ g.standard_normal((3, 30))
    paths = {name: workloads.write_csv(os.path.join(out_dir, f"{name}.csv"),
                                       rows / np.linalg.norm(rows, axis=1, keepdims=True))
             for name, rows in (("24x64", few), ("rank3", low))}
    return [(f"{TYPECMP_GRAM}/typecmp-{name}-{norm}",
             ["typecmp", "--input", paths[name], "--norm", norm, "--trials", "500",
              "--seed", str(seed)])
            for name, norm in (("24x64", "2"), ("rank3", "2"), ("rank3", "sup"))]


def wide_plan(seed: int, out_dir: str) -> list:
    """(name, argv) of the `wide` calls, with their inputs written under out_dir."""
    g = np.random.default_rng([seed, 4])
    wide = workloads.write_csv(os.path.join(out_dir, "class-2x5000.csv"),
                               np.round(g.uniform(-1.0, 1.0, (2, 5000)), 6))
    rows = g.standard_normal((5000, 2))
    tall = workloads.write_csv(os.path.join(out_dir, "rows-5000x2.csv"),
                               rows / np.linalg.norm(rows, axis=1, keepdims=True))
    return [(f"{WIDE}/complexity-2x5000", ["complexity", "--input", wide, "--kind", "both",
                                           "--trials", "2000", "--seed", str(seed)]),
            (f"{WIDE}/typecmp-5000x2-sup", ["typecmp", "--input", tall, "--norm", "sup",
                                            "--delta-grid", "0.001", "--trials", "2000",
                                            "--seed", str(seed)])]


EXTRA_SETS = {MULTICUT: multicut_plan, TYPECMP_ELL: typecmp_ell_plan,
              TYPECMP_GRAM: typecmp_gram_plan, WIDE: wide_plan}


def run_plan(plan_path: str, results_path: str) -> None:
    """Runs every (name, argv) of the plan in this process and saves the reports by name."""
    from coordproj.cli import main

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    report_path = os.path.join(os.path.dirname(plan_path), "report.json")
    results = {}
    for name, argv in plan:
        if os.path.exists(report_path):
            os.remove(report_path)
        code = main([*argv, "--deterministic", "--output", report_path])
        text = None
        if os.path.exists(report_path):
            with open(report_path, encoding="utf-8") as fh:
                text = fh.read()
        results[name] = {"exit": code, "report": text}
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)


def field_diffs(old, new, path: str = "") -> list[str]:
    """The paths at which two parsed JSON values differ, each with its old and new value."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in dict.fromkeys([*old, *new]):
            sub = f"{path}.{key}" if path else key
            if key not in old or key not in new:
                out.append(f"{sub}: {old.get(key, '<absent>')!r} -> {new.get(key, '<absent>')!r}")
            else:
                out += field_diffs(old[key], new[key], sub)
        return out
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return [d for i, (a, b) in enumerate(zip(old, new)) for d in field_diffs(a, b, f"{path}[{i}]")]
    if type(old) is not type(new) or old != new:
        return [f"{path}: {old!r} -> {new!r}"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", nargs="?", help="checkout root of the old tree")
    parser.add_argument("new", nargs="?", help="checkout root of the new tree")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=(*workloads.WORKLOADS, *EXTRA_SETS),
                        help="repeat for several; default: every workload and "
                             f"{' and '.join(EXTRA_SETS)}")
    parser.add_argument("--run-plan", nargs=2, metavar=("PLAN", "RESULTS"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.run_plan:
        run_plan(*args.run_plan)
        return 0
    if args.new is None:
        parser.error("give the old and the new tree")

    trees = [os.path.abspath(t) for t in (args.old, args.new)]
    for tree in trees:
        if not os.path.isdir(os.path.join(tree, "src", "coordproj")):
            parser.error(f"{tree} holds no src/coordproj")
    with tempfile.TemporaryDirectory(prefix="diff_reports_") as tmp:
        plan = []
        for workload in args.workload or (*workloads.WORKLOADS, *EXTRA_SETS):
            inputs = os.path.join(tmp, workload)
            os.mkdir(inputs)
            if workload in EXTRA_SETS:
                plan += EXTRA_SETS[workload](args.seed, inputs)
            else:
                plan += [(f"{workload}/{e.name}", list(e.argv))
                         for e in workloads.build(workload, args.seed, inputs)]
        plan_path = os.path.join(tmp, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        results = []
        for k, tree in enumerate(trees):
            out = os.path.join(tmp, f"results-{k}.json")
            env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
            subprocess.run([sys.executable, os.path.abspath(__file__), "--run-plan", plan_path, out],
                           env=env, check=True)
            with open(out, encoding="utf-8") as fh:
                results.append(json.load(fh))

    differ = schema_only = 0
    for name, _ in plan:
        old, new = results[0][name], results[1][name]
        if old == new:
            print(f"{name}: same")
            continue
        differ += 1
        if old["exit"] == new["exit"] and None not in (old["report"], new["report"]):
            # byte-identical once the old report carries the new schema number
            schemas = [json.loads(r["report"]).get("schema") for r in (old, new)]
            swapped = old["report"].replace(f'"schema": {schemas[0]}', f'"schema": {schemas[1]}', 1)
            schema_only += swapped == new["report"]
        lines = [] if old["exit"] == new["exit"] else [f"exit: {old['exit']} -> {new['exit']}"]
        if None in (old["report"], new["report"]):
            lines.append(f"report: {'written' if old['report'] else 'none'} -> "
                         f"{'written' if new['report'] else 'none'}")
        else:
            lines += field_diffs(json.loads(old["report"]), json.loads(new["report"]))
        print(f"{name}: differs")
        for line in lines or ["same fields, different bytes"]:
            print(f"  {line}")
    print(f"seed {args.seed}: {differ} of {len(plan)} reports differ, "
          f"{schema_only} of them only in the schema number")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
