"""Minor page faults, CPU time and peak-RSS steps of a benchmark workload's calls, in process.

From the root of a checkout:

    python3 scripts/memory_profile.py --workload montecarlo --seed 1 --rounds 15 [--tree OLD]

Writes the workload's inputs for the seed (`bench/workloads.py` of this
checkout) to a temporary directory, then calls `coordproj.cli.main` on every
experiment, with `--deterministic`, once per round for --rounds rounds in
this one process, as `bench/run.py` does. The calls run against the `src/`
of --tree, a checkout root (default: this checkout). Around each call it
reads `resource.getrusage`: minor page faults (`ru_minflt`), CPU time (user
plus system) and the peak resident set (`ru_maxrss`).

For each experiment it prints the faults of its first call, the median
faults and CPU milliseconds of its later calls, and the peak-RSS step, the
sum over all its calls of how far each raised the process's peak. Then it
prints the faults and CPU milliseconds of the first round, the median and
range over the later rounds, and the process's final peak RSS. Nothing
under `bench/` is written.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402


def usage() -> tuple[int, float, int]:
    """(minor faults, CPU seconds, peak RSS in kB) of this process so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_minflt, ru.ru_utime + ru.ru_stime, ru.ru_maxrss


def profile(workload: str, seed: int, rounds: int, work_dir: str) -> None:
    from coordproj.cli import main

    experiments = workloads.build(workload, seed, work_dir)
    argvs = [[*e.argv, "--deterministic", "--output", os.path.join(work_dir, e.name + ".json")]
             for e in experiments]
    # per experiment, one (faults, cpu_s, rss_step_kb) per round
    calls = {e.name: [] for e in experiments}
    for _ in range(rounds):
        for e, argv in zip(experiments, argvs):
            before = usage()
            code = main(argv)
            after = usage()
            if code != 0:
                raise SystemExit(f"{e.name} exited {code}")
            calls[e.name].append(tuple(a - b for a, b in zip(after, before)))

    print(f"# workload={workload} seed={seed} rounds={rounds}")
    print(f"{'experiment':<16} {'faults_first':>12} {'faults_later':>12} "
          f"{'cpu_ms_later':>12} {'rss_step_mb':>11}")
    for name, rows in calls.items():
        later = rows[1:] or rows
        print(f"{name:<16} {rows[0][0]:>12} {statistics.median(r[0] for r in later):>12g} "
              f"{1000.0 * statistics.median(r[1] for r in later):>12.1f} "
              f"{sum(r[2] for r in rows) / 1024.0:>11.2f}")
    per_round = [(sum(rows[i][0] for rows in calls.values()),
                  1000.0 * sum(rows[i][1] for rows in calls.values())) for i in range(rounds)]
    later = per_round[1:] or per_round
    faults = [f for f, _ in later]
    cpu = [c for _, c in later]
    print(f"round 1: {per_round[0][0]} faults, {per_round[0][1]:.0f} ms CPU")
    print(f"rounds 2-{rounds}: faults median {statistics.median(faults):g} "
          f"(range {min(faults)}-{max(faults)}), CPU ms median {statistics.median(cpu):.0f} "
          f"(range {min(cpu):.0f}-{max(cpu):.0f})")
    print(f"peak_rss_mb {usage()[2] / 1024.0:.2f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--tree", default=ROOT, help="checkout root whose src/ is profiled")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    src = os.path.join(os.path.abspath(args.tree), "src")
    if not os.path.isdir(os.path.join(src, "coordproj")):
        parser.error(f"{args.tree} holds no src/coordproj")
    sys.path.insert(0, src)
    with tempfile.TemporaryDirectory(prefix="memory_profile_") as tmp:
        profile(args.workload, args.seed, args.rounds, tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
