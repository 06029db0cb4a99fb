"""Runs one benchmark workload against the coordproj sources in ./src.

Usage, from the root of a checkout:

    python3 bench/run.py --workload jl --seed 1 --seconds 25 --trace 0

The run makes its inputs from --seed, then repeats whole rounds of the
workload's experiments, each an in-process call of coordproj.cli.main, until
the rounds have taken --seconds. Between rounds it starts the set-up probes,
spread over the run, and times a fixed pure-Python reference loop. Every
report is checked. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
(--trace 0) or the per-layer metrics of a traced run (--trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import checks
import workloads
from tracing import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5


def reference_loop_ms() -> float:
    """A fixed pure-Python loop: a figure for the machine's speed, not a metric."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return 1000.0 * (time.perf_counter() - start)


def setup_probe(plan: str) -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports coordproj.cli and runs the warm-ups."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "probe.py"), plan],
                          capture_output=True, text=True, timeout=150, cwd=ROOT)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return wall, json.loads(proc.stdout.splitlines()[-1])["import_s"]


def verify(experiment, text: str) -> str | None:
    """None when the report passes its check, else what is wrong."""
    try:
        experiment.check(json.loads(text), experiment.data)
    except checks.CheckFailed as exc:
        return str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {exc!r}"
    return None


def run(spec: dict, workload: str, seed: int, seconds: float, traced: bool,
        work_dir: str) -> dict:
    from coordproj import cli

    experiments = workloads.build(workload, seed, work_dir)
    plan = workloads.write_warmup_plan(experiments, work_dir)
    outputs = [os.path.join(work_dir, e.name + ".json") for e in experiments]
    argvs = [list(e.argv) + ["--deterministic", "--output", out]
             for e, out in zip(experiments, outputs)]
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()

    setup_s, import_s, reference_ms, latencies = [], [], [], []
    verdicts: dict[str, tuple[str, str | None]] = {}
    unexpected: dict[str, str] = {}
    rounds = failed = 0
    loop_s = 0.0
    while loop_s < seconds or len(setup_s) < SETUP_PROBES:
        if len(setup_s) < SETUP_PROBES and loop_s >= len(setup_s) * seconds / SETUP_PROBES:
            wall, imported = setup_probe(plan)
            setup_s.append(wall)
            import_s.append(imported)
            continue
        reference_ms.append(reference_loop_ms())
        codes = []
        round_start = time.perf_counter()
        for argv in argvs:
            if tracer:
                tracer.begin_experiment()
            start = time.perf_counter()
            codes.append(cli.main(argv))
            latencies.append(time.perf_counter() - start)
        loop_s += time.perf_counter() - round_start
        rounds += 1

        for experiment, out, code in zip(experiments, outputs, codes):
            if code != 0:
                error = f"exit code {code}"
            else:
                with open(out, encoding="utf-8") as fh:
                    text = fh.read()
                seen = verdicts.get(experiment.name)
                if seen is None or seen[0] != text:
                    seen = verdicts[experiment.name] = (text, verify(experiment, text))
                error = seen[1]
            if error is not None:
                failed += 1
                if experiment.known_fault is None:
                    unexpected.setdefault(experiment.name, error)

    if tracer:
        tracer.uninstall()
    attempted = rounds * len(experiments)
    for name, error in unexpected.items():
        print(f"FAILED {name}: {error}", file=sys.stderr)
    print(f"# workload={workload} seed={seed} rounds={rounds} attempted={attempted} "
          f"failed={failed} loop_s={loop_s:.3f} experiments_per_s={attempted / loop_s:.4f} "
          f"reference_loop_ms={statistics.median(reference_ms):.3f}")

    if tracer:
        metrics = tracer.metrics(spec["per_layer"], rounds, statistics.median(import_s))
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "experiments_per_s": attempted / loop_s,
            "latency_ms.p50": 1000.0 * statistics.median(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": not unexpected, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "coordproj", "cli.py")):
        print(f"coordproj sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    # a stopped run still removes its inputs and reports
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        result = run(spec, args.workload, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
