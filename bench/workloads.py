"""The benchmark's workloads: inputs made from a seed, and the experiments run on them.

A workload is a fixed list of experiments. Each experiment is one call of
the coordproj command line on a CSV file written here, plus the check its
report must pass. The seed changes the inputs and the seeds handed to the
program, never the shapes or the number of experiments, so every run of a
workload does the same amount of work.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

# Two fixed +-1 classes of 16 functions on 8 points, both of VC dimension 3.
# The run seed only permutes their rows: the cost of the exact searches
# depends on the class, and fresh random classes vary it by more than 2x.
_BASE_CLASS_SEEDS = (0, 1)

# psi spikes: scales psi_norm gets right, and the ends of the float range,
# where its absolute bisection tolerance gives a wrong value
_SPIKE_SCALES = (1.0, 1e8)
_FAULT_SCALES = (1e-300, 1e-12, 5e307)
_PSI_FAULT = ("psi_norm bisects to an absolute tolerance from an unnormalized bracket: "
              "the 1e-300 and 1e-12 spikes are far off and 5e307 gives inf")


@dataclass(frozen=True)
class Experiment:
    """One CLI call (`argv`, without --output) on input `data`, and its check."""

    name: str
    argv: tuple
    data: np.ndarray
    check: Callable[[dict, np.ndarray], None]
    known_fault: str | None = None


def write_csv(path: str, data: np.ndarray) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.atleast_2d(data):
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")
    return path


class _Builder:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.experiments: list[Experiment] = []

    def add(self, name, command, data, check, *args, known_fault=None):
        path = write_csv(os.path.join(self.out_dir, name + ".csv"), data)
        argv = (command, "--input", path) + tuple(str(a) for a in args)
        self.experiments.append(Experiment(name, argv, data, check, known_fault))


def hadamard(n: int) -> np.ndarray:
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def _signed_permutation(g: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    """Rows shuffled and each multiplied by a random sign."""
    signs = g.choice([-1.0, 1.0], size=(rows.shape[0], 1))
    return signs * rows[g.permutation(rows.shape[0])]


def _spike_rows(scales: tuple, n: int) -> np.ndarray:
    rows = np.zeros((len(scales), n))
    rows[:, 0] = scales
    return rows


def _psi_spikes(b: _Builder, n: int) -> None:
    b.add(f"psi-spike-{n}", "psi", _spike_rows(_SPIKE_SCALES, n), checks.check_psi, "--p", 2)
    b.add(f"psi-fault-{n}", "psi", _spike_rows(_FAULT_SCALES, n), checks.check_psi, "--p", 2,
          known_fault=_PSI_FAULT)


def _cli_seeds(g: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in g.integers(0, 2**31 - 1, size=count)]


def _jl(b: _Builder, g: np.random.Generator) -> None:
    # scaled_basis(128) is the inner call of fit_jl_constant: almost all psi
    # bisection. 16 unit vectors in R^1024 are mostly Haar QR and its check.
    eps = 0.25
    basis = math.sqrt(128) * np.eye(128)
    unit = g.standard_normal((16, 1024))
    unit /= np.sqrt(np.mean(unit**2, axis=1, keepdims=True))
    seeds = _cli_seeds(g, 6)
    jl_basis = functools.partial(checks.check_jl, eps=eps, scaled_basis=True)
    jl_unit = functools.partial(checks.check_jl, eps=eps, scaled_basis=False)
    _psi_spikes(b, 2)
    for k, seed in enumerate(seeds):
        if k in (1, 4):
            b.add(f"jl-unit1024-{k}", "jl", unit, jl_unit, "--eps", eps, "--seed", seed)
        else:
            b.add(f"jl-basis128-{k}", "jl", basis, jl_basis, "--eps", eps, "--seed", seed)
    _psi_spikes(b, 1024)


def _montecarlo(b: _Builder, g: np.random.Generator) -> None:
    # equal weights on a random support keep the exact binomial tail in play;
    # t = 0.1525 keeps t delta n + delta s at least 0.05 away from an integer
    delta, t, trials = 0.3, 0.1525, 100_000
    check_project = functools.partial(checks.check_project, delta=delta, t=t, trials=trials)
    seeds = iter(_cli_seeds(g, 7))

    def project(k):
        w = np.zeros(200)
        w[g.choice(200, size=int(g.integers(150, 201)), replace=False)] = 1.0
        b.add(f"project-{k}", "project", w[None, :], check_project, "--delta", delta, "--t", t,
              "--trials", trials, "--seed", next(seeds))

    for k in range(2):
        project(k)
        bounded = np.round(g.uniform(-1.0, 1.0, size=(16, 8)), 6)
        b.add(f"complexity-{k}", "complexity", bounded, checks.check_complexity, "--kind", "both",
              "--k", 3, "--eps", 0.5, "--kmax", 4, "--trials", 2000, "--seed", next(seeds))
        b.add(f"typecmp-{k}", "typecmp", _signed_permutation(g, np.eye(256)), checks.check_typecmp,
              "--norm", 2, "--delta-grid", "0.05,0.1,0.2", "--trials", 2000,
              "--seed", next(seeds))
    project(2)


def _exact(b: _Builder, g: np.random.Generator) -> None:
    seeds = _cli_seeds(g, 2)
    for k, base_seed in enumerate(_BASE_CLASS_SEEDS):
        base = np.random.default_rng(base_seed).choice([-1.0, 1.0], size=(16, 8))
        cls = base[g.permutation(16)]
        b.add(f"shatter-{k}", "shatter", cls, checks.check_shatter, "--t", 0.5)
        b.add(f"entropy-{k}", "entropy", cls, checks.check_entropy,
              "--t-grid", "0.3,0.75,0.95", "--c-assumed", 0.25)
        b.add(f"audit-{k}", "audit", cls, checks.check_audit, "--trials", 2000,
              "--grid-points", 5, "--seed", seeds[k])
    b.add("hull-4", "hull", _signed_permutation(g, hadamard(4)), checks.check_hull, "--t", 0.4)
    b.add("hull-8", "hull", _signed_permutation(g, hadamard(8)), checks.check_hull, "--t", 0.3,
          "--max-sigma", 8)


_BUILDERS = {"jl": (1, _jl), "montecarlo": (2, _montecarlo), "exact": (3, _exact)}
WORKLOADS = tuple(_BUILDERS)

# One small call of each subcommand a workload runs, made by every set-up probe.
_SIGN4 = np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
_WARMUPS = {
    "psi": (np.array([[1.0, 0.0]]), ()),
    "jl": (2.0 * np.eye(4), ("--eps", 0.5)),
    "project": (np.ones((1, 4)), ("--delta", 0.5, "--t", 0.5, "--trials", 100)),
    "complexity": (_SIGN4, ("--kind", "both", "--k", 1, "--eps", 0.5, "--kmax", 1,
                            "--trials", 100)),
    "typecmp": (np.eye(4), ("--delta-grid", 0.5, "--trials", 100)),
    "shatter": (_SIGN4, ("--t", 0.5)),
    "entropy": (_SIGN4, ("--t-grid", 0.5)),
    "audit": (_SIGN4, ("--trials", 100, "--grid-points", 2)),
    "hull": (hadamard(2), ("--t", 0.3)),
}


def build(workload: str, seed: int, out_dir: str) -> list[Experiment]:
    """Writes the workload's inputs for `seed` under out_dir and lists its experiments."""
    stream, fill = _BUILDERS[workload]
    b = _Builder(out_dir)
    fill(b, np.random.default_rng([stream, seed % 2**64]))
    return b.experiments


def write_warmup_plan(experiments: list[Experiment], out_dir: str) -> str:
    """Writes the warm-up calls for the subcommands in `experiments`; returns the plan file."""
    calls = []
    for command in dict.fromkeys(e.argv[0] for e in experiments):
        data, args = _WARMUPS[command]
        path = write_csv(os.path.join(out_dir, f"warmup-{command}.csv"), data)
        calls.append([command, "--input", path, *map(str, args), "--deterministic",
                      "--output", os.path.join(out_dir, f"warmup-{command}.json")])
    plan = os.path.join(out_dir, "warmup.json")
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump(calls, fh)
    return plan
