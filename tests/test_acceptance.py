"""End-to-end checks pinning the library's headline guarantees.

Each test carries its own wall-clock budget so regressions in the exact
solvers or the Monte-Carlo loops surface as failures here, not just as
slow CI.  Statistical assertions use fixed seeds and tolerances sized
from the binomial or delta-method standard error of the quantity under
test.
"""

import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from coordproj.complexity import (
    entropy_integral_audit,
    min_sign_norm,
    type_infratype_report,
)
from coordproj.core import CoordinateSubset, FunctionClass, RngStream
from coordproj.entropy import (
    covering_estimate,
    entropy_inequality_audit,
    packing_number,
)
from coordproj.orlicz import psi_norm
from coordproj.rotation import DEFAULT_JL_CONSTANT, coordinate_jl, scaled_basis
from coordproj.selector import selector_experiment
from coordproj.shatter import (
    dual_ball_class,
    l1_domination,
    vc_convex_hull,
    vc_dimension,
    verify_witness,
)

HALF_NORMAL = math.sqrt(2.0 / math.pi)


def hadamard(n: int) -> np.ndarray:
    h = np.array([[1.0]])
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def test_spike_psi2_closed_form():
    # a unit spike solves (exp(1/lam^2) + n - 1) / n = e in closed form
    start = time.perf_counter()
    for n in (2, 4, 16, 64, 256):
        spike = np.zeros(n)
        spike[0] = 1.0
        expected = math.log(n * (math.e - 1.0) + 1.0) ** -0.5
        assert abs(psi_norm(spike, 2.0).value - expected) <= 1e-8
    assert time.perf_counter() - start < 1.0


def test_sphere_psi2_bound():
    # every Euclidean-unit vector has psi_2 at most sqrt(2 / ln n)
    start = time.perf_counter()
    failures = 0
    for n in (4, 16, 64):
        bound = math.sqrt(2.0 / math.log(n))
        gen = RngStream(81, n).generator()
        for _ in range(1000):
            v = gen.standard_normal(n)
            v /= np.linalg.norm(v)
            if psi_norm(v, 2.0).value > bound + 1e-9:
                failures += 1
    assert failures == 0
    assert time.perf_counter() - start < 5.0


def test_selector_tail_certificates():
    # flat weights admit an exact binomial tail; the Monte-Carlo rate,
    # the Chernoff certificate, and the fitted constant all line up
    start = time.perf_counter()
    trials = 100000
    fitted = []
    for j, (delta, t) in enumerate([(d, t) for d in (0.1, 0.3) for t in (0.25, 0.5)]):
        _, rep = selector_experiment(np.ones(100), delta, 0.25, trials, RngStream(900, j), t=t)
        se = math.sqrt(rep.exact_prob * (1.0 - rep.exact_prob) / trials)
        assert abs(rep.empirical_prob - rep.exact_prob) <= 3.0 * se
        assert rep.exact_prob <= rep.chernoff_bound + 1e-12
        assert rep.fitted_c is not None
        fitted.append(rep.fitted_c)
    assert all(0.01 <= c <= 10.0 for c in fitted)
    assert time.perf_counter() - start < 30.0


def test_coordinate_jl_success_rate():
    # the documented fitted constant keeps at least half the seeds within
    # the distortion target on the scaled coordinate basis
    start = time.perf_counter()
    assert DEFAULT_JL_CONSTANT == 0.5
    basis = scaled_basis(128)
    eps = 0.25
    successes = 0
    for i in range(50):
        rep = coordinate_jl(basis, eps, RngStream(1000 + i))
        if rep.max_deviation <= eps:
            successes += 1
    assert successes >= 25
    assert time.perf_counter() - start < 60.0


def test_hull_shattering_matches_domination():
    # the joint LP and the orthant LPs decide the same threshold on
    # random point sets in the sup-norm ball
    start = time.perf_counter()
    rng = RngStream(930).generator()
    for _ in range(50):
        count = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 7))
        x = rng.uniform(-1.0, 1.0, size=(count, dim))
        eps = l1_domination(x, norm="sup", mode="exact").epsilon_star
        F = dual_ball_class(x)
        sigma = CoordinateSubset.full(count)
        t = float(rng.uniform(0.05, 1.0))
        if abs(t - eps) <= 1e-6:
            t += 1e-3
        shattered = vc_convex_hull(F, sigma, t, max_sigma=count) is not None
        assert shattered == (eps >= t - 1e-7)
        if eps > 1e-3:
            assert vc_convex_hull(F, sigma, 0.9 * eps, max_sigma=count) is not None
            high = 1.1 * eps
            if high <= 1.0:
                assert vc_convex_hull(F, sigma, high, max_sigma=count) is None
    assert time.perf_counter() - start < 30.0


def test_basis_hull_sharpness():
    # the coordinate-vector class itself has logarithmic dimension, but
    # its symmetric hull shatters the Hadamard points at scale 1/sqrt(n)
    start = time.perf_counter()
    for n in (2, 4, 8):
        ident = FunctionClass(np.eye(n))
        assert vc_dimension(ident, 0.25).dimension <= math.log2(n)
        points = hadamard(n)
        F = dual_ball_class(points)
        w = vc_convex_hull(F, CoordinateSubset.full(n), 1.0 / math.sqrt(n), max_sigma=n)
        assert w is not None
        assert verify_witness(F, w, tol=1e-6)
    assert time.perf_counter() - start < 60.0


def test_entropy_audit_suite():
    # thirty random sign classes: the fitted constant stays finite,
    # bounded, and stable, and the exact packing/covering sandwich holds
    start = time.perf_counter()
    grid = (0.3, 0.5, 0.7)
    constants = []
    for i in range(30):
        gen = RngStream(910, i).generator()
        m = int(gen.integers(2, 17))
        n = int(gen.integers(2, 11))
        F = FunctionClass(gen.choice([-1.0, 1.0], size=(m, n)))
        audit = entropy_inequality_audit(F, grid, c_assumed=0.25)
        k = audit.constant.value
        assert math.isfinite(k) and 0.0 < k <= 100.0
        constants.append(k)
        for t in grid:
            n_t = covering_estimate(F, t).exact_covering
            assert packing_number(F, 2.0 * t).exact_packing <= n_t
            assert n_t <= packing_number(F, t).exact_packing
    assert max(constants) / min(constants) <= 3.0
    assert time.perf_counter() - start < 120.0


def test_gaussian_integral_audit_suite():
    # random classes keep the fitted constant under 10, and the full sign
    # class on 4 points reproduces its closed-form value within the
    # propagated Monte-Carlo error
    start = time.perf_counter()
    for i in range(20):
        gen = RngStream(920, i).generator()
        m = int(gen.integers(4, 17))
        n = int(gen.integers(4, 9))
        F = FunctionClass(gen.choice([-1.0, 1.0], size=(m, n)))
        audit = entropy_integral_audit(F, trials=1000, rng=RngStream(921, i))
        assert math.isfinite(audit.constant.value)
        assert audit.constant.value <= 10.0

    n = 4
    rows = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    F = FunctionClass(rows, bounded_by_one=True)
    audit = entropy_integral_audit(F, trials=4000, rng=RngStream(500))
    assert audit.vc_curve == (4,) * 17
    e_star = n * HALF_NORMAL
    integrand = lambda t: 2.0 * math.sqrt(math.log(2.0 / t))
    i_star, _ = quad(integrand, e_star / n, 1.0)
    k_star = e_star / (math.sqrt(n) * i_star)
    # delta method through the ratio and the moving lower limit
    dkde = (1.0 / (math.sqrt(n) * audit.integral)
            + audit.e_mean * integrand(audit.grid[0])
            / (n * math.sqrt(n) * audit.integral ** 2))
    assert abs(audit.constant.value - k_star) <= 2.0 * dkde * audit.e_std_error
    assert time.perf_counter() - start < 60.0


def test_type_comparison_desk_scale():
    # the coordinate basis in l_2^256: Gaussian mean tracks sqrt(n) via
    # the chi mean, sign minima are exact at every size, and the
    # heuristic balancer never undercuts the exhaustive optimum
    start = time.perf_counter()
    n = 256
    rep = type_infratype_report(np.eye(n), norm=2.0, delta_grid=(0.1,),
                                trials=2000, rng=RngStream(940),
                                subsets_per_size=4)
    assert abs(rep.gaussian_mean / math.sqrt(n) - 1.0) <= 0.02
    assert rep.rows[0].m_emp == pytest.approx(1.0, abs=1e-12)

    full = min_sign_norm(np.eye(n), norm=2.0, mode="heuristic", rng=RngStream(941))
    assert full.value == 16.0
    exact24 = min_sign_norm(np.eye(24), norm=2.0, mode="exact")
    assert exact24.value == pytest.approx(math.sqrt(24.0), abs=1e-12)

    equal = 0
    for i in range(100):
        gen = RngStream(51, i).generator()
        vecs = gen.standard_normal((12, 6))
        ex = min_sign_norm(vecs, mode="exact")
        he = min_sign_norm(vecs, mode="heuristic", rng=RngStream(52, i))
        assert he.value >= ex.value - 1e-9
        if abs(he.value - ex.value) <= 1e-9:
            equal += 1
    assert equal >= 50, f"heuristic matched the optimum on only {equal}/100 instances"
    assert time.perf_counter() - start < 60.0


def test_cli_determinism(tmp_path):
    # repeated invocations with a fixed seed emit byte-identical
    # reports, through the real process entry point
    start = time.perf_counter()
    basis = np.sqrt(32.0) * np.eye(32)
    path = tmp_path / "basis.csv"
    with open(path, "w", encoding="utf-8") as fh:
        for row in basis:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    commands = [
        ["jl", "--input", str(path), "--eps", "0.3", "--seed", "7",
         "--deterministic"],
        ["complexity", "--input", str(path), "--trials", "300", "--seed", "7",
         "--eps", "2.0", "--kmax", "2", "--deterministic"],
    ]
    for argv in commands:
        runs = [
            subprocess.run([sys.executable, "-m", "coordproj", *argv],
                           capture_output=True, check=True)
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout.startswith(b"{")
    assert time.perf_counter() - start < 60.0
