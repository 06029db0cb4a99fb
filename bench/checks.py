"""Independent checks of coordproj CLI reports.

Each checker takes a parsed report and the input the benchmark wrote, and
raises CheckFailed when the report disagrees with a computation made here,
apart from the program, or breaks a property the method must have. None of
them compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class CheckFailed(Exception):
    """A report disagrees with the benchmark's own computation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(got: float, want: float, rel: float, what: str) -> None:
    _require(math.isfinite(got) and abs(got - want) <= rel * abs(want),
             f"{what}: got {got!r}, want {want!r} (rel tol {rel:g})")


# ------------------------------------------------------------------ psi

def spike_psi(peak: float, n: int, p: float = 2.0) -> float:
    """psi_p norm of a vector on n points with one nonzero value `peak`.

    mean exp(|f|^p / lam^p) = e reduces to (exp(peak^p / lam^p) + n - 1) / n
    = e, so lam = peak / ln(n (e - 1) + 1)^(1/p).
    """
    return abs(peak) / math.log(n * (math.e - 1.0) + 1.0) ** (1.0 / p)


def check_psi(report: dict, data: np.ndarray) -> None:
    res = report["results"]
    p = float(res["p"])
    rows = res["rows"]
    _require(len(rows) == data.shape[0], "psi: one row per input vector")
    for row, vec in zip(rows, data):
        nz = np.flatnonzero(vec)
        _require(nz.size == 1, "psi: the benchmark only feeds spike rows")
        want = spike_psi(float(vec[nz[0]]), vec.size, p)
        _close(float(row["psi"]), want, 1e-8, f"psi of spike {vec[nz[0]]:g} on {vec.size} points")


# ------------------------------------------------------------------- jl

def check_jl(report: dict, data: np.ndarray, eps: float, scaled_basis: bool) -> None:
    res = report["results"]
    count, n = data.shape
    ratios = np.asarray(res["ratios"], dtype=float)
    _require(ratios.size == count, "jl: one ratio per input vector")
    _require(bool(res["success"]) == (res["max_deviation"] <= eps),
             "jl: success must equal max_deviation <= eps")
    _close(float(res["max_deviation"]), float(np.abs(ratios - 1.0).max()), 1e-12,
           "jl: max_deviation from the ratios")
    _require(res["sigma_size"] == len(res["sigma"]), "jl: sigma_size is the length of sigma")

    psi2 = float(res["psi2_max"])
    # Jensen gives psi_2 >= the L_2 norm (1); a spike of the same L_2 norm is the largest
    upper = math.sqrt(n / math.log(n * (math.e - 1.0) + 1.0))
    _require(1.0 - 1e-9 <= psi2 <= upper * (1.0 + 1e-9),
             f"jl: psi2_max {psi2!r} outside [1, {upper!r}]")
    target = math.ceil((float(res["c_fit"]) * psi2 / eps) ** 2 * math.log(n))
    _require(res["target_cardinality"] == min(target, n),
             f"jl: target_cardinality {res['target_cardinality']} != {min(target, n)}")

    if scaled_basis and ratios.size:
        # rows of an orthogonal matrix are unit vectors, so the squared ratios
        # of the scaled basis average to exactly 1 on any nonempty subset
        _require(res["sigma_size"] > 0, "jl: empty subset on the scaled basis")
        _close(float(np.mean(ratios**2)), 1.0, 1e-9, "jl: mean squared ratio on the scaled basis")


# -------------------------------------------------------------- project

def binomial_tail(s: int, p: float, k0: int) -> float:
    """P{Bin(s, p) >= k0}, summed term by term."""
    return sum(math.comb(s, k) * p**k * (1.0 - p) ** (s - k) for k in range(max(k0, 0), s + 1))


def check_project(report: dict, data: np.ndarray, delta: float, t: float, trials: int) -> None:
    rows = report["results"]["rows"]
    _require(len(rows) == data.shape[0], "project: one row per weight vector")
    for row, w in zip(rows, data):
        nz = w[w != 0.0]
        _require(nz.size > 0 and np.all(nz == nz[0]) and nz[0] > 0,
                 "project: the benchmark only feeds equal positive weights")
        _require(0.0 <= row["success_prob"] <= 1.0, "project: success_prob is a probability")
        tail = row["tail"]
        # Z = h (Bin(s, delta) - delta s) exceeds tau = t delta n iff Bin > tau / h + delta s
        s, h = int(nz.size), float(nz[0])
        k0 = math.floor(t * delta * w.size / h + delta * s) + 1
        exact = binomial_tail(s, delta, k0)
        emp = float(tail["empirical_prob"])
        se = math.sqrt(exact * (1.0 - exact) / trials)
        _require(abs(emp - exact) <= 5.0 * se,
                 f"project: empirical tail {emp!r} is more than 5 standard errors from {exact!r}")
        _require(tail["exact_prob"] is not None, "project: exact tail missing for equal weights")
        _close(float(tail["exact_prob"]), exact, 1e-9, "project: exact tail probability")
        _require(float(tail["chernoff_bound"]) >= exact * (1.0 - 1e-12),
                 f"project: Chernoff bound {tail['chernoff_bound']!r} below the exact tail {exact!r}")
        _require(float(tail["two_sided_prob"]) >= emp, "project: two-sided tail below one-sided")


# ----------------------------------------------------------- complexity

def exact_rademacher(values: np.ndarray) -> float:
    """E sup_f |sum_i eps_i f(i)| over all 2^n sign vectors."""
    n = values.shape[1]
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    return float(np.abs(signs @ values.T).max(axis=1).mean())


def check_complexity(report: dict, data: np.ndarray) -> None:
    rad = report["results"]["rademacher"]
    want = exact_rademacher(data)
    got, se = float(rad["mean"]), float(rad["std_error"])
    _require(se > 0.0 and abs(got - want) <= 5.0 * se,
             f"complexity: Rademacher mean {got!r} is more than 5 standard errors from {want!r}")


# -------------------------------------------------------------- typecmp

def gaussian_norm_mean(n: int) -> float:
    """E ||g||_2 for a standard Gaussian vector in R^n."""
    return math.sqrt(2.0) * math.exp(math.lgamma((n + 1) / 2.0) - math.lgamma(n / 2.0))


def check_typecmp(report: dict, data: np.ndarray) -> None:
    res = report["results"]
    n = data.shape[0]
    _require(np.allclose(data @ data.T, np.eye(n), atol=1e-12),
             "typecmp: the benchmark only feeds orthonormal vectors")
    want = gaussian_norm_mean(data.shape[1])
    got, se = float(res["gaussian_mean"]), float(res["gaussian_std_error"])
    _require(se > 0.0 and abs(got - want) <= 5.0 * se,
             f"typecmp: Gaussian mean {got!r} is more than 5 standard errors from {want!r}")
    for row in res["rows"]:
        # any signed sum of k orthonormal vectors has norm sqrt(k)
        _close(float(row["m_emp"]), 1.0, 1e-12, f"typecmp: m_emp at lambda {row['lambda']}")
        _close(float(row["c_emp"]), got / (row["m_emp"] * math.sqrt(n / row["lambda"])), 1e-12,
               f"typecmp: c_emp at lambda {row['lambda']}")


# ----------------------------------------------------------- shattering

def sign_vc_dimension(values: np.ndarray) -> int:
    """Classical VC dimension of the sign patterns of a +-1 table."""
    m, n = values.shape
    plus = values > 0
    best = 0
    for k in range(1, n + 1):
        if 2**k > m:
            break
        if not any(len({tuple(r) for r in plus[:, list(cols)]}) == 2**k
                   for cols in itertools.combinations(range(n), k)):
            break
        best = k
    return best


def check_witness(witness: dict, table: np.ndarray, t: float, tol: float) -> None:
    """Substitutes a witness into the class table (rows are functions)."""
    cols = [i - 1 for i in witness["sigma"]]
    levels = np.asarray(witness["levels"], dtype=float)
    k = len(cols)
    _require(levels.size == k, "witness: one level per point")
    patterns = [entry["pattern"] for entry in witness["assignment"]]
    _require(len(set(patterns)) == 2**k and all(len(p) == k for p in patterns),
             "witness: every sign pattern appears once")
    for entry in witness["assignment"]:
        if "function" in entry:
            vals = table[entry["function"] - 1, cols]
        else:
            w = np.asarray(entry["weights"], dtype=float)
            _require(bool(np.all(w >= -tol)) and abs(w.sum() - 1.0) <= 1e-7,
                     "witness: hull weights must lie on the simplex")
            vals = w @ table[:, cols]
        for x, sign in enumerate(entry["pattern"]):
            if sign == "+":
                _require(vals[x] >= levels[x] + t - tol,
                         f"witness: pattern {entry['pattern']} is not realized at point {cols[x] + 1}")
            else:
                _require(vals[x] <= levels[x] - t + tol,
                         f"witness: pattern {entry['pattern']} is not realized at point {cols[x] + 1}")


def check_shatter(report: dict, data: np.ndarray) -> None:
    res = report["results"]
    want = sign_vc_dimension(data)
    _require(res["dimension"] == want, f"shatter: dimension {res['dimension']} != brute force {want}")
    if want == 0:
        _require(res["witness"] is None, "shatter: a witness for dimension 0")
        return
    _require(len(res["witness"]["sigma"]) == want, "shatter: witness size != dimension")
    check_witness(res["witness"], data, float(res["t"]), 1e-12)


def covering_number(values: np.ndarray, t: float) -> int:
    """Smallest internal cover by closed normalized-L_2 balls of radius t."""
    m = values.shape[0]
    d = np.sqrt(((values[:, None, :] - values[None, :, :]) ** 2).mean(axis=2))
    balls = [sum(1 << j for j in range(m) if d[i, j] <= t) for i in range(m)]
    full = (1 << m) - 1

    def cover(uncovered: int, budget: int) -> bool:
        if uncovered == 0:
            return True
        if budget == 0:
            return False
        first = (uncovered & -uncovered).bit_length() - 1
        return any(cover(uncovered & ~balls[i], budget - 1)
                   for i in range(m) if balls[i] >> first & 1)

    k = 1
    while not cover(full, k):
        k += 1
    return k


def check_entropy(report: dict, data: np.ndarray) -> None:
    res = report["results"]
    vc = sign_vc_dimension(data)
    c = float(res["c_assumed"])
    k_fit = 0.0
    for row in res["rows"]:
        t = float(row["t"])
        _require(0.0 < c * t <= 1.0, "entropy: scales must keep c t in (0, 1]")
        _require(row["vc"] == vc, f"entropy: vc {row['vc']} at t {t} != brute force {vc}")
        want = covering_number(data, t)
        _require(row["covering_is_exact"] and row["covering"] == want,
                 f"entropy: covering {row['covering']} at t {t} != brute force {want}")
        _close(float(row["log_covering"]), math.log(want), 1e-12, "entropy: log covering")
        if vc:
            term = math.log(want) / (vc * math.log(2.0 / t))
            _close(float(row["term"]), term, 1e-12, f"entropy: term at t {t}")
            k_fit = max(k_fit, term)
    vcs = [row["vc"] for row in sorted(res["rows"], key=lambda r: r["t"])]
    _require(all(a >= b for a, b in zip(vcs, vcs[1:])), "entropy: vc increases with t")
    got = float(report["fitted_constants"][0]["value"])
    _require(abs(got - k_fit) <= 1e-12 * max(1.0, k_fit), f"entropy: K {got!r} != {k_fit!r}")


def check_audit(report: dict, data: np.ndarray) -> None:
    res = report["results"]
    grid = [float(t) for t in res["grid"]]
    curve = [int(v) for v in res["vc_curve"]]
    _require(len(grid) == len(curve) >= 2, "audit: one vc value per grid point")
    _require(all(b > a for a, b in zip(grid, grid[1:])) and 0.0 < grid[0] and grid[-1] <= 1.0,
             "audit: grid must increase inside (0, 1]")
    _require(all(a >= b for a, b in zip(curve, curve[1:])), "audit: vc_curve increases")
    vc = sign_vc_dimension(data)
    _require(all(v == vc for v in curve), f"audit: vc_curve {curve} != brute force {vc}")

    integral = 0.0
    for (t0, v0), (t1, v1) in zip(zip(grid, curve), zip(grid[1:], curve[1:])):
        integral += 0.5 * (t1 - t0) * (math.sqrt(v0 * math.log(2.0 / t0))
                                       + math.sqrt(v1 * math.log(2.0 / t1)))
    _close(float(res["integral"]), integral, 1e-12, "audit: integral")
    n = data.shape[1]
    _close(float(report["fitted_constants"][0]["value"]),
           float(res["e_mean"]) / (math.sqrt(n) * integral), 1e-12, "audit: K")
    # E sup_f |<g, f>| lies between max_f E|<g, f>| and E ||g||_2 max_f ||f||_2
    norms = np.sqrt((data**2).sum(axis=1))
    e = float(res["e_mean"])
    _require(0.9 * math.sqrt(2.0 / math.pi) * norms.max() <= e
             <= 1.1 * gaussian_norm_mean(n) * norms.max(),
             f"audit: Gaussian average {e!r} outside its a-priori bounds")


# ----------------------------------------------------------------- hull

def check_hull(report: dict, data: np.ndarray) -> None:
    res = report["results"]
    count = data.shape[0]
    _require(res["agreement"] is True, "hull: the LP views disagree")
    a = np.asarray(res["minimizer"], dtype=float)
    eps_star = float(res["epsilon_star"])
    _close(float(np.abs(a).sum()), 1.0, 1e-9, "hull: l1 norm of the minimizer")
    _close(float(np.abs(a @ data).max()), eps_star, 1e-7, "hull: sup norm at the minimizer")
    # for orthogonal +-1 points, |H a|_inf >= |H a|_2 / sqrt(n) = |a|_2 >= |a|_1 / sqrt(n)
    _require(eps_star >= 1.0 / math.sqrt(count) - 1e-9,
             f"hull: epsilon_star {eps_star!r} below 1/sqrt({count})")
    if res["hull_shattered"]:
        # the dual-ball class: row j is +e_j and row dim + j is -e_j, read at the points
        table = np.vstack([data.T, -data.T])
        check_witness(res["hull_witness"], table, float(res["t"]), 1e-6)
