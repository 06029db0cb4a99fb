"""Exact scale-sensitive shattering and its linear-programming dual.

A subset sigma is t-shattered by a class F when there is a level function
h on sigma such that every sign pattern eps on sigma is realized by some
member f: f(x) >= h(x) + t where eps_x = +1 and f(x) <= h(x) - t where
eps_x = -1.  Equivalently (eliminating h): an assignment of functions to
the 2^|sigma| patterns such that at every x, the smallest value assigned
on the high side beats the largest value assigned on the low side by 2t.
The midpoint of that gap reconstructs h.

For t > 0 two distinct patterns can never share a function (they disagree
at some x, forcing f(x) both above and below the level), so assignments
are injective and |F| >= 2^|sigma| is necessary.  The backtracking search
below exploits both facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .core import (
    CertificateError,
    CoordinateSubset,
    FunctionClass,
    InputError,
    RngStream,
    SizeCapError,
    banach_norm,
    sign_patterns,
)

_DEFAULT_MAX_SIGMA = 5
_DEFAULT_MAX_FUNCTIONS = 64
_DEFAULT_MAX_POINTS = 20
_DEFAULT_MAX_HULL_SIGMA = 4
_DEFAULT_MAX_EXACT_DOMINATION = 15
_LP_FEAS_TOL = 1e-7


@dataclass(frozen=True)
class ShatterWitness:
    """Certificate of t-shattering.

    `assignment` maps each sign pattern (tuple of +1/-1 ordered like
    sigma.indices) either to a row index of F or, for convex-hull
    shattering, to a weight vector over F's rows.
    """

    sigma: CoordinateSubset
    level: np.ndarray
    assignment: dict
    scale: float
    margin: float | None = None


@dataclass(frozen=True)
class VcResult:
    dimension: int
    witness: ShatterWitness | None


def _corners(k: int) -> np.ndarray:
    # the 2^k sign patterns in lexicographic order, +1 before -1
    return -sign_patterns(k)[:, ::-1]


def _patterns(k: int) -> list[tuple[int, ...]]:
    # descending number of +1 entries; stable within each level
    pats = _corners(k)
    order = np.argsort(-(pats > 0).sum(axis=1), kind="stable")
    return [tuple(p) for p in pats[order].tolist()]


def is_shattered(
    F: FunctionClass,
    sigma: CoordinateSubset,
    t: float,
    max_sigma: int = _DEFAULT_MAX_SIGMA,
    max_functions: int = _DEFAULT_MAX_FUNCTIONS,
) -> ShatterWitness | None:
    """Search for a t-shattering witness of sigma; None when impossible.

    Exact backtracking over pattern-to-function assignments, patterns
    ordered by descending +1 count, pruning on the running per-coordinate
    high/low envelopes. A found witness is checked by substitution before
    it is returned; CertificateError is raised if it fails.
    """
    if t <= 0:
        raise InputError("BAD_INPUT", f"shattering scale must be positive, got {t}")
    if sigma.size == 0:
        raise InputError("EMPTY_SUBSET", "cannot shatter an empty subset")
    if sigma.ambient_n != F.n:
        raise InputError("DIMENSION", "subset and class live on different point counts")
    k = sigma.size
    if k > max_sigma:
        raise SizeCapError(
            f"|sigma| = {k} exceeds cap {max_sigma}; worst case ~ {F.m}^(2^{k}) assignments",
            cost_estimate=F.m ** float(2**k),
        )
    if F.m > max_functions:
        raise SizeCapError(
            f"class size {F.m} exceeds cap {max_functions}",
            cost_estimate=F.m ** float(2**k),
        )

    m = F.m
    if 2**k > m:
        return None
    sub = F.values[:, sigma.zero_based()]
    two_t = 2.0 * t
    # necessary: every coordinate must offer a 2t value gap
    if np.any(sub.max(axis=0) - sub.min(axis=0) < two_t):
        return None

    pats = _patterns(k)
    min_high = [math.inf] * k
    max_low = [-math.inf] * k
    used = [False] * m
    assign = [-1] * len(pats)

    def search(pi: int) -> bool:
        if pi == len(pats):
            return True
        pat = pats[pi]
        for j in range(m):
            if used[j]:
                continue
            row = sub[j]
            touched: list[tuple[int, bool, float]] = []
            ok = True
            for x in range(k):
                val = row[x]
                if pat[x] > 0:
                    if val < min_high[x]:
                        if val - max_low[x] < two_t:
                            ok = False
                            break
                        touched.append((x, True, min_high[x]))
                        min_high[x] = val
                    elif min_high[x] - max_low[x] < two_t:
                        ok = False
                        break
                else:
                    if val > max_low[x]:
                        if min_high[x] - val < two_t:
                            ok = False
                            break
                        touched.append((x, False, max_low[x]))
                        max_low[x] = val
                    elif min_high[x] - max_low[x] < two_t:
                        ok = False
                        break
            if ok:
                used[j] = True
                assign[pi] = j
                if search(pi + 1):
                    return True
                used[j] = False
                assign[pi] = -1
            for x, was_high, old in reversed(touched):
                if was_high:
                    min_high[x] = old
                else:
                    max_low[x] = old
        return False

    if not search(0):
        return None

    # halves first: the sum of two levels near the float maximum overflows
    level = np.array([min_high[x] / 2.0 + max_low[x] / 2.0 for x in range(k)])
    witness = ShatterWitness(
        sigma=sigma,
        level=level,
        assignment={pat: assign[i] for i, pat in enumerate(pats)},
        scale=float(t),
    )
    if not verify_witness(F, witness, tol=1e-12):
        raise CertificateError("backtracking witness failed substitution")
    return witness


def verify_witness(F: FunctionClass, w: ShatterWitness, tol: float = 1e-9) -> bool:
    """Re-check a witness by direct substitution."""
    cols = w.sigma.zero_based()
    for pat, who in w.assignment.items():
        if isinstance(who, (int, np.integer)):
            vals = F.values[int(who), cols]
        else:
            weights = np.asarray(who, dtype=float)
            if np.any(weights < -tol) or abs(weights.sum() - 1.0) > 1e-7:
                return False
            vals = weights @ F.values[:, cols]
        for x, e in enumerate(pat):
            if e > 0 and vals[x] < w.level[x] + w.scale - tol:
                return False
            if e < 0 and vals[x] > w.level[x] - w.scale + tol:
                return False
    return True


def vc_dimension(
    F: FunctionClass,
    t: float,
    max_points: int = _DEFAULT_MAX_POINTS,
    max_functions: int = _DEFAULT_MAX_FUNCTIONS,
    max_sigma: int | None = None,
) -> VcResult:
    """Largest t-shattered subset size, by exact level-wise search.

    Subsets of size s+1 are only generated from shattered subsets of size
    s (shattering is hereditary), and a candidate is skipped unless all
    its size-s subsets were shattered.  Because assignments are injective,
    the search never looks past floor(log2 m).
    """
    if t <= 0:
        raise InputError("BAD_INPUT", f"shattering scale must be positive, got {t}")
    n, m = F.n, F.m
    if n > max_points:
        raise SizeCapError(f"point count {n} exceeds cap {max_points}")
    if m > max_functions:
        raise SizeCapError(f"class size {m} exceeds cap {max_functions}")

    limit = min(n, int(math.floor(math.log2(m))) if m > 1 else 0)
    if max_sigma is not None:
        limit = min(limit, max_sigma)

    best = 0
    best_witness: ShatterWitness | None = None
    current: list[tuple[int, ...]] = [()]
    shattered_prev: set[frozenset] = {frozenset()}

    for size in range(1, limit + 1):
        next_level: list[tuple[int, ...]] = []
        found_witness = None
        for base in current:
            start = base[-1] + 1 if base else 1
            for j in range(start, n + 1):
                cand = base + (j,)
                if size >= 2 and any(
                    frozenset(cand[:i] + cand[i + 1 :]) not in shattered_prev
                    for i in range(size)
                ):
                    continue
                w = is_shattered(
                    F,
                    CoordinateSubset(cand, n),
                    t,
                    max_sigma=size,
                    max_functions=max_functions,
                )
                if w is not None:
                    next_level.append(cand)
                    if found_witness is None:
                        found_witness = w
        if not next_level:
            break
        best = size
        best_witness = found_witness
        shattered_prev = {frozenset(c) for c in next_level}
        current = next_level

    return VcResult(best, best_witness)


@dataclass(frozen=True)
class DominationResult:
    epsilon_star: float
    minimizer: np.ndarray
    method: str


def l1_domination(
    points,
    norm="sup",
    mode: str = "exact",
    rng: RngStream | None = None,
    max_exact: int = _DEFAULT_MAX_EXACT_DOMINATION,
    samples: int = 512,
) -> DominationResult:
    """Largest eps with eps * sum |a_i| <= norm(sum a_i x_i) for all a.

    epsilon_star = min over the l_1 sphere of the norm of the signed
    combination.  Exact mode (sup norm only): one LP per sign orthant,
    2^(count-1) orthants by symmetry.  Sampled mode: minimum over random
    and structured directions, which only *over*-estimates epsilon_star.

    epsilon_star > 0 iff the points are linearly independent.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if x.ndim != 2 or x.shape[0] < 1:
        raise InputError("DIMENSION", "need at least one point")
    if not np.all(np.isfinite(x)):
        raise InputError("BAD_INPUT", "points must be finite")
    count, dim = x.shape
    if np.any(banach_norm(x, norm) > 1.0 + 1e-9):
        raise InputError("BAD_INPUT", "points must lie in the unit ball of the chosen norm")

    if mode == "exact":
        if norm != "sup":
            raise InputError("UNSUPPORTED_NORM", "exact mode supports the sup norm only")
        if count > max_exact:
            raise SizeCapError(
                f"{count} points exceed the exact cap {max_exact} "
                f"(2^{count - 1} sign-orthant LPs)",
                cost_estimate=2.0 ** (count - 1),
            )
        best = math.inf
        best_a = None
        # orthant sign vectors, the first sign fixed to +1 by symmetry
        orthants = np.hstack([np.ones((1 << (count - 1), 1)), -sign_patterns(count - 1)])
        # variables: (a_1..a_count, tau); minimize tau
        c = np.zeros(count + 1)
        c[-1] = 1.0
        a_ub = np.zeros((2 * dim, count + 1))
        a_ub[:dim, :count] = x.T
        a_ub[dim:, :count] = -x.T
        a_ub[:, -1] = -1.0
        b_ub = np.zeros(2 * dim)
        for signs in orthants:
            bounds = [(0, None) if s > 0 else (None, 0) for s in signs]
            bounds.append((0, None))
            a_eq = np.concatenate([signs, [0.0]])[None, :]
            res = linprog(
                c,
                A_ub=a_ub,
                b_ub=b_ub,
                A_eq=a_eq,
                b_eq=[1.0],
                bounds=bounds,
                method="highs",
            )
            if res.status != 0:
                raise CertificateError(f"orthant LP failed with status {res.status}")
            if res.fun < best:
                best = res.fun
                best_a = res.x[:count]
        a = best_a / np.abs(best_a).sum()
        return DominationResult(float(best), a, "exact-lp")

    if mode != "sampled":
        raise InputError("BAD_INPUT", f"mode must be 'exact' or 'sampled', got {mode}")
    # coordinate vectors, the corners of the l_1 sphere's orthants, random points
    dirs = [np.eye(count)]
    if count <= 12:
        dirs.append(_corners(count) / count)
    gen = (rng or RngStream(0)).generator()
    g = gen.standard_normal((samples, count))
    g /= np.abs(g).sum(axis=1, keepdims=True)
    dirs = np.vstack(dirs + [g])
    vals = banach_norm(dirs @ x, norm)
    i = int(np.argmin(vals))
    return DominationResult(float(vals[i]), dirs[i], "sampled")


def vc_convex_hull(
    F: FunctionClass,
    sigma: CoordinateSubset,
    t: float,
    max_sigma: int = _DEFAULT_MAX_HULL_SIGMA,
    feas_tol: float = _LP_FEAS_TOL,
) -> ShatterWitness | None:
    """t-shattering of sigma by the convex hull of F, by one joint LP.

    Variables: the level h(x) per point, a simplex weight vector per sign
    pattern, and a common margin s which the LP maximizes; sigma is
    shattered at scale t iff the optimal margin reaches t (within
    feas_tol).  The witness of a reached margin is checked by
    substitution, and CertificateError is raised if it fails.  Raising
    max_sigma past the default is supported but the LP grows as
    2^|sigma| * |F|.
    """
    if t <= 0:
        raise InputError("BAD_INPUT", f"shattering scale must be positive, got {t}")
    if sigma.size == 0:
        raise InputError("EMPTY_SUBSET", "cannot shatter an empty subset")
    if sigma.ambient_n != F.n:
        raise InputError("DIMENSION", "subset and class live on different point counts")
    k = sigma.size
    if k > max_sigma:
        raise SizeCapError(
            f"|sigma| = {k} exceeds hull cap {max_sigma}; LP has 2^{k} * {F.m} weight variables",
            cost_estimate=float(2**k * F.m),
        )

    m = F.m
    sub = F.values[:, sigma.zero_based()]
    pats = _patterns(k)
    np_pat = len(pats)
    nvar = k + np_pat * m + 1  # h, w, s
    s_col = nvar - 1

    # row (pattern pi, point x): sign * (h_x - sum_j w_j F_j(x)) + s <= 0
    signs = np.array(pats, dtype=float)
    a_ub = sparse.hstack([
        sparse.diags(signs.ravel()) @ sparse.kron(np.ones((np_pat, 1)), sparse.eye(k)),
        sparse.block_diag([-row[:, None] * sub.T for row in signs]),
        np.ones((np_pat * k, 1)),
    ]).tocsr()
    b_ub = np.zeros(np_pat * k)
    # one simplex per pattern: its weights sum to 1
    a_eq = sparse.hstack([
        sparse.csr_matrix((np_pat, k)),
        sparse.kron(sparse.eye(np_pat), np.ones((1, m))),
        sparse.csr_matrix((np_pat, 1)),
    ]).tocsr()
    b_eq = np.ones(np_pat)

    c = np.zeros(nvar)
    c[s_col] = -1.0  # maximize margin
    bounds = [(None, None)] * k + [(0, None)] * (np_pat * m) + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        raise CertificateError(f"hull shattering LP failed with status {res.status}")

    margin = float(res.x[s_col])
    if margin < t - feas_tol:
        return None

    level = np.array(res.x[:k])
    assignment = {}
    for pi, pat in enumerate(pats):
        w = np.clip(res.x[k + pi * m : k + (pi + 1) * m], 0.0, None)
        assignment[pat] = w / w.sum()
    witness = ShatterWitness(
        sigma=sigma, level=level, assignment=assignment, scale=float(t), margin=margin
    )
    if not verify_witness(F, witness, tol=10.0 * feas_tol):
        raise CertificateError(f"hull LP witness at margin {margin!r} failed substitution")
    return witness


def dual_ball_class(points) -> FunctionClass:
    """Signed coordinate functionals {+/- e_j} evaluated at the given points.

    For points in the unit ball of the sup norm this realizes the cross-
    polytope ball as a function class on the points: row j is e_j, row
    dim+j is -e_j, so the convex hull of the rows is the full unit l_1
    ball acting by inner products.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    table = np.vstack([x.T, -x.T])
    return FunctionClass(table)
