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
are injective and |F| >= 2^|sigma| is necessary.  At each x a level acts
only through its cut: a value lo and, as hi, the smallest value v with
v - lo >= 2t.  Functions at or below lo are low there, at or above hi
high, in between unusable; sigma is t-shattered iff one cut per point
leaves every pattern a function.  `is_shattered` searches the cuts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    CertificateError,
    CoordinateSubset,
    FunctionClass,
    InputError,
    RngStream,
    SizeCapError,
    _BLOCK_SCALARS,
    banach_norm,
    check_count,
    check_positive,
    sign_patterns,
)

# size caps of the exact searches
_MAX_SIGMA = 5
_MAX_FUNCTIONS = 64
_MAX_POINTS = 20
_MAX_EXACT_DOMINATION = 15
_DEFAULT_MAX_HULL_SIGMA = 4
_LP_FEAS_TOL = 1e-7


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call: only the LP certificates need it."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


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


@functools.cache
def _pattern_table(k: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The 2^k sign patterns, by descending +1 count and stable within it: as
    tuples, as a read-only +-1 table and as read-only codes (bit x set where +1)."""
    pats = _corners(k)
    table = pats[np.argsort(-(pats > 0).sum(axis=1), kind="stable")]
    codes = (table > 0) @ (1 << np.arange(k))
    table.flags.writeable = codes.flags.writeable = False
    return tuple(map(tuple, table.tolist())), table, codes


def _least_carriers(sub: np.ndarray, two_t: float, order: np.ndarray) -> list[int] | None:
    """The least first-carrier vector over the surviving cut choices, or None.

    One cut per column of sub gives each row a code (bit x set where it is
    high at x) or makes it unusable. A choice survives when every code has
    a row; its first-carrier vector lists, for each code in `order`, the
    first row with that code. Choices grow one column at a time, depth
    first, in blocks of at most _BLOCK_SCALARS codes.
    """
    (m, k), half = sub.shape, 1 << (sub.shape[1] - 1)
    s = np.sort(sub, axis=0)
    with np.errstate(over="ignore"):  # an overflowed difference is +-inf and compares right
        gap = s[None] - s[:, None] >= two_t  # gap[i, l, x]: s[l, x] - s[i, x] clears 2t
    top = np.where(gap[:, -1], s[gap.argmax(axis=1), np.arange(k)], np.inf)  # no hi: nothing high
    low, high = sub.T <= s[..., None], sub.T >= top[..., None]  # [i, x, row]: the cut at s[i, x]
    # each side of a point carries half the patterns, each with its own row; and of the
    # values lo sharing one hi keep the largest, whose low side holds theirs
    keep = (low.sum(axis=2) >= half) & (high.sum(axis=2) >= half)
    keep[:-1] &= top[1:] != top[:-1]
    # a code gains bit x where its row is high at x, and becomes -1 (all bits set) where unusable
    dtype = np.min_scalar_type(-(1 << k))
    bits = np.where(high, (1 << np.arange(k))[:, None], np.where(low, 0, -1)).astype(dtype)
    steps = [bits[keep[:, x], x] for x in range(k)]
    best = None
    stack = [(0, np.zeros((1, m), dtype))]
    while stack:
        x, rows = stack.pop()
        block = max(1, _BLOCK_SCALARS // max(1, len(steps[x]) * m))
        if len(rows) > block:
            stack.append((x, rows[block:]))
            rows = rows[:block]
        codes = (rows[:, None] | steps[x]).reshape(-1, m)
        # bin 0 of a code row counts its unusable rows of sub, bin c + 1 its code c
        width = (2 << x) + 1
        bins = codes + (1 + width * np.arange(len(codes)))[:, None]
        counts = np.bincount(bins.ravel(), minlength=width * len(codes)).reshape(-1, width)
        # a code on x + 1 columns still spreads over 2^(k - x - 1) patterns
        alive = (counts[:, 1:] >= 1 << (k - x - 1)).all(axis=1)
        codes, counts = codes[alive], counts[alive]
        if x + 1 < k and len(codes):
            stack.append((x + 1, np.unique(codes, axis=0) if len(codes) > 1 else codes))
        elif len(codes):
            # in a code row sorted stably, code c starts after the unusable rows and codes below c
            starts = np.cumsum(counts, axis=1)[:, order]
            first = np.argsort(codes, 1, kind="stable")[np.arange(len(codes))[:, None], starts]
            least = min(first.tolist())
            best = least if best is None else min(best, least)
    return best


def is_shattered(F: FunctionClass, sigma: CoordinateSubset, t: float) -> ShatterWitness | None:
    """Search for a t-shattering witness of sigma; None when impossible.

    Exact search over the cuts of each point (see the module docstring),
    for |sigma| <= _MAX_SIGMA and at most _MAX_FUNCTIONS functions.
    The witness is the lexicographically least feasible assignment, with
    patterns by descending +1 count and the level midway between the
    assigned high and low values. It is checked by substitution before it
    is returned; CertificateError is raised if it fails.
    """
    t = check_positive(t, "shattering scale")
    if sigma.size == 0:
        raise InputError("EMPTY_SUBSET", "cannot shatter an empty subset")
    if sigma.ambient_n != F.n:
        raise InputError("DIMENSION", "subset and class live on different point counts")
    k, m = sigma.size, F.m
    if k > _MAX_SIGMA or m > _MAX_FUNCTIONS:
        # the cuts of a column: its values that some value clears by 2t
        sub = F.values[:, sigma.zero_based()]
        with np.errstate(over="ignore"):  # an overflowed difference is +inf and compares right
            cost = math.prod(float(np.count_nonzero(u[-1] - u >= 2.0 * t)) for u in map(np.unique, sub.T))
        over = (f"|sigma| = {k} exceeds cap {_MAX_SIGMA}" if k > _MAX_SIGMA
                else f"class size {m} exceeds cap {_MAX_FUNCTIONS}")
        raise SizeCapError(f"{over}; up to {cost:.3g} cut combinations", cost_estimate=cost)
    return _search_cuts(F, sigma, t)


def _search_cuts(F: FunctionClass, sigma: CoordinateSubset, t: float) -> ShatterWitness | None:
    """is_shattered on arguments it has checked, without its size caps."""
    k, m = sigma.size, F.m
    if 2**k > m:
        return None
    sub = F.values[:, sigma.zero_based()]
    pats, table, order = _pattern_table(k)
    first = _least_carriers(sub, 2.0 * t, order)
    if first is None:
        return None
    min_high = np.where(table > 0, sub[first], np.inf).min(axis=0)
    max_low = np.where(table < 0, sub[first], -np.inf).max(axis=0)
    # halves first: the sum of two levels near the float maximum overflows
    level = min_high / 2.0 + max_low / 2.0
    witness = ShatterWitness(sigma, level, dict(zip(pats, first)), scale=t)
    if not verify_witness(F, witness, tol=1e-12):
        raise CertificateError("cut-search witness failed substitution")
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


def vc_dimension(F: FunctionClass, t: float, max_sigma: int | None = None) -> VcResult:
    """Largest t-shattered subset size, by exact level-wise search.

    Subsets of size s+1 are only generated from shattered subsets of size
    s (shattering is hereditary), and a candidate is skipped unless all
    its size-s subsets were shattered.  Because assignments are injective,
    the search never looks past floor(log2 m), nor past max_sigma when
    given.  Classes are capped at _MAX_POINTS points and _MAX_FUNCTIONS
    functions.
    """
    t = check_positive(t, "shattering scale")
    n, m = F.n, F.m
    if n > _MAX_POINTS:
        raise SizeCapError(f"point count {n} exceeds cap {_MAX_POINTS}")
    if m > _MAX_FUNCTIONS:
        raise SizeCapError(f"class size {m} exceeds cap {_MAX_FUNCTIONS}")

    limit = min(n, int(math.floor(math.log2(m))) if m > 1 else 0)
    if max_sigma is not None:
        limit = min(limit, check_count(max_sigma, "max_sigma", 1))

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
                w = _search_cuts(F, CoordinateSubset(cand, n), t)
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
    samples: int = 512,
) -> DominationResult:
    """Largest eps with eps * sum |a_i| <= norm(sum a_i x_i) for all a.

    epsilon_star = min over the l_1 sphere of the norm of the signed
    combination.  Exact mode (sup norm only): one LP per sign orthant,
    2^(count-1) orthants by symmetry, for at most _MAX_EXACT_DOMINATION
    points.  Sampled mode: minimum over `samples` random and some
    structured directions, which only *over*-estimates epsilon_star.

    epsilon_star > 0 iff the points are linearly independent.
    """
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if x.ndim != 2 or x.shape[0] < 1:
        raise InputError("DIMENSION", "need at least one point")
    if not np.all(np.isfinite(x)):
        raise InputError("BAD_INPUT", "points must be finite")
    samples = check_count(samples, "samples", 0)
    count, dim = x.shape
    if np.any(banach_norm(x, norm) > 1.0 + 1e-9):
        raise InputError("BAD_INPUT", "points must lie in the unit ball of the chosen norm")

    if mode == "exact":
        if norm != "sup":
            raise InputError("UNSUPPORTED_NORM", "exact mode supports the sup norm only")
        if count > _MAX_EXACT_DOMINATION:
            raise SizeCapError(
                f"{count} points exceed the exact cap {_MAX_EXACT_DOMINATION} "
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
) -> ShatterWitness | None:
    """t-shattering of sigma by the convex hull of F, by one joint LP.

    Variables: the level h(x) per point, a simplex weight vector per sign
    pattern, and a common margin s which the LP maximizes; sigma is
    shattered at scale t iff the optimal margin reaches t (within
    _LP_FEAS_TOL).  The witness of a reached margin is checked by
    substitution, and CertificateError is raised if it fails.  Raising
    max_sigma past the default is supported but the LP grows as
    2^|sigma| * |F|.
    """
    t = check_positive(t, "shattering scale")
    if sigma.size == 0:
        raise InputError("EMPTY_SUBSET", "cannot shatter an empty subset")
    if sigma.ambient_n != F.n:
        raise InputError("DIMENSION", "subset and class live on different point counts")
    max_sigma = check_count(max_sigma, "max_sigma", 1)
    k = sigma.size
    if k > max_sigma:
        raise SizeCapError(
            f"|sigma| = {k} exceeds hull cap {max_sigma}; LP has 2^{k} * {F.m} weight variables",
            cost_estimate=float(2**k * F.m),
        )
    from scipy import sparse

    m = F.m
    sub = F.values[:, sigma.zero_based()]
    pats, table, _ = _pattern_table(k)
    np_pat = len(pats)
    nvar = k + np_pat * m + 1  # h, w, s
    s_col = nvar - 1

    # row (pattern pi, point x): sign * (h_x - sum_j w_j F_j(x)) + s <= 0
    signs = table.astype(float)
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
    if margin < t - _LP_FEAS_TOL:
        return None

    level = np.array(res.x[:k])
    assignment = {}
    for pi, pat in enumerate(pats):
        w = np.clip(res.x[k + pi * m : k + (pi + 1) * m], 0.0, None)
        assignment[pat] = w / w.sum()
    witness = ShatterWitness(
        sigma=sigma, level=level, assignment=assignment, scale=float(t), margin=margin
    )
    if not verify_witness(F, witness, tol=10.0 * _LP_FEAS_TOL):
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
