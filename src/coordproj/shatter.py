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
leaves every pattern a function.

A point's cuts depend on the point and t only (`_scale_cuts` builds them
for many points at once, in one padded table), and the one cut search,
`_least_carriers`, reads nothing else. It decides a stack of same-size
subsets at once, gathered from one table: `is_shattered` asks with a stack
of one, and `vc_dimensions` builds every point's cuts once per scale and
decides each round of its bisections with one stack per scale.  A decision
keeps its first-carrier vector, and a witness is built from it and
certified by its gaps (`_gaps_clear`) only for a subset reported.
"""

from __future__ import annotations

import functools
import itertools
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
    as_table,
    banach_norm,
    check_count,
    check_in_unit_ball,
    check_positive,
    sign_patterns,
    unit_peak,
)

# size caps of the exact searches
_MAX_FUNCTIONS = 64
_MAX_POINTS = 20
_MAX_EXACT_DOMINATION = 15
_DEFAULT_MAX_HULL_SIGMA = 4
_LP_FEAS_TOL = 1e-7
_VERTEX_TOL = 1e-9


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


def _clears(high, low, t: float):
    """high - low >= 2t elementwise, the one float test of a gap. An overflowed difference is
    +inf and compares right; where 2t overflows, halves are compared with t instead, and
    halving is exact on the large values that can span such a gap."""
    if math.isinf(2.0 * t):
        return high / 2.0 - low / 2.0 >= t
    with np.errstate(over="ignore"):
        return high - low >= 2.0 * t


def _scale_cuts(F: FunctionClass, t: float, cols) -> tuple[np.ndarray, np.ndarray]:
    """The cuts at scale t that can carry a pattern, of the points `cols` (zero-based), in one
    padded table: row states (points, cuts, m), 1 where a function is high, 0 low and -1
    unusable, and each cut's count of functions on its smaller side (points, cuts), 0 past a
    point's last cut. A point's cuts, in order of lo, depend on the point and t only."""
    v = F.values[:, cols].T
    s = np.sort(v, axis=1)
    gap = _clears(s[:, None], s[:, :, None], t)  # gap[x, i, l]: s[x, l] - s[x, i] clears 2t
    top = np.where(gap[:, :, -1], np.take_along_axis(s, gap.argmax(axis=2), 1), np.inf)
    # [x, i, row]: the cut at lo = s[x, i]
    low, high = v[:, None] <= s[:, :, None], v[:, None] >= top[:, :, None]
    side = np.minimum(low.sum(axis=2), high.sum(axis=2))
    # of the values lo sharing one hi keep the largest, whose low side holds theirs
    keep = side > 0
    keep[:, :-1] &= top[:, 1:] != top[:, :-1]
    state = np.where(high, 1, low.astype(np.int8) - 1).astype(np.int8)
    kept = np.argsort(~keep, axis=1, kind="stable")[:, : keep.sum(axis=1).max(initial=0)]
    return np.take_along_axis(state, kept[:, :, None], 1), np.take_along_axis(side * keep, kept, 1)


def _least_carriers(cuts: tuple, subsets) -> list:
    """Each subset's least first-carrier vector over its surviving cut choices, or None.

    `cuts` is a padded cut table (_scale_cuts) and `subsets` a stack of
    same-size subsets, each a row of zero-based points of that table. One
    cut per point gives each function a code (bit x set where it is high at
    the subset's x-th point) or makes it unusable. A choice survives when
    every code has a function; its first-carrier vector lists, for each code
    in _pattern_table order, the first function with that code. The stack
    is cut into blocks whose gathered cuts hold at most _BLOCK_SCALARS
    scalars (at least one subset each), searched by _block_carriers.
    """
    state, side = cuts
    subsets = np.asarray(subsets, dtype=np.intp)
    best = [None] * len(subsets)
    per = max(1, _BLOCK_SCALARS // max(1, subsets.shape[1] * state.shape[1] * state.shape[2]))
    for lo in range(0, len(subsets), per):
        for i, first in _block_carriers(state, side, subsets[lo : lo + per]).items():
            best[lo + i] = first
    return best


def _block_carriers(state: np.ndarray, side: np.ndarray, pts: np.ndarray) -> dict:
    """{subset's place in pts: its least first-carrier vector} for the subsets that have one.

    Each subset's points with one usable cut set their bits at once; then
    every subset extends its choices one point at a time, fewest cuts first,
    all subsets in lockstep and depth first, each row of choices carrying its
    subset's id, in blocks of at most _BLOCK_SCALARS expanded scalars.
    """
    k, m = pts.shape[1], state.shape[2]
    # each side of a point carries half the patterns, each with its own function
    usable = side[pts] >= 1 << (k - 1)
    live = np.flatnonzero(usable.any(axis=2).all(axis=1))
    if not len(live):
        return {}
    ncut = usable[live].sum(axis=2)
    seq = np.argsort(ncut, axis=1, kind="stable")  # a subset's points, fewest cuts first
    ncut = np.take_along_axis(ncut, seq, 1)
    pick = np.argsort(~usable[live], axis=2, kind="stable")[:, :, : ncut.max()]
    pick = np.take_along_axis(pick, seq[:, :, None], 1)
    # a code gains bit x where its function is high at x, and is negative where unusable
    # (-1 once clipped); steps[s, j, c] is cut c of subset s's j-th point in seq
    dtype = np.min_scalar_type(-(1 << k))
    steps = state[np.take_along_axis(pts[live], seq, 1)[:, :, None], pick].astype(dtype)
    steps <<= seq[:, :, None, None].astype(dtype)
    forced = (ncut == 1).sum(axis=1)
    unset = np.zeros((len(live), k + 1), np.int64)  # [s, j]: the bits not set once j are done
    unset[:, :k] = np.cumsum((1 << seq)[:, ::-1], axis=1)[:, ::-1]
    codes, order, width = np.arange(1 << k), _pattern_table(k)[2], (1 << k) + 1
    best = (np.zeros(0, np.intp), np.zeros((0, 1 << k), np.intp))  # (subset, vector) so far
    stack = []

    def settle(rows, sid, done, depth):
        nonlocal best
        # bin 0 of a code row counts its unusable functions, bin c + 1 its code c
        bins = rows + (1 + width * np.arange(len(rows)))[:, None]
        counts = np.bincount(bins.ravel(), minlength=width * len(rows)).reshape(-1, width)
        # a code on the points done still spreads over 2^(k - done) patterns
        need = np.where(codes & unset[sid, done][:, None] == 0, 1 << (k - done)[:, None], 0)
        alive = (counts[:, 1:] >= need).all(axis=1)
        end = alive & (done == k)
        if end.any():
            # in a code row sorted stably, code c starts after the unusable functions and
            # the codes below c
            starts = np.cumsum(counts[end], axis=1)[:, order]
            first = np.argsort(rows[end], 1, kind="stable")[np.arange(len(starts))[:, None], starts]
            sid_all, first_all = np.concatenate((best[0], sid[end])), np.vstack((best[1], first))
            # each subset keeps its lexicographically least vector
            i = np.lexsort((*first_all.T[::-1], sid_all))
            i = i[np.r_[True, sid_all[i][1:] != sid_all[i][:-1]]]
            best = sid_all[i], first_all[i]
        more = alive & (done < k)
        if more.any():
            both = np.unique(np.column_stack((sid[more], rows[more])), axis=0)
            stack.append((depth, both[:, 1:].astype(dtype), both[:, 0]))

    rows = np.where((np.arange(k) < forced[:, None])[:, :, None], steps[:, :, 0], 0)
    settle(np.maximum(np.bitwise_or.reduce(rows, axis=1), -1), np.arange(len(live)), forced, 0)
    while stack:
        depth, rows, sid = stack.pop()
        done = forced[sid] + depth
        reps = ncut[sid, done]
        # expand at most _BLOCK_SCALARS scalars (at least one row) and put the rest back
        ends = np.cumsum(reps)
        cut = max(1, int(np.searchsorted(ends, _BLOCK_SCALARS // m, side="right")))
        if cut < len(rows):
            stack.append((depth, rows[cut:], sid[cut:]))
        rows, sid, done, reps, ends = rows[:cut], sid[:cut], done[:cut], reps[:cut], ends[:cut]
        src = np.repeat(np.arange(cut), reps)
        nth = np.arange(len(src)) - np.repeat(ends - reps, reps)
        sid, done = sid[src], done[src]
        settle(np.maximum(rows[src] | steps[sid, done, nth], -1), sid, done + 1, depth + 1)
    return {int(live[s]): first for s, first in zip(best[0].tolist(), best[1].tolist())}


def is_shattered(F: FunctionClass, sigma: CoordinateSubset, t: float) -> ShatterWitness | None:
    """Search for a t-shattering witness of sigma; None when impossible.

    Exact search over the cuts of each point (see the module docstring), a
    stack of one for _least_carriers, for at most _MAX_FUNCTIONS functions;
    a sigma with 2^|sigma| > m is refused before any search.
    The witness is the lexicographically least feasible assignment, with
    patterns by descending +1 count and the level midway between the
    assigned high and low values. It is certified by its gaps (_gaps_clear),
    with no tolerance; CertificateError is raised if one falls short.
    """
    t = check_positive(t, "shattering scale")
    if sigma.size == 0:
        raise InputError("EMPTY_SUBSET", "cannot shatter an empty subset")
    if sigma.ambient_n != F.n:
        raise InputError("DIMENSION", "subset and class live on different point counts")
    if F.m > _MAX_FUNCTIONS:
        # the cuts of a column: its values that some value clears by 2t
        sub = F.values[:, sigma.zero_based()]
        cost = math.prod(float(np.count_nonzero(_clears(u[-1], u, t))) for u in map(np.unique, sub.T))
        raise SizeCapError(f"class size {F.m} exceeds cap {_MAX_FUNCTIONS};"
                           f" up to {cost:.3g} cut combinations", cost_estimate=cost)
    return _search_cuts(F, sigma, t)


def _search_cuts(F: FunctionClass, sigma: CoordinateSubset, t: float) -> ShatterWitness | None:
    """is_shattered on arguments it has checked, without its size cap."""
    if 2**sigma.size > F.m:
        return None
    cuts = _scale_cuts(F, t, sigma.zero_based())
    first = _least_carriers(cuts, [range(sigma.size)])[0]
    return None if first is None else _carrier_witness(F, sigma, t, first)


def _carrier_witness(F: FunctionClass, sigma: CoordinateSubset, t: float, first: list[int]):
    """The ShatterWitness of a first-carrier vector of sigma at scale t, certified by its gaps."""
    sub = F.values[:, sigma.zero_based()]
    pats, table, _ = _pattern_table(sigma.size)
    min_high = np.where(table > 0, sub[first], np.inf).min(axis=0)
    max_low = np.where(table < 0, sub[first], -np.inf).max(axis=0)
    if not _gaps_clear(min_high, max_low, t):
        raise CertificateError("cut-search witness: an assigned gap falls short of 2t")
    # halves first: the sum of two levels near the float maximum overflows
    level = min_high / 2.0 + max_low / 2.0
    return ShatterWitness(sigma, level, dict(zip(pats, first)), scale=t)


def _gaps_clear(min_high: np.ndarray, max_low: np.ndarray, t: float) -> bool:
    """The cut search's certificate: its own gap test (_clears) at every point, which a
    correct assignment passes at every scale because float subtraction is monotone."""
    return bool(_clears(min_high, max_low, t).all())


def verify_witness(F: FunctionClass, w: ShatterWitness, tol: float = 1e-9) -> bool:
    """Re-check a witness by direct substitution, all patterns at once.

    The assignment holds row indices throughout, or weight vectors
    throughout; weights must be at least -tol and sum to within 1e-7 of 1.
    """
    cols = w.sigma.zero_based()
    who = list(w.assignment.values())
    if all(isinstance(v, (int, np.integer)) for v in who):
        vals = F.values[who][:, cols]
    else:
        weights = np.asarray(who, dtype=float)
        if np.any(weights < -tol) or np.any(np.abs(weights.sum(axis=1) - 1.0) > 1e-7):
            return False
        vals = weights @ F.values[:, cols]
    high = np.array(list(w.assignment)) > 0
    return not np.where(high, vals < w.level + w.scale - tol, vals > w.level - w.scale + tol).any()


def vc_dimensions(F: FunctionClass, scales, max_sigma: int | None = None) -> tuple[VcResult, ...]:
    """Largest t-shattered subset size at each scale t, by one level-wise search.

    Shattering is hereditary and survives a smaller scale, so a subset is
    shattered at a prefix of the sorted scales, its height.  A subset of
    size s+1 is tried only below the least height of its size-s subsets:
    at the largest such scale, the smallest, then by bisection, never twice
    at one scale.  The bisections of all candidates of one size run in
    lockstep: each round, the candidates that query one scale are decided
    in one _least_carriers stack.  Sizes stop at floor(log2 m) (assignments
    are injective) and at max_sigma.  Every point's cuts are built once per
    scale and shared by every subset decided there.  A decision keeps its
    first-carrier vector, keyed by its points' cut tables, so a subset is
    not searched again at a scale where its points' cuts are those of a
    scale already decided.  A scale's witness is that of its
    lexicographically least largest subset, built from the kept vector and
    certified by its gaps, the same bits as is_shattered gives; no other
    subset gets a witness.  Caps: _MAX_POINTS points, _MAX_FUNCTIONS
    functions.
    """
    scales = [check_positive(t, "shattering scale") for t in scales]
    n, m = F.n, F.m
    if n > _MAX_POINTS:
        raise SizeCapError(f"point count {n} exceeds cap {_MAX_POINTS}")
    if m > _MAX_FUNCTIONS:
        raise SizeCapError(f"class size {m} exceeds cap {_MAX_FUNCTIONS}")

    limit = min(n, int(math.floor(math.log2(m))) if m > 1 else 0)
    if max_sigma is not None:
        limit = min(limit, check_count(max_sigma, "max_sigma", 1))

    grid = sorted(set(scales))
    tables, firsts, kept = {}, {}, {}

    def decide(i, cands):
        """The kept first-carrier vector, or None, of each candidate at scale grid[i]; those
        with no decision under their key are decided in one stack."""
        if i not in tables:
            state, side = cuts = _scale_cuts(F, grid[i], np.arange(n))
            # a point's tag: the first scale that built its cuts as they are at grid[i]
            width = (side > 0).sum(axis=1).tolist()
            tags = [firsts.setdefault((x, state[x, :c].tobytes(), side[x, :c].tobytes()), i)
                    for x, c in enumerate(width)]
            tables[i] = cuts, tags
        cuts, tags = tables[i]
        keys = [(cand, tuple(tags[x - 1] for x in cand)) for cand in cands]
        new = [key for key in keys if key not in kept]
        if new:
            kept.update(zip(new, _least_carriers(cuts, np.array([c for c, _ in new]) - 1)))
        return [kept[key] for key in keys]

    best = [()] * len(grid)  # per scale, the least subset of the largest size
    heights = {(): len(grid)}
    for size in range(1, limit + 1):
        cands = [base + (j,) for base in heights for j in range(base[-1] + 1 if base else 1, n + 1)]
        cap = np.array([min(heights.get(c[:i] + c[i + 1 :], 0) for i in range(size))
                        for c in cands], dtype=int)
        lo, hi = np.zeros_like(cap), cap.copy()  # shattered below lo, not from hi on
        while (open_ := np.flatnonzero(lo < hi)).size:
            # every open bisection takes its next scale; each scale is decided in one call
            at = np.where(hi == cap, hi - 1, np.where(lo == 0, 0, (lo + hi) // 2))[open_]
            for i in sorted(set(at.tolist())):
                q = open_[at == i]
                yes = np.array([f is not None for f in decide(i, [cands[c] for c in q])])
                lo[q], hi[q] = np.where(yes, i + 1, lo[q]), np.where(yes, hi[q], i)
        grown = {c: h for c, h in zip(cands, lo.tolist()) if h}
        if not grown:
            break
        for cand, height in reversed(grown.items()):
            best[:height] = [cand] * height
        heights = grown

    results = [VcResult(len(s), _carrier_witness(F, CoordinateSubset(s, n), grid[i],
                                                 decide(i, [s])[0]) if s else None)
               for i, s in enumerate(best)]
    return tuple(results[grid.index(t)] for t in scales)


def vc_dimension(F: FunctionClass, t: float, max_sigma: int | None = None) -> VcResult:
    """Largest t-shattered subset size: the one-scale case of vc_dimensions."""
    return vc_dimensions(F, (t,), max_sigma)[0]


@dataclass(frozen=True)
class DominationResult:
    epsilon_star: float
    minimizer: np.ndarray
    method: str


def l1_domination(
    points,
    norm="sup",
    rng: RngStream | None = None,
    samples: int = 512,
) -> DominationResult:
    """Largest eps with eps * sum |a_i| <= norm(sum a_i x_i) for all a.

    epsilon_star = min over the l_1 sphere of the norm of the signed
    combination.  The input picks one of four paths, named in `method`:

    - "exact-rank": dependent points (see _null_vector) give 0, the true
      value under any norm, and a null vector as minimizer.  No LP runs.
    - "exact-vertex": independent points under the sup norm, at most
      _MAX_EXACT_DOMINATION of them, while _vertex_fits.  Then
      epsilon_star = 1 / max{|a|_1 : |x^T a| <= 1}, and a convex maximum
      over a polytope sits at a vertex (Avis and Fukuda, DCG 1992); see
      _vertex_domination.
    - "exact-lp": the same points past the vertex gate, one LP per sign
      orthant, 2^(c-1) of them for c points.
    - "sampled": every other input, that is independent points under a
      p-norm or more than _MAX_EXACT_DOMINATION of them.  The minimum over
      `samples` random and structured directions, which only
      *over*-estimates epsilon_star.

    Every exact path raises CertificateError if, at the unit peak
    (core.unit_peak), its minimizer misses the value by more than
    10 * _LP_FEAS_TOL.

    epsilon_star > 0 iff the points are linearly independent.
    """
    x = as_table(points, "points", promote=True)
    samples = check_count(samples, "samples", 0)
    count, dim = x.shape
    check_in_unit_ball(x, norm, "point")

    # epsilon_star is homogeneous: a unit peak keeps the vertices inside the float range
    unit, e = unit_peak(x)
    a = _null_vector(unit)
    if a is not None:
        method, value = "exact-rank", 0.0
    elif norm == "sup" and count <= _MAX_EXACT_DOMINATION:
        method, solve = (("exact-vertex", _vertex_domination) if _vertex_fits(count, dim)
                         else ("exact-lp", _orthant_domination))
        value, a = solve(unit)
    else:
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
    attained = float(banach_norm(a @ unit, norm))
    if not abs(attained - value) <= 10.0 * _LP_FEAS_TOL:
        raise CertificateError(f"{method} minimizer attains {math.ldexp(attained, e)!r},"
                               f" not {math.ldexp(value, e)!r}")
    return DominationResult(math.ldexp(value, e), a, method)


def _vertex_fits(count: int, dim: int) -> bool:
    """The vertex gate: C(dim, count) * 2^(count-1) * dim, the scalars of the feasibility
    test of every vertex system, is at most _BLOCK_SCALARS."""
    return math.comb(dim, count) * (1 << (count - 1)) * dim <= _BLOCK_SCALARS


def _half_signs(count: int) -> np.ndarray:
    """The 2^(count-1) sign vectors with first sign +1, all +1 first: one of each +-s pair."""
    return np.hstack([np.ones((1 << (count - 1), 1)), -sign_patterns(count - 1)])


def _null_vector(x: np.ndarray) -> np.ndarray | None:
    """An l_1-unit null vector of x^T when the rows of x are dependent; None when independent.

    Dependent means more rows than columns, or a least singular value at
    most count * eps times the largest.  With more rows, the first dim + 1
    already are dependent.
    """
    count, dim = x.shape
    u, s, _ = np.linalg.svd(x[: dim + 1], full_matrices=count > dim)
    if count <= dim and s[-1] > count * np.finfo(float).eps * s[0]:
        return None
    a = np.zeros(count)
    a[: len(u)] = u[:, -1]
    return a / np.abs(a).sum()


def _vertex_blocks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The blocks x[:, J]^T over the count-subsets J of the columns, and the subsets J.

    A block singular relative to its own scale is dropped: it has no vertex
    and no basic solution.
    """
    count, dim = x.shape
    cols = np.array(list(itertools.combinations(range(dim), count)))
    blocks = x.T[cols]
    sv = np.linalg.svd(blocks, compute_uv=False)
    keep = sv[:, -1] > count * np.finfo(float).eps * sv[:, 0]
    return blocks[keep], cols[keep]


def _vertex_domination(x: np.ndarray) -> tuple[float, np.ndarray]:
    """(epsilon_star, minimizer) from the vertices of {a : |x^T a| <= 1}, x of full row rank.

    Every vertex solves x[:, J]^T a = s for c = count columns J and signs s
    with s_1 = +1; one batched solve over _vertex_blocks gives them all, and
    the first feasible one of largest |a|_1 wins.  A solved vertex may
    exceed a constraint by its rounding, up to _VERTEX_TOL.
    CertificateError if no candidate is feasible.
    """
    count = x.shape[0]
    blocks, _ = _vertex_blocks(x)
    a = np.linalg.solve(blocks, _half_signs(count).T).transpose(0, 2, 1).reshape(-1, count)
    feasible = banach_norm(a @ x, "sup") <= 1.0 + _VERTEX_TOL
    if not feasible.any():
        raise CertificateError(f"none of the {len(a)} vertex candidates is feasible")
    size = np.where(feasible, np.abs(a).sum(axis=1), -np.inf)
    i = int(np.argmax(size))
    return 1.0 / size[i], a[i] / size[i]


def _orthant_domination(x: np.ndarray) -> tuple[float, np.ndarray]:
    """(epsilon_star, minimizer) by one LP per sign orthant of a, the first sign fixed to +1."""
    count, dim = x.shape
    best = math.inf
    best_a = None
    # variables: (a_1..a_count, tau); minimize tau
    c = np.zeros(count + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * dim, count + 1))
    a_ub[:dim, :count] = x.T
    a_ub[dim:, :count] = -x.T
    a_ub[:, -1] = -1.0
    b_ub = np.zeros(2 * dim)
    for signs in _half_signs(count):
        bounds = [(0, None) if s > 0 else (None, 0) for s in signs]
        bounds.append((0, None))
        a_eq = np.concatenate([signs, [0.0]])[None, :]
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=bounds, method="highs")
        if res.status != 0:
            raise CertificateError(f"orthant LP failed with status {res.status}")
        if res.fun < best:
            best = res.fun
            best_a = res.x[:count]
    return float(best), best_a / np.abs(best_a).sum()


def vc_convex_hull(
    F: FunctionClass,
    sigma: CoordinateSubset,
    t: float,
    max_sigma: int = _DEFAULT_MAX_HULL_SIGMA,
) -> ShatterWitness | None:
    """t-shattering of sigma by the convex hull of F: in closed form, else by one joint LP.

    Both paths take F's columns on sigma at a unit peak (core.unit_peak),
    find the largest margin at which conv F shatters sigma, with its level
    and one weight vector per sign pattern, and scale margin and level back
    by the same power of two:

    - Closed form (_symmetric_hull), when the rows equal their negations as
      a multiset and the blocks pass l1_domination's vertex gate (_vertex_fits):
      level 0, and the margin is epsilon_star of one half of the rows read
      as points.  No LP runs.
    - Otherwise one joint LP (_hull_lp) over a level per point, a simplex
      weight vector per pattern and the margin.

    sigma is shattered at scale t iff the margin reaches t within
    _LP_FEAS_TOL relative to t.  The witness of a reached margin is checked
    by substitution, to within 10 * _LP_FEAS_TOL * t, and CertificateError
    is raised if it fails.  max_sigma caps |sigma|: a witness holds
    2^|sigma| weight vectors over F's rows.
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
            f"|sigma| = {k} exceeds hull cap {max_sigma}; a witness holds 2^{k} weight vectors"
            f" of {F.m}",
            cost_estimate=float(2**k * F.m),
        )
    unit, e = unit_peak(F.values[:, sigma.zero_based()])
    margin, level, weights = _symmetric_hull(unit) or _hull_lp(unit)
    margin = math.ldexp(margin, e)
    if margin < t - _LP_FEAS_TOL * t:
        return None

    assignment = dict(zip(_pattern_table(k)[0], weights))
    witness = ShatterWitness(
        sigma=sigma, level=np.ldexp(level, e), assignment=assignment, scale=float(t), margin=margin
    )
    if not verify_witness(F, witness, tol=10.0 * _LP_FEAS_TOL * t):
        raise CertificateError(f"hull witness at margin {margin!r} failed substitution")
    return witness


def _symmetric_hull(sub: np.ndarray) -> tuple[float, np.ndarray, np.ndarray] | None:
    """(margin, level, weights) of conv F on sub in closed form; None unless sub = -sub.

    For rows equal to their negations as a multiset, level 0 is optimal (a
    witness averaged with its negation is one), and conv F is the l_1 ball
    over one half H of the rows, each paired with its negation and zero rows
    dropped.  So the margin is the largest s with s * eps = X a, |a|_1 <= 1,
    for every pattern eps, where X = H^T: epsilon_star of X's rows.  The
    least |a|_1 with X a = eps is attained at a basic solution, a solve over
    one of the blocks of _vertex_blocks; with L the largest of those least
    norms, the margin is 1 / L.  Pattern eps takes a / L, its positive part
    on the rows of H and its negative part on their negations, and the
    slack to 1 split over one such pair.  Dependent points have margin 0,
    met by equal weights on all rows, whose mean is 0.  None too when the
    blocks are past the vertex gate.
    """
    m, k = sub.shape
    order = np.lexsort(sub.T[::-1])
    s = sub[order]
    # negation reverses the lexicographic order, so row i pairs with row m - 1 - i
    if not np.array_equal(s, -s[::-1]):
        return None
    half = np.flatnonzero(np.any(s[: m // 2] != 0.0, axis=1))
    x = s[half].T
    level = np.zeros(k)
    if len(half) < k or _null_vector(x) is not None:
        return 0.0, level, np.full((1 << k, m), 1.0 / m)
    if not _vertex_fits(k, len(half)):
        return None
    blocks, cols = _vertex_blocks(x)
    if not len(blocks):
        raise CertificateError("no block of the independent hull points is nonsingular")
    table = _pattern_table(k)[1]
    a = np.linalg.solve(blocks.transpose(0, 2, 1), table.T.astype(float))
    size = np.abs(a).sum(axis=1)
    best, pats = size.argmin(axis=0), np.arange(len(table))
    scale = size[best, pats].max()
    w = np.zeros((len(table), len(half)))
    w[pats[:, None], cols[best]] = a[best, :, pats] / scale

    plus, minus = order[half], order[m - 1 - half]
    weights = np.zeros((len(table), m))
    weights[:, plus], weights[:, minus] = np.maximum(w, 0.0), np.maximum(-w, 0.0)
    slack = np.maximum(1.0 - np.abs(w).sum(axis=1), 0.0) / 2.0
    weights[:, plus[0]] += slack
    weights[:, minus[0]] += slack
    return 1.0 / scale, level, weights


def _hull_lp(sub: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(margin, level, weights) of conv F on sub by one joint LP.

    Variables: the level h(x) per point, a simplex weight vector per sign
    pattern, and a common margin s which the LP maximizes; 2^|sigma| * |F|
    weights in all.  CertificateError if HiGHS does not solve it.
    """
    from scipy import sparse

    m, k = sub.shape
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
    weights = np.clip(res.x[k:s_col].reshape(np_pat, m), 0.0, None)
    return float(res.x[s_col]), np.array(res.x[:k]), weights / weights.sum(axis=1, keepdims=True)


def dual_ball_class(points) -> FunctionClass:
    """Signed coordinate functionals {+/- e_j} evaluated at the given points.

    For points in the unit ball of the sup norm this realizes the cross-
    polytope ball as a function class on the points: row j is e_j, row
    dim+j is -e_j, so the convex hull of the rows is the full unit l_1
    ball acting by inner products.
    """
    x = as_table(points, "points", promote=True)
    table = np.vstack([x.T, -x.T])
    return FunctionClass(table)
