"""Monte-Carlo complexity estimates for function classes.

Gaussian and Rademacher averages, the projected-sup parameter ell_k,
the growth threshold t(F, eps), minimum-over-signs vector balancing,
and an entropy-integral audit that ties the Gaussian average of a
bounded class to its shattering dimension profile.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    _BLOCK_SCALARS,
    CoordinateSubset,
    FittedConstant,
    InputError,
    RngStream,
    SizeCapError,
    banach_norm,
    check_count,
    check_positive,
    digest_inputs,
    mean_and_se,
    monte_carlo,
    sign_patterns,
    unit_peak,
)
from .shatter import vc_dimension

_MIN_TRIALS = 100
_EXHAUSTIVE_TUPLE_CAP = 100_000
_ELL_RESTARTS = 4
_EXACT_SIGN_CAP = 24
_SIGN_RESTARTS = 16


@dataclass(frozen=True)
class ComplexityEstimate:
    """Monte-Carlo estimate of a weighted-supremum average."""

    mean: float
    std_error: float
    trials: int
    kind: str
    method: str = "monte-carlo"
    support: Optional[tuple] = None


@dataclass(frozen=True)
class SignMinimumResult:
    """Minimum over sign choices of the norm of a signed vector sum."""

    value: float
    signs: tuple
    method: str


@dataclass(frozen=True)
class TParameterResult:
    """Largest tested cardinality whose ell estimate clears eps * k."""

    value: int
    capped: bool
    epsilon: float
    kind: str
    per_k: tuple = ()


@dataclass(frozen=True)
class TypeComparisonRow:
    lam: float
    subset_size: int
    m_emp: float
    c_emp: float
    min_sign_method: str


@dataclass(frozen=True)
class TypeInfratypeReport:
    """Gaussian average versus subset min-sign bounds for one vector set."""

    n: int
    norm: object
    gaussian_mean: float
    gaussian_std_error: float
    trials: int
    rows: tuple
    flags: tuple = ()


@dataclass(frozen=True)
class EntropyIntegralAudit:
    """Fitted constant relating a Gaussian average to a dimension integral."""

    constant: FittedConstant
    e_mean: float
    e_std_error: float
    trials: int
    grid: tuple
    vc_curve: tuple
    integral: float
    flags: tuple = ()


def _draw_weights(gen, rows, cols, kind):
    if kind == "gaussian":
        return gen.standard_normal((rows, cols))
    if kind == "rademacher":
        return gen.integers(0, 2, size=(rows, cols)).astype(np.float64) * 2.0 - 1.0
    raise InputError("BAD_KIND", f"kind must be gaussian or rademacher, got {kind!r}")


def _sup_average(values, trials, gen, kind):
    """Mean and standard error of sup_f |sum_i w_i f(i)| over random weights."""
    m, k = values.shape
    if k == 0:
        return 0.0, 0.0
    vt = values.T
    total, total_sq = monte_carlo(
        trials, m, lambda rows: np.abs(_draw_weights(gen, rows, k, kind) @ vt).max(axis=1))
    return mean_and_se(total, total_sq, trials)


def _scale_back(e, mean, se):
    """mean and se times 2^e; InputError OVERFLOW when either leaves the float range."""
    try:
        mean, se = math.ldexp(mean, e), math.ldexp(se, e)
    except OverflowError:
        mean = math.inf
    if not (math.isfinite(mean) and math.isfinite(se)):
        raise InputError("OVERFLOW", "the average or its standard error exceeds the float range")
    return mean, se


def _project_columns(F, sigma):
    if sigma is None:
        return F.values
    if not isinstance(sigma, CoordinateSubset):
        raise InputError("BAD_SUBSET", "sigma must be a CoordinateSubset or None")
    if sigma.ambient_n != F.n:
        raise InputError("DIMENSION", f"subset ambient {sigma.ambient_n} != class width {F.n}")
    if sigma.size == 0:
        return F.values[:, :0]
    return F.values[:, list(sigma.zero_based())]


def gaussian_complexity(F, sigma=None, trials=2000, rng=None):
    """Estimates E sup_f |sum_{i in sigma} g_i f(i)| with standard normals.

    Args:
        F: FunctionClass to average over.
        sigma: CoordinateSubset restricting the sum, or None for all coordinates.
        trials: Monte-Carlo sample count, at least 100.
        rng: RngStream supplying the weights.

    Returns:
        ComplexityEstimate with kind "gaussian".
    """
    return _complexity(F, sigma, trials, rng, "gaussian")


def rademacher_complexity(F, sigma=None, trials=2000, rng=None):
    """Same average as gaussian_complexity with uniform +-1 weights."""
    return _complexity(F, sigma, trials, rng, "rademacher")


def _complexity(F, sigma, trials, rng, kind):
    trials = check_count(trials, "trials", _MIN_TRIALS, "BAD_TRIALS")
    if rng is None:
        raise InputError("BAD_RNG", "an RngStream is required")
    # the average is positively homogeneous; at a unit peak no weighted sum or
    # square leaves the float range
    values, e = unit_peak(_project_columns(F, sigma))
    mean, se = _scale_back(e, *_sup_average(values, trials, rng.generator(), kind))
    return ComplexityEstimate(mean=mean, std_error=se, trials=trials, kind=kind)


def _tuple_mean(values, tup, weights):
    cols = values[:, list(tup)]
    sups = np.abs(weights @ cols.T).max(axis=1)
    return mean_and_se(float(sups.sum()), float((sups * sups).sum()), sups.size)


def ell_parameter(F, k, trials=2000, rng=None, kind="gaussian", exact_signs=False):
    """Estimates ell_k(F): the largest k-point weighted-sup average.

    The supremum runs over k-tuples of domain points with repetition.
    When the multiset count C(n+k-1, k) is within _EXHAUSTIVE_TUPLE_CAP
    every tuple is scored against one shared weight sample; otherwise
    greedy coordinate ascent from _ELL_RESTARTS starts is used and the
    result is a lower bound. With exact_signs and kind "rademacher" the
    per-tuple mean is an exact average over all 2^k sign patterns instead
    of Monte Carlo.

    Returns:
        ComplexityEstimate with method "exhaustive", "exhaustive-exact",
        or "greedy", and support holding the best 1-based tuple.
    """
    trials = check_count(trials, "trials", _MIN_TRIALS, "BAD_TRIALS")
    if rng is None:
        raise InputError("BAD_RNG", "an RngStream is required")
    k = check_count(k, "k", 1, "BAD_K")
    n = F.n
    # scaled as in _complexity, which also makes the greedy tolerance relative
    values, e = unit_peak(F.values)
    exact = bool(exact_signs) and kind == "rademacher" and (1 << k) * max(1, F.m) <= 1 << 22

    def score(tup, weights):
        # the 2^k sign patterns are the whole Rademacher law, so an exact mean has no error
        mean, se = _tuple_mean(values, tup, weights)
        return mean, 0.0 if exact else se

    # weights are drawn k-by-trials so the first k columns coincide across nested k
    if math.comb(n + k - 1, k) <= _EXHAUSTIVE_TUPLE_CAP:
        weights = sign_patterns(k) if exact else _draw_weights(rng.generator(), k, trials, kind).T
        best = None
        for tup in itertools.combinations_with_replacement(range(n), k):
            mean, se = score(tup, weights)
            if best is None or mean > best[0]:
                best = (mean, se, tup)
        method = "exhaustive-exact" if exact else "exhaustive"
        return ComplexityEstimate(*_scale_back(e, best[0], best[1]), trials, kind, method=method,
                                  support=tuple(i + 1 for i in best[2]))

    # greedy coordinate ascent from a deterministic start plus random restarts
    gen = rng.generator()
    weights = (sign_patterns(k) if exact
               else _draw_weights(rng.substream(0).generator(), k, trials, kind).T)
    peak = int(np.argmax(np.abs(values).max(axis=0)))
    starts = [tuple([peak] * k)]
    for _ in range(_ELL_RESTARTS - 1):
        starts.append(tuple(sorted(gen.integers(0, n, size=k).tolist())))
    best = None
    for start in starts:
        tup = list(start)
        cur_mean, cur_se = score(tuple(tup), weights)
        improved = True
        while improved:
            improved = False
            for pos in range(k):
                orig = tup[pos]
                for cand in range(n):
                    if cand == orig:
                        continue
                    tup[pos] = cand
                    mean, se = score(tuple(tup), weights)
                    if mean > cur_mean + 1e-12:
                        cur_mean, cur_se = mean, se
                        orig = cand
                        improved = True
                    else:
                        tup[pos] = orig
                tup[pos] = orig
        if best is None or cur_mean > best[0]:
            best = (cur_mean, cur_se, tuple(sorted(tup)))
    return ComplexityEstimate(*_scale_back(e, best[0], best[1]), trials, kind, method="greedy",
                              support=tuple(i + 1 for i in best[2]))


def t_parameter(F, eps, k_max, trials=2000, rng=None, kind="gaussian", exact_signs=False):
    """Largest k <= k_max whose ell_k estimate reaches eps * k.

    A k qualifies when mean(ell_k) >= eps * k - std_error, the one
    standard error of slack guarding Monte-Carlo boundary flicker;
    exact sign enumeration carries zero slack. Returns value 0 when no
    k qualifies and sets capped when k = k_max itself qualifies.
    """
    eps = check_positive(eps, "eps", "BAD_EPSILON")
    k_max = check_count(k_max, "k_max", 1, "BAD_K")
    if rng is None:
        raise InputError("BAD_RNG", "an RngStream is required")
    rows = []
    value = 0
    for k in range(1, k_max + 1):
        est = ell_parameter(F, k, trials=trials, rng=rng.substream(k), kind=kind,
                            exact_signs=exact_signs)
        rows.append(est)
        if est.mean >= eps * k - est.std_error:
            value = k
    return TParameterResult(value=value, capped=(value == k_max), epsilon=eps,
                            kind=kind, per_k=tuple(rows))


def _stack_unit_rows(vectors):
    """The vectors as the rows of one finite 2-d float array."""
    try:
        x = np.asarray(vectors, dtype=float)
    except ValueError:  # ragged rows or non-numeric entries
        raise InputError("DIMENSION",
                         "vectors must be numeric and share a common dimension") from None
    if x.ndim >= 1 and x.shape[0] == 0:
        raise InputError("EMPTY_INPUT", "at least one vector is required")
    if x.ndim != 2:
        raise InputError("DIMENSION", f"expected a stack of 1-d vectors, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise InputError("BAD_INPUT", "vector entries must be finite")
    return x


def _flip_descent(x, signs, total, val, norm):
    """First-improvement single-flip descent from total = signs @ x at value val.

    Flips signs in place and returns the final value. Sweeps run over
    indices 0..count-1 and repeat until a sweep improves nothing. Each
    norm call scores every flip from the current index on and takes the
    first that improves by more than 1e-15 relative, then continues past
    it: the order of a one-flip-at-a-time sweep, so the same signs result.
    """
    count = x.shape[0]
    pos = 0
    improved = False
    while pos < count or improved:
        if pos == count:
            pos, improved = 0, False
        cands = total - 2.0 * signs[pos:, None] * x[pos:]
        cvals = banach_norm(cands, norm)
        hits = np.flatnonzero(cvals < val - 1e-15 * val)
        if hits.size == 0:
            pos = count
            continue
        j = int(hits[0])
        total = cands[j]
        val = float(cvals[j])
        signs[pos + j] = -signs[pos + j]
        pos += j + 1
        improved = True
    return val


def min_sign_norm(vectors, norm=2.0, mode="exact", rng=None):
    """Minimizes ||sum_i eta_i v_i|| over sign choices eta_i = +-1.

    Exact mode enumerates 2^(count-1) patterns, the global sign flip
    being free, and certifies the minimum; it refuses more than
    _EXACT_SIGN_CAP vectors. Heuristic mode signs vectors greedily in
    descending norm order, runs single-flip descent, and restarts from
    random orders, _SIGN_RESTARTS starts in all, so its value is an
    upper bound on the minimum.

    Returns:
        SignMinimumResult; signs are normalized to signs[0] = +1.
    """
    x = _stack_unit_rows(vectors)
    count = x.shape[0]
    if count == 1:
        return SignMinimumResult(banach_norm(x[0], norm), (1,), mode)
    if mode == "exact":
        if count > _EXACT_SIGN_CAP:
            raise SizeCapError(
                f"exact sign search over {count} vectors needs 2^{count - 1} patterns",
                cost_estimate=float(2 ** (count - 1)))
        rest = x[1:]
        total = 1 << (count - 1)
        # a chunk's float patterns and its sums each hold at most _BLOCK_SCALARS
        # scalars; a power of two divides the patterns into equal chunks, so no
        # chunk is a lone row, whose product may round differently, unless all are
        chunk = 1 << max(0, (_BLOCK_SCALARS // max(count - 1, x.shape[1])).bit_length() - 1)
        best_val = math.inf
        best_idx = 0
        for lo in range(0, total, chunk):
            hi = min(lo + chunk, total)
            vals = banach_norm(x[0] + sign_patterns(count - 1, lo, hi) @ rest, norm)
            j = int(np.argmin(vals))
            if vals[j] < best_val:
                best_val = float(vals[j])
                best_idx = lo + j
        signs = (1, *sign_patterns(count - 1, best_idx, best_idx + 1)[0].tolist())
        return SignMinimumResult(best_val, signs, "exact")
    if mode != "heuristic":
        raise InputError("BAD_MODE", f"mode must be exact or heuristic, got {mode!r}")
    if rng is None:
        rng = RngStream(0)
    gen = rng.generator()
    orders = np.empty((_SIGN_RESTARTS, count), dtype=np.intp)
    orders[0] = np.argsort(-banach_norm(x, norm), kind="stable")
    for r in range(1, _SIGN_RESTARTS):
        orders[r] = gen.permutation(count)
    # lockstep greedy: at step j every restart signs its j-th vector, and the
    # plus and minus candidates of all restarts are scored in one norm call
    restarts = np.arange(_SIGN_RESTARTS)
    signs = np.zeros((_SIGN_RESTARTS, count))
    totals = np.zeros((_SIGN_RESTARTS, x.shape[1]))
    for idx in orders.T:
        vecs = x[idx]
        scores = banach_norm(np.concatenate((totals + vecs, totals - vecs)), norm)
        s = np.where(scores[:_SIGN_RESTARTS] <= scores[_SIGN_RESTARTS:], 1.0, -1.0)
        signs[restarts, idx] = s
        totals = totals + s[:, None] * vecs
    vals = banach_norm(totals, norm)
    for r in restarts:
        vals[r] = _flip_descent(x, signs[r], totals[r], vals[r], norm)
    best = int(np.argmin(vals))
    best_val = float(vals[best])
    best_signs = signs[best] if signs[best, 0] > 0 else -signs[best]
    return SignMinimumResult(best_val, tuple(int(s) for s in best_signs), "heuristic")


def type_infratype_report(vectors, norm=2.0, delta_grid=(0.05, 0.1, 0.2),
                          trials=2000, rng=None, subsets_per_size=8):
    """Compares the Gaussian norm average against subset sign minima.

    For each lambda in delta_grid, subsets of size floor(lambda * n)
    are sampled and M_emp(lambda) is the running maximum over all
    sampled subsets of size up to lambda * n of min-sign-norm / sqrt(size).
    The implied ratio c_emp = E / (M_emp * sqrt(n / lambda)) is reported
    per lambda, with E the Monte-Carlo mean of ||sum_i g_i v_i||.

    Args:
        vectors: points inside the unit ball of the chosen norm.
        norm: "sup" or a p >= 1 exponent.
        delta_grid: increasing fractions in (0, 1].
        trials: Monte-Carlo sample count for the Gaussian side.
        rng: RngStream; substream 0 drives the weights, substream 1 the subsets.
        subsets_per_size: subsets sampled per grid size, at least 1.

    Subsets of at most _EXACT_SIGN_CAP vectors are solved by exact sign
    enumeration, larger ones heuristically (flag HEURISTIC_MIN_SIGN).
    """
    trials = check_count(trials, "trials", _MIN_TRIALS, "BAD_TRIALS")
    subsets_per_size = check_count(subsets_per_size, "subsets_per_size", 1)
    if rng is None:
        raise InputError("BAD_RNG", "an RngStream is required")
    x = _stack_unit_rows(vectors)
    n = x.shape[0]
    with np.errstate(over="ignore"):  # an overflowed norm is inf and fails the check
        outside = np.flatnonzero(banach_norm(x, norm) > 1.0 + 1e-9)
    if outside.size:
        raise InputError("BAD_INPUT", f"vector {outside[0] + 1} lies outside the unit ball")
    grid = [float(d) for d in delta_grid]
    if not grid or any(not (0.0 < d <= 1.0) for d in grid) or grid != sorted(grid):
        raise InputError("BAD_GRID", "delta_grid must be increasing fractions in (0, 1]")

    gen_w = rng.substream(0).generator()
    total, total_sq = monte_carlo(
        trials, x.shape[1], lambda rows: banach_norm(gen_w.standard_normal((rows, n)) @ x, norm))
    e_mean, e_se = mean_and_se(total, total_sq, trials)

    gen_s = rng.substream(1).generator()
    flags = set()
    rows = []
    running_m = 0.0
    sub_id = 2
    for lam in grid:
        size = max(1, int(math.floor(lam * n)))
        methods = set()
        draws = 1 if size == n else subsets_per_size
        for _ in range(draws):
            idx = np.sort(gen_s.choice(n, size=size, replace=False))
            chosen = x[idx]
            if size <= _EXACT_SIGN_CAP:
                res = min_sign_norm(chosen, norm=norm, mode="exact")
            else:
                res = min_sign_norm(chosen, norm=norm, mode="heuristic",
                                    rng=rng.substream(sub_id))
                flags.add("HEURISTIC_MIN_SIGN")
            sub_id += 1
            methods.add(res.method)
            running_m = max(running_m, res.value / math.sqrt(size))
        if running_m > 0.0:
            c_emp = e_mean / (running_m * math.sqrt(n / lam))
        else:
            c_emp = math.inf
            flags.add("ZERO_MIN_SIGN")
        rows.append(TypeComparisonRow(lam=lam, subset_size=size, m_emp=running_m,
                                      c_emp=c_emp,
                                      min_sign_method="+".join(sorted(methods))))
    return TypeInfratypeReport(n=n, norm=norm, gaussian_mean=e_mean,
                               gaussian_std_error=e_se, trials=trials,
                               rows=tuple(rows), flags=tuple(sorted(flags)))


_GRID_FLOOR = 1e-4


def entropy_integral_audit(F, trials=2000, rng=None, grid_points=17):
    """Fits K in E <= K sqrt(n) * integral sqrt(vc(F, t) ln(2/t)) dt.

    E is the Monte-Carlo Gaussian average of the class, the integral
    runs from E/n to 1 by the trapezoid rule on a uniform grid, and
    vc is evaluated exactly at each grid point. Classes must be
    bounded by 1. Flag INTEGRAL_ZERO marks a vanishing dimension
    profile, in which case the fitted value degenerates.
    """
    trials = check_count(trials, "trials", _MIN_TRIALS, "BAD_TRIALS")
    if rng is None:
        raise InputError("BAD_RNG", "an RngStream is required")
    grid_points = check_count(grid_points, "grid_points", 2, "BAD_GRID")
    if float(np.abs(F.values).max()) > 1.0 + 1e-12:
        raise InputError("BAD_CLASS", "class values must be bounded by 1")
    n = F.n
    est = gaussian_complexity(F, None, trials=trials, rng=rng.substream(0))
    lo = min(max(est.mean / n, _GRID_FLOOR), 1.0 - 1e-6)
    grid = np.linspace(lo, 1.0, grid_points)
    vc_curve = []
    for t in grid:
        vc_curve.append(vc_dimension(F, float(t)).dimension)
    vc_arr = np.asarray(vc_curve, dtype=np.float64)
    integrand = np.sqrt(vc_arr * np.log(2.0 / grid))
    integral = float(np.trapezoid(integrand, grid))
    flags = []
    if integral <= 0.0:
        flags.append("INTEGRAL_ZERO")
        value = 0.0 if est.mean == 0.0 else math.inf
    else:
        value = est.mean / (math.sqrt(n) * integral)
    protocol = (
        f"K = E / (sqrt(n) * I) with E the {trials}-trial Gaussian average of the "
        f"class and I the trapezoid integral of sqrt(vc(F, t) ln(2/t)) over "
        f"{grid_points} uniform points on [max(E/n, {_GRID_FLOOR:g}), 1]; "
        f"vc evaluated exactly at each point."
    )
    constant = FittedConstant(
        name="K_complexity", value=value, protocol=protocol,
        inputs_digest=digest_inputs(F.values, trials, grid_points))
    return EntropyIntegralAudit(constant=constant, e_mean=est.mean,
                                e_std_error=est.std_error, trials=trials,
                                grid=tuple(float(t) for t in grid),
                                vc_curve=tuple(int(v) for v in vc_curve),
                                integral=integral, flags=tuple(flags))


def fit_gaussian_rademacher_ratio(classes, trials=2000, rng=None):
    """Smallest Gaussian/Rademacher average ratio over a suite of classes.

    The fitted value is min over classes of gaussian mean / rademacher
    mean, both at the given trial count with separate substreams per
    class. Classes whose Rademacher average is zero are skipped.
    """
    if rng is None:
        raise InputError("BAD_RNG", "an RngStream is required")
    ratios = []
    digests = []
    for j, F in enumerate(classes):
        g = gaussian_complexity(F, None, trials=trials, rng=rng.substream(2 * j))
        r = rademacher_complexity(F, None, trials=trials, rng=rng.substream(2 * j + 1))
        digests.append(F.values)
        if r.mean > 0.0:
            ratios.append(g.mean / r.mean)
    if not ratios:
        raise InputError("BAD_SUITE", "no class had a positive Rademacher average")
    protocol = (
        f"minimum over {len(ratios)} classes of the ratio of {trials}-trial "
        f"Gaussian to Rademacher averages, one substream pair per class."
    )
    return FittedConstant(name="C_gauss_rademacher", value=min(ratios),
                          protocol=protocol, inputs_digest=digest_inputs(*digests))
