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
    FittedConstant,
    InputError,
    RngStream,
    SizeCapError,
    as_table,
    banach_norm,
    check_bounded_by_one,
    check_count,
    check_in_unit_ball,
    check_positive,
    check_substreams,
    digest_inputs,
    mean_and_se,
    monte_carlo,
    sign_patterns,
    unit_peak,
)
from .shatter import vc_dimensions

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


def _sups(cols, wt):
    """sup over the rows f of cols of |f . w|, for each column w of wt.

    The class axis comes first in the product, so the sup reduces over
    whole rows of it, and the absolute value is taken in place.
    """
    p = cols @ wt
    return np.abs(p, out=p).max(axis=0)


def _sup_average(values, trials, gen, kind):
    """Mean and standard error of sup_f |sum_i w_i f(i)| over random weights."""
    m, k = values.shape
    # a trial holds its k weights and its m products
    total, total_sq = monte_carlo(
        trials, m + k, lambda rows: _sups(values, _draw_weights(gen, rows, k, kind).T))
    return mean_and_se(total, total_sq, trials)


def _scale_back(e, *values, what="the average or its standard error"):
    """values times 2^e; InputError OVERFLOW, naming `what`, when one leaves the float range."""
    try:
        values = tuple(math.ldexp(v, e) for v in values)
    except OverflowError:
        values = (math.inf,)
    if not all(map(math.isfinite, values)):
        raise InputError("OVERFLOW", f"{what} exceeds the float range")
    return values


def gaussian_complexity(F, trials=2000, rng=None):
    """Estimates E sup_f |sum_i g_i f(i)| with standard normals.

    Args:
        F: FunctionClass to average over.
        trials: Monte-Carlo sample count, at least 100.
        rng: RngStream supplying the weights.

    Returns:
        ComplexityEstimate with kind "gaussian".
    """
    return _complexity(F, trials, rng, "gaussian")


def rademacher_complexity(F, trials=2000, rng=None):
    """Same average as gaussian_complexity with uniform +-1 weights."""
    return _complexity(F, trials, rng, "rademacher")


def _complexity(F, trials, rng, kind):
    trials = check_count(trials, "trials", _MIN_TRIALS, "BAD_TRIALS")
    if rng is None:
        raise InputError("BAD_RNG", "an RngStream is required")
    # the average is positively homogeneous; at a unit peak no weighted sum or
    # square leaves the float range
    values, e = unit_peak(F.values)
    mean, se = _scale_back(e, *_sup_average(values, trials, rng.generator(), kind))
    return ComplexityEstimate(mean=mean, std_error=se, trials=trials, kind=kind)


def _tuple_mean(values, tup, weights):
    sups = _sups(values[:, list(tup)], weights)
    return mean_and_se(float(sups.sum()), float((sups * sups).sum()), sups.size)


def ell_parameter(F, k, trials=2000, rng=None, kind="gaussian"):
    """Estimates ell_k(F): the largest k-point weighted-sup average.

    The supremum runs over k-tuples of domain points with repetition.
    When the multiset count C(n+k-1, k) is within _EXHAUSTIVE_TUPLE_CAP
    every tuple is scored against one shared weight sample; otherwise
    greedy coordinate ascent from _ELL_RESTARTS starts is used and the
    result is a lower bound. For kind "rademacher" with 2^k <= trials the
    shared sample is all 2^k sign patterns, the whole Rademacher law, so
    each tuple's mean is exact and carries no standard error; that is no
    more work than the `trials` draws it replaces.

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
    exact = kind == "rademacher" and k < trials.bit_length()  # 2^k <= trials

    def score(tup, weights):
        mean, se = _tuple_mean(values, tup, weights)
        return mean, 0.0 if exact else se

    if math.comb(n + k - 1, k) <= _EXHAUSTIVE_TUPLE_CAP:
        weights = sign_patterns(k).T if exact else _draw_weights(rng.generator(), k, trials, kind)
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
    weights = (sign_patterns(k).T if exact
               else _draw_weights(rng.substream(0).generator(), k, trials, kind))
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


def t_parameter(F, eps, k_max, trials=2000, rng=None, kind="gaussian"):
    """Largest k <= k_max whose ell_k estimate reaches eps * k.

    A k qualifies when mean(ell_k) >= eps * k - std_error, the one
    standard error of slack guarding Monte-Carlo boundary flicker; an
    exact Rademacher ell_k (see ell_parameter) carries zero slack.
    Returns value 0 when no k qualifies and sets capped when k = k_max
    itself qualifies. ell_k reads substream k, so a k_max whose labels pass
    core._SUBSTREAM_SPAN raises SizeCapError before any estimate.
    """
    eps = check_positive(eps, "eps", "BAD_EPSILON")
    k_max = check_count(k_max, "k_max", 1, "BAD_K")
    check_substreams(k_max + 1, f"{k_max} ell_k estimates")  # ell_k takes label k
    if rng is None:
        raise InputError("BAD_RNG", "an RngStream is required")
    rows = []
    value = 0
    for k in range(1, k_max + 1):
        est = ell_parameter(F, k, trials=trials, rng=rng.substream(k), kind=kind)
        rows.append(est)
        if est.mean >= eps * k - est.std_error:
            value = k
    return TParameterResult(value=value, capped=(value == k_max), epsilon=eps,
                            kind=kind, per_k=tuple(rows))


def _sign_table(x, norm):
    """(unit, table, e): x = 2^e * unit with unit's peak in [1/2, 1), and the rows to search.

    Every norm is homogeneous, so the searches run at a unit peak, where no
    sum or power leaves the float range, and x and 2^j x search one table.
    For the Euclidean norm the table holds unit's rows in an orthonormal
    basis of their span, count x min(count, d): an isometry keeps the norm
    of every signed sum, and the sums get shorter. Other norms search unit.
    """
    unit, e = unit_peak(x)
    table = np.linalg.qr(unit.T, mode="r").T if norm == 2 else unit
    return unit, table, e


def _exact_signs(x, norm):
    """The first of the 2^(count-1) sign patterns with signs[0] = +1 whose sum of x has least norm."""
    count = x.shape[0]
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
    return np.concatenate(([1.0], sign_patterns(count - 1, best_idx, best_idx + 1)[0]))


def _heuristic_signs(tables, norm, gens):
    """Signs of the best of _SIGN_RESTARTS greedy-plus-descent runs on each table, signs[:, 0] = +1.

    tables is a stack (s, count, d), and gens holds one generator per
    table for its random restart orders. The s * _SIGN_RESTARTS restarts
    run in lockstep, in blocks of at most _BLOCK_SCALARS candidate scalars
    (restarts * count * d). Greedy: at step j every restart signs its j-th
    vector, and the plus and minus candidates of all restarts are scored in
    one norm call. Steepest descent: each step scores every single flip of
    every live restart in one call, and each restart takes its best flip
    (the first of equal ones) while that lowers its value by more than
    1e-15 of it. banach_norm gives a row the same bits alone or in a stack,
    so no table's signs depend on the others or on the blocks.
    """
    s, count, d = tables.shape
    orders = np.empty((s, _SIGN_RESTARTS, count), dtype=np.intp)
    orders[:, 0] = np.argsort(-banach_norm(tables, norm), axis=-1, kind="stable")
    for t, gen in enumerate(gens):
        for r in range(1, _SIGN_RESTARTS):
            orders[t, r] = gen.permutation(count)
    orders = orders.reshape(s * _SIGN_RESTARTS, count)
    owner = np.repeat(np.arange(s), _SIGN_RESTARTS)
    signs = np.zeros((s * _SIGN_RESTARTS, count))
    vals = np.empty(s * _SIGN_RESTARTS)
    step = max(1, _BLOCK_SCALARS // (count * d))
    for lo in range(0, s * _SIGN_RESTARTS, step):
        hi = min(lo + step, s * _SIGN_RESTARTS)
        vals[lo:hi] = _lockstep_search(tables, owner[lo:hi], orders[lo:hi], signs[lo:hi], norm)
    best = signs[np.arange(s) * _SIGN_RESTARTS
                 + np.argmin(vals.reshape(s, _SIGN_RESTARTS), axis=1)]
    return np.where(best[:, :1] > 0, best, -best)


def _lockstep_search(tables, owner, orders, signs, norm):
    """Greedy signing then steepest single-flip descent for restarts of tables[owner] in orders.

    Writes each restart's signs into signs in place and returns their values.
    """
    restarts = orders.shape[0]
    rows = np.arange(restarts)
    totals = np.zeros((restarts, tables.shape[2]))
    for idx in orders.T:
        vecs = tables[owner, idx]
        scores = banach_norm(np.concatenate((totals + vecs, totals - vecs)), norm)
        s = np.where(scores[:restarts] <= scores[restarts:], 1.0, -1.0)
        signs[rows, idx] = s
        totals = totals + s[:, None] * vecs
    vals = banach_norm(totals, norm)
    live = rows
    while live.size:
        # one (live, count, d) buffer: the gather, then the same products and
        # differences as totals - 2 * signs * tables, in place
        cands = tables[owner[live]]
        cands *= 2.0 * signs[live, :, None]
        np.subtract(totals[live, None], cands, out=cands)
        cvals = banach_norm(cands, norm)
        k = np.argmin(cvals, axis=1)  # the first of equal flips
        best = cvals[np.arange(live.size), k]
        found = best < vals[live] - 1e-15 * vals[live]
        live, k = live[found], k[found]
        totals[live] = cands[found, k]
        vals[live] = best[found]
        signs[live, k] = -signs[live, k]
    return vals


def min_sign_norm(vectors, norm=2.0, rng=None):
    """Minimizes ||sum_i eta_i v_i|| over sign choices eta_i = +-1.

    Up to _EXACT_SIGN_CAP vectors it enumerates the 2^(count-1) patterns,
    the global sign flip being free, and certifies the minimum (method
    "exact"). Past the cap it signs vectors greedily in descending norm
    order, then takes the best single flip while one lowers the norm
    (steepest descent), and restarts from random orders drawn from rng,
    _SIGN_RESTARTS starts in all, so its value is an upper bound on the
    minimum (method "heuristic"). Both search the table of
    _sign_table; the value is the norm of the chosen signed sum of the
    vectors themselves, at the unit peak, so the signs attain it.

    Returns:
        SignMinimumResult; signs are normalized to signs[0] = +1.
    """
    x = as_table(vectors, "vectors")
    values, signs, method = _sign_minima(x[None], norm, [rng or RngStream(0)])
    return SignMinimumResult(values[0], tuple(int(s) for s in signs[0]), method)


def _sign_minima(stack, norm, rngs):
    """Values, signs (s, count) and method of the sign minima of the tables in stack (s, count, d).

    Up to _EXACT_SIGN_CAP vectors each table is searched alone, exactly,
    and no rngs are read. Past it all are searched in one _heuristic_signs
    call, table t drawing its restart orders from rngs[t]. Each value is the
    norm of the table's chosen signed sum at its unit peak, scaled back, so
    the signs attain it.
    """
    prepared = [_sign_table(x, norm) for x in stack]
    tables = np.stack([table for _, table, _ in prepared])
    if stack.shape[1] <= _EXACT_SIGN_CAP:
        method, signs = "exact", np.stack([_exact_signs(table, norm) for table in tables])
    else:
        method = "heuristic"
        signs = _heuristic_signs(tables, norm, [rng.generator() for rng in rngs])
    values = [_scale_back(e, banach_norm(sg @ unit, norm), what="the sign minimum")[0]
              for (unit, _, e), sg in zip(prepared, signs)]
    return values, signs, method


def _gram_gaussian_block(unit, gen):
    """(width, block): a Monte-Carlo block of ||sum_i g_i v_i||_2 over the rows v_i of unit.

    With lambda_j the eigenvalues of the smaller Gram matrix of unit (n x n
    or d x d, clipped at 0), ||sum_i g_i v_i||_2^2 has the law of
    sum_j lambda_j z_j^2 for r = min(n, d) standard normals z_j. So a trial
    draws r normals, squares them in place and needs no (trials x d) product.
    """
    n, d = unit.shape
    gram = unit @ unit.T if n <= d else unit.T @ unit
    lam = np.clip(np.linalg.eigvalsh(gram), 0.0, None)

    def block(rows):
        z = gen.standard_normal((rows, lam.size))
        np.square(z, out=z)
        s = z @ lam
        return np.sqrt(s, out=s)

    return lam.size, block


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

    Under norm 2, E is sampled from the spectrum of the Gram matrix of the
    vectors (see _gram_gaussian_block); other norms draw sum_i g_i v_i.
    Subsets of at most _EXACT_SIGN_CAP vectors are solved by exact sign
    enumeration, larger ones heuristically (flag HEURISTIC_MIN_SIGN). A
    subsets_per_size whose subsets would need a substream label past
    core._SUBSTREAM_SPAN raises SizeCapError before any work.
    """
    trials = check_count(trials, "trials", _MIN_TRIALS, "BAD_TRIALS")
    subsets_per_size = check_count(subsets_per_size, "subsets_per_size", 1)
    if rng is None:
        raise InputError("BAD_RNG", "an RngStream is required")
    x = as_table(vectors, "vectors")
    n = x.shape[0]
    check_in_unit_ball(x, norm, "vector")
    grid = [float(d) for d in delta_grid]
    if not grid or any(not (0.0 < d <= 1.0) for d in grid) or grid != sorted(grid):
        raise InputError("BAD_GRID", "delta_grid must be increasing fractions in (0, 1]")
    # the subsets take substreams 2, 3, ..., at most subsets_per_size per size
    check_substreams(2 + len(grid) * subsets_per_size, f"{subsets_per_size} subsets per size")

    # averaged at a unit peak, as in _complexity; the sign minima take their own
    unit, e = unit_peak(x)
    gen_w = rng.substream(0).generator()
    if norm == 2:
        total, total_sq = monte_carlo(trials, *_gram_gaussian_block(unit, gen_w))
    else:  # a trial holds its n normals and its d-coordinate sum
        total, total_sq = monte_carlo(trials, n + x.shape[1], lambda rows: banach_norm(
            gen_w.standard_normal((rows, n)) @ unit, norm))
    e_mean, e_se = _scale_back(e, *mean_and_se(total, total_sq, trials))

    gen_s = rng.substream(1).generator()
    flags = set()
    rows = []
    running_m = 0.0
    sub_id = 2
    for lam in grid:
        size = max(1, int(math.floor(lam * n)))
        draws = 1 if size == n else subsets_per_size
        # all subsets of a size are searched as one stack, in blocks that keep
        # the candidates of their restarts within _BLOCK_SCALARS scalars
        block = max(1, _BLOCK_SCALARS // (_SIGN_RESTARTS * size * x.shape[1]))
        for lo in range(0, draws, block):
            idx = [np.sort(gen_s.choice(n, size=size, replace=False))
                   for _ in range(min(block, draws - lo))]
            rngs = [rng.substream(sub_id + lo + k) for k in range(len(idx))]
            values, _, method = _sign_minima(x[np.array(idx)], norm, rngs)
            running_m = max(running_m, max(values) / math.sqrt(size))
        sub_id += draws
        if method == "heuristic":
            flags.add("HEURISTIC_MIN_SIGN")
        if running_m > 0.0:
            c_emp = e_mean / (running_m * math.sqrt(n / lam))
        else:
            c_emp = math.inf
            flags.add("ZERO_MIN_SIGN")
        rows.append(TypeComparisonRow(lam=lam, subset_size=size, m_emp=running_m,
                                      c_emp=c_emp, min_sign_method=method))
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
    profile, in which case the fitted value degenerates. More than
    _BLOCK_SCALARS grid points raise SizeCapError before any work.
    """
    trials = check_count(trials, "trials", _MIN_TRIALS, "BAD_TRIALS")
    if rng is None:
        raise InputError("BAD_RNG", "an RngStream is required")
    grid_points = check_count(grid_points, "grid_points", 2, "BAD_GRID")
    if grid_points > _BLOCK_SCALARS:
        raise SizeCapError(f"{grid_points} grid points exceed cap {_BLOCK_SCALARS}",
                           cost_estimate=float(grid_points))
    check_bounded_by_one(F.values, "the audited class")
    n = F.n
    est = gaussian_complexity(F, trials=trials, rng=rng.substream(0))
    lo = min(max(est.mean / n, _GRID_FLOOR), 1.0 - 1e-6)
    grid = np.linspace(lo, 1.0, grid_points)
    vc_curve = [res.dimension for res in vc_dimensions(F, grid)]
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

