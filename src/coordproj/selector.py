"""Bernoulli coordinate selectors and their deviation tails.

delta_1..delta_n are i.i.d. {0,1} selectors with mean delta; the random
subset sigma keeps the coordinates with delta_i = 1.  The centered linear
statistic  Z = sum_i (delta_i - delta) a_i  has a product-form moment
generating function, so its Chernoff bound can be computed exactly.

Z and the almost-isometry event read only the selector count K_j within
each group of equal weights, and K_j ~ Bin(s_j, delta) independently. So
for weight vectors with few distinct values both probabilities are exact
sums over the count vectors, and the Monte Carlo draws how many trials
land on each count vector; past that it draws count tables, never
selector masks. One float expression gives Z on a count table (`_z`), and
the exact tail, the histogram and the table sampler all decide Z > tau on
it: a Z equal to tau in exact arithmetic counts where its float value
lands, on every path alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_BLOCK_SCALARS, CoordinateSubset, InputError, RngStream, as_vector,
                   check_count, check_eps, check_positive, monte_carlo, unit_peak)
from .orlicz import psi_norm


@dataclass(frozen=True)
class SelectorDraw:
    delta: float
    outcomes: np.ndarray
    subset: CoordinateSubset


def _check_delta(delta: float) -> float:
    if not (0.0 < delta <= 1.0):
        raise InputError("BAD_DELTA", f"selector mean must lie in (0, 1], got {delta}")
    return float(delta)


def draw_selectors(n: int, delta: float, rng: RngStream) -> SelectorDraw:
    """One draw of n independent mean-delta selectors."""
    delta = _check_delta(delta)
    n = check_count(n, "coordinate count", 1, "DIMENSION")
    gen = rng.generator()
    outcomes = (gen.random(n) < delta).astype(np.int8)
    outcomes.setflags(write=False)
    return SelectorDraw(delta, outcomes, CoordinateSubset.from_mask(outcomes == 1))


def _ldexp(x: float, e: int) -> float:
    """x * 2^e, exact inside the float range and +-inf past it."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _log_mgf(v: np.ndarray, delta: float, lam) -> np.ndarray:
    """log E exp(lam Z) at each lam of a scalar or 1-d array, for checked v and delta.

    Each factor is (1-delta) e^(-lam delta a_i) + delta e^(lam (1-delta) a_i);
    the product is accumulated in log space, one row of v per lam.
    """
    lam = np.asarray(lam, dtype=float)[..., None]
    if delta == 1.0:  # every selector fires, so Z = 0; log(1 - delta) = -inf minus -inf is nan
        return np.zeros(lam.shape[:-1])
    # a log-mgf past the float range is +inf, which no infimum picks
    with np.errstate(over="ignore"):
        term0 = math.log1p(-delta) - lam * delta * v
        term1 = math.log(delta) + lam * (1.0 - delta) * v
        return np.logaddexp(term0, term1).sum(axis=-1)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def chernoff_tail_bound(a, delta: float, t: float) -> float:
    """inf over lam > 0 of exp(-lam t delta n) E exp(lam Z), never above 1.

    The exponent is convex in lam; the infimum is located on a logarithmic
    grid over [1e-4, 1e4], evaluated in passes of many points, and polished by
    golden-section search between the bracketing grid neighbours. The bound
    is homogeneous in (a, t), so the search runs on a and t times 2^-e, with
    the peak |a| in [1, 2): a power of two rounds nothing, and the grid is in
    the units of the weights.
    """
    v = as_vector(a)
    delta = _check_delta(delta)
    t = check_positive(t, "threshold scale t")
    v, e = unit_peak(v)
    if v.any():
        v, e = 2.0 * v, e - 1
    tau = _ldexp(t, -e) * delta * v.size

    def objective(lam):
        return -lam * tau + _log_mgf(v, delta, lam)

    grid = np.geomspace(1e-4, 1e4, 161)
    # one pass holds at most _BLOCK_SCALARS terms; a row's sum is the same in any pass
    step = max(1, _BLOCK_SCALARS // max(1, v.size))
    # past the float range -lam tau is -inf, which the infimum then picks: a bound of 0;
    # the scalar lam of the polish below are Python floats, which overflow silently
    with np.errstate(over="ignore"):
        vals = np.concatenate([objective(grid[i:i + step]) for i in range(0, grid.size, step)])
    k = int(np.argmin(vals))
    lo = math.log(grid[max(k - 1, 0)])
    hi = math.log(grid[min(k + 1, grid.size - 1)])

    # golden-section on log lambda
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = objective(math.exp(x1))
    f2 = objective(math.exp(x2))
    for _ in range(80):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = objective(math.exp(x1))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = objective(math.exp(x2))
    best = min(float(vals[k]), f1, f2)
    # a bound of 1 says nothing, and exp of a larger exponent may overflow
    return math.exp(best) if best < 0.0 else 1.0


# stirlerr(n) = ln n! - ln(sqrt(2 pi n) (n/e)^n) for n = 0..15; n = 0 is never read
_STIRLERR = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748, 0.01189670994589177,
    0.010411265261972096, 0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
    0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """stirlerr(n) for integer-valued n >= 1: the table to 15, Stirling's series past it."""
    out = _STIRLERR[np.minimum(n, 15).astype(np.intp)]
    big = n > 15
    m = n[big]
    mm = m * m
    out[big] = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / mm) / mm) / mm) / mm) / m
    return out


def _bd0(x: np.ndarray, m: float) -> np.ndarray:
    """The deviance x ln(x/m) + m - x for x > 0, m > 0, without its cancellation near x = m.

    There it is the series (x - m) v + 2x sum_{j>=1} v^(2j+1) / (2j+1), with
    v = (x-m)/(x+m), summed until it stops changing; |v| < 0.1 there, so each
    term is at least 100 times the next.
    """
    # ln x - ln m, not ln(x/m), which overflows for m below about 1e-302
    out = x * (np.log(x) - math.log(m)) + m - x
    near = np.abs(x - m) < 0.1 * (x + m)
    xn = x[near]
    v = (xn - m) / (xn + m)
    s = (xn - m) * v
    term = 2.0 * xn * v
    v *= v
    for j in range(1, 60):
        term *= v
        nxt = s + term / (2 * j + 1)
        if np.array_equal(nxt, s):
            break
        s = nxt
    out[near] = s
    return out


def _binomial_log_pmf(s: int, delta: float) -> np.ndarray:
    """ln P{Bin(s, delta) = k} for k = 0..s, in Loader's saddle-point form.

    ln s! - ln k! - ln (s-k)! cancels to a small number from terms near s ln s;
    this form keeps only small terms: Stirling's errors, and the deviances of
    k and s - k from their means (Loader, "Fast and accurate computation of
    binomial probabilities", 2000).
    """
    out = np.full(s + 1, -math.inf)
    if delta == 1.0 or s == 0:
        out[s] = 0.0
        return out
    out[0] = s * math.log1p(-delta)
    out[s] = s * math.log(delta)
    k = np.arange(1.0, s)
    rest = s - k
    core = (_stirlerr(np.array([float(s)])) - _stirlerr(k) - _stirlerr(rest)
            - _bd0(k, s * delta) - _bd0(rest, s * (1.0 - delta)))
    out[1:s] = core - 0.5 * (math.log(2.0 * math.pi) + np.log(k) + np.log1p(-k / s))
    return out


def _weight_groups(unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct weights, zero among them, and how many coordinates carry each.

    Groups of two or more weights come first, then the single weights, each
    part in ascending order of the weight: the column order of every count
    table, sampled or enumerated.
    """
    values, sizes = np.unique(unit, return_counts=True)
    order = np.argsort(sizes == 1, kind="stable")
    return values[order], sizes[order]


def _count_vectors(sizes: np.ndarray, delta: float):
    """The count vectors of K_j ~ Bin(s_j, delta) with their probabilities; None past the cap.

    The prod (s_j + 1) count vectors are enumerated while they number at most
    _BLOCK_SCALARS, in mixed radix with the last group's count varying fastest.
    Returns an iterator of (counts, p) chunks: a (rows, r) float table of at
    most one Monte-Carlo block, and the probability of each of its rows.
    """
    r = sizes.size
    # each nonempty group at least doubles the count vectors: many groups skip the product
    if np.count_nonzero(sizes) >= _BLOCK_SCALARS.bit_length():
        return None
    total = math.prod((sizes + 1).tolist())
    if total > _BLOCK_SCALARS:
        return None
    log_pmfs = [_binomial_log_pmf(int(s), delta) for s in sizes]
    rows = max(1, _BLOCK_SCALARS // max(1, r))

    def chunks():
        for start in range(0, total, rows):
            rest = np.arange(start, min(start + rows, total))
            counts = np.empty((rest.size, r))
            log_p = np.zeros(rest.size)
            for j in range(r - 1, -1, -1):
                rest, k = np.divmod(rest, sizes[j] + 1)
                counts[:, j] = k
                log_p += log_pmfs[j][k]
            yield counts, np.exp(log_p)

    return chunks()


def _event_probability(chunks) -> float:
    """The probability of an event from (p, inside) chunks of `_count_vectors` rows."""
    hit = miss = 0.0
    for p, inside in chunks:
        hit += float(p[inside].sum())
        miss += float(p[~inside].sum())
    # a light side is summed, keeping its relative accuracy; a heavy one is 1 minus
    # the light side, which keeps it in [0, 1]
    return hit if hit <= miss else 1.0 - miss


def _row_dot(counts: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """counts @ weights, with each row's sum taken on its own by one kernel.

    A row's value then never depends on the table it sits in: the sampler's
    blocks and the enumeration's chunks give the same bits. A BLAS product
    does not promise this; it may round a row differently by its position.
    """
    return np.einsum("ij,j->i", counts, weights)


def _z(counts: np.ndarray, values: np.ndarray, unit: np.ndarray, delta: float) -> np.ndarray:
    """Z = sum_j K_j u_j - delta sum_i u_i in floats, on each row of a count table.

    unit holds the weights at their unit peak, and the columns and `values`
    are those of `_weight_groups(unit)`. Every tail decides on these bits.
    """
    return _row_dot(counts, values) - delta * unit.sum()


def exact_tail_probability(a, delta: float, threshold: float) -> float | None:
    """P{Z > threshold} exactly, where tractable; None otherwise.

    The selector count K_j among the s_j weights equal to u_j is
    Bin(s_j, delta), independently across values, so Z takes one value per
    vector of counts. The prod (s_j + 1) count vectors are enumerated while
    they fit in one Monte-Carlo block; the zero weights, which move no Z,
    keep their column at size 0. Z > threshold is decided on Z as the
    sampler evaluates it (`_z`, the weights and the threshold moved to a unit
    peak by one power of two), so a Z equal to the threshold in exact
    arithmetic counts where its float value lands, as in the Monte Carlo.
    """
    v = as_vector(a)
    delta = _check_delta(delta)
    # the event is scale-free, and sums of the weights must not overflow
    unit, e = unit_peak(v)
    threshold = _ldexp(threshold, -e)
    values, sizes = _weight_groups(unit)
    chunks = _count_vectors(np.where(values == 0.0, 0, sizes), delta)
    if chunks is None:
        return None
    return _event_probability((p, _z(counts, values, unit, delta) > threshold)
                              for counts, p in chunks)


@dataclass(frozen=True)
class TailExperimentReport:
    t: float
    delta: float
    n: int
    trials: int
    empirical_prob: float
    two_sided_prob: float
    chernoff_bound: float
    exact_prob: float | None
    fitted_c: float | None
    psi1: float
    flags: tuple[str, ...]


def _isometry_bounds(unit: np.ndarray, eps: float) -> tuple[float, float]:
    """lo^2 and hi^2, the squared ends of (1 +/- eps) times the normalized norm of unit."""
    full = math.sqrt(float((unit**2).mean()))
    if full == 0.0:
        raise InputError("BAD_INPUT", "vector must be nonzero")
    return ((1.0 - eps) * full) ** 2, ((1.0 + eps) * full) ** 2


def _isometry_hits(counts: np.ndarray, values: np.ndarray, lo2: float, hi2: float) -> np.ndarray:
    """The almost-isometry event on each row of a (rows, r) count table, in floats.

    A row holds the count K_j of selected coordinates in each weight group;
    the event is k = sum K_j > 0 and lo^2 <= sum K_j g_j^2 / k <= hi^2.
    """
    k = counts.sum(axis=1)
    mean_sq = _row_dot(counts, values**2) / np.maximum(k, 1.0)
    return (k > 0) & (mean_sq >= lo2) & (mean_sq <= hi2)


def exact_success_prob(a, delta: float, eps: float) -> float | None:
    """P{almost-isometry event} exactly, where tractable; None otherwise.

    The event of `selector_experiment` reads only the count vector K, with
    K_j ~ Bin(s_j, delta) over the groups of equal weights, zeros included.
    The prod (s_j + 1) count vectors are enumerated while they fit in one
    Monte-Carlo block. The event is decided on each count vector in floats,
    exactly as the sampler decides it (`_isometry_hits` on the weights at a
    unit peak), so a mean square that equals lo^2 or hi^2 in exact arithmetic
    counts where its float value lands.
    """
    v = as_vector(a)
    delta = _check_delta(delta)
    eps = check_eps(eps)
    unit, _ = unit_peak(v)
    lo2, hi2 = _isometry_bounds(unit, eps)
    values, sizes = _weight_groups(unit)
    chunks = _count_vectors(sizes, delta)
    if chunks is None:
        return None
    return _event_probability((p, _isometry_hits(counts, values, lo2, hi2)) for counts, p in chunks)


def _count_sampler(sizes: np.ndarray, delta: float, rng: RngStream):
    """A function of rows that draws (rows, r) count tables, column j ~ Bin(s_j, delta).

    The groups of two or more weights that share a size s draw their columns
    in one call with that one n, which keeps numpy from redoing the binomial
    set-up for every count; a single weight draws one uniform below delta,
    which is cheaper there. Each call reads its own substream in trial order,
    so successive tables continue one sequence whatever their row counts.
    """
    split = int(np.count_nonzero(sizes >= 2))  # _weight_groups puts these first
    single = rng.substream(1).generator()
    shared = [(s, np.flatnonzero(sizes[:split] == s), rng.substream(2 + i).generator())
              for i, s in enumerate(np.unique(sizes[:split]).tolist())]

    def draw(rows):
        counts = np.empty((rows, sizes.size))
        for s, columns, gen in shared:
            counts[:, columns] = gen.binomial(s, delta, size=(rows, columns.size))
        counts[:, split:] = single.random((rows, sizes.size - split)) < delta
        return counts

    return draw


def selector_experiment(a, delta: float, eps: float, trials: int, rng: RngStream,
                        t: float | None = None
                        ) -> tuple[float, float | None, TailExperimentReport | None]:
    """Monte-Carlo frequencies of two selector events, read off one sample.

    Both events read only the selector counts K_j within the groups of equal
    weights. Where the count vectors can be enumerated (`_count_vectors`),
    one multinomial draw says how many of the trials land on each, and each
    event is decided once per count vector: the histogram of `trials`
    independent count vectors has exactly that multinomial law. Past the cap
    each trial draws one row of a count table (`_count_sampler`). Its
    success is the almost-isometry event: sigma is nonempty and the
    normalized projection of a lands within (1 +/- eps) of its full norm.
    When t is given, the same counts give the one- and two-sided frequencies
    of Z > t delta n, reported against the exact Chernoff bound, the exact
    probability when the weight vector admits one, and the constant c
    fitted to exp(-c t^2 delta n / M^2) with M the psi_1 norm.

    Returns (success, exact_success, tail): the success frequency; its exact
    probability, the bits of exact_success_prob summed on the count vectors
    the histogram decided, or None past the cap; and the tail report, or
    None without t.
    """
    v = as_vector(a)
    delta = _check_delta(delta)
    eps = check_eps(eps)
    trials = check_count(trials, "trials", 1)
    # both events are scale-free, and squares and sums of the weights must stay in range
    unit, e = unit_peak(v)
    lo2, hi2 = _isometry_bounds(unit, eps)
    values, sizes = _weight_groups(unit)
    n = v.size
    if t is not None:
        t = check_positive(t, "threshold scale t")
        tau = t * delta * n
        unit_tau = _ldexp(tau, -e)

    def events(counts):
        stats = [_isometry_hits(counts, values, lo2, hi2)]
        if t is not None:
            z = _z(counts, values, unit, delta)
            stats += [z > unit_tau, z < -unit_tau]
        return np.column_stack(stats)

    chunks = _count_vectors(sizes, delta)
    if chunks is None:
        draw = _count_sampler(sizes, delta, rng)
        # a trial holds its r counts and about six per-trial sums and tests
        totals, _ = monte_carlo(trials, values.size + 6, lambda rows: events(draw(rows)))
        exact = None
    else:
        p, hits = zip(*((p, events(counts)) for counts, p in chunks))
        exact = _event_probability((q, h[:, 0]) for q, h in zip(p, hits))
        try:
            landed = rng.substream(0).generator().multinomial(trials, np.concatenate(p))
        except OverflowError:  # numpy counts in 64-bit integers
            raise InputError("BAD_INPUT", f"trials must lie below 2^63, got {trials}") from None
        totals = (landed @ np.concatenate(hits)).tolist()
    success = totals[0] / trials
    if t is None:
        return success, exact, None

    m_psi = psi_norm(v, 1.0).value
    flags: list[str] = []
    if delta > 0.5:
        flags.append("DELTA_ABOVE_HALF")
    if t >= m_psi / 2.0:
        flags.append("T_EXCEEDS_HALF_M")
    empirical = totals[1] / trials
    fitted_c = None
    if empirical > 0.0:
        try:
            fitted_c = -math.log(empirical) * m_psi**2 / (t**2 * delta * n)
        except (OverflowError, ZeroDivisionError):
            pass  # M^2 or t^2 leaves the float range
    if fitted_c is None or not math.isfinite(fitted_c):
        fitted_c = None
        flags.append("UNRESOLVED_TAIL")

    return success, exact, TailExperimentReport(
        t=t,
        delta=delta,
        n=n,
        trials=trials,
        empirical_prob=empirical,
        two_sided_prob=(totals[1] + totals[2]) / trials,
        chernoff_bound=chernoff_tail_bound(v, delta, t),
        exact_prob=exact_tail_probability(v, delta, tau),
        fitted_c=fitted_c,
        psi1=m_psi,
        flags=tuple(flags),
    )
