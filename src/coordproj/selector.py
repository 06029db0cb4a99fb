"""Bernoulli coordinate selectors and their deviation tails.

delta_1..delta_n are i.i.d. {0,1} selectors with mean delta; the random
subset sigma keeps the coordinates with delta_i = 1.  The centered linear
statistic  Z = sum_i (delta_i - delta) a_i  has a product-form moment
generating function, so its Chernoff bound can be computed exactly, and
for weight vectors with few distinct values the tail itself is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_BLOCK_SCALARS, CoordinateSubset, InputError, RngStream, as_vector,
                   check_count, check_positive, monte_carlo, unit_peak)
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


def exact_log_mgf(a, delta: float, lam: float) -> float:
    """log E exp(lam * Z) for Z = sum (delta_i - delta) a_i, computed exactly.

    Each factor is (1-delta) e^(-lam delta a_i) + delta e^(lam (1-delta) a_i);
    the product is accumulated in log space.
    """
    v = as_vector(a)
    delta = _check_delta(delta)
    if not np.isfinite(lam):
        raise InputError("BAD_INPUT", "lambda must be finite")
    # a log-mgf past the float range is +inf, which no infimum picks
    with np.errstate(divide="ignore", over="ignore"):
        log_q = math.log1p(-delta) if delta < 1.0 else -math.inf
        term0 = log_q - lam * delta * v
        term1 = math.log(delta) + lam * (1.0 - delta) * v
        return float(np.logaddexp(term0, term1).sum())


def exact_mgf(a, delta: float, lam: float) -> float:
    return float(np.exp(exact_log_mgf(a, delta, lam)))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def chernoff_tail_bound(a, delta: float, t: float) -> float:
    """inf over lam > 0 of exp(-lam t delta n) E exp(lam Z), never above 1.

    The exponent is convex in lam; the infimum is located on a logarithmic
    grid over [1e-4, 1e4] and polished by golden-section search between the
    bracketing grid neighbours.
    """
    v = as_vector(a)
    delta = _check_delta(delta)
    t = check_positive(t, "threshold scale t")
    tau = t * delta * v.size

    def objective(lam: float) -> float:
        return -lam * tau + exact_log_mgf(v, delta, lam)

    grid = np.geomspace(1e-4, 1e4, 161)
    vals = np.array([objective(l) for l in grid])
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


def exact_tail_probability(a, delta: float, threshold: float) -> float | None:
    """P{Z > threshold} exactly, where tractable; None otherwise.

    The selector count K_j among the s_j weights equal to u_j is
    Bin(s_j, delta), independently across values, so Z = sum u_j (K_j -
    delta s_j) takes one value per vector of counts. The prod (s_j + 1)
    count vectors are enumerated while they fit in one Monte-Carlo block.
    """
    v = as_vector(a)
    delta = _check_delta(delta)
    if delta == 1.0:
        return 1.0 if 0.0 > threshold else 0.0
    # the event is scale-free, and sums of the weights must not overflow
    v, e = unit_peak(v)
    threshold = _ldexp(threshold, -e)
    values, counts = np.unique(v[v != 0.0], return_counts=True)
    # each distinct value at least doubles the count vectors: many values skip the product
    if (counts.size >= _BLOCK_SCALARS.bit_length()
            or math.prod((counts + 1).tolist()) > _BLOCK_SCALARS):
        return None

    z = np.zeros(1)
    log_p = np.zeros(1)
    for u, s in zip(values, counts):
        k = np.arange(s + 1.0)
        log_fact = np.array([math.lgamma(j) for j in k + 1.0])
        log_pmf = (log_fact[-1] - log_fact - log_fact[::-1]
                   + k * math.log(delta) + (s - k) * math.log1p(-delta))
        z = (z[:, None] + u * (k - delta * s)).ravel()
        log_p = (log_p[:, None] + log_pmf).ravel()
    p = np.exp(log_p)
    above = z > threshold
    # a light tail is summed, keeping its relative accuracy; a heavy one is 1 minus
    # the light side, which keeps it in [0, 1]
    hi = float(p[above].sum())
    lo = float(p[~above].sum())
    return hi if hi <= lo else 1.0 - lo


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


def tail_experiment(a, delta: float, t: float, trials: int, rng: RngStream) -> TailExperimentReport:
    """Monte-Carlo tail frequency of Z > t delta n against its certificates.

    Reports the one- and two-sided frequencies, the exact Chernoff bound,
    the exact probability when the weight vector admits one, and the
    constant c fitted to exp(-c t^2 delta n / M^2) with M the psi_1 norm.
    """
    v = as_vector(a)
    delta = _check_delta(delta)
    trials = check_count(trials, "trials", 1)
    t = check_positive(t, "threshold scale t")
    m_psi = psi_norm(v, 1.0).value
    if m_psi == 0.0:
        raise InputError("BAD_INPUT", "weight vector must be nonzero")

    n = v.size
    tau = t * delta * n
    flags: list[str] = []
    if delta > 0.5:
        flags.append("DELTA_ABOVE_HALF")
    if t >= m_psi / 2.0:
        flags.append("T_EXCEEDS_HALF_M")

    gen = rng.generator()
    # the event is scale-free, and the draws' sums must not overflow
    unit, e = unit_peak(v)
    unit_tau = _ldexp(tau, -e)
    shift = delta * unit.sum()

    def exceed(rows):
        # +1 above tau, -1 below -tau: the sum of squares counts both tails
        z = (gen.random((rows, n)) < delta) @ unit - shift
        return (z > unit_tau).astype(float) - (z < -unit_tau)

    signed, two = monte_carlo(trials, n, exceed)
    empirical = (signed + two) / 2.0 / trials
    two_sided = two / trials
    exact = exact_tail_probability(v, delta, tau)
    bound = chernoff_tail_bound(v, delta, t)

    fitted_c = None
    if empirical > 0.0:
        try:
            fitted_c = -math.log(empirical) * m_psi**2 / (t**2 * delta * n)
        except (OverflowError, ZeroDivisionError):
            pass  # M^2 or t^2 leaves the float range
    if fitted_c is None or not math.isfinite(fitted_c):
        fitted_c = None
        flags.append("UNRESOLVED_TAIL")

    return TailExperimentReport(
        t=t,
        delta=delta,
        n=n,
        trials=trials,
        empirical_prob=empirical,
        two_sided_prob=two_sided,
        chernoff_bound=bound,
        exact_prob=exact,
        fitted_c=fitted_c,
        psi1=m_psi,
        flags=tuple(flags),
    )


def almost_isometry_experiment(f, delta: float, eps: float, trials: int, rng: RngStream) -> float:
    """Fraction of selector draws where the normalized projection of f
    lands within (1 +/- eps) of its full norm.  Empty draws count as failures.
    """
    v = as_vector(f)
    delta = _check_delta(delta)
    if not (0.0 < eps < 1.0):
        raise InputError("BAD_EPSILON", f"eps must lie in (0, 1), got {eps}")
    trials = check_count(trials, "trials", 1)
    # the hit test is scale-invariant, and v**2 must neither underflow nor overflow
    v, _ = unit_peak(v)
    sq = v**2
    full = math.sqrt(float(sq.mean()))
    if full == 0.0:
        raise InputError("BAD_INPUT", "vector must be nonzero")

    n = v.size
    lo2 = ((1.0 - eps) * full) ** 2
    hi2 = ((1.0 + eps) * full) ** 2
    gen = rng.generator()

    def hit(rows):
        mask = gen.random((rows, n)) < delta
        k = mask.sum(axis=1)
        nonempty = k > 0
        mean_sq = np.zeros(rows)
        mean_sq[nonempty] = (mask[nonempty] @ sq) / k[nonempty]
        return nonempty & (mean_sq >= lo2) & (mean_sq <= hi2)

    hits, _ = monte_carlo(trials, n, hit)
    return hits / trials
