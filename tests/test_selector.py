import itertools
import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.stats import binom, chisquare

from coordproj import core, selector
from coordproj.core import CoordinateSubset, InputError, RngStream, monte_carlo, unit_peak
from coordproj.orlicz import psi_norm
from coordproj.selector import (
    TailExperimentReport,
    _STIRLERR,
    _binomial_log_pmf,
    _count_sampler,
    _count_vectors,
    _isometry_hits,
    _ldexp,
    _log_mgf,
    _row_dot,
    _stirlerr,
    _weight_groups,
    _z,
    chernoff_tail_bound,
    draw_selectors,
    exact_success_prob,
    exact_tail_probability,
    selector_experiment,
)


def brute_mgf(a, delta, lam):
    """E exp(lam * sum (d_i - delta) a_i) by full enumeration."""
    n = len(a)
    total = 0.0
    for bits in itertools.product((0, 1), repeat=n):
        p = 1.0
        z = 0.0
        for b, w in zip(bits, a):
            p *= delta if b else (1.0 - delta)
            z += (b - delta) * w
        total += p * math.exp(lam * z)
    return total


def scalar_log_mgf(v, delta, lam):
    """log E exp(lam Z) for one lambda, a sum of n two-term logaddexps; 0 at delta = 1, where Z = 0."""
    if delta == 1.0:
        return 0.0
    with np.errstate(over="ignore"):
        return float(np.logaddexp(math.log1p(-delta) - lam * delta * v,
                                  math.log(delta) + lam * (1.0 - delta) * v).sum())


def scalar_chernoff(a, delta, t):
    """The Chernoff bound with one scalar log-mgf call per grid point and golden-section step,
    on a and t times the power of two 2^-e that puts a nonzero peak |a| in [1, 2)."""
    v = np.asarray(a, dtype=float)
    e = math.frexp(float(np.abs(v).max()))[1] - 1 if v.any() else 0
    v, tau = np.ldexp(v, -e), _ldexp(t, -e) * delta * v.size
    golden = (math.sqrt(5.0) - 1.0) / 2.0

    def objective(lam):
        return -lam * tau + scalar_log_mgf(v, delta, lam)

    grid = np.geomspace(1e-4, 1e4, 161)
    vals = [objective(lam) for lam in grid]
    k = int(np.argmin(vals))
    lo, hi = math.log(grid[max(k - 1, 0)]), math.log(grid[min(k + 1, grid.size - 1)])
    x1, x2 = hi - golden * (hi - lo), lo + golden * (hi - lo)
    f1, f2 = objective(math.exp(x1)), objective(math.exp(x2))
    for _ in range(80):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - golden * (hi - lo)
            f1 = objective(math.exp(x1))
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + golden * (hi - lo)
            f2 = objective(math.exp(x2))
    best = min(float(vals[k]), f1, f2)
    return math.exp(best) if best < 0.0 else 1.0


def brute_tail(a, delta, threshold):
    """P{Z > threshold} by the product law: a sum over all 2^n selections.

    Ties follow the one float Z of the sampler and of exact_tail_probability:
    the weights and the threshold moved to a unit peak by one power of two,
    each selection's count vector in the columns of _weight_groups, and Z its
    _row_dot with the group weights minus delta times the sum of the weights.
    A Z equal to the threshold in exact arithmetic can land on either side by
    rounding, and the law counts it where its float value lands; so does this sum.
    """
    v = np.asarray(a, dtype=float)
    unit, e = unit_peak(v)
    masks = np.array(list(itertools.product((0, 1), repeat=v.size)), dtype=bool)
    counts, values = group_counts(masks, v)
    z = _row_dot(counts, values) - delta * unit.sum()
    total = 0.0
    for bits, above in zip(masks, z > _ldexp(threshold, -e)):
        if above:
            total += math.prod(delta if b else 1.0 - delta for b in bits)
    return total


def reference_hits(mask, v, eps):
    """The almost-isometry event of each selector mask, read off the coordinates.

    Returns the hits and each row's mean square over the selected coordinates.
    """
    unit, _ = unit_peak(np.asarray(v, dtype=float))
    sq = unit**2
    full = math.sqrt(float(sq.mean()))
    lo2 = ((1.0 - eps) * full) ** 2
    hi2 = ((1.0 + eps) * full) ** 2
    k = mask.sum(axis=1)
    nonempty = k > 0
    mean_sq = np.zeros(mask.shape[0])
    mean_sq[nonempty] = (mask[nonempty] @ sq) / k[nonempty]
    return nonempty & (mean_sq >= lo2) & (mean_sq <= hi2), mean_sq, (lo2, hi2)


def reference_z(mask, v, delta, t):
    """Z = sum (delta_i - delta) a_i of each selector mask at the weights' unit peak.

    Returns Z, the threshold t delta n at that peak, and the magnitude of the
    terms that Z sums, which bounds its rounding.
    """
    unit, e = unit_peak(np.asarray(v, dtype=float))
    shift = delta * unit.sum()
    z = mask @ unit - shift
    return z, _ldexp(t * delta * unit.size, -e), mask @ np.abs(unit) + abs(shift)


def reference_tail(a, delta, t, trials, rng):
    """Reference tail experiment: per-coordinate masks, one +-1 exceedance statistic per trial."""
    v = np.asarray(a, dtype=float)
    m_psi = psi_norm(v, 1.0).value
    n = v.size
    flags = []
    if delta > 0.5:
        flags.append("DELTA_ABOVE_HALF")
    if t >= m_psi / 2.0:
        flags.append("T_EXCEEDS_HALF_M")
    gen = rng.generator()

    def exceed(rows):
        z, tau, _ = reference_z(gen.random((rows, n)) < delta, v, delta, t)
        return (z > tau).astype(float) - (z < -tau)

    signed, two = monte_carlo(trials, n, exceed)
    empirical = (signed + two) / 2.0 / trials
    fitted_c = None
    if empirical > 0.0:
        try:
            fitted_c = -math.log(empirical) * m_psi**2 / (t**2 * delta * n)
        except (OverflowError, ZeroDivisionError):
            pass
    if fitted_c is None or not math.isfinite(fitted_c):
        fitted_c = None
        flags.append("UNRESOLVED_TAIL")
    return TailExperimentReport(
        t=t, delta=delta, n=n, trials=trials, empirical_prob=empirical,
        two_sided_prob=two / trials, chernoff_bound=chernoff_tail_bound(v, delta, t),
        exact_prob=exact_tail_probability(v, delta, t * delta * n), fitted_c=fitted_c,
        psi1=m_psi, flags=tuple(flags))


def reference_isometry(f, delta, eps, trials, rng):
    """Reference almost-isometry frequency: per-coordinate masks, one hit per trial."""
    n = len(f)
    gen = rng.generator()
    hits, _ = monte_carlo(trials, n, lambda rows: reference_hits(gen.random((rows, n)) < delta,
                                                                 f, eps)[0])
    return hits / trials


def group_counts(mask, v):
    """The (rows, r) count table of selector masks, in the column order of _weight_groups."""
    unit, _ = unit_peak(np.asarray(v, dtype=float))
    values, _ = _weight_groups(unit)
    return np.column_stack([mask[:, unit == u].sum(axis=1) for u in values]).astype(float), values


def brute_success(a, delta, eps):
    """P{almost-isometry event} by the product law: a sum over all 2^n selections.

    The event is decided per selection from the coordinates, in Python floats.
    """
    unit, _ = unit_peak(np.asarray(a, dtype=float))
    full = math.sqrt(sum(u * u for u in unit) / unit.size)
    lo2, hi2 = ((1.0 - eps) * full) ** 2, ((1.0 + eps) * full) ** 2
    total = 0.0
    for bits in itertools.product((0, 1), repeat=unit.size):
        k = sum(bits)
        if k and lo2 <= sum(u * u for b, u in zip(bits, unit) if b) / k <= hi2:
            total += math.prod(delta if b else 1.0 - delta for b in bits)
    return total


def forbid_table_sampler(mp):
    """Make selector_experiment fail if it draws a count table instead of the histogram."""
    def table_sampler(*args):
        raise AssertionError("an enumerable input reached the table sampler")
    mp.setattr(selector, "_count_sampler", table_sampler)


def vector_of(kind, n, gen):
    return {"gaussian": lambda: gen.standard_normal(n),
            "decimal": lambda: np.round(gen.uniform(-1.0, 1.0, n), 3),
            "pool": lambda: gen.choice([0.0, -0.5, 0.25, 1.0, 3.0], n),
            "constant": lambda: np.full(n, gen.uniform(0.1, 10.0))}[kind]()


class TestMgf:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            a = rng.uniform(-2.0, 2.0, size=n)
            delta = float(rng.uniform(0.05, 0.95))
            lam = float(rng.uniform(-1.5, 1.5))
            got = math.exp(float(_log_mgf(a, delta, lam)))
            assert got == pytest.approx(brute_mgf(a, delta, lam), rel=1e-10)

    def test_log_form_handles_huge_lambda(self):
        a = np.ones(50)
        val = float(_log_mgf(a, 0.3, 900.0))
        # dominated by all-ones outcome: 50*(log 0.3 + 900*0.7)
        assert val == pytest.approx(50 * (math.log(0.3) + 900 * 0.7), rel=1e-6)

    def test_degenerate_delta_one(self):
        a = np.array([1.0, -2.0])
        # selectors always fire, Z = 0 deterministically
        assert math.exp(float(_log_mgf(a, 1.0, 3.7))) == pytest.approx(1.0)

    def test_symmetrization_chain(self):
        # Cauchy-Schwarz then Jensen: mgf(lam)^2 <= mgf(2 lam) <= prod(1 +
        # 2 delta (1-delta)(cosh(2 lam a_i) - 1)), all compared in log space
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            a = rng.uniform(-3.0, 3.0, size=n)
            delta = float(rng.uniform(0.05, 0.95))
            lam = float(rng.uniform(0.0, 2.0))
            lo = 2.0 * float(_log_mgf(a, delta, lam))
            mid = float(_log_mgf(a, delta, 2.0 * lam))
            c = 2.0 * delta * (1.0 - delta)
            log_cosh = np.logaddexp(2.0 * lam * a, -2.0 * lam * a) - math.log(2.0)
            hi = float(np.logaddexp(
                math.log1p(-c) * np.ones(n),
                math.log(c) + log_cosh).sum()) if c < 1.0 else float(
                (math.log(c) + log_cosh).sum())
            assert lo <= mid + 1e-10
            assert mid <= hi + 1e-10


class TestChernoff:
    def test_constant_weights_kl_closed_form(self):
        # for a = 1 the optimized bound is exp(-n KL(delta(1+t) || delta))
        for n in (20, 100):
            for delta in (0.1, 0.3):
                for t in (0.25, 0.5):
                    q = delta * (1.0 + t)
                    kl = q * math.log(q / delta) + (1 - q) * math.log((1 - q) / (1 - delta))
                    got = chernoff_tail_bound(np.ones(n), delta, t)
                    assert got == pytest.approx(math.exp(-n * kl), rel=1e-8)

    def test_bound_is_at_most_one(self):
        assert chernoff_tail_bound(np.ones(4), 0.5, 1e-9) <= 1.0

    def test_bound_does_not_depend_on_the_weight_scale(self):
        # a lambda grid in absolute units read 0.946 at 1e-5 times (a, t), and 1 at 1e5
        a, bound = np.array([1.0, 1.0, -1.0, 0.5]), 0.7972913520343071
        assert chernoff_tail_bound(a, 0.5, 0.3) == bound
        for c in (1e-5, 1e5, 1e300, 1e-300):
            assert chernoff_tail_bound(c * a, 0.5, c * 0.3) == pytest.approx(bound, abs=math.ulp(bound))

    @given(a=st.lists(st.integers(-400, 400), min_size=1, max_size=12).filter(any),
           delta=st.floats(0.01, 1.0), t=st.floats(0.01, 2.0), j=st.integers(-1000, 1000))
    def test_scaled_weights_at_a_scaled_threshold(self, a, delta, t, j):
        # the bound is homogeneous in (a, t), and a power of two rounds nothing on
        # weights in hundredths: 2^j a at 2^j t gives the same bits
        a, c = np.array(a) / 100.0, math.ldexp(1.0, j)
        assert repr(chernoff_tail_bound(c * a, delta, c * t)) == repr(chernoff_tail_bound(a, delta, t))

    def test_dominates_exact_tail(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            a = np.abs(rng.uniform(0.1, 2.0, size=n))
            delta = float(rng.uniform(0.05, 0.95))
            t = float(rng.uniform(0.05, 1.0))
            exact = exact_tail_probability(a, delta, t * delta * n)
            assert exact is not None
            bound = chernoff_tail_bound(a, delta, t)
            assert exact <= bound + 1e-12


    @given(n=st.integers(1, 30), j=st.integers(-300, 300), sign=st.sampled_from([1.0, -1.0, 0.0]),
           delta=st.one_of(st.just(1.0), st.floats(1e-6, 1.0)), t=st.floats(1e-6, 1e3),
           lam=st.floats(-1e4, 1e4), seed=st.integers(0, 2**16))
    @example(n=2, j=306, sign=-1.0, delta=1.0, t=0.5, lam=1e4, seed=0)
    @example(n=3, j=300, sign=1.0, delta=0.5, t=0.5, lam=1e4, seed=0)
    def test_grid_pass_matches_scalar_loop(self, n, j, sign, delta, t, lam, seed):
        # sign +1 or -1 makes every weight that sign; 0 mixes signs. At j near 300
        # lam * a overflows for every lam on the grid, and the exponent is +inf
        a = np.random.default_rng(seed).uniform(0.5, 1.0, size=n) * 10.0 ** j
        a = a * sign if sign else a * np.resize([1.0, -1.0], n)
        assert repr(chernoff_tail_bound(a, delta, t)) == repr(scalar_chernoff(a, delta, t))
        assert repr(float(_log_mgf(a, delta, lam))) == repr(scalar_log_mgf(a, delta, lam))


class TestExactTail:
    def test_binomial_path_matches_scipy(self):
        for n in (50, 100, 400):
            for delta in (0.1, 0.3, 0.5):
                for t in (0.25, 0.5, 1.0):
                    tau = t * delta * n
                    got = exact_tail_probability(np.ones(n), delta, tau)
                    k0 = math.floor(tau + delta * n) + 1
                    want = float(binom.sf(k0 - 1, n, delta))
                    assert got == pytest.approx(want, rel=1e-10, abs=1e-300)

    def test_scaled_binomial_with_zeros(self):
        # zeros contribute nothing; the nonzero block is a scaled binomial
        a = np.array([0.0, 2.0, 2.0, 0.0, 2.0])
        delta, tau = 0.4, 1.0
        got = exact_tail_probability(a, delta, tau)
        assert got == pytest.approx(brute_tail(a, delta, tau), rel=1e-10)

    def test_enumeration_path_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 11))
            a = rng.uniform(-2.0, 2.0, size=n)
            delta = float(rng.uniform(0.1, 0.9))
            tau = float(rng.uniform(0.0, 2.0))
            got = exact_tail_probability(a, delta, tau)
            assert got is not None
            assert got == pytest.approx(brute_tail(a, delta, tau), rel=1e-9, abs=1e-12)

    @given(
        s=st.integers(1, 60),
        delta=st.floats(1e-6, 1.0, exclude_max=True),
        h=st.floats(1e-3, 1e3),
        k0=st.integers(-3, 64),
    )
    def test_binomial_path_matches_rational_oracle(self, s, delta, h, k0):
        # k0 <= 0 and k0 > s are the edges where the tail is 1 and 0
        a = np.zeros(s + 2)
        a[1 : s + 1] = h
        threshold = h * (k0 - 0.5 - delta * s)
        got = exact_tail_probability(a, delta, threshold)
        k0 = math.floor(threshold / h + delta * s) + 1
        d = Fraction(delta)
        want = sum(math.comb(s, k) * d**k * (1 - d) ** (s - k) for k in range(max(k0, 0), s + 1))
        if want < 1e-290:  # below the normal float range
            assert got <= 1e-290
        else:
            assert abs(Fraction(got) - want) <= Fraction(1, 10**12) * want

    def test_binomial_path_at_the_ends_of_the_float_range(self):
        # threshold / weight overflows to +-inf; the tail is then 0 or 1
        a = np.full(3, 0.5)
        assert exact_tail_probability(a, 0.5, 1e308) == 0.0
        assert exact_tail_probability(a, 0.5, -1e308) == 1.0
        # and so does the threshold moved to the weights' unit peak
        for a in (np.full(3, 1e-300), np.array([1e-300, 2e-300, -1e-300])):
            assert exact_tail_probability(a, 0.5, 1e300) == 0.0
            assert exact_tail_probability(a, 0.5, -1e300) == 1.0

    @given(
        groups=st.lists(st.tuples(st.integers(-16, 16).filter(bool), st.integers(1, 66)),
                        min_size=1, max_size=3, unique_by=lambda g: g[0]),
        j=st.integers(1, 255),
        q=st.floats(-4.0, 4.0),
    )
    def test_grouped_law_matches_rational_oracle(self, groups, j, q):
        # n up to 198 with at most 3 distinct weights; dyadic weights, delta
        # and threshold make every value of Z exact in floats as well
        d = Fraction(j, 256)
        sd = math.sqrt(sum(u * u * s for u, s in groups) * j * (256 - j)) / 256
        threshold = math.ldexp(round(math.ldexp(q * sd, 4)), -4)
        a = np.concatenate([np.full(s, float(u)) for u, s in groups])
        got = exact_tail_probability(np.random.default_rng(j).permutation(a), j / 256, threshold)

        def weight(s, k):  # 256^s P{Bin(s, d) = k}, an integer
            return math.comb(s, k) * j**k * (256 - j) ** (s - k)

        # count vectors of all groups but the last; the last one's tail in closed form
        *head, (u, s) = groups
        below = [0, *itertools.accumulate(weight(s, k) for k in range(s + 1))]
        total = 0
        for ks in itertools.product(*(range(sj + 1) for _, sj in head)):
            rest = threshold - sum(uj * (k - d * sj) for (uj, sj), k in zip(head, ks))
            x = rest / u + d * s  # u (K - d s) > rest
            kept = (below[-1] - below[min(max(math.floor(x) + 1, 0), s + 1)] if u > 0
                    else below[min(max(math.ceil(x), 0), s + 1)])
            total += math.prod(weight(sj, k) for (_, sj), k in zip(head, ks)) * kept
        want = Fraction(total, 256 ** a.size)
        assert abs(Fraction(got) - want) <= Fraction(1, 10**12) * want

    @given(
        a=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=20),
        delta=st.floats(1e-9, 1.0),
        threshold=st.floats(-1e308, 1e308),
    )
    @example(a=[1e-300, 2e-300, -1e-300], delta=0.5, threshold=-1e300)
    def test_probability_lies_in_the_unit_interval(self, a, delta, threshold):
        assert 0.0 <= exact_tail_probability(a, delta, threshold) <= 1.0

    @given(
        a=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=10),
        delta=st.floats(0.05, 0.95),
        threshold=st.floats(-2.0, 2.0),
    )
    # the law's values: Z = 2^-1075 > 0 when 5e-324 is selected, and Z = 1 - fl(3 * fl(1/3))
    # = 0 at one selected weight of three, so only two or three selected weights count
    @example(a=[5e-324], delta=0.5, threshold=0.0)
    @example(a=[1.0, 1.0, 1.0], delta=1 / 3, threshold=0.0)
    # project's tie row at t = 0.025: three selections give Z = tau = t delta n in exact
    # arithmetic, and the float Z puts all three below tau
    @example(a=[0.8, -0.9, 0.1, -0.1], delta=0.2, threshold=0.025 * 0.2 * 4)
    def test_enumeration_path_matches_product_brute_force(self, a, delta, threshold):
        got = exact_tail_probability(a, delta, threshold)
        assert got == pytest.approx(brute_tail(a, delta, threshold), rel=1e-9, abs=1e-12)

    @given(
        ints=st.lists(st.integers(-2**33, 2**33), min_size=1, max_size=10),
        equal=st.booleans(),
        delta=st.floats(0.05, 0.95),
        k=st.integers(-2**33, 2**33),
        j=st.integers(-1000, 1000),
    )
    @example(ints=[2**33, 2**33, -2**33], equal=False, delta=0.5, k=1, j=1000)
    def test_scale_equivariant_across_the_float_range(self, ints, equal, delta, k, j):
        # dyadic weights and threshold between 2^-10 and 2^23, so 2^j times them is exact
        a = np.ldexp(np.array(ints, dtype=float), -10)
        if equal:  # one group of equal weights; otherwise up to ten groups
            a = np.where(a != 0.0, 1.0, 0.0)
        threshold = math.ldexp(k, -10)
        got = exact_tail_probability(np.ldexp(a, j), delta, math.ldexp(threshold, j))
        assert got == exact_tail_probability(a, delta, threshold)

    @given(
        a=st.lists(st.one_of(st.sampled_from([0.0, 0.1, -0.1, 0.8, -0.9, 1 / 3]),
                             st.floats(-2.0, 2.0)), min_size=1, max_size=10),
        delta=st.floats(0.1, 0.9),
        pick=st.integers(0, 2**10),
        j=st.sampled_from((0, 900, -900)),
    )
    @example(a=[0.8, -0.9, 0.1, -0.1], delta=0.2, pick=0, j=0)
    def test_ties_match_the_histogram_tail_column(self, a, delta, pick, j):
        # at a threshold equal to an attained Z, the exact tail holds the law of the count
        # vectors on which the histogram's tail column holds, the zero weights' counts included
        v = np.ldexp(np.array(a), j)
        assume(np.any(v))
        unit, e = unit_peak(v)
        values, sizes = _weight_groups(unit)
        counts, p = map(np.concatenate, zip(*_count_vectors(sizes, delta)))
        z = _z(counts, values, unit, delta)
        tau = z[pick % z.size]
        got = exact_tail_probability(v, delta, math.ldexp(tau, e))
        assert got == pytest.approx(math.fsum(p[z > tau]), rel=1e-12, abs=0.0)

    def test_ties_follow_the_float_value_of_z(self):
        assert exact_tail_probability([5e-324], 0.5, 0.0) == 0.5
        assert exact_tail_probability([1.0, 1.0, 1.0], 1 / 3, 0.0) == pytest.approx(7 / 27, rel=1e-15)

    def test_intractable_returns_none(self):
        rng = np.random.default_rng(17)
        a = rng.uniform(0.5, 1.5, size=25)  # 25 distinct values, n > 20
        assert exact_tail_probability(a, 0.3, 1.0) is None


class TestDrawSelectors:
    def test_reproducible_and_mean(self):
        r1 = draw_selectors(5000, 0.3, RngStream(5))
        r2 = draw_selectors(5000, 0.3, RngStream(5))
        assert np.array_equal(r1.outcomes, r2.outcomes)
        assert r1.subset.indices == r2.subset.indices
        # 5 sigma band around the binomial mean
        assert abs(r1.outcomes.mean() - 0.3) < 5 * math.sqrt(0.3 * 0.7 / 5000)

    def test_subset_matches_outcomes(self):
        r = draw_selectors(40, 0.5, RngStream(9))
        assert r.subset == CoordinateSubset.from_mask(r.outcomes.astype(bool))

    def test_rejects_bad_delta(self):
        with pytest.raises(InputError):
            draw_selectors(10, 0.0, RngStream(0))
        with pytest.raises(InputError):
            draw_selectors(10, 1.5, RngStream(0))


class TestTailExperiment:
    def test_constant_weights_against_binomial(self):
        _, _, rep = selector_experiment(np.ones(100), 0.3, 0.25, 40_000, RngStream(21), t=0.25)
        assert rep.exact_prob is not None
        se = math.sqrt(rep.exact_prob * (1 - rep.exact_prob) / rep.trials)
        assert abs(rep.empirical_prob - rep.exact_prob) <= 3 * se
        assert rep.exact_prob <= rep.chernoff_bound + 1e-12
        assert rep.two_sided_prob >= rep.empirical_prob

    def test_fitted_c_inverts_the_fit(self):
        _, _, rep = selector_experiment(np.ones(100), 0.3, 0.25, 40_000, RngStream(23), t=0.25)
        assert rep.fitted_c is not None
        refit = math.exp(-rep.fitted_c * rep.t**2 * rep.delta * rep.n / rep.psi1**2)
        assert refit == pytest.approx(rep.empirical_prob, rel=1e-9)

    def test_flags(self):
        _, _, rep = selector_experiment(np.ones(50), 0.7, 0.25, 1000, RngStream(25), t=0.2)
        assert "DELTA_ABOVE_HALF" in rep.flags
        # psi_1 of the all-ones vector is 1, so t = 0.6 >= M/2
        _, _, rep = selector_experiment(np.ones(50), 0.3, 0.25, 1000, RngStream(27), t=0.6)
        assert "T_EXCEEDS_HALF_M" in rep.flags
        # an unreachable threshold leaves the tail unresolved
        _, _, rep = selector_experiment(np.ones(20), 0.5, 0.25, 500, RngStream(29), t=2.5)
        assert rep.empirical_prob == 0.0
        assert "UNRESOLVED_TAIL" in rep.flags and rep.fitted_c is None

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            selector_experiment(np.ones(5), 0.3, 0.25, 100, RngStream(0), t=-1.0)
        with pytest.raises(InputError):
            selector_experiment(np.zeros(5), 0.3, 0.25, 100, RngStream(0), t=0.5)


class TestAlmostIsometry:
    def test_constant_vector_success_is_nonempty_prob(self):
        # constant rows project to themselves, so success = P(sigma nonempty)
        n, delta, trials = 12, 0.2, 30_000
        p, _, _ = selector_experiment(np.ones(n), delta, 0.25, trials, RngStream(31))
        want = 1.0 - (1.0 - delta) ** n
        se = math.sqrt(want * (1 - want) / trials)
        assert abs(p - want) <= 4 * se

    def test_success_monotone_in_eps(self):
        rng = np.random.default_rng(37)
        v = rng.standard_normal(64)
        p_small, _, _ = selector_experiment(v, 0.4, 0.05, 4000, RngStream(41))
        p_big, _, _ = selector_experiment(v, 0.4, 0.5, 4000, RngStream(41))
        assert p_big >= p_small

    def test_rejects_bad_eps(self):
        with pytest.raises(InputError):
            selector_experiment(np.ones(4), 0.5, 0.0, 100, RngStream(0))
        with pytest.raises(InputError):
            selector_experiment(np.ones(4), 0.5, 1.0, 100, RngStream(0))




class TestSelectorExperiment:
    @given(
        kind=st.sampled_from(("gaussian", "decimal", "pool", "constant")),
        n=st.integers(1, 40),
        j=st.sampled_from((0, 900, -900)),
        delta=st.floats(0.01, 1.0),
        eps=st.floats(0.01, 0.99),
        t=st.floats(0.01, 2.0),
        seed=st.integers(0, 2**16),
    )
    def test_grouped_events_match_the_mask_events(self, kind, n, j, delta, eps, t, seed):
        # the count table loses nothing the events read: on 200 masks, the events
        # from the counts agree with the events from the coordinates, except where
        # a statistic lies within the rounding of its two sums of a boundary
        gen = np.random.default_rng(seed)
        v = np.ldexp(vector_of(kind, n, gen), j)
        assume(np.any(v))
        mask = gen.random((200, n)) < delta
        counts, values = group_counts(mask, v)
        ulps = 128 * np.finfo(float).eps

        want, mean_sq, bounds = reference_hits(mask, v, eps)
        got = _isometry_hits(counts, values, *bounds)
        near = np.isclose(mean_sq[:, None], bounds, rtol=ulps, atol=0.0).any(axis=1)
        assert np.array_equal(got[~near], want[~near])

        z_want, tau, size = reference_z(mask, v, delta, t)
        z = _z(counts, values, unit_peak(v)[0], delta)
        near = np.abs(z_want - tau) <= ulps * size
        assert np.array_equal((z > tau)[~near], (z_want > tau)[~near])
        near = np.abs(z_want + tau) <= ulps * size
        assert np.array_equal((z < -tau)[~near], (z_want < -tau)[~near])

    @given(
        kind=st.sampled_from(("gaussian", "decimal", "pool", "constant")),
        n=st.integers(1, 40),
        j=st.sampled_from((0, 900, -900)),
        delta=st.floats(0.01, 1.0),
        eps=st.floats(0.01, 0.99),
        trials=st.integers(1, 3000),
        t=st.one_of(st.none(), st.floats(0.01, 2.0)),
        block_scalars=st.sampled_from((7, 1000)),
        seed=st.integers(0, 2**16),
    )
    def test_result_does_not_depend_on_the_block_size(
            self, kind, n, j, delta, eps, trials, t, block_scalars, seed):
        gen = np.random.default_rng(seed)
        v = np.ldexp(vector_of(kind, n, gen), j)
        assume(np.any(v))
        rng = RngStream(seed, 5)
        with pytest.MonkeyPatch.context() as mp:  # no enumeration: both calls draw count tables
            mp.setattr(selector, "_BLOCK_SCALARS", 1)
            want = selector_experiment(v, delta, eps, trials, rng, t=t)
            mp.setattr(core, "_BLOCK_SCALARS", block_scalars)  # split the trials into many blocks
            got = selector_experiment(v, delta, eps, trials, rng, t=t)
        assert repr(got) == repr(want)

    def test_row_sums_do_not_depend_on_the_table(self):
        # what makes blocks and enumeration chunks agree bit for bit; a BLAS
        # product fails this from 8 columns on
        gen = np.random.default_rng(89)
        for r in (1, 2, 3, 8, 9, 33, 200):
            counts = gen.integers(0, 3, size=(300, r)).astype(float)
            w = gen.standard_normal(r)
            whole = _row_dot(counts, w)
            for rows in (1, 7, 13):
                parts = [_row_dot(counts[i:i + rows], w) for i in range(0, 300, rows)]
                assert np.array_equal(np.concatenate(parts), whole), (r, rows)

    def test_sampled_counts_follow_the_binomial_law(self):
        # every column, binomial or single-uniform, against Bin(s_j, delta); the
        # cells of the tails are merged into the first and last cells holding 5.
        # The two groups of 7 share one draw, which must fill two distinct columns
        sizes = np.array([2, 7, 3, 40, 7, 170, 1, 1, 1])
        delta, rows = 0.3, 20_000
        counts = _count_sampler(sizes, delta, RngStream(47))(rows)
        assert counts.shape == (rows, sizes.size)
        assert not np.array_equal(counts[:, 1], counts[:, 4])
        for column, s in zip(counts.T, sizes):
            observed = np.bincount(column.astype(int), minlength=s + 1)
            assert observed.size == s + 1
            expected = rows * binom.pmf(np.arange(s + 1), s, delta)
            kept = np.flatnonzero(expected >= 5.0)
            lo, hi = kept[0], kept[-1] + 1
            obs, exp = observed[lo:hi].astype(float), expected[lo:hi].copy()
            obs[0] += observed[:lo].sum()
            obs[-1] += observed[hi:].sum()
            exp[0] += expected[:lo].sum()
            exp[-1] += expected[hi:].sum()
            assert chisquare(obs, exp).pvalue > 1e-4, s

    def test_frequencies_agree_with_the_mask_references(self, monkeypatch):
        # independent samples of the count histogram and of per-coordinate masks
        v = np.random.default_rng(53).choice([0.0, 0.5, 1.0, 2.0, 3.0], 30)
        delta, eps, t, trials = 0.3, 0.2, 0.2, 20_000
        forbid_table_sampler(monkeypatch)
        success, _, tail = selector_experiment(v, delta, eps, trials, RngStream(59), t=t)
        ref_success = reference_isometry(v, delta, eps, trials, RngStream(61))
        ref_tail = reference_tail(v, delta, t, trials, RngStream(61))
        assert tail.exact_prob == ref_tail.exact_prob
        assert tail.chernoff_bound == ref_tail.chernoff_bound
        for p, q in ((success, ref_success), (tail.empirical_prob, ref_tail.empirical_prob),
                     (tail.two_sided_prob, ref_tail.two_sided_prob)):
            se = math.sqrt((p * (1.0 - p) + q * (1.0 - q)) / trials)
            assert abs(p - q) <= 5.0 * se

    def test_success_frequency_matches_the_exact_probability(self):
        gen = np.random.default_rng(67)
        ones = np.zeros(200)
        ones[gen.choice(200, size=170, replace=False)] = 1.0
        trials = 40_000
        for seed, (v, delta, eps) in enumerate([(ones, 0.3, 0.05), (gen.standard_normal(12), 0.4, 0.3),
                                                (vector_of("pool", 30, gen), 0.2, 0.25)]):
            exact = exact_success_prob(v, delta, eps)
            assert exact is not None and 0.01 < exact < 0.99
            success, _, _ = selector_experiment(v, delta, eps, trials, RngStream(71, seed))
            assert abs(success - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / trials)

    def test_histogram_and_table_sampler_agree_with_the_exact_law(self, monkeypatch):
        v = np.random.default_rng(97).choice([0.0, -0.5, 1.0, 2.0], 40)
        delta, eps, t, trials = 0.4, 0.15, 0.1, 40_000
        exact = exact_success_prob(v, delta, eps)
        exact_tail = exact_tail_probability(v, delta, t * delta * v.size)
        with monkeypatch.context() as mp:
            forbid_table_sampler(mp)
            histogram = selector_experiment(v, delta, eps, trials, RngStream(101), t=t)
        assert histogram[1] == exact and histogram[2].exact_prob == exact_tail
        monkeypatch.setattr(selector, "_BLOCK_SCALARS", 1)  # past every enumeration
        table = selector_experiment(v, delta, eps, trials, RngStream(101), t=t)
        assert table[1] is None and table[2].exact_prob is None
        for success, _, tail in (histogram, table):
            for p, q in ((success, exact), (tail.empirical_prob, exact_tail)):
                assert 0.01 < q < 0.99
                assert abs(p - q) <= 5.0 * math.sqrt(q * (1.0 - q) / trials)

    def test_one_trial_gives_zero_or_one(self, monkeypatch):
        v = np.random.default_rng(103).choice([0.0, 1.0, 3.0], 20)
        for gate in (selector._BLOCK_SCALARS, 1):  # the histogram, then the table sampler
            monkeypatch.setattr(selector, "_BLOCK_SCALARS", gate)
            for seed in range(20):
                success, _, tail = selector_experiment(v, 0.5, 0.3, 1, RngStream(107, seed), t=0.05)
                assert success in (0.0, 1.0)
                assert tail.empirical_prob in (0.0, 1.0) and tail.two_sided_prob in (0.0, 1.0)

    def test_a_trillion_trials_cost_one_histogram(self):
        # the benchmark's row: 200 weights, ones on a random support, zeros elsewhere
        v = np.zeros(200)
        v[np.random.default_rng(109).choice(200, size=170, replace=False)] = 1.0
        start = time.perf_counter()
        success, _, tail = selector_experiment(v, 0.3, 0.1, 10**12, RngStream(113), t=0.1525)
        assert time.perf_counter() - start < 0.5
        assert 0.0 <= success <= 1.0 and 0.0 < tail.empirical_prob < 1.0
        assert abs(success - exact_success_prob(v, 0.3, 0.1)) < 1e-5
        assert abs(tail.empirical_prob - tail.exact_prob) < 1e-5
        with pytest.raises(InputError):  # past numpy's 64-bit counts
            selector_experiment(v, 0.3, 0.1, 2**63, RngStream(113), t=0.1525)


class TestExactSuccess:
    def test_matches_the_product_brute_force(self):
        gen = np.random.default_rng(73)
        for _ in range(30):
            n = int(gen.integers(1, 11))
            v = vector_of(str(gen.choice(["gaussian", "decimal", "pool"])), n, gen)
            if not np.any(v):
                continue
            delta = float(gen.uniform(0.05, 0.95))
            eps = float(gen.uniform(0.02, 0.9))
            got = exact_success_prob(v, delta, eps)
            assert got == pytest.approx(brute_success(v, delta, eps), rel=1e-9, abs=1e-12)

    @given(
        groups=st.lists(st.tuples(st.integers(-8, 8), st.integers(1, 20)),
                        min_size=1, max_size=3, unique_by=lambda g: g[0]),
        j=st.integers(1, 255),
        eps=st.floats(0.01, 0.99),
        scale=st.integers(-1000, 1000),
    )
    def test_matches_rational_oracle(self, groups, j, eps, scale):
        # integer weights make every sum exact, so the float event is one correctly
        # rounded division: the oracle decides it the same way and sums the law exactly
        assume(any(g for g, _ in groups))
        a = np.concatenate([np.full(s, float(g)) for g, s in groups])
        got = exact_success_prob(np.ldexp(a, scale), j / 256, eps)

        e = math.frexp(max(abs(g) for g, _ in groups))[1]
        full = math.sqrt(math.ldexp(sum(g * g * s for g, s in groups), -2 * e) / a.size)
        lo2, hi2 = ((1.0 - eps) * full) ** 2, ((1.0 + eps) * full) ** 2
        total = 0
        for ks in itertools.product(*(range(s + 1) for _, s in groups)):
            k = sum(ks)
            if k and lo2 <= math.ldexp(sum(g * g * kj for (g, _), kj in zip(groups, ks)), -2 * e) / k <= hi2:
                total += math.prod(math.comb(s, kj) * j**kj * (256 - j) ** (s - kj)
                                   for (_, s), kj in zip(groups, ks))
        want = Fraction(total, 256 ** a.size)
        assert abs(Fraction(got) - want) <= Fraction(1, 10**12) * want

    @given(
        a=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=12),
        delta=st.floats(1e-9, 1.0),
        eps=st.floats(0.01, 0.99),
    )
    def test_probability_lies_in_the_unit_interval(self, a, delta, eps):
        assume(any(a))
        assert 0.0 <= exact_success_prob(a, delta, eps) <= 1.0

    def test_every_selector_fires_at_delta_one(self):
        v = np.random.default_rng(79).standard_normal(9)
        assert exact_success_prob(v, 1.0, 0.1) == 1.0
        assert selector_experiment(v, 1.0, 0.1, 100, RngStream(83))[0] == 1.0

    def test_intractable_returns_none(self):
        a = np.random.default_rng(17).uniform(0.5, 1.5, size=25)  # 2^25 count vectors
        assert exact_success_prob(a, 0.3, 0.25) is None

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            exact_success_prob(np.zeros(3), 0.3, 0.25)
        with pytest.raises(InputError):
            exact_success_prob(np.ones(3), 0.3, 1.0)
        with pytest.raises(InputError):
            exact_success_prob(np.ones(3), 0.0, 0.25)


def mp_binomial_tail(s, delta, k0):
    """P{Bin(s, delta) >= k0} to 40 digits: terms from k0 up until they no longer count."""
    mpmath.mp.dps = 40
    d = mpmath.mpf(delta)
    k = max(k0, 0)
    term = mpmath.exp(mpmath.loggamma(s + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(s - k + 1)
                      + k * mpmath.log(d) + (s - k) * mpmath.log(1 - d))
    total = mpmath.mpf(0)
    while k <= s and (k <= s * d or term > total * mpmath.mpf(10) ** -45):
        total += term
        term *= mpmath.mpf(s - k) / (k + 1) * d / (1 - d)
        k += 1
    return total


class TestBinomialLogPmf:
    def test_stirling_errors_match_mpmath(self):
        mpmath.mp.dps = 40
        n = np.array([*range(1, 20), 35.0, 80.0, 500.0, 1e6])
        got = _stirlerr(n)
        for m, g in zip(n, got):
            m = int(m)
            want = mpmath.loggamma(m + 1) - (m + 0.5) * mpmath.log(m) + m - mpmath.log(2 * mpmath.pi) / 2
            # it enters the log pmf as a term, so its absolute error is what counts
            assert abs(g - want) <= 2e-16, m
        assert _STIRLERR.size == 16

    def test_log_pmf_matches_mpmath(self):
        mpmath.mp.dps = 40
        for s in (1, 2, 17, 1000):
            for delta in (1e-6, 0.3, 0.5, 0.999):
                got = _binomial_log_pmf(s, delta)
                d = mpmath.mpf(delta)
                for k in sorted({0, 1, s // 3, s // 2, s - 1, s}):
                    want = (mpmath.log(mpmath.binomial(s, k)) + k * mpmath.log(d)
                            + (s - k) * mpmath.log(1 - d))
                    assert abs(got[k] - want) <= 1e-14 * max(1.0, abs(want)), (s, delta, k)

    def test_one_huge_group_matches_mpmath(self):
        # s = 10^6 equal weights; ln s! - ln k! - ln (s-k)! in lgamma lost about 6.5e-10
        # here, and scipy's bdtrc holds 2.1e-10; the saddle-point form holds 1e-12
        s = 10**6
        for delta, z in ((0.01, 2.0), (0.3, 0.5), (0.9, 6.0)):
            threshold = z * math.sqrt(s * delta * (1.0 - delta)) + 0.37
            got = exact_tail_probability(np.ones(s), delta, threshold)
            want = mp_binomial_tail(s, delta, math.floor(threshold + delta * s) + 1)
            assert abs(mpmath.mpf(got) - want) <= 1e-12 * want, delta
