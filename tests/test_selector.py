import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from scipy.stats import binom

from coordproj import core
from coordproj.core import CoordinateSubset, InputError, RngStream, monte_carlo, unit_peak
from coordproj.orlicz import psi_norm
from coordproj.selector import (
    TailExperimentReport,
    _ldexp,
    chernoff_tail_bound,
    draw_selectors,
    exact_log_mgf,
    exact_mgf,
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


def brute_tail(a, delta, threshold):
    """P{Z > threshold} by the product law: a sum over all 2^n selections.

    Ties follow the convention of exact_tail_probability, which decides
    Z > threshold on Z as evaluated in floats: weights and threshold moved
    to a unit peak by one power of two, then u (K - delta s) summed over the
    groups of equal nonzero weights in ascending order of u, K of the s
    weights equal to u being selected.  A Z equal to the threshold in exact
    arithmetic can land on either side by rounding, and the law counts it
    where its float value lands; so does this sum.
    """
    v, e = unit_peak(np.asarray(a, dtype=float))
    tau = _ldexp(threshold, -e)
    values, sizes = np.unique(v[v != 0.0], return_counts=True)
    total = 0.0
    for bits in itertools.product((0, 1), repeat=v.size):
        z = 0.0
        for u, s in zip(values, sizes):
            z += u * (sum(b for b, w in zip(bits, v) if w == u) - delta * s)
        if z > tau:
            total += math.prod(delta if b else 1.0 - delta for b in bits)
    return total


def reference_tail(a, delta, t, trials, rng):
    """Reference tail experiment: its own draw, one +-1 exceedance statistic per trial."""
    v = np.asarray(a, dtype=float)
    m_psi = psi_norm(v, 1.0).value
    n = v.size
    tau = t * delta * n
    flags = []
    if delta > 0.5:
        flags.append("DELTA_ABOVE_HALF")
    if t >= m_psi / 2.0:
        flags.append("T_EXCEEDS_HALF_M")

    gen = rng.generator()
    unit, e = unit_peak(v)
    unit_tau = _ldexp(tau, -e)
    shift = delta * unit.sum()

    def exceed(rows):
        z = (gen.random((rows, n)) < delta) @ unit - shift
        return (z > unit_tau).astype(float) - (z < -unit_tau)

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
        exact_prob=exact_tail_probability(v, delta, tau), fitted_c=fitted_c, psi1=m_psi,
        flags=tuple(flags))


def reference_isometry(f, delta, eps, trials, rng):
    """Reference almost-isometry frequency: its own draw, one hit per trial."""
    v, _ = unit_peak(np.asarray(f, dtype=float))
    sq = v**2
    full = math.sqrt(float(sq.mean()))
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


class TestMgf:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            a = rng.uniform(-2.0, 2.0, size=n)
            delta = float(rng.uniform(0.05, 0.95))
            lam = float(rng.uniform(-1.5, 1.5))
            got = exact_mgf(a, delta, lam)
            assert got == pytest.approx(brute_mgf(a, delta, lam), rel=1e-10)

    def test_log_form_handles_huge_lambda(self):
        a = np.ones(50)
        val = exact_log_mgf(a, 0.3, 900.0)
        # dominated by all-ones outcome: 50*(log 0.3 + 900*0.7)
        assert val == pytest.approx(50 * (math.log(0.3) + 900 * 0.7), rel=1e-6)

    def test_degenerate_delta_one(self):
        a = np.array([1.0, -2.0])
        # selectors always fire, Z = 0 deterministically
        assert exact_mgf(a, 1.0, 3.7) == pytest.approx(1.0)

    def test_symmetrization_chain(self):
        # Cauchy-Schwarz then Jensen: mgf(lam)^2 <= mgf(2 lam) <= prod(1 +
        # 2 delta (1-delta)(cosh(2 lam a_i) - 1)), all compared in log space
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            a = rng.uniform(-3.0, 3.0, size=n)
            delta = float(rng.uniform(0.05, 0.95))
            lam = float(rng.uniform(0.0, 2.0))
            lo = 2.0 * exact_log_mgf(a, delta, lam)
            mid = exact_log_mgf(a, delta, 2.0 * lam)
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
        _, rep = selector_experiment(np.ones(100), 0.3, 0.25, 40_000, RngStream(21), t=0.25)
        assert rep.exact_prob is not None
        se = math.sqrt(rep.exact_prob * (1 - rep.exact_prob) / rep.trials)
        assert abs(rep.empirical_prob - rep.exact_prob) <= 3 * se
        assert rep.exact_prob <= rep.chernoff_bound + 1e-12
        assert rep.two_sided_prob >= rep.empirical_prob

    def test_fitted_c_inverts_the_fit(self):
        _, rep = selector_experiment(np.ones(100), 0.3, 0.25, 40_000, RngStream(23), t=0.25)
        assert rep.fitted_c is not None
        refit = math.exp(-rep.fitted_c * rep.t**2 * rep.delta * rep.n / rep.psi1**2)
        assert refit == pytest.approx(rep.empirical_prob, rel=1e-9)

    def test_flags(self):
        _, rep = selector_experiment(np.ones(50), 0.7, 0.25, 1000, RngStream(25), t=0.2)
        assert "DELTA_ABOVE_HALF" in rep.flags
        # psi_1 of the all-ones vector is 1, so t = 0.6 >= M/2
        _, rep = selector_experiment(np.ones(50), 0.3, 0.25, 1000, RngStream(27), t=0.6)
        assert "T_EXCEEDS_HALF_M" in rep.flags
        # an unreachable threshold leaves the tail unresolved
        _, rep = selector_experiment(np.ones(20), 0.5, 0.25, 500, RngStream(29), t=2.5)
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
        p, _ = selector_experiment(np.ones(n), delta, 0.25, trials, RngStream(31))
        want = 1.0 - (1.0 - delta) ** n
        se = math.sqrt(want * (1 - want) / trials)
        assert abs(p - want) <= 4 * se

    def test_success_monotone_in_eps(self):
        rng = np.random.default_rng(37)
        v = rng.standard_normal(64)
        p_small, _ = selector_experiment(v, 0.4, 0.05, 4000, RngStream(41))
        p_big, _ = selector_experiment(v, 0.4, 0.5, 4000, RngStream(41))
        assert p_big >= p_small

    def test_rejects_bad_eps(self):
        with pytest.raises(InputError):
            selector_experiment(np.ones(4), 0.5, 0.0, 100, RngStream(0))
        with pytest.raises(InputError):
            selector_experiment(np.ones(4), 0.5, 1.0, 100, RngStream(0))


class TestSelectorExperiment:
    @given(
        kind=st.sampled_from(("gaussian", "decimal", "constant")),
        n=st.integers(1, 40),
        j=st.sampled_from((0, 900, -900)),
        delta=st.floats(0.01, 1.0),
        eps=st.floats(0.01, 0.99),
        trials=st.integers(1, 3000),
        t=st.one_of(st.none(), st.floats(0.01, 2.0)),
        block_scalars=st.sampled_from((None, 7, 1000)),
        seed=st.integers(0, 2**16),
    )
    def test_one_sample_matches_both_references_bit_for_bit(
            self, kind, n, j, delta, eps, trials, t, block_scalars, seed):
        gen = np.random.default_rng(seed)
        v = {"gaussian": lambda: gen.standard_normal(n),
             "decimal": lambda: np.round(gen.uniform(-1.0, 1.0, n), 3),
             "constant": lambda: np.full(n, gen.uniform(0.1, 10.0))}[kind]()
        assume(np.any(v))
        v = np.ldexp(v, j)
        rng = RngStream(seed, 5)
        with pytest.MonkeyPatch.context() as mp:
            if block_scalars is not None:  # split the trials into many blocks
                mp.setattr(core, "_BLOCK_SCALARS", block_scalars)
            success, tail = selector_experiment(v, delta, eps, trials, rng, t=t)
            assert repr(success) == repr(reference_isometry(v, delta, eps, trials, rng))
            if t is None:
                assert tail is None
            else:
                assert repr(tail) == repr(reference_tail(v, delta, t, trials, rng))
