import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad
from scipy.optimize import brentq

from coordproj.core import InputError
from coordproj.orlicz import psi_norm, psi_norms


def spike_closed_form(n: int, p: float) -> float:
    # unique root of (1/n)(exp(1/lam^p) + (n-1)) = e for a one-spike vector
    return math.log(n * (math.e - 1.0) + 1.0) ** (-1.0 / p)


class TestPsiNorm:
    def test_one_spike_closed_form(self):
        for n in (2, 3, 8, 50):
            for p in (1.0, 2.0, 3.0):
                v = np.zeros(n)
                v[0] = 1.0
                got = psi_norm(v, p, tol=1e-12).value
                assert got == pytest.approx(spike_closed_form(n, p), abs=1e-9)

    def test_constant_vector(self):
        # mean exp(c^p/lam^p) = e forces lam = c
        for c in (0.25, 1.0, 7.5):
            got = psi_norm(np.full(6, c), 2.0, tol=1e-12).value
            assert got == pytest.approx(c, abs=1e-10)

    def test_homogeneity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = rng.standard_normal(15)
            s = float(rng.uniform(0.1, 10.0))
            a = psi_norm(s * v, 2.0, tol=1e-12).value
            b = s * psi_norm(v, 2.0, tol=1e-12).value
            assert a == pytest.approx(b, rel=1e-8)

    def test_residual_measures_defining_equation(self):
        v = np.array([1.0, -2.0, 0.5])
        res = psi_norm(v, 2.0, tol=1e-12)
        mean_exp = float(np.mean(np.exp((np.abs(v) / res.value) ** 2)))
        assert abs(mean_exp - math.e) == pytest.approx(res.residual, abs=1e-12)
        assert res.residual < 1e-9

    def test_zero_vector(self):
        res = psi_norm(np.zeros(5), 2.0)
        assert res.value == 0.0 and res.iterations == 0

    def test_root_is_unique_crossing(self):
        # mean-exp is strictly decreasing in lam, so value +/- tol brackets e
        v = np.array([0.3, -1.2, 2.0, 0.0])
        lam = psi_norm(v, 2.0, tol=1e-12).value
        up = float(np.mean(np.exp((np.abs(v) / (lam * (1 - 1e-6))) ** 2)))
        dn = float(np.mean(np.exp((np.abs(v) / (lam * (1 + 1e-6))) ** 2)))
        assert up > math.e > dn

    def test_extreme_scales_bracket_guard(self):
        v = np.array([1e-9, 2e-9, 0.0])
        got = psi_norm(v, 2.0, tol=1e-16).value
        assert 0 < got < 1e-8
        w = np.array([1e9, -1e9, 1e8])
        got = psi_norm(w, 2.0).value
        # independent root-finder oracle on the defining equation
        oracle = brentq(
            lambda lam: float(np.mean(np.exp((np.abs(w) / lam) ** 2))) - math.e,
            1e8, 1e10, xtol=1e-4)
        assert got == pytest.approx(oracle, rel=1e-9)

    def test_rejects_bad_arguments(self):
        for p in (0.5, math.nan, math.inf):
            with pytest.raises(InputError, match="exponent"):
                psi_norm(np.ones(3), p)
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InputError, match="tolerance"):
                psi_norm(np.ones(3), 2.0, tol=tol)
        with pytest.raises(InputError):
            psi_norm(np.zeros(0), 2.0)
        with pytest.raises(InputError):
            psi_norm(np.ones((2, 2)), 2.0)

    def test_batch_rejects_non_finite_rows_and_bad_shapes(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(InputError, match="finite"):
                psi_norms([[1.0, 2.0], [3.0, bad]], 2.0)
        for shape in ((3,), (2, 0), (1, 2, 2)):
            with pytest.raises(InputError):
                psi_norms(np.ones(shape), 2.0)

    def test_batch_zero_rows_and_shared_iterations(self):
        res = psi_norms([[0.0, 0.0], [1.0, 0.0], [3.0, -3.0]], 2.0)
        assert res.values[0] == 0.0 and res.residuals[0] == 0.0
        assert res.values[1] == pytest.approx(spike_closed_form(2, 2.0), rel=1e-9)
        assert res.values[2] == pytest.approx(3.0, rel=1e-9)
        assert 0 < res.iterations <= 60


_SPIKE_PEAKS = (1e-300, 1e-12, 1.0, 1e8, 1e10, 5e307)


class TestPsiKernelProperties:
    @pytest.mark.parametrize("peak", _SPIKE_PEAKS)
    @pytest.mark.parametrize("n,p", [(2, 2.0), (3, 1.0), (64, 3.0), (1024, 2.0)])
    def test_spike_closed_form_at_every_scale(self, peak, n, p):
        v = np.zeros(n)
        v[n // 2] = -peak
        res = psi_norm(v, p)
        assert res.value == pytest.approx(peak * spike_closed_form(n, p), rel=1e-9)
        assert res.iterations <= 60

    def test_two_peaks_at_the_top_of_the_float_range(self):
        # (2 exp(c^2 / lam^2) + 1) / 3 = e; c^2 itself would overflow
        got = psi_norm([1e308, 1e308, 0.0], 2.0).value
        assert math.isfinite(got)
        assert got == pytest.approx(1e308 / math.sqrt(math.log((3.0 * math.e - 1.0) / 2.0)),
                                    rel=1e-9)

    @given(
        v=arrays(np.float64, st.integers(1, 30),
                 elements=st.floats(-10.0, 10.0, allow_subnormal=False)),
        exponent=st.floats(-300.0, 300.0),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    def test_scale_equivariance(self, v, exponent, p):
        assume(np.abs(v).max() >= 1e-3)
        c = 10.0**exponent
        assert psi_norm(c * v, p).value == pytest.approx(c * psi_norm(v, p).value, rel=1e-9)

    @given(
        rows=arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 40)),
                    elements=st.floats(-1e300, 1e300)),
        p=st.floats(1.0, 8.0),
    )
    def test_batched_rows_equal_one_row_calls(self, rows, p):
        batch = psi_norms(rows, p)
        for i, row in enumerate(rows):
            one = psi_norm(row, p)
            assert batch.values[i] == one.value
            assert batch.residuals[i] == one.residual
            if one.value > 0.0:
                assert batch.iterations == one.iterations

    @given(
        n=st.integers(1, 4096),
        exponent=st.floats(-300.0, 300.0),
        p=st.floats(1.0, 50.0),
        log_tol=st.floats(-300.0, -1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_at_most_60_iterations_at_every_scale(self, n, exponent, p, log_tol, seed):
        v = 10.0**exponent * np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        v[0] = 10.0**exponent
        res = psi_norm(v, p, tol=10.0**log_tol)
        assert res.iterations <= 60
        assert 0.0 < res.value <= 10.0**exponent

    @given(
        v=arrays(np.float64, st.integers(2, 40),
                 elements=st.floats(-10.0, 10.0, allow_subnormal=False)),
        p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    )
    def test_agrees_with_brentq_oracle(self, v, p):
        peak = float(np.abs(v).max())
        assume(peak >= 1e-3)
        bottom = peak * spike_closed_form(v.size, p)
        oracle = brentq(
            lambda lam: float(np.mean(np.exp((np.abs(v) / lam) ** p))) - math.e,
            0.5 * bottom, 2.0 * peak, xtol=1e-15 * peak, rtol=1e-15)
        assert psi_norm(v, p).value == pytest.approx(oracle, rel=1e-9)


class TestPsiComparisons:
    def test_psi1_below_psi2(self):
        # |f|/lam <= (f^2/lam^2 + 1)/2 pointwise gives psi_1 <= psi_2 exactly
        rng = np.random.default_rng(23)
        for _ in range(50):
            v = rng.standard_normal(rng.integers(2, 30))
            p1 = psi_norm(v, 1.0, tol=1e-12).value
            p2 = psi_norm(v, 2.0, tol=1e-12).value
            assert p1 <= p2 + 1e-9

    @given(
        v=arrays(np.float64, st.integers(2, 32),
                 elements=st.floats(-10.0, 10.0, allow_subnormal=False)),
        j=st.integers(-200, 200),
        p=st.floats(1.0, 4.0),
    )
    def test_power_identity(self, v, j, p):
        # psi_p(v)^p and psi_1(|v|^p) both solve mean exp(|v|^p / s) = e for s
        assume(np.abs(v).max() >= 1e-3)
        v = np.ldexp(v, j)
        lhs = psi_norm(v, p, tol=1e-12).value ** p
        rhs = psi_norm(np.abs(v) ** p, 1.0, tol=1e-12).value
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_lp_bounded_by_factorial_psi1(self):
        # integrating the tail exp(1 - t/lam) gives E|f|^p <= p! e lam^p
        rng = np.random.default_rng(31)
        for _ in range(30):
            v = rng.standard_normal(20) * rng.uniform(0.5, 3.0)
            lam = psi_norm(v, 1.0, tol=1e-12).value
            for p in (1.0, 2.0, 3.0):
                lp = np.mean(np.abs(v) ** p) ** (1.0 / p)
                bound = (math.factorial(int(p)) * math.e) ** (1.0 / p) * lam
                assert lp <= bound + 1e-9

    def test_sphere_bound_euclidean_unit(self):
        # for unit vectors mean exp(n x_i^2 / 2) <= 2 < e at lam^2 = 2/log n
        rng = np.random.default_rng(37)
        for n in (4, 16, 64):
            bound = math.sqrt(2.0 / math.log(n))
            for _ in range(50):
                x = rng.standard_normal(n)
                x /= np.linalg.norm(x)
                assert psi_norm(x, 2.0, tol=1e-12).value <= bound


def test_gaussian_moment_cross_check():
    # quadrature oracle: psi_2 of a standard normal sample stabilizes near
    # the population value solving E exp(g^2/lam^2) = e
    target = math.sqrt(2.0 / (1.0 - math.exp(-2.0)))

    def mean_exp(lam):
        # exponents combined so the integrand never overflows
        val, _ = quad(
            lambda t: math.exp(t * t * (1.0 / (lam * lam) - 0.5))
            / math.sqrt(2.0 * math.pi),
            -np.inf, np.inf)
        return val

    assert mean_exp(target) == pytest.approx(math.e, abs=1e-6)
    rng = np.random.default_rng(41)
    v = rng.standard_normal(200_000)
    got = psi_norm(v, 2.0).value
    assert got == pytest.approx(target, rel=0.02)
