import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln

from coordproj import complexity, core
from coordproj.core import (
    CoordinateSubset,
    FunctionClass,
    InputError,
    RngStream,
    SizeCapError,
    banach_norm,
)
from coordproj.complexity import (
    ell_parameter,
    entropy_integral_audit,
    gaussian_complexity,
    min_sign_norm,
    rademacher_complexity,
    t_parameter,
    type_infratype_report,
)
from coordproj.shatter import is_shattered, vc_dimension

HALF_NORMAL = math.sqrt(2.0 / math.pi)


def sign_class(n: int) -> FunctionClass:
    rows = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    return FunctionClass(rows)


def chi_mean(n: int) -> float:
    # E ||g||_2 for g standard normal in R^n
    return math.sqrt(2.0) * math.exp(gammaln((n + 1) / 2.0) - gammaln(n / 2.0))


def sequential_min_sign(vectors, norm, rng):
    """Reference heuristic: each restart signed greedily, then steepest descent, one flip per norm call.

    It searches the table of complexity._sign_table, as min_sign_norm does;
    restart orders, tie rule and the relative 1e-15 descent threshold are
    also min_sign_norm's: each step scores every single flip and takes the
    first best one while it lowers the value by more than 1e-15 of it. The
    value is recomputed from the signs at the unit peak and scaled back.
    Returns (value, signs) with signs[0] = +1.
    """
    unit, x, e = complexity._sign_table(vectors, norm)
    count = x.shape[0]
    gen = rng.generator()
    orders = [tuple(np.argsort(-banach_norm(x, norm), kind="stable").tolist())]
    for _ in range(complexity._SIGN_RESTARTS - 1):
        orders.append(tuple(gen.permutation(count).tolist()))
    best_val, best_signs = math.inf, None
    for order in orders:
        signs = np.zeros(count)
        total = np.zeros(x.shape[1])
        for i in order:
            plus = banach_norm(total + x[i], norm)
            minus = banach_norm(total - x[i], norm)
            s = 1.0 if plus <= minus else -1.0
            signs[i] = s
            total = total + s * x[i]
        val = banach_norm(total, norm)
        while True:
            best_i, best_cand, best_cval = None, None, math.inf
            for i in range(count):
                cand = total - 2.0 * signs[i] * x[i]
                cval = banach_norm(cand, norm)
                if cval < best_cval:
                    best_i, best_cand, best_cval = i, cand, cval
            if not best_cval < val - 1e-15 * val:
                break
            total, val = best_cand, best_cval
            signs[best_i] = -signs[best_i]
        if val < best_val:
            best_val, best_signs = val, signs.copy()
    if best_signs[0] < 0:
        best_signs = -best_signs
    return math.ldexp(banach_norm(best_signs @ unit, norm), e), tuple(int(s) for s in best_signs)


def heuristic_min_sign(vectors, norm=2.0, rng=None):
    """min_sign_norm on its heuristic path, forced by an exact cap of 0 vectors."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complexity, "_EXACT_SIGN_CAP", 0)
        return min_sign_norm(vectors, norm=norm, rng=rng)


def _sign_vectors(kind, count, dim, g):
    if kind == "gaussian":
        return g.standard_normal((count, dim))
    if kind == "sign":
        return g.choice([-1.0, 1.0], size=(count, dim))
    if kind == "decimal":
        return np.round(g.uniform(-1.0, 1.0, size=(count, dim)), 2)
    return (np.eye(count) * g.choice([-1.0, 1.0], size=(count, 1)))[g.permutation(count)]


@st.composite
def sign_inputs(draw, norms=("sup", 2.0, 1.0, 3.0)):
    """(vectors, norm, rng) for the heuristic: 2 to 60 vectors in R^1..R^8.

    Entries are Gaussian, +-1 or rounded to 2 decimals, where sums tie
    often; or the vectors are a signed, shuffled basis, in R^count.
    """
    kind = draw(st.sampled_from(["gaussian", "sign", "decimal", "basis"]))
    count = draw(st.integers(2, 60))
    dim = draw(st.integers(1, 8))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = _sign_vectors(kind, count, dim, g)
    return x, draw(st.sampled_from(norms)), RngStream(draw(st.integers(0, 2**16)))


@st.composite
def sign_stacks(draw):
    """(stack, norm, rngs): a sign_inputs table and 0 to 3 more of its shape, each of any kind."""
    x, norm, rng = draw(sign_inputs())
    kinds = ["gaussian", "sign", "decimal"] + (["basis"] if x.shape[0] == x.shape[1] else [])
    tables, rngs = [x], [rng]
    for _ in range(draw(st.integers(0, 3))):
        g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        tables.append(_sign_vectors(draw(st.sampled_from(kinds)), *x.shape, g))
        rngs.append(RngStream(draw(st.integers(0, 2**16))))
    order = draw(st.permutations(range(len(tables))))
    return np.stack([tables[i] for i in order]), norm, [rngs[i] for i in order]


@st.composite
def euclidean_inputs(draw):
    """(vectors, rotation): 1 to 8 vectors in R^1..R^10 and a random orthogonal matrix.

    Entries are Gaussian, +-1 or rounded to 2 decimals; or one vector is
    repeated with random signs; or the rows are spread over 16 decades.
    """
    kind = draw(st.sampled_from(["gaussian", "sign", "decimal", "repeated", "scaled"]))
    count, dim = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        x = g.standard_normal((count, dim))
    elif kind == "sign":
        x = g.choice([-1.0, 1.0], size=(count, dim))
    elif kind == "decimal":
        x = np.round(g.uniform(-1.0, 1.0, size=(count, dim)), 2)
    elif kind == "repeated":
        x = g.standard_normal((1, dim)) * g.choice([-1.0, 1.0], size=(count, 1))
    else:
        x = g.standard_normal((count, dim)) * 10.0 ** g.integers(-8, 9, size=(count, 1))
    return x, np.linalg.qr(g.standard_normal((dim, dim)))[0]


def traced_peak(call) -> int:
    """The peak bytes tracemalloc sees while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def direct_gaussian_mean(x, trials, rng):
    """Mean and standard error of ||sum_i g_i v_i||_2, the sum formed from n normals in R^d."""
    norms = np.linalg.norm(rng.generator().standard_normal((trials, x.shape[0])) @ x, axis=1)
    return float(norms.mean()), float(norms.std(ddof=1)) / math.sqrt(trials)


def reference_sups(cols, wt):
    """The sup kernel in its earlier form: trials outermost, the sup over the inner class axis."""
    return np.abs(wt.T @ cols.T).max(axis=1)


@st.composite
def sup_inputs(draw):
    """A class of 1 to 12 functions on 1 to 6 points, Gaussian, +-1, decimal or spread in scale."""
    kind = draw(st.sampled_from(["gaussian", "sign", "decimal", "scaled"]))
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "gaussian":
        x = g.standard_normal((m, n))
    elif kind == "sign":
        x = g.choice([-1.0, 1.0], size=(m, n))
    elif kind == "decimal":
        x = np.round(g.uniform(-1.0, 1.0, size=(m, n)), 2)
    else:
        x = g.standard_normal((m, n)) * 10.0 ** g.integers(-8, 9, size=(m, n))
    return FunctionClass(x), RngStream(draw(st.integers(0, 2**16)))


class TestSupKernel:
    """Every average is repr-equal to the one the earlier kernel form gives."""

    @staticmethod
    def both(patch, estimate):
        new = estimate()
        calls = []

        def reference(cols, wt):
            calls.append(1)
            return reference_sups(cols, wt)

        patch.setattr(complexity, "_sups", reference)
        old = estimate()
        assert calls
        return repr(new), repr(old)

    @given(case=sup_inputs(), k=st.sampled_from([1, 2, 3, 8]), greedy=st.booleans(),
           kind=st.sampled_from(["gaussian", "rademacher"]))
    def test_ell_parameter_matches_reference(self, case, k, greedy, kind):
        # at 150 trials a Rademacher ell_k enumerates its 2^k signs for k <= 3 and draws them at k = 8
        F, rng = case
        with pytest.MonkeyPatch.context() as patch:
            if greedy:
                patch.setattr(complexity, "_EXHAUSTIVE_TUPLE_CAP", 1)
            new, old = self.both(patch, lambda: ell_parameter(F, k, trials=150, rng=rng, kind=kind))
        assert new == old

    @given(case=sup_inputs(), block=st.sampled_from([7, 2_000_000]),
           estimate=st.sampled_from([gaussian_complexity, rademacher_complexity]))
    def test_class_averages_match_reference(self, case, block, estimate):
        F, rng = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "_BLOCK_SCALARS", block)
            new, old = self.both(patch, lambda: estimate(F, trials=150, rng=rng))
        assert new == old


class TestGaussianComplexity:
    def test_zero_class(self):
        F = FunctionClass(np.zeros((1, 4)))
        est = gaussian_complexity(F, trials=200, rng=RngStream(1))
        assert est.mean == 0.0 and est.std_error == 0.0
        assert est.kind == "gaussian" and est.trials == 200

    def test_single_function_half_normal(self):
        # sup over one f is |N(0, sum f(i)^2)|, mean sqrt(2/pi) ||f||_2
        rng = RngStream(2).generator()
        f = rng.uniform(-1.0, 1.0, size=6)
        F = FunctionClass(f[None, :])
        est = gaussian_complexity(F, trials=40000, rng=RngStream(3))
        target = HALF_NORMAL * float(np.linalg.norm(f))
        assert abs(est.mean - target) <= 4.0 * est.std_error

    def test_sign_class_sum_of_moduli(self):
        n = 4
        est = gaussian_complexity(sign_class(n), trials=40000, rng=RngStream(4))
        assert abs(est.mean - n * HALF_NORMAL) <= 4.0 * est.std_error

    def test_row_negation_invariance(self):
        rng = RngStream(5).generator()
        vals = rng.uniform(-1.0, 1.0, size=(5, 4))
        flipped = vals.copy()
        flipped[2] *= -1.0
        a = gaussian_complexity(FunctionClass(vals), trials=500, rng=RngStream(6))
        b = gaussian_complexity(FunctionClass(flipped), trials=500, rng=RngStream(6))
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_subset_restriction(self):
        # the average over sigma is that of the class restricted to sigma
        f = np.array([3.0, 0.0, 4.0])
        sigma = CoordinateSubset((1, 3), 3)
        F = FunctionClass(f[None, sigma.zero_based()])
        est = gaussian_complexity(F, trials=40000, rng=RngStream(7))
        assert abs(est.mean - HALF_NORMAL * 5.0) <= 4.0 * est.std_error

    def test_reproducible(self):
        F = sign_class(3)
        a = gaussian_complexity(F, trials=300, rng=RngStream(9))
        b = gaussian_complexity(F, trials=300, rng=RngStream(9))
        assert a == b

    def test_validation(self):
        F = sign_class(2)
        with pytest.raises(InputError):
            gaussian_complexity(F, trials=50, rng=RngStream(0))
        with pytest.raises(InputError):
            gaussian_complexity(F, trials=200, rng=None)


class TestRademacherComplexity:
    def test_sign_class_exact_alignment(self):
        # some row matches the drawn signs, so the sup is n on every trial
        n = 3
        est = rademacher_complexity(sign_class(n), trials=400, rng=RngStream(10))
        assert est.mean == float(n)
        assert est.std_error == 0.0
        assert est.kind == "rademacher"

    def test_zero_class(self):
        est = rademacher_complexity(FunctionClass(np.zeros((2, 3))), trials=200, rng=RngStream(11))
        assert est.mean == 0.0

    def test_gaussian_dominates_scaled_rademacher(self):
        # E|g| = sqrt(2/pi) gives G(F) >= sqrt(2/pi) R(F) analytically
        rng = RngStream(12).generator()
        for i in range(5):
            F = FunctionClass(rng.uniform(-1.0, 1.0, size=(6, 5)))
            g = gaussian_complexity(F, trials=20000, rng=RngStream(13, i))
            r = rademacher_complexity(F, trials=20000, rng=RngStream(14, i))
            slack = 2.0 * (g.std_error + HALF_NORMAL * r.std_error)
            assert g.mean >= HALF_NORMAL * r.mean - slack


class TestEllParameter:
    def test_zero_class(self):
        est = ell_parameter(FunctionClass(np.zeros((1, 4))), 2, trials=200, rng=RngStream(20))
        assert est.mean == 0.0

    def test_k_one_peak_oracle(self):
        # ell_1 picks the coordinate with the largest class modulus
        F = FunctionClass(np.array([[0.1, 0.9, 0.2], [0.3, -0.5, 0.1]]))
        est = ell_parameter(F, 1, trials=40000, rng=RngStream(21))
        assert est.support == (2,)
        assert abs(est.mean - HALF_NORMAL * 0.9) <= 4.0 * est.std_error
        assert est.method == "exhaustive"

    def test_sign_class_linear_growth(self):
        n = 4
        F = sign_class(n)
        for k in (1, 2, 3):
            est = ell_parameter(F, k, trials=40000, rng=RngStream(22, k))
            assert abs(est.mean - k * HALF_NORMAL) <= 4.0 * est.std_error

    def test_nondecreasing_in_k(self):
        rng = RngStream(23).generator()
        for i in range(5):
            F = FunctionClass(rng.uniform(-1.0, 1.0, size=(5, 4)))
            ests = [ell_parameter(F, k, trials=4000, rng=RngStream(24, i)) for k in (1, 2, 3)]
            for a, b in zip(ests, ests[1:]):
                assert b.mean >= a.mean - 2.0 * (a.std_error + b.std_error)

    def test_greedy_agrees_on_symmetric_class(self, monkeypatch):
        # every tuple looks the same on the sign class, so greedy is exact
        F = sign_class(3)
        monkeypatch.setattr(complexity, "_EXHAUSTIVE_TUPLE_CAP", 1)
        greedy = ell_parameter(F, 2, trials=40000, rng=RngStream(25))
        assert greedy.method == "greedy"
        assert abs(greedy.mean - 2.0 * HALF_NORMAL) <= 4.0 * greedy.std_error

    def test_greedy_below_exhaustive(self, monkeypatch):
        rng = RngStream(26).generator()
        F = FunctionClass(rng.uniform(-1.0, 1.0, size=(6, 5)))
        ex = ell_parameter(F, 3, trials=8000, rng=RngStream(27))
        monkeypatch.setattr(complexity, "_EXHAUSTIVE_TUPLE_CAP", 1)
        gr = ell_parameter(F, 3, trials=8000, rng=RngStream(28))
        assert ex.method == "exhaustive"
        assert gr.mean <= ex.mean + 2.0 * (ex.std_error + gr.std_error)

    def test_exact_sign_enumeration(self):
        est = ell_parameter(sign_class(3), 2, trials=200, rng=RngStream(29), kind="rademacher")
        assert est.method == "exhaustive-exact"
        assert est.mean == 2.0
        assert est.std_error == 0.0

    def test_signs_are_enumerated_exactly_when_they_fit_the_trials(self):
        # 2^7 = 128 sign patterns: enumerated at 128 trials, drawn at 127
        exact = ell_parameter(sign_class(2), 7, trials=128, rng=RngStream(29), kind="rademacher")
        assert (exact.method, exact.std_error) == ("exhaustive-exact", 0.0)
        drawn = ell_parameter(sign_class(2), 7, trials=127, rng=RngStream(29), kind="rademacher")
        assert drawn.method == "exhaustive" and drawn.std_error > 0.0

    def test_exact_rademacher_matches_a_rational_brute_force(self):
        # integer classes: the mean over every sign pattern of every tuple, in exact arithmetic
        gen = RngStream(24).generator()
        for _ in range(8):
            m, n, k = (int(v) for v in gen.integers(1, [6, 5, 5]))
            vals = gen.integers(-9, 10, size=(m, n)).tolist()
            est = ell_parameter(FunctionClass(vals), k, trials=100, rng=RngStream(0),
                                kind="rademacher")

            def brute(tup):
                return sum((max(abs(sum(s * row[j] for s, j in zip(signs, tup))) for row in vals)
                            for signs in itertools.product((1, -1), repeat=k)),
                           Fraction(0)) / 2**k

            best = max(map(brute, itertools.combinations_with_replacement(range(n), k)))
            assert (est.method, est.std_error) == ("exhaustive-exact", 0.0)
            assert est.mean == pytest.approx(float(best), rel=1e-12, abs=0.0)
            assert brute(tuple(i - 1 for i in est.support)) == best

    def test_support_is_sorted_one_based(self):
        rng = RngStream(30).generator()
        F = FunctionClass(rng.uniform(-1.0, 1.0, size=(4, 5)))
        est = ell_parameter(F, 3, trials=500, rng=RngStream(31))
        assert len(est.support) == 3
        assert all(1 <= i <= 5 for i in est.support)
        assert tuple(sorted(est.support)) == est.support

    def test_validation(self):
        F = sign_class(2)
        with pytest.raises(InputError):
            ell_parameter(F, 0, trials=200, rng=RngStream(0))
        with pytest.raises(InputError):
            ell_parameter(F, 2, trials=200, rng=None)

    def test_unknown_kind_rejected(self, monkeypatch):
        # exhaustive and greedy tuple searches both draw through the shared sampler
        F = sign_class(2)
        for cap in (100_000, 1):
            monkeypatch.setattr(complexity, "_EXHAUSTIVE_TUPLE_CAP", cap)
            with pytest.raises(InputError) as exc:
                ell_parameter(F, 2, trials=200, rng=RngStream(0), kind="bogus")
            assert exc.value.code == "BAD_KIND"

    def test_exact_signs_need_the_rademacher_kind(self):
        # Gaussian weights have no finite law to enumerate, so they are drawn at any k
        est = ell_parameter(sign_class(2), 2, trials=200, rng=RngStream(0))
        assert est.method == "exhaustive" and est.std_error > 0.0
        for res in t_parameter(sign_class(2), 0.5, 2, trials=200, rng=RngStream(0)).per_k:
            assert res.std_error > 0.0


class TestFloatRange:
    @pytest.mark.parametrize("greedy", [False, True])
    @pytest.mark.parametrize("j", [-1000, -60, 60, 1000])
    def test_averages_scale_exactly_by_powers_of_two(self, monkeypatch, j, greedy):
        # at 2^1000 the squared sups overflow and at 2^-1000 they underflow
        # unless the class is brought to a unit peak first
        if greedy:
            monkeypatch.setattr(complexity, "_EXHAUSTIVE_TUPLE_CAP", 1)
        vals = RngStream(34).generator().uniform(-1.0, 1.0, size=(5, 4))
        estimates = [
            lambda F: gaussian_complexity(F, trials=300, rng=RngStream(35)),
            lambda F: rademacher_complexity(F, trials=300, rng=RngStream(36)),
            lambda F: ell_parameter(F, 2, trials=300, rng=RngStream(37)),
        ]
        for estimate in estimates:
            a = estimate(FunctionClass(vals))
            b = estimate(FunctionClass(np.ldexp(vals, j)))
            assert b.mean == math.ldexp(a.mean, j)
            assert b.std_error == math.ldexp(a.std_error, j)
            assert b.support == a.support

    def test_overflowing_average_is_an_input_error(self):
        F = FunctionClass(np.full((1, 8), 1e308))
        for estimate in (gaussian_complexity, rademacher_complexity):
            with pytest.raises(InputError) as exc:
                estimate(F, trials=200, rng=RngStream(38))
            assert exc.value.code == "OVERFLOW"
        with pytest.raises(InputError) as exc:
            ell_parameter(F, 8, trials=200, rng=RngStream(39))
        assert exc.value.code == "OVERFLOW"


class TestConvexHullInvariance:
    def test_midpoints_never_change_the_sup(self):
        # per draw the sup at a midpoint is dominated by one endpoint, so
        # the estimates coincide exactly under common weights
        rng = RngStream(32).generator()
        vals = rng.uniform(-1.0, 1.0, size=(5, 4))
        mids = np.array([
            (vals[i] + vals[j]) / 2.0
            for i in range(5)
            for j in range(i + 1, 5)
        ])
        a = gaussian_complexity(FunctionClass(vals), trials=2000, rng=RngStream(33))
        b = gaussian_complexity(FunctionClass(np.vstack([vals, mids])), trials=2000, rng=RngStream(33))
        assert a.mean == b.mean and a.std_error == b.std_error


class TestTParameter:
    def test_zero_class(self):
        res = t_parameter(FunctionClass(np.zeros((1, 3))), 0.5, 3, trials=200, rng=RngStream(40))
        assert res.value == 0 and not res.capped
        assert len(res.per_k) == 3

    def test_sign_class_caps_below_mean_modulus(self):
        # ell_k = k sqrt(2/pi) > 0.7 k, so every k qualifies
        res = t_parameter(sign_class(4), 0.7, 4, trials=4000, rng=RngStream(41))
        assert res.value == 4 and res.capped
        assert res.epsilon == 0.7 and res.kind == "gaussian"

    def test_large_epsilon_disqualifies(self):
        res = t_parameter(sign_class(3), 2.0, 3, trials=4000, rng=RngStream(42))
        assert res.value == 0 and not res.capped

    def test_shattering_bounds_rademacher_t(self):
        # a d-point shattering witness at scale eps forces the exact
        # Rademacher average over those points up to eps * d, so the
        # growth threshold at eps is at least the shattering dimension
        rng = RngStream(43).generator()
        for i in range(8):
            m = int(rng.integers(2, 17))
            n = int(rng.integers(2, 6))
            F = FunctionClass(rng.choice([-1.0, 1.0], size=(m, n)))
            for eps in (0.4, 0.8):
                d = vc_dimension(F, eps).dimension
                res = t_parameter(F, eps, k_max=n, trials=200, rng=RngStream(44, i),
                                  kind="rademacher")
                assert res.value >= d

    def test_pointwise_sign_supremum_on_witness(self):
        # with the full point set shattered at eps, every sign pattern has
        # sup_f |sum eps_i f(x_i)| >= n * eps
        rng = RngStream(45).generator()
        cube = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
        eps = 0.6
        sigma = CoordinateSubset((1, 2, 3), 3)
        for i in range(20):
            extra = rng.choice([-1.0, 1.0], size=(8, 3)) * rng.uniform(0.6, 1.0, size=(8, 1))
            F = FunctionClass(np.vstack([cube, extra]))
            assert is_shattered(F, sigma, eps) is not None
            for pat in itertools.product((1.0, -1.0), repeat=3):
                sup = np.abs(F.values @ np.asarray(pat)).max()
                assert sup >= 3 * eps - 1e-12

    def test_k_max_past_the_substream_span(self, monkeypatch):
        # ell_k reads substream label k: with a span of 5 labels k_max 4 fits and 5 is
        # refused before any estimate
        monkeypatch.setattr(core, "_SUBSTREAM_SPAN", 5)
        assert len(t_parameter(sign_class(2), 0.5, 4, trials=100, rng=RngStream(0)).per_k) == 4
        monkeypatch.setattr(complexity, "ell_parameter", None)
        with pytest.raises(SizeCapError) as exc:
            t_parameter(sign_class(2), 0.5, 5, trials=100, rng=RngStream(0))
        assert exc.value.code == "SIZE_CAP"

    def test_validation(self):
        F = sign_class(2)
        with pytest.raises(InputError):
            t_parameter(F, 0.0, 2, trials=200, rng=RngStream(0))
        with pytest.raises(InputError):
            t_parameter(F, 0.5, 0, trials=200, rng=RngStream(0))
        with pytest.raises(InputError) as exc:
            t_parameter(F, 0.5, 2, trials=200, rng=RngStream(0), kind="bogus")
        assert exc.value.code == "BAD_KIND"


class TestMinSignNorm:
    def test_orthonormal_basis(self):
        res = min_sign_norm(np.eye(8), norm=2.0)
        assert res.value == pytest.approx(math.sqrt(8.0), abs=1e-12)
        assert res.method == "exact" and res.signs[0] == 1

    def test_duplicated_vector_cancels(self):
        v = np.array([0.3, -0.7])
        res = min_sign_norm([v, v])
        assert res.value == 0.0
        assert res.signs == (1, -1)

    def test_single_vector(self):
        v = np.array([3.0, 4.0])
        res = min_sign_norm([v])
        assert res.value == pytest.approx(5.0, abs=1e-12)
        assert res.signs == (1,)

    def test_exact_matches_brute_force(self):
        rng = RngStream(50).generator()
        for i in range(10):
            count = int(rng.integers(2, 9))
            vecs = rng.standard_normal((count, 4))
            res = min_sign_norm(vecs)
            brute = min(
                float(np.linalg.norm(np.asarray(pat) @ vecs))
                for pat in itertools.product((1.0, -1.0), repeat=count)
            )
            assert res.value == pytest.approx(brute, abs=1e-10)
            attained = float(np.linalg.norm(np.asarray(res.signs, dtype=float) @ vecs))
            assert attained == pytest.approx(res.value, abs=1e-10)

    def test_heuristic_upper_bounds_exact(self):
        eq = 0
        for i in range(100):
            gen = RngStream(51, i).generator()
            vecs = gen.standard_normal((12, 6))
            ex = min_sign_norm(vecs)
            he = heuristic_min_sign(vecs, rng=RngStream(52, i))
            assert he.value >= ex.value - 1e-9
            if abs(he.value - ex.value) <= 1e-9:
                eq += 1
        # steepest descent from 16 restarts lands on the optimum 79 times in 100
        assert eq >= 79

    def test_sign_flip_symmetry(self):
        rng = RngStream(53).generator()
        vecs = rng.standard_normal((6, 3))
        flipped = vecs.copy()
        flipped[4] *= -1.0
        a = min_sign_norm(vecs)
        b = min_sign_norm(flipped)
        assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_other_norms(self):
        res_sup = min_sign_norm(np.eye(4), norm="sup")
        assert res_sup.value == pytest.approx(1.0, abs=1e-12)
        res_one = min_sign_norm(np.eye(4), norm=1.0)
        assert res_one.value == pytest.approx(4.0, abs=1e-12)

    def test_exact_memory_does_not_grow_with_the_width(self):
        vecs = RngStream(57).generator().standard_normal((18, 400))
        assert traced_peak(lambda: min_sign_norm(vecs)) < 64e6

    def test_monte_carlo_blocks_count_every_scalar_of_a_trial(self):
        # a trial of the sup average holds m + k scalars, and one of the sup-norm
        # Gaussian side n + d, so blocks stay near the 16 MB of _BLOCK_SCALARS
        # (both peaked at 80 MB when the blocks counted m and d)
        gen = RngStream(571).generator()
        F = FunctionClass(gen.uniform(-1.0, 1.0, size=(2, 5000)))
        assert traced_peak(lambda: gaussian_complexity(F, trials=2000, rng=RngStream(1))) < 24e6
        rows = unit_rows(gen.standard_normal((5000, 2)))
        assert traced_peak(lambda: type_infratype_report(
            rows, norm="sup", delta_grid=(0.001,), trials=2000, rng=RngStream(1))) < 24e6

    def test_descent_candidates_take_one_buffer(self):
        # one stack of 8 subsets of 51, searched in their 51-d span: 128 restarts'
        # candidates are 2.7 MB, built in place and copied once by banach_norm
        # (9.4 MB peak when the gather, product and difference were three buffers)
        gen = RngStream(572).generator()
        stack = unit_rows(gen.standard_normal((8 * 51, 256))).reshape(8, 51, 256)
        rngs = [RngStream(573, i) for i in range(8)]
        assert traced_peak(lambda: complexity._sign_minima(stack, 2.0, rngs)) < 8e6

    @pytest.mark.parametrize("norm", ["sup", 1.0, 2.0])
    def test_exact_chunks_keep_value_and_signs(self, monkeypatch, norm):
        # two zero vectors make each value appear four times, so the first
        # minimum must survive the chunk borders: chunks of 2, 4 and 256 patterns
        gen = RngStream(58).generator()
        vecs = np.vstack([gen.standard_normal((10, 6)), np.zeros((2, 6))])
        whole = min_sign_norm(vecs, norm=norm)
        for block_scalars in (22, 50, 4000):
            monkeypatch.setattr(complexity, "_BLOCK_SCALARS", block_scalars)
            assert min_sign_norm(vecs, norm=norm) == whole

    def test_heuristic_reproducible(self):
        gen = RngStream(54).generator()
        vecs = gen.standard_normal((30, 5))
        a = min_sign_norm(vecs, rng=RngStream(55))
        b = min_sign_norm(vecs, rng=RngStream(55))
        assert a == b and a.method == "heuristic"

    def test_exact_up_to_the_cap_and_heuristic_past_it(self, monkeypatch):
        # one vector past the cap falls back to the heuristic, with no SizeCapError
        assert min_sign_norm(np.eye(25)).method == "heuristic"
        monkeypatch.setattr(complexity, "_EXACT_SIGN_CAP", 5)
        vecs = RngStream(59).generator().standard_normal((6, 3))
        assert min_sign_norm(vecs[:5]).method == "exact"
        assert min_sign_norm(vecs).method == "heuristic"

    def test_errors(self):
        for vectors, code in [([], "EMPTY_INPUT"), (np.zeros((0, 3)), "EMPTY_INPUT"),
                              ([np.ones(2), np.ones(3)], "DIMENSION"),
                              (np.ones(3), "DIMENSION"), (np.ones((2, 2, 2)), "DIMENSION"),
                              ([[1.0, math.nan]], "BAD_INPUT"), ([[math.inf, 0.0]], "BAD_INPUT")]:
            with pytest.raises(InputError) as exc:
                min_sign_norm(vectors)
            assert exc.value.code == code

    @given(case=sign_inputs())
    def test_batched_heuristic_matches_sequential_reference(self, case):
        x, norm, rng = case
        res = heuristic_min_sign(x, norm=norm, rng=rng)
        assert (res.value, res.signs) == sequential_min_sign(x, norm, rng)

    @given(case=sign_inputs(norms=("sup", 2.0, 1.0)), j=st.sampled_from([-60, -7, 9, 60]))
    def test_heuristic_is_scale_equivariant(self, case, j):
        # scaling by 2^j is exact in these norms, and the descent threshold is relative
        x, norm, rng = case
        base = heuristic_min_sign(x, norm=norm, rng=rng)
        scaled = heuristic_min_sign(np.ldexp(x, j), norm=norm, rng=rng)
        assert scaled.signs == base.signs
        assert scaled.value == math.ldexp(base.value, j)

    @given(case=euclidean_inputs())
    def test_euclidean_search_in_span_coordinates(self, case):
        # the search runs on the rows' coordinates in their span, an isometry
        # that rounds; the value is recomputed from the signs at the unit peak
        x, rot = case
        res = min_sign_norm(x, norm=2.0)
        tol = 1e-12 * float(np.linalg.norm(x, axis=1).sum())
        brute = min(float(np.linalg.norm(np.asarray(pat) @ x))
                    for pat in itertools.product((1.0, -1.0), repeat=x.shape[0]))
        assert abs(res.value - brute) <= tol
        assert abs(min_sign_norm(x @ rot, norm=2.0).value - res.value) <= tol
        unit, e = core.unit_peak(x)
        assert res.value == math.ldexp(banach_norm(np.asarray(res.signs, float) @ unit, 2.0), e)

    def test_float_range(self):
        # at the data's scale the squares underflow to 0 or overflow to inf
        tiny = min_sign_norm([[1e-170, 0.0], [0.0, 1e-170]])
        assert tiny.value == pytest.approx(math.sqrt(2.0) * 1e-170, rel=1e-15)
        huge = min_sign_norm([[1e200, 1e200], [1e200, -1e200]])
        assert huge.value == pytest.approx(2e200, rel=1e-15)
        with pytest.raises(InputError) as exc:
            min_sign_norm([[1.5e308, 1.5e308]])
        assert exc.value.code == "OVERFLOW"

    @given(case=sign_stacks())
    def test_a_stack_keeps_each_tables_signs(self, case):
        # each table of the stack gets the signs the reference gives it alone,
        # whatever the other tables, and however the restarts are cut in blocks
        stack, norm, rngs = case
        expected = [sequential_min_sign(x, norm, rng) for x, rng in zip(stack, rngs)]
        for block in (None, 22, 50, 4000):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(complexity, "_EXACT_SIGN_CAP", 0)
                if block is not None:
                    patch.setattr(complexity, "_BLOCK_SCALARS", block)
                values, signs, _ = complexity._sign_minima(stack, norm, rngs)
            assert [(v, tuple(int(e) for e in sg)) for v, sg in zip(values, signs)] == expected

    def test_heuristic_norm_calls(self, monkeypatch):
        # one call for the row norms, one per lockstep greedy step, one for the
        # restarts' values and one per lockstep descent step; on eye(51) every
        # signing has norm sqrt(51), so one descent step finds no flip anywhere
        calls = []

        def counting_norm(v, norm="sup"):
            calls.append(np.shape(v))
            return banach_norm(v, norm)

        monkeypatch.setattr(complexity, "banach_norm", counting_norm)
        res = min_sign_norm(np.eye(51), rng=RngStream(56))
        assert res.value == math.sqrt(51.0)
        search, value = calls[:-1], calls[-1]
        assert len(search) == 1 + 51 + 1 + 1
        assert search[-1] == (complexity._SIGN_RESTARTS, 51, 51) and value == (51,)


class TestTypeInfratypeReport:
    def test_orthonormal_basis_unit_ratio(self):
        # every subset balances to sqrt(size), so M_emp is exactly 1 and
        # the Gaussian side is the chi mean
        n = 16
        rep = type_infratype_report(np.eye(n), delta_grid=(0.25, 0.5, 1.0),
                                    trials=20000, rng=RngStream(60))
        for row in rep.rows:
            assert row.m_emp == pytest.approx(1.0, abs=1e-12)
        assert abs(rep.gaussian_mean - chi_mean(n)) <= 4.0 * rep.gaussian_std_error
        assert rep.flags == ()

    def test_equal_vectors_cancel_on_even_subsets(self):
        v = np.array([0.8, 0.0, 0.0])
        rep = type_infratype_report([v] * 6, delta_grid=(1.0,), trials=2000, rng=RngStream(61))
        assert rep.rows[0].m_emp == 0.0
        assert math.isinf(rep.rows[0].c_emp)
        assert "ZERO_MIN_SIGN" in rep.flags

    def test_equal_vectors_gaussian_oracle(self):
        v = np.array([0.8, 0.0, 0.0])
        rep = type_infratype_report([v] * 6, delta_grid=(1.0 / 6.0, 1.0),
                                    trials=20000, rng=RngStream(62))
        target = math.sqrt(2.0 * 6.0 / math.pi) * 0.8
        assert abs(rep.gaussian_mean - target) <= 4.0 * rep.gaussian_std_error
        # the singleton subset contributes 0.8 and survives as the maximum
        assert rep.rows[0].m_emp == pytest.approx(0.8, abs=1e-12)
        assert rep.rows[1].m_emp == pytest.approx(0.8, abs=1e-12)

    @given(case=euclidean_inputs(), seed=st.integers(0, 2**32 - 1))
    def test_gaussian_mean_is_invariant_under_isometries(self, case, seed):
        # an orthogonal change of coordinates and a signed permutation of the
        # vectors keep the Gram spectrum, and the same r = min(n, d) normals are drawn
        x, rot = case
        x = x / max(1.0, float(np.linalg.norm(x, axis=1).max()))
        g = np.random.default_rng(seed)
        moved = g.choice([-1.0, 1.0], size=(x.shape[0], 1)) * x[g.permutation(x.shape[0])]

        def mean(vecs):
            return type_infratype_report(vecs, delta_grid=(1.0,), trials=200,
                                         rng=RngStream(seed)).gaussian_mean

        base = mean(x)
        for other in (x @ rot, moved):
            assert abs(mean(other) - base) <= 1e-12 * base

    @pytest.mark.parametrize("shape", ["6x20", "40x5", "rank2"])
    def test_gaussian_mean_agrees_with_the_direct_sum(self, shape):
        # the spectral draw has the law of ||sum_i g_i v_i||_2 drawn directly
        gen = RngStream(74).generator()
        if shape == "rank2":
            x = gen.standard_normal((12, 2)) @ gen.standard_normal((2, 12))
        else:
            x = gen.standard_normal(tuple(int(k) for k in shape.split("x")))
        x = unit_rows(x)
        rep = type_infratype_report(x, delta_grid=(0.1,), trials=20000, rng=RngStream(75))
        ref, ref_se = direct_gaussian_mean(x, 20000, RngStream(76))
        assert abs(rep.gaussian_mean - ref) <= 5.0 * math.hypot(rep.gaussian_std_error, ref_se)

    def test_euclidean_gaussian_side_needs_no_trials_by_d_product(self):
        # the benchmark's 256 x 256 signed permutation at 2000 trials; its
        # (2000 x 256) product and two norm copies peaked at 12.8 MB
        gen = RngStream(77).generator()
        perm = np.eye(256)[gen.permutation(256)] * gen.choice([-1.0, 1.0], size=(256, 1))
        assert traced_peak(lambda: type_infratype_report(perm, trials=2000,
                                                         rng=RngStream(78))) < 10e6

    def test_single_vector(self):
        v = np.array([0.6, 0.3])
        rep = type_infratype_report([v], delta_grid=(1.0,), trials=20000, rng=RngStream(63))
        row = rep.rows[0]
        assert row.subset_size == 1
        norm_v = float(np.linalg.norm(v))
        assert row.m_emp == pytest.approx(norm_v, abs=1e-12)
        assert abs(row.c_emp - HALF_NORMAL) <= 4.0 * rep.gaussian_std_error / norm_v

    def test_m_emp_cumulative(self):
        rng = RngStream(64).generator()
        vecs = rng.standard_normal((10, 4))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True) * 1.01
        rep = type_infratype_report(vecs, delta_grid=(0.2, 0.5, 1.0),
                                    trials=500, rng=RngStream(65))
        m_vals = [row.m_emp for row in rep.rows]
        assert all(a <= b + 1e-15 for a, b in zip(m_vals, m_vals[1:]))

    def test_heuristic_flag_past_cap(self, monkeypatch):
        rng = RngStream(66).generator()
        vecs = rng.standard_normal((8, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True) * 1.01
        monkeypatch.setattr(complexity, "_EXACT_SIGN_CAP", 2)
        rep = type_infratype_report(vecs, delta_grid=(0.5,), trials=500, rng=RngStream(67))
        assert "HEURISTIC_MIN_SIGN" in rep.flags
        assert "heuristic" in rep.rows[0].min_sign_method

    def test_blocks_keep_the_report(self, monkeypatch):
        # subsets are searched in stacks cut by _BLOCK_SCALARS; the cut moves no bit
        vecs = RngStream(66).generator().standard_normal((10, 4))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True) * 1.01
        monkeypatch.setattr(complexity, "_EXACT_SIGN_CAP", 2)

        def report():
            return type_infratype_report(vecs, delta_grid=(0.2, 0.3, 0.6), trials=200,
                                         rng=RngStream(67), subsets_per_size=5)

        whole = report()
        assert [r.min_sign_method for r in whole.rows] == ["exact", "heuristic", "heuristic"]
        for block in (22, 50, 4000):
            monkeypatch.setattr(complexity, "_BLOCK_SCALARS", block)
            assert report() == whole

    def test_subsets_past_the_cap(self, monkeypatch):
        # heuristic subsets take substreams 2, 3, ...: with a span of 12 labels, 10 subsets
        # per size fit one grid size and 3 fit three; one more is refused before the
        # Gaussian average or any subset search runs
        def forbidden(*args, **kwargs):
            raise AssertionError("work ran past the subset cap")

        monkeypatch.setattr(core, "_SUBSTREAM_SPAN", 12)
        monkeypatch.setattr(complexity, "_EXACT_SIGN_CAP", 2)
        for grid, fits in (((0.5,), 10), ((0.375, 0.5, 0.625), 3)):
            rep = type_infratype_report(0.5 * np.eye(8), delta_grid=grid, trials=200,
                                        rng=RngStream(1), subsets_per_size=fits)
            assert rep.rows[-1].min_sign_method == "heuristic"
        for name in ("monte_carlo", "_sign_minima"):
            monkeypatch.setattr(complexity, name, forbidden)
        for grid, fits in (((0.5,), 10), ((0.375, 0.5, 0.625), 3)):
            with pytest.raises(SizeCapError) as exc:
                type_infratype_report(0.5 * np.eye(8), delta_grid=grid, trials=200,
                                      rng=RngStream(1), subsets_per_size=fits + 1)
            assert exc.value.code == "SIZE_CAP"
            assert exc.value.cost_estimate == 2.0 + len(grid) * (fits + 1)

    def test_reproducible(self):
        vecs = np.eye(6)
        a = type_infratype_report(vecs, trials=300, rng=RngStream(68))
        b = type_infratype_report(vecs, trials=300, rng=RngStream(68))
        assert a == b

    def test_float_range(self):
        # the Gaussian side and each sign minimum work at a unit peak, so a
        # power-of-two scaling moves no bit of the ratios, and 1e-170 still averages
        base = type_infratype_report(np.eye(8), trials=2000, rng=RngStream(69))
        scaled = type_infratype_report(np.ldexp(np.eye(8), -600), trials=2000, rng=RngStream(69))
        assert scaled.gaussian_mean == math.ldexp(base.gaussian_mean, -600)
        assert scaled.gaussian_std_error == math.ldexp(base.gaussian_std_error, -600)
        assert [r.c_emp for r in scaled.rows] == [r.c_emp for r in base.rows]
        assert [r.m_emp for r in scaled.rows] == [math.ldexp(r.m_emp, -600) for r in base.rows]
        tiny = type_infratype_report(1e-170 * np.eye(8), trials=2000, rng=RngStream(69))
        assert tiny.flags == ()
        assert tiny.gaussian_mean == pytest.approx(1e-170 * base.gaussian_mean, rel=1e-14)
        for a, b in zip(tiny.rows, base.rows):
            assert a.c_emp == pytest.approx(b.c_emp, rel=1e-14)

    def test_validation(self):
        with pytest.raises(InputError):
            type_infratype_report(2.0 * np.eye(3), trials=200, rng=RngStream(0))
        with pytest.raises(InputError):
            type_infratype_report(np.eye(3), delta_grid=(0.5, 0.2), trials=200, rng=RngStream(0))
        with pytest.raises(InputError):
            type_infratype_report(np.eye(3), delta_grid=(0.5, 1.5), trials=200, rng=RngStream(0))
        with pytest.raises(InputError):
            type_infratype_report(np.eye(3), trials=200, rng=None)
        with pytest.raises(InputError):
            type_infratype_report(np.eye(3), trials=10, rng=RngStream(0))
        for norm in (float("nan"), float("inf")):
            with pytest.raises(InputError) as exc:
                type_infratype_report(np.eye(3), norm=norm, trials=200, rng=RngStream(0))
            assert exc.value.code == "BAD_EXPONENT"

    def test_names_first_vector_outside_the_ball(self):
        vecs = np.eye(4)
        vecs[2, 0] = vecs[3, 1] = 1.0
        with pytest.raises(InputError, match="vector 3 "):
            type_infratype_report(vecs, trials=200, rng=RngStream(0))


class TestEntropyIntegralAudit:
    def test_zero_class_degenerates(self):
        audit = entropy_integral_audit(FunctionClass(np.zeros((1, 3))), trials=200, rng=RngStream(70))
        assert "INTEGRAL_ZERO" in audit.flags
        assert audit.constant.value == 0.0
        assert audit.e_mean == 0.0

    def test_positive_mean_with_flat_profile(self):
        # one nonzero function has shattering dimension 0 everywhere
        audit = entropy_integral_audit(FunctionClass(np.full((1, 3), 0.5)), trials=200, rng=RngStream(71))
        assert "INTEGRAL_ZERO" in audit.flags
        assert math.isinf(audit.constant.value)

    def test_sign_class_matches_quadrature_oracle(self):
        # E* = 4 sqrt(2/pi) and vc = 4 on the whole grid reduce the audit
        # to a single closed-form integral; the Monte-Carlo error in E
        # propagates through the ratio and the moving lower limit
        n = 4
        F = sign_class(n)
        audit = entropy_integral_audit(F, trials=4000, rng=RngStream(500))
        assert audit.vc_curve == (4,) * 17
        e_star = n * HALF_NORMAL
        f = lambda t: 2.0 * math.sqrt(math.log(2.0 / t))
        i_star, _ = quad(f, e_star / n, 1.0)
        k_star = e_star / (math.sqrt(n) * i_star)
        i_emp = audit.integral
        dkde = 1.0 / (2.0 * i_emp) + audit.e_mean * f(audit.grid[0]) / (n * 2.0 * i_emp * i_emp)
        sigma_k = dkde * audit.e_std_error
        assert abs(audit.constant.value - k_star) <= 2.0 * sigma_k

    def test_trapezoid_tracks_quadrature(self):
        audit = entropy_integral_audit(sign_class(3), trials=2000, rng=RngStream(72))
        f = lambda t: math.sqrt(3.0 * math.log(2.0 / t))
        exact, _ = quad(f, audit.grid[0], 1.0)
        assert audit.integral == pytest.approx(exact, rel=1e-3)

    def test_grid_structure(self):
        audit = entropy_integral_audit(sign_class(3), trials=500, rng=RngStream(73), grid_points=9)
        assert len(audit.grid) == 9 and len(audit.vc_curve) == 9
        assert audit.grid[-1] == 1.0
        assert audit.grid[0] == pytest.approx(max(audit.e_mean / 3.0, 1e-4), abs=1e-12)
        assert audit.constant.name == "K_complexity"
        assert audit.constant.protocol

    def test_validation(self):
        F = sign_class(2)
        with pytest.raises(InputError):
            entropy_integral_audit(FunctionClass(2.0 * np.ones((2, 2))), trials=200, rng=RngStream(0))
        with pytest.raises(InputError):
            entropy_integral_audit(F, trials=200, rng=RngStream(0), grid_points=1)
        with pytest.raises(InputError):
            entropy_integral_audit(F, trials=200, rng=None)
        with pytest.raises(InputError):
            entropy_integral_audit(F, trials=10, rng=RngStream(0))

    def test_grid_points_past_the_cap(self, monkeypatch):
        # refused before the grid is built or any average or search runs
        def forbidden(*args, **kwargs):
            raise AssertionError("work ran past the grid cap")

        for module, name in ((np, "linspace"), (complexity, "gaussian_complexity"),
                             (complexity, "vc_dimensions")):
            monkeypatch.setattr(module, name, forbidden)
        points = core._BLOCK_SCALARS + 1
        with pytest.raises(SizeCapError) as exc:
            entropy_integral_audit(sign_class(2), trials=200, rng=RngStream(0), grid_points=points)
        assert exc.value.code == "SIZE_CAP"
        assert exc.value.cost_estimate == float(points)

    def test_digest_tracks_inputs(self):
        a = entropy_integral_audit(sign_class(2), trials=200, rng=RngStream(74))
        b = entropy_integral_audit(sign_class(2), trials=200, rng=RngStream(75))
        c = entropy_integral_audit(sign_class(2), trials=300, rng=RngStream(74))
        assert a.constant.inputs_digest == b.constant.inputs_digest
        assert a.constant.inputs_digest != c.constant.inputs_digest
