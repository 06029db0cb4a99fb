import itertools
import math
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

from coordproj import shatter
from coordproj.core import (
    CertificateError,
    CoordinateSubset,
    FunctionClass,
    InputError,
    RngStream,
    SizeCapError,
    banach_norm,
    unit_peak,
)
from coordproj.shatter import (
    dual_ball_class,
    is_shattered,
    l1_domination,
    vc_convex_hull,
    vc_dimension,
    vc_dimensions,
    verify_witness,
)


def sign_class(n: int) -> FunctionClass:
    rows = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    return FunctionClass(rows)


def full_subset(n: int) -> CoordinateSubset:
    return CoordinateSubset(tuple(range(1, n + 1)), n)


def sampled_domination(points, **kwargs):
    """l1_domination on its sampled path for independent points, forced by an exact cap of 0."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shatter, "_MAX_EXACT_DOMINATION", 0)
        return l1_domination(points, **kwargs)


def random_pm_class(rng, max_m=16, max_n=6) -> FunctionClass:
    m = int(rng.integers(2, max_m + 1))
    n = int(rng.integers(2, max_n + 1))
    return FunctionClass(rng.choice([-1.0, 1.0], size=(m, n)))


@st.composite
def domination_cases(draw):
    """(seed, points): uniform, +-1 or one-decimal (tied) points with count <= dim <= 6,
    or dependent points: a repeated point, or more points than coordinates."""
    kind = draw(st.sampled_from(["uniform", "sign", "decimal", "repeat", "excess"]))
    seed = draw(st.integers(0, 2**32 - 1))
    count = draw(st.integers(2 if kind in ("repeat", "excess") else 1, 6))
    dim = draw(st.integers(1, count - 1) if kind == "excess" else st.integers(count, 6))
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, size=(count, dim))
    if kind == "sign":
        x = np.where(x < 0.0, -1.0, 1.0)
    elif kind == "decimal":
        x = np.round(x, 1)
    elif kind == "repeat":
        x[-1] = x[rng.integers(count - 1)]
    return seed, x


@st.composite
def symmetric_hull_cases(draw):
    """(F, sigma, t, c): F is -F on sigma, |sigma| = 1..4, with c = 2^j, j in [-1000, 1000].

    Half the rows are 1 to 6 +-1, one-decimal or six-decimal rows, some
    repeated; the class is those rows, their negations and 0 to 2 zero rows,
    shuffled. The other 0 to 2 points carry uniform values, so only sigma's
    columns are symmetric. t is 2^-u with u in [0, 6].
    """
    kind = draw(st.sampled_from(["sign", "decimal", "micro"]))
    k, extra = draw(st.integers(1, 4)), draw(st.integers(0, 2))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    half = g.uniform(-1.0, 1.0, size=(draw(st.integers(1, 6)), k))
    if kind == "sign":
        half = np.where(half < 0.0, -1.0, 1.0)
    else:
        half = np.round(half, 1 if kind == "decimal" else 6)
    half = half[g.integers(len(half), size=len(half) + draw(st.integers(0, 2)))]
    rows = np.vstack([half, -half, np.zeros((draw(st.integers(0, 2)), k))])
    n = k + extra
    values = g.uniform(-1.0, 1.0, size=(len(rows), n)).round(6)
    cols = np.sort(g.choice(n, size=k, replace=False))
    values[:, cols] = rows
    sigma = CoordinateSubset(tuple(int(c) + 1 for c in cols), n)
    t, c = 2.0 ** -draw(st.floats(0.0, 6.0)), 2.0 ** draw(st.integers(-1000, 1000))
    return FunctionClass(values[g.permutation(len(rows))]), sigma, t, c


@pytest.mark.parametrize("k", range(7))
def test_patterns_sort_product_order_by_plus_count(k):
    want = list(itertools.product((1, -1), repeat=k))
    want.sort(key=lambda p: -sum(1 for v in p if v > 0))
    got = list(shatter._pattern_table(k)[0])
    assert got == want
    assert all(type(v) is int for pat in got for v in pat)


@pytest.mark.parametrize("k", range(1, 7))
def test_pattern_table_is_built_once_with_matching_codes(k):
    pats, table, codes = shatter._pattern_table(k)
    assert shatter._pattern_table(k)[2] is codes
    assert shatter._pattern_table(k)[0] is pats
    assert table.tolist() == [list(p) for p in pats]
    assert codes.tolist() == [sum(1 << x for x, v in enumerate(p) if v > 0) for p in pats]
    assert not table.flags.writeable and not codes.flags.writeable


def backtracking_witness(F: FunctionClass, sigma: CoordinateSubset, t: float):
    """Reference oracle: depth-first assignment of rows to patterns, in _pattern_table order.

    Returns (levels, assignment) of the lexicographically least feasible
    assignment, or None.
    """
    k, m = sigma.size, F.m
    if 2**k > m:
        return None
    sub = F.values[:, sigma.zero_based()]
    two_t = 2.0 * t
    pats = list(shatter._pattern_table(k)[0])
    min_high, max_low = [math.inf] * k, [-math.inf] * k
    used, assign = [False] * m, [-1] * len(pats)

    def search(pi):
        if pi == len(pats):
            return True
        for j in range(m):
            if used[j]:
                continue
            touched, ok = [], True
            for x in range(k):
                val = sub[j, x]
                if pats[pi][x] > 0:
                    if val < min_high[x]:
                        if val - max_low[x] < two_t:
                            ok = False
                            break
                        touched.append((x, True, min_high[x]))
                        min_high[x] = val
                    elif min_high[x] - max_low[x] < two_t:
                        ok = False
                        break
                else:
                    if val > max_low[x]:
                        if min_high[x] - val < two_t:
                            ok = False
                            break
                        touched.append((x, False, max_low[x]))
                        max_low[x] = val
                    elif min_high[x] - max_low[x] < two_t:
                        ok = False
                        break
            if ok:
                used[j], assign[pi] = True, j
                if search(pi + 1):
                    return True
                used[j], assign[pi] = False, -1
            for x, was_high, old in reversed(touched):
                if was_high:
                    min_high[x] = old
                else:
                    max_low[x] = old
        return False

    if not search(0):
        return None
    levels = [min_high[x] / 2.0 + max_low[x] / 2.0 for x in range(k)]
    return levels, dict(zip(pats, assign))


def reference_vc_dimension(F: FunctionClass, t: float, max_sigma: int | None = None):
    """Reference search at one scale: level-wise growth with hereditary pruning.

    Every candidate whose size-s subsets are all t-shattered goes to the
    cut oracle, called through the module so that a patched oracle sees it.
    Returns the VcResult with the first shattered subset of the largest size.
    """
    n, m = F.n, F.m
    limit = min(n, int(math.floor(math.log2(m))) if m > 1 else 0)
    if max_sigma is not None:
        limit = min(limit, max_sigma)
    best, best_witness = 0, None
    current, shattered_prev = [()], {frozenset()}
    for size in range(1, limit + 1):
        next_level, found_witness = [], None
        for base in current:
            for j in range(base[-1] + 1 if base else 1, n + 1):
                cand = base + (j,)
                if any(frozenset(cand[:i] + cand[i + 1 :]) not in shattered_prev for i in range(size)):
                    continue
                w = shatter._search_cuts(F, CoordinateSubset(cand, n), t)
                if w is not None:
                    next_level.append(cand)
                    if found_witness is None:
                        found_witness = w
        if not next_level:
            break
        best, best_witness = size, found_witness
        shattered_prev = {frozenset(c) for c in next_level}
        current = next_level
    return shatter.VcResult(best, best_witness)


@st.composite
def shatter_cases(draw):
    """(F, sigma, t) with |sigma| = 1..4 and m <= 16 functions on 8 points.

    The values are +-1, uniform rounded to 6 decimals, or on a dyadic grid
    with t a multiple of half its step, where value gaps tie 2t exactly.
    A planted class carries every sign pattern of sigma in its first 2^|sigma|
    rows before the rows are shuffled, so that witnesses are common.
    """
    kind = draw(st.sampled_from(["sign", "uniform", "dyadic"]))
    k = draw(st.integers(1, 4))
    m = draw(st.integers(2**k, 16))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "sign":
        values = g.choice([-1.0, 1.0], size=(m, 8))
        t = draw(st.sampled_from([0.25, 0.5, 1.0]))
    elif kind == "uniform":
        values = np.round(g.uniform(-1.0, 1.0, size=(m, 8)), 6)
        t = draw(st.floats(0.005, 0.5))
    else:
        step = 2.0 ** -draw(st.integers(0, 4))
        values = step * g.integers(-4, 5, size=(m, 8))
        t = draw(st.integers(1, 3)) * step / 2.0
    cols = np.sort(g.choice(8, size=k, replace=False))
    if draw(st.booleans()):
        values[: 2**k, cols] = np.abs(values[: 2**k, cols]) * shatter._corners(k)
    values = values[g.permutation(m)]
    return FunctionClass(values), CoordinateSubset(tuple(cols + 1), 8), t


@st.composite
def vc_grid_cases(draw):
    """(F, scales, max_sigma) with m <= 24 functions on n <= 6 points.

    The values are +-1, uniform rounded to one decimal, or on the quarter
    grid in [-1, 1]. The grid holds 1 to 5 scales, unsorted, some repeated
    and some exactly half a gap between two values of one point, where the
    cut test ties.
    """
    kind = draw(st.sampled_from(["sign", "decimal", "quarter"]))
    m, n = draw(st.integers(1, 24)), draw(st.integers(1, 6))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "sign":
        values = g.choice([-1.0, 1.0], size=(m, n))
    elif kind == "decimal":
        values = np.round(g.uniform(-1.0, 1.0, size=(m, n)), 1)
    else:
        values = 0.25 * g.integers(-4, 5, size=(m, n))
    half_gaps = np.unique(values[:, None] - values[None]) / 2.0
    scale = st.floats(0.01, 1.1)
    if np.any(half_gaps > 0):
        scale = st.one_of(scale, st.sampled_from(half_gaps[half_gaps > 0].tolist()))
    scales = draw(st.lists(scale, min_size=1, max_size=4))
    if draw(st.booleans()):
        scales.insert(draw(st.integers(0, len(scales))), draw(st.sampled_from(scales)))
    max_sigma = draw(st.one_of(st.none(), st.integers(1, 3)))
    return FunctionClass(values), scales, max_sigma


@st.composite
def carrier_stacks(draw):
    """(F, t, stack): m <= 24 functions on 6 points and a stack of 1 to 8 subsets of one size,
    some repeated and in any point order.

    Each column is +-1, uniform rounded to two decimals, on the quarter grid
    in [-1, 1], or skewed: -1 but on one function, so that the side filter
    drops it from every subset of two or more points. Columns of one class
    mix these kinds, so the points of one subset have different cut counts.
    """
    m = draw(st.integers(2, 24))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for kind in draw(st.lists(st.sampled_from(["sign", "decimal", "quarter", "skewed"]),
                              min_size=6, max_size=6)):
        if kind == "sign":
            cols.append(g.choice([-1.0, 1.0], size=m))
        elif kind == "decimal":
            cols.append(np.round(g.uniform(-1.0, 1.0, size=m), 2))
        elif kind == "quarter":
            cols.append(0.25 * g.integers(-4, 5, size=m))
        else:
            cols.append(np.where(np.arange(m) == g.integers(m), 1.0, -1.0))
    k = draw(st.integers(1, min(4, int(math.log2(m)))))
    subset = st.sampled_from(list(itertools.combinations(range(6), k))).flatmap(st.permutations)
    stack = draw(st.lists(subset, min_size=1, max_size=8))
    return FunctionClass(np.column_stack(cols)), draw(st.floats(0.01, 0.6)), stack


def assert_same_result(res, ref):
    """The same dimension and the same witness bits."""
    assert res.dimension == ref.dimension
    if ref.witness is None:
        assert res.witness is None
        return
    assert res.witness.sigma == ref.witness.sigma
    assert res.witness.scale == ref.witness.scale
    assert res.witness.level.tobytes() == ref.witness.level.tobytes()
    assert res.witness.assignment == ref.witness.assignment


def counting_oracle(mp):
    """Patch the cut search, shatter._least_carriers, to record the (sigma, t) of each subset
    of each stack it decides; returns the record. Its cut tables are named by the points and
    t that a patched shatter._scale_cuts built them for."""
    calls, built, cuts, search = [], {}, shatter._scale_cuts, shatter._least_carriers

    def traced(F, t, cols):
        table = cuts(F, t, cols)
        built[id(table[0])] = (np.asarray(cols) + 1, t)
        return table

    def counted(table, subsets):
        points, t = built[id(table[0])]
        calls.extend((tuple(points[s].tolist()), t) for s in np.asarray(subsets))
        return search(table, subsets)

    mp.setattr(shatter, "_scale_cuts", traced)
    mp.setattr(shatter, "_least_carriers", counted)
    return calls


@pytest.fixture
def failing_lp(monkeypatch):
    # HiGHS status 4: numerical difficulties
    monkeypatch.setattr(shatter, "linprog", lambda *a, **k: SimpleNamespace(status=4))


@pytest.mark.parametrize("solve", [
    # two points in R^200: C(200, 2) * 2 * 200 scalars pass the vertex gate, so LPs run
    lambda: l1_domination(np.eye(2, 200)),
    # the row (0.5, 0.5) has no negation in the class, so the joint LP runs
    lambda: vc_convex_hull(FunctionClass(np.vstack([sign_class(2).values, [0.5, 0.5]])),
                           full_subset(2), 0.5),
], ids=["orthant", "hull"])
def test_failed_lp_raises_certificate_error(failing_lp, solve):
    with pytest.raises(CertificateError) as exc:
        solve()
    assert exc.value.code == "CERTIFICATE"


def test_domination_minimizer_must_attain_the_lp_value(monkeypatch):
    # status 0, but the minimizer a = (1, 0) has sup norm 1, not the reported 0.25
    monkeypatch.setattr(shatter, "linprog", lambda *a, **k: SimpleNamespace(
        status=0, fun=0.25, x=np.array([1.0, 0.0, 0.25])))
    with pytest.raises(CertificateError) as exc:
        l1_domination(np.eye(2, 200))
    assert exc.value.code == "CERTIFICATE"
    assert "exact-lp minimizer attains 1.0" in str(exc.value)


def test_domination_minimizer_must_attain_the_vertex_value(monkeypatch):
    # the vertex value 1/3 stays, its minimizer becomes a = (1, 0, 0), whose sup norm is 1
    solve = shatter._vertex_domination
    monkeypatch.setattr(shatter, "_vertex_domination",
                        lambda x: (solve(x)[0], np.array([1.0, 0.0, 0.0])))
    with pytest.raises(CertificateError) as exc:
        l1_domination(np.eye(3))
    assert exc.value.code == "CERTIFICATE"
    assert "exact-vertex minimizer attains 1.0" in str(exc.value)


class TestIsShattered:
    def test_full_sign_class(self):
        # the cube class realizes every pattern with h = 0 and margin 1
        F = sign_class(3)
        w = is_shattered(F, full_subset(3), 1.0)
        assert w is not None
        assert np.abs(w.level).max() <= 1e-12
        assert w.scale == 1.0
        assert len(w.assignment) == 8
        assert verify_witness(F, w)
        # values live in [-1, 1], so no scale above 1 can separate
        assert is_shattered(F, full_subset(3), 1.0 + 1e-9) is None

    def test_assignment_injective_and_separating(self):
        F = sign_class(3)
        w = is_shattered(F, full_subset(3), 1.0)
        rows = list(w.assignment.values())
        assert len(set(rows)) == len(rows)
        cols = w.sigma.zero_based()
        for pat, j in w.assignment.items():
            vals = F.values[j, cols]
            for x, e in enumerate(pat):
                if e > 0:
                    assert vals[x] >= w.level[x] + w.scale - 1e-12
                else:
                    assert vals[x] <= w.level[x] - w.scale + 1e-12

    def test_basis_rows_never_shatter_pairs(self):
        # rows with a single 1 cannot put two coordinates on the high side
        F = FunctionClass(np.eye(16))
        for pair in ((1, 2), (3, 11), (15, 16)):
            assert is_shattered(F, CoordinateSubset(pair, 16), 0.25) is None

    def test_single_point_threshold(self):
        # separation 1.0 allows any t <= 0.5, with midpoint level 0.4
        F = FunctionClass(np.array([[0.9], [-0.1]]))
        sigma = CoordinateSubset((1,), 1)
        w = is_shattered(F, sigma, 0.5)
        assert w is not None
        assert w.level[0] == pytest.approx(0.4, abs=1e-12)
        assert is_shattered(F, sigma, 0.5 + 1e-9) is None

    def test_coordinate_range_prefilter(self):
        F = FunctionClass(np.array([[0.1, 1.0], [-0.1, -1.0]]))
        # coordinate 1 has range 0.2 < 2t
        assert is_shattered(F, CoordinateSubset((1,), 2), 0.2) is None
        assert is_shattered(F, CoordinateSubset((2,), 2), 0.2) is not None

    def test_too_few_functions(self):
        F = FunctionClass(np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]))
        # 3 functions cannot realize 4 patterns
        assert is_shattered(F, full_subset(2), 0.1) is None

    def test_caps_and_errors(self):
        F = sign_class(3)
        with pytest.raises(InputError):
            is_shattered(F, full_subset(3), 0.0)
        with pytest.raises(InputError):
            is_shattered(F, CoordinateSubset((), 3), 0.5)
        with pytest.raises(InputError):
            is_shattered(F, CoordinateSubset((1,), 4), 0.5)
        # 2 functions cannot realize the 256 patterns of 8 points: no cap, no search
        assert is_shattered(FunctionClass(np.ones((2, 8))), full_subset(8), 0.5) is None
        crowd = FunctionClass(np.ones((65, 2)))
        with pytest.raises(SizeCapError) as exc:
            is_shattered(crowd, CoordinateSubset((1,), 2), 0.5)
        assert exc.value.cost_estimate is not None

    def test_failed_witness_raises(self, monkeypatch):
        # the check must survive python -O, so it cannot be an assert
        monkeypatch.setattr(shatter, "_gaps_clear", lambda *a: False)
        with pytest.raises(CertificateError) as exc:
            is_shattered(sign_class(3), full_subset(3), 1.0)
        assert exc.value.code == "CERTIFICATE"

    def test_swapped_carriers_fail_their_gaps(self, monkeypatch):
        # patterns (+,+,+) and (+,+,-) trading rows put a -1 on the high side of point 3
        search = shatter._least_carriers

        def swapped(*args):
            found = search(*args)
            for first in found:
                first[0], first[1] = first[1], first[0]
            return found

        monkeypatch.setattr(shatter, "_least_carriers", swapped)
        with pytest.raises(CertificateError, match="gap falls short of 2t"):
            is_shattered(sign_class(3), full_subset(3), 1.0)

    def test_cap_cost_is_the_product_of_cut_counts(self, monkeypatch):
        # each column offers three cuts: lo = 0, 0.25 and 0.5 each have a value 2t above
        F = FunctionClass(np.repeat([[0.0], [0.25], [0.5], [1.0]], 3, axis=1))
        monkeypatch.setattr(shatter, "_MAX_FUNCTIONS", 3)
        with pytest.raises(SizeCapError) as exc:
            is_shattered(F, full_subset(3), 0.25)
        assert exc.value.cost_estimate == 27.0
        assert "27 cut combinations" in str(exc.value)

    def test_all_sign_patterns_of_six_points(self):
        # the 64 sign patterns shatter all 6 points; the two searches give one witness
        F = sign_class(6)
        want = vc_dimension(F, 0.5)
        assert want.dimension == 6
        assert_same_result(shatter.VcResult(6, is_shattered(F, full_subset(6), 0.5)), want)

    @given(case=shatter_cases(), tiny_blocks=st.booleans())
    def test_matches_backtracking_reference(self, case, tiny_blocks):
        # same decision, same assignment and the same level bits; one-row blocks
        # make every expansion split
        F, sigma, t = case
        with pytest.MonkeyPatch.context() as mp:
            if tiny_blocks:
                mp.setattr(shatter, "_BLOCK_SCALARS", 1)
            w = is_shattered(F, sigma, t)
        want = backtracking_witness(F, sigma, t)
        if want is None:
            assert w is None
        else:
            assert w is not None
            assert w.level.tolist() == want[0]
            assert w.assignment == want[1]
            assert all(type(j) is int for j in w.assignment.values())

    def test_dense_uniform_class_within_time_and_memory(self):
        # 44 to 51 cuts per column, about 2.4e8 cut choices: pruning and blocks must bound the search
        F = FunctionClass(np.random.default_rng(0).uniform(-1.0, 1.0, (64, 8)))
        tracemalloc.start()
        try:
            start = time.perf_counter()
            w = is_shattered(F, CoordinateSubset((1, 2, 3, 4, 5), 8), 0.2)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w is None
        assert elapsed < 5.0
        assert peak < 64e6


class TestVcDimension:
    def test_sign_class_attains_n(self):
        for n in (1, 2, 3):
            res = vc_dimension(sign_class(n), 1.0)
            assert res.dimension == n
            assert res.witness is not None and res.witness.sigma.size == n

    def test_basis_class_is_one(self):
        res = vc_dimension(FunctionClass(np.eye(16)), 0.25)
        assert res.dimension == 1

    def test_matches_naive_search(self):
        # oracle: exhaustive subset scan, using that shattering is
        # hereditary (restricting a witness witnesses any subset)
        def naive(F, t):
            best = 0
            for size in range(1, F.n + 1):
                hits = [
                    cand
                    for cand in itertools.combinations(range(1, F.n + 1), size)
                    if is_shattered(F, CoordinateSubset(cand, F.n), t) is not None
                ]
                if not hits:
                    break
                best = size
            return best

        rng = RngStream(201).generator()
        for _ in range(20):
            F = random_pm_class(rng)
            for t in (0.3, 0.8, 1.0):
                assert vc_dimension(F, t).dimension == naive(F, t)

    def test_log2_cardinality_cap(self):
        rng = RngStream(202).generator()
        for _ in range(10):
            F = random_pm_class(rng)
            d = vc_dimension(F, 0.5).dimension
            assert d <= math.floor(math.log2(F.m))

    def test_nonincreasing_in_scale(self):
        rng = RngStream(203).generator()
        for _ in range(10):
            F = random_pm_class(rng)
            dims = [vc_dimension(F, t).dimension for t in (0.2, 0.5, 0.8, 1.0)]
            assert all(a >= b for a, b in zip(dims, dims[1:]))

    def test_projection_monotone(self):
        rng = RngStream(204).generator()
        for _ in range(10):
            F = random_pm_class(rng)
            full = vc_dimension(F, 0.6).dimension
            k = int(rng.integers(1, F.n))
            cols = np.sort(rng.choice(F.n, size=k, replace=False))
            proj = FunctionClass(F.values[:, cols])
            assert vc_dimension(proj, 0.6).dimension <= full

    def test_caps(self):
        with pytest.raises(SizeCapError):
            vc_dimension(FunctionClass(np.ones((2, 21))), 0.5)
        with pytest.raises(SizeCapError):
            vc_dimension(FunctionClass(np.ones((65, 3))), 0.5)
        with pytest.raises(InputError):
            vc_dimension(sign_class(2), -1.0)

    def test_levels_near_the_float_maximum(self):
        # the midpoint of 1.7e308 and 1e308 must not overflow on the way
        F = FunctionClass([[1.7e308], [1.0e308]])
        res = vc_dimension(F, 1e307)
        assert res.dimension == 1
        assert np.all(np.isfinite(res.witness.level))
        assert res.witness.level[0] == pytest.approx(1.35e308, rel=1e-15)
        assert verify_witness(F, res.witness)

    def test_gaps_whose_double_scale_overflows(self):
        # 1e308 - (-8e307) overflows, and so does 2t from t = 8.99e307 on; halves decide:
        # the gap 1.8e308 reaches 2t = 1.798e308 but not 2t = 1.9e308
        F = FunctionClass([[1e308], [-0.8e308]])
        assert [vc_dimension(F, t).dimension for t in (0.899e308, 0.95e308)] == [1, 0]
        assert vc_dimension(F, 0.899e308).witness.level[0] == 0.5e308 - 0.4e308

    def test_max_sigma_truncates(self):
        res = vc_dimension(sign_class(3), 1.0, max_sigma=2)
        assert res.dimension == 2


class TestVcDimensions:
    @given(case=vc_grid_cases())
    def test_matches_the_per_scale_reference(self, case):
        # one search for the grid: the reference's result bits at every scale,
        # no (sigma, t) pair twice and never more oracle calls than the reference
        F, scales, max_sigma = case
        with pytest.MonkeyPatch.context() as mp:
            calls = counting_oracle(mp)
            got = vc_dimensions(F, scales, max_sigma)
            ours = len(calls)
            want = [reference_vc_dimension(F, t, max_sigma) for t in scales]
        assert len(got) == len(scales)
        assert len(set(calls[:ours])) == ours
        assert ours <= len(calls) - ours
        if len(set(scales)) == 1:
            assert ours == (len(calls) - ours) // len(scales)
        for res, ref in zip(got, want):
            assert_same_result(res, ref)

    @given(case=shatter_cases())
    def test_reported_witnesses_are_those_of_is_shattered(self, case):
        # a witness is built from the decision's kept carriers, not from a second search
        F, _, t = case
        for res in vc_dimensions(F, (t / 2.0, t, 2.0 * t)):
            if res.witness is not None:
                w = is_shattered(F, res.witness.sigma, res.witness.scale)
                assert res.witness.assignment == w.assignment
                assert res.witness.level.tobytes() == w.level.tobytes()

    @given(case=vc_grid_cases())
    def test_point_cuts_are_built_once_per_point_and_scale(self, case):
        F, scales, max_sigma = case
        built, cuts = [], shatter._scale_cuts
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(shatter, "_scale_cuts",
                       lambda F, t, cols: built.extend((x, t) for x in cols) or cuts(F, t, cols))
            vc_dimensions(F, scales, max_sigma)
        assert len(built) == len(set(built))

    def test_vc_dimension_is_the_one_scale_case(self):
        F = sign_class(3)
        for t in (0.5, 1.0, 1.5):
            assert_same_result(vc_dimension(F, t, 2), vc_dimensions(F, [t], 2)[0])

    def test_equal_cut_tables_share_their_decisions(self):
        # on a +-1 class every t <= 1 gives every point the one cut lo = -1, hi = 1, so three
        # such scales make exactly the decisions of one, and the same results
        F = FunctionClass(np.random.default_rng(0).choice([-1.0, 1.0], size=(16, 8)))
        with pytest.MonkeyPatch.context() as mp:
            calls = counting_oracle(mp)
            grid = vc_dimensions(F, (0.3, 0.75, 0.95))
            decided = sorted(points for points, _ in calls)
            calls.clear()
            one = vc_dimension(F, 0.95)
            assert decided == sorted(points for points, _ in calls)
        assert one.dimension == 3
        assert [res.dimension for res in grid] == [3, 3, 3]
        assert all(res.witness.assignment == one.witness.assignment for res in grid)

    @given(case=carrier_stacks(), block=st.sampled_from([None, 1, 64, 700]))
    def test_a_stack_decides_each_subset_as_a_stack_of_one(self, case, block):
        # the same vector, or None, for every subset of the stack; small blocks cut both the
        # stack and the expansions into many pieces
        F, t, stack = case
        cuts = shatter._scale_cuts(F, t, np.arange(F.n))
        alone = [shatter._least_carriers(cuts, [subset])[0] for subset in stack]
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(shatter, "_BLOCK_SCALARS", block)
            assert shatter._least_carriers(cuts, stack) == alone

    def test_grid_order_and_repeats(self):
        # results follow the grid as given; a repeated scale is searched once
        F = FunctionClass(np.array([[0.9, 0.5], [-0.1, 0.5], [0.9, -0.5], [-0.1, -0.5]]))
        with pytest.MonkeyPatch.context() as mp:
            calls = counting_oracle(mp)
            res = vc_dimensions(F, (0.5, 0.45, 0.5, 0.55))
        assert [r.dimension for r in res] == [2, 2, 2, 0]
        assert res[0] is res[2]
        assert len(calls) == len(set(calls))

    @given(case=vc_grid_cases(), j=st.integers(-1000, 1000))
    # 2^16 times (-0.1, -0.6) at t = 2^16 / 4: the gap is exactly 2t, and the
    # midpoint level misses the values by rounding
    @example(case=(FunctionClass([[-0.1], [-0.6]]), [0.25], None), j=16)
    def test_scaled_class_at_scaled_scales(self, case, j):
        # shattering is homogeneous, and a power of two rounds nothing: c F at c t
        # has the same subsets and assignments, with levels exactly c times as large
        F, scales, max_sigma = case
        c = math.ldexp(1.0, j)
        got = vc_dimensions(F, scales, max_sigma)
        scaled = vc_dimensions(FunctionClass(c * F.values), [c * t for t in scales], max_sigma)
        for res, big in zip(got, scaled):
            assert big.dimension == res.dimension
            if res.witness is None:
                assert big.witness is None
                continue
            assert big.witness.sigma == res.witness.sigma
            assert big.witness.assignment == res.witness.assignment
            assert big.witness.scale == c * res.witness.scale
            assert np.array_equal(big.witness.level, c * res.witness.level)

    def test_empty_grid_and_bad_scales(self):
        assert vc_dimensions(sign_class(2), ()) == ()
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InputError):
                vc_dimensions(sign_class(2), (0.5, bad))


class TestL1Domination:
    def test_basis_vectors(self):
        # n basis vectors padded to R^200 pass the vertex gate and take the LPs
        self.check_basis_vectors(200, "exact-lp")

    def test_basis_vectors_by_vertices(self):
        self.check_basis_vectors(None, "exact-vertex")

    @staticmethod
    def check_basis_vectors(width, method):
        for n in (2, 4, 6):
            x = np.eye(n, width)
            res = l1_domination(x, norm="sup")
            assert res.method == method
            assert res.epsilon_star == pytest.approx(1.0 / n, abs=1e-9)
            assert np.abs(res.minimizer).sum() == pytest.approx(1.0, abs=1e-9)
            # the reported minimizer attains the reported value
            attained = banach_norm(res.minimizer @ x, "sup")
            assert attained == pytest.approx(res.epsilon_star, abs=1e-8)

    def test_gate_and_caps_name_the_path(self):
        # C(dim, c) 2^(c-1) dim scalars against _BLOCK_SCALARS = 2,000,000
        assert l1_domination(np.eye(2, 126)).method == "exact-vertex"  # 1,984,500
        assert l1_domination(np.eye(2, 127)).method == "exact-lp"  # 2,032,254
        # _MAX_EXACT_DOMINATION = 15 independent points, and one more
        exact = l1_domination(np.eye(15))
        assert exact.method == "exact-vertex"
        assert exact.epsilon_star == pytest.approx(1.0 / 15.0, rel=1e-12)
        for x in (np.eye(16), np.eye(16, 40)):
            res = l1_domination(x, samples=64)
            assert res.method == "sampled"
            assert res.epsilon_star >= 1.0 / 16.0 - 1e-12

    def test_p_norms_are_sampled_and_dependent_points_exact(self):
        # independent points under a p-norm have no exact path; dependent ones have
        # epsilon_star 0 under every norm
        y = RngStream(214).generator().uniform(-0.1, 0.1, size=(3, 4))
        z = np.vstack([y, y[0] - y[2]])
        for norm in (1.0, 2.0, 3.5):
            res = l1_domination(y, norm=norm, rng=RngStream(215))
            assert res.method == "sampled"
            assert res.epsilon_star == pytest.approx(banach_norm(res.minimizer @ y, norm), rel=1e-12)
            dep = l1_domination(z, norm=norm)
            assert (dep.method, dep.epsilon_star) == ("exact-rank", 0.0)
            assert np.abs(dep.minimizer).sum() == pytest.approx(1.0, abs=1e-12)
            assert banach_norm(dep.minimizer @ z, norm) <= 1e-15

    def test_dependent_points_take_the_rank_shortcut(self, monkeypatch):
        # more points than coordinates, or a repeated point: a null vector, and no LP
        monkeypatch.setattr(shatter, "linprog", None)
        rng = RngStream(212).generator()
        y = rng.uniform(-1.0, 1.0, size=(3, 5))
        for x in (rng.uniform(-1.0, 1.0, size=(40, 3)), np.vstack([y, y[1]]), np.zeros((2, 3))):
            res = l1_domination(x)
            assert res.method == "exact-rank"
            assert res.epsilon_star == 0.0
            assert np.abs(res.minimizer).sum() == pytest.approx(1.0, abs=1e-12)
            assert banach_norm(res.minimizer @ x, "sup") <= 1e-15

    def test_tiny_points_keep_their_scale(self):
        # a unit peak keeps 1 / |a|_1 inside the float range
        for scale in (5e-324, 1e-300, 1e-150):
            res = l1_domination(scale * np.eye(3))
            assert res.method == "exact-vertex"
            assert res.epsilon_star == pytest.approx(scale / 3.0, rel=1e-12)

    @settings(max_examples=80)
    @given(case=domination_cases())
    def test_vertex_path_matches_orthant_lps(self, case):
        seed, x = case
        lp_value, _ = shatter._orthant_domination(x)
        res = l1_domination(x)
        if shatter._null_vector(x) is None:
            value, a = shatter._vertex_domination(x)
            assert (res.epsilon_star, res.minimizer.tolist()) == (value, a.tolist())
            assert res.method == "exact-vertex"
            assert value == pytest.approx(lp_value, rel=1e-12, abs=0.0)
        else:
            assert res.method == "exact-rank"
            assert max(res.epsilon_star, lp_value) <= 1e-12
        assert np.abs(res.minimizer).sum() == pytest.approx(1.0, rel=1e-12)
        assert banach_norm(res.minimizer @ x, "sup") == pytest.approx(res.epsilon_star, rel=1e-12)
        sampled = sampled_domination(x, samples=64, rng=RngStream(213, seed))
        assert sampled.epsilon_star >= res.epsilon_star - 1e-12

    @given(case=domination_cases(), j=st.integers(-1000, 0))
    def test_scaled_points(self, case, j):
        # epsilon_star is homogeneous and the exact paths work at the unit peak, so
        # c x with normal entries takes the same path to the same minimizer
        _, x = case
        c = math.ldexp(1.0, j)
        assume(np.all((x == 0.0) | (np.abs(c * x) >= np.finfo(float).tiny)))
        res, scaled = l1_domination(x), l1_domination(c * x)
        assert scaled.method == res.method
        assert np.array_equal(scaled.minimizer, res.minimizer)
        assert scaled.epsilon_star == c * res.epsilon_star

    def test_value_is_checked_at_the_unit_peak(self, monkeypatch):
        # on 1e-8-sized points a doubled value misses the attained one by only 5e-9;
        # at the unit peak it misses by about 0.5
        solve = shatter._vertex_domination
        monkeypatch.setattr(shatter, "_vertex_domination",
                            lambda x: (2.0 * solve(x)[0], solve(x)[1]))
        with pytest.raises(CertificateError, match="exact-vertex minimizer attains"):
            l1_domination(1e-8 * np.array([[1.0, 0.3], [0.2, -1.0]]))

    def test_two_equal_points_degenerate(self):
        res = l1_domination(np.array([[0.3, -0.7], [0.3, -0.7]]))
        assert res.epsilon_star == pytest.approx(0.0, abs=1e-9)

    def test_hadamard_orthogonality_bound(self):
        # |Ha|_inf >= |Ha|_2 / sqrt(n) = |a|_2 >= |a|_1 / sqrt(n)
        for n in (2, 4, 8):
            H = hadamard(n).astype(float)
            res = l1_domination(H, norm="sup")
            assert res.epsilon_star >= 1.0 / math.sqrt(n) - 1e-9
            if n == 4:
                assert res.epsilon_star == pytest.approx(0.5, abs=1e-9)

    def test_sampled_upper_bounds_exact(self):
        rng = RngStream(205).generator()
        for i in range(10):
            count = int(rng.integers(2, 5))
            dim = int(rng.integers(2, 6))
            x = rng.uniform(-1.0, 1.0, size=(count, dim))
            exact = l1_domination(x).epsilon_star
            samp = sampled_domination(x, rng=RngStream(206, i))
            assert samp.method == ("exact-rank" if count > dim else "sampled")
            assert samp.epsilon_star >= exact - 1e-12

    def test_sampled_takes_the_first_minimal_direction(self):
        # coordinate vectors score 1, the corner (+,+,+)/3 comes first at 1/3
        res = sampled_domination(np.eye(3), rng=RngStream(208))
        assert res.epsilon_star == 1.0 / 3.0
        assert np.array_equal(res.minimizer, np.full(3, 1.0 / 3.0))

    def test_minimizer_normalization_sampled(self):
        res = sampled_domination(np.eye(3), rng=RngStream(207))
        assert np.abs(res.minimizer).sum() == pytest.approx(1.0, abs=1e-9)

    def test_errors(self):
        with pytest.raises(InputError):
            l1_domination(2.0 * np.eye(3))
        with pytest.raises(InputError):
            l1_domination(np.eye(3), norm=0.5)
        with pytest.raises(InputError):
            l1_domination(np.eye(3), samples=-1)
        with pytest.raises(InputError):
            l1_domination(np.array([[np.nan, 0.0]]))


class TestVcConvexHull:
    def test_hull_of_sign_class(self):
        # the hull contains the sign class itself, so t = 1 still works
        F = sign_class(3)
        w = vc_convex_hull(F, full_subset(3), 1.0)
        assert w is not None
        assert w.margin >= 1.0 - 1e-9
        assert verify_witness(F, w, tol=1e-6)
        assert vc_convex_hull(F, full_subset(3), 1.0 + 1e-6) is None

    def test_failed_witness_raises(self, monkeypatch):
        # a witness failing substitution is an error, not "not shattered"
        monkeypatch.setattr(shatter, "verify_witness", lambda *a, **k: False)
        with pytest.raises(CertificateError):
            vc_convex_hull(sign_class(3), full_subset(3), 1.0)
        assert vc_convex_hull(sign_class(3), full_subset(3), 1.0 + 1e-6) is None

    def test_weight_vectors_on_simplex(self):
        F = sign_class(2)
        w = vc_convex_hull(F, full_subset(2), 0.9)
        for weights in w.assignment.values():
            weights = np.asarray(weights)
            assert weights.min() >= -1e-12
            assert weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_hull_extends_plain_shattering(self):
        # whenever F itself shatters, so does its hull
        rng = RngStream(208).generator()
        checked = 0
        for _ in range(10):
            F = random_pm_class(rng, max_m=8, max_n=4)
            sigma = CoordinateSubset((1, 2), F.n)
            if is_shattered(F, sigma, 0.8) is not None:
                assert vc_convex_hull(F, sigma, 0.8) is not None
                checked += 1
        assert checked >= 1

    def test_hadamard_points_shattered_by_dual_ball(self):
        for n in (2, 4, 8):
            H = hadamard(n).astype(float)
            F = dual_ball_class(H)
            w = vc_convex_hull(F, full_subset(n), 1.0 / math.sqrt(n), max_sigma=n)
            assert w is not None
            assert verify_witness(F, w, tol=1e-6)

    def test_matches_domination_on_dual_balls(self):
        # shattering of all points by the dual ball happens exactly up to
        # epsilon_star, and the LP margin reproduces epsilon_star itself
        rng = RngStream(209).generator()
        for _ in range(25):
            count = int(rng.integers(1, 5))
            dim = int(rng.integers(count, 7))
            x = rng.uniform(-1.0, 1.0, size=(count, dim))
            eps = l1_domination(x).epsilon_star
            F = dual_ball_class(x)
            sigma = full_subset(count)
            if eps > 1e-6:
                w = vc_convex_hull(F, sigma, 0.9 * eps, max_sigma=count)
                assert w is not None
                assert w.margin == pytest.approx(eps, abs=1e-7)
                assert vc_convex_hull(F, sigma, min(1.1 * eps, 1.0 + 1e-9), max_sigma=count) is None

    def test_dependent_points_never_shattered(self):
        # more points than dimensions forces epsilon_star = 0
        rng = RngStream(210).generator()
        x = rng.uniform(-1.0, 1.0, size=(4, 2))
        assert l1_domination(x).epsilon_star == pytest.approx(0.0, abs=1e-9)
        assert vc_convex_hull(dual_ball_class(x), full_subset(4), 0.05, max_sigma=4) is None

    def test_domination_inequality_on_random_coefficients(self):
        # a witness at scale t certifies norm(sum a_i x_i) >= t sum |a_i|
        x = hadamard(4).astype(float)
        t = 0.5
        assert vc_convex_hull(dual_ball_class(x), full_subset(4), t) is not None
        rng = RngStream(211).generator()
        a = rng.standard_normal((1000, 4))
        vals = np.abs(a @ x).max(axis=1)
        assert np.all(vals >= t * np.abs(a).sum(axis=1) - 1e-9)

    @settings(max_examples=150)
    @given(case=symmetric_hull_cases())
    def test_closed_form_matches_the_joint_lp(self, case):
        # F = -F on sigma: the closed form and the joint LP decide alike at one margin,
        # and c F at c t is decided alike with the margin times c
        F, sigma, t, c = case
        unit, e = unit_peak(F.values[:, sigma.zero_based()])
        closed, lp = shatter._symmetric_hull(unit), shatter._hull_lp(unit)
        assert closed is not None
        if closed[0] == 0.0:
            assert abs(lp[0]) <= 1e-9
        else:
            assert closed[0] == pytest.approx(lp[0], rel=1e-9, abs=0.0)
        w = vc_convex_hull(F, sigma, t)
        margin = math.ldexp(lp[0], e)
        if abs(margin - t) > 1e-6 * t:
            assert (w is not None) == (margin >= t - 1e-7 * t)
        if w is not None:
            assert w.margin == math.ldexp(closed[0], e)
            assert not w.level.any()
        scaled = vc_convex_hull(FunctionClass(c * F.values), sigma, c * t)
        assert (scaled is None) == (w is None)
        if w is not None:
            assert scaled.margin == c * w.margin
            assert not scaled.level.any()

    def test_asymmetric_class_keeps_its_scale(self):
        # the joint LP runs at a unit peak, so at 2^-1000 it finds the same margin and levels
        F = FunctionClass(np.vstack([sign_class(2).values, [0.5, 0.5]]))
        w = vc_convex_hull(F, full_subset(2), 0.5)
        tiny = vc_convex_hull(FunctionClass(np.ldexp(F.values, -1000)), full_subset(2),
                              math.ldexp(0.5, -1000))
        assert w is not None and tiny is not None
        assert tiny.margin == math.ldexp(w.margin, -1000)
        assert np.array_equal(tiny.level, np.ldexp(w.level, -1000))

    def test_caps_and_errors(self):
        F = sign_class(2)
        with pytest.raises(InputError):
            vc_convex_hull(F, full_subset(2), 0.0)
        with pytest.raises(InputError):
            vc_convex_hull(F, CoordinateSubset((), 2), 0.5)
        big = FunctionClass(np.ones((2, 5)))
        with pytest.raises(SizeCapError):
            vc_convex_hull(big, full_subset(5), 0.5)


class TestDualBallClass:
    def test_structure(self):
        x = np.array([[0.5, -0.25, 1.0], [0.0, 0.75, -1.0]])
        F = dual_ball_class(x)
        assert F.m == 6 and F.n == 2
        assert np.array_equal(F.values[:3], x.T)
        assert np.array_equal(F.values[3:], -x.T)


def loop_verify_witness(F, w, tol=1e-9):
    """verify_witness one pattern and one point at a time: its reference."""
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


class TestVerifyWitness:
    @given(seed=st.integers(0, 2**32 - 1), hull=st.booleans())
    def test_matches_the_loop_reference(self, seed, hull):
        # shifted levels, scales and weights make some witnesses fail; the
        # verdict must be the reference's either way
        from coordproj.shatter import ShatterWitness

        g = np.random.default_rng(seed)
        if hull:
            F = dual_ball_class(hadamard(4).astype(float))
            w = vc_convex_hull(F, full_subset(4), 0.25)
            # reweighted, the weights stay nonnegative and still sum to 1
            factors = g.uniform(0.9, 1.1, (len(w.assignment), F.m))
            assignment = {pat: who * f / (who * f).sum()
                          for (pat, who), f in zip(w.assignment.items(), factors)}
        else:
            F = sign_class(3)
            w = is_shattered(F, full_subset(3), 0.5)
            assignment = w.assignment
        bad = ShatterWitness(w.sigma, w.level + g.normal(0.0, 0.2 * w.scale, w.sigma.size),
                             assignment, w.scale * g.uniform(0.5, 2.5))
        assert verify_witness(F, bad) == loop_verify_witness(F, bad)

    def test_rejects_tampered_level(self):
        F = sign_class(2)
        w = is_shattered(F, full_subset(2), 1.0)
        from coordproj.shatter import ShatterWitness

        bad = ShatterWitness(
            sigma=w.sigma,
            level=w.level + 0.5,
            assignment=w.assignment,
            scale=w.scale,
        )
        assert not verify_witness(F, bad)

    @pytest.mark.parametrize("fault", ["negative", "sum", "side"])
    def test_rejects_each_corrupt_hull_weight_vector(self, fault):
        # rows 0 and 4 of the dual ball class are repeated as rows 8 and 9, so
        # weight moved between a row and its copy leaves every value in place
        from coordproj.shatter import ShatterWitness

        base = dual_ball_class(hadamard(4).astype(float)).values
        F = FunctionClass(np.vstack([base, base[[0, 4]]]))
        w = vc_convex_hull(F, full_subset(4), 0.25)
        assert verify_witness(F, w)
        pat = next(iter(w.assignment))
        b = np.array(w.assignment[pat], dtype=float)
        if fault == "negative":
            b[0] += b[8] + 0.1
            b[8] = -0.1
        elif fault == "sum":
            b *= 1.001
        else:
            b = np.asarray(w.assignment[tuple(-e for e in pat)], dtype=float)
        clears = np.all(np.asarray(pat) * (b @ F.values - w.level) >= w.scale)
        assert clears == (fault != "side")
        bad = ShatterWitness(w.sigma, w.level, {**w.assignment, pat: b}, w.scale)
        assert not verify_witness(F, bad)

    def test_rejects_bad_weights(self):
        from coordproj.shatter import ShatterWitness

        F = sign_class(1)
        w = ShatterWitness(
            sigma=CoordinateSubset((1,), 1),
            level=np.zeros(1),
            assignment={(1,): np.array([0.7, 0.7]), (-1,): np.array([0.5, 0.5])},
            scale=0.5,
        )
        assert not verify_witness(F, w)
