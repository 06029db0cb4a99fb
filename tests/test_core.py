import ast
import importlib
import inspect
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coordproj import core
from coordproj.core import (
    CertificateError,
    CoordinateSubset,
    FunctionClass,
    InputError,
    RngStream,
    SizeCapError,
    as_table,
    as_vector,
    banach_norm,
    digest_inputs,
    mean_and_se,
    monte_carlo,
    sign_patterns,
)
from coordproj.complexity import min_sign_norm
from coordproj.orlicz import psi_norms
from coordproj.rotation import coordinate_jl
from coordproj.shatter import dual_ball_class, l1_domination


def test_as_vector_rejects_matrices_and_nan():
    with pytest.raises(InputError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(InputError):
        as_vector([1.0, float("nan")])
    v = as_vector([1, 2, 3])
    assert v.dtype == float and v.shape == (3,)


# public functions that read a table, each with its other arguments valid
TABLE_READERS = {
    "as_table": lambda x: as_table(x, "x"),
    "FunctionClass": FunctionClass,
    "psi_norms": lambda x: psi_norms(x, 2.0),
    "l1_domination": l1_domination,
    "coordinate_jl": lambda x: coordinate_jl(x, 0.5, RngStream(0)),
    "min_sign_norm": min_sign_norm,
    "dual_ball_class": dual_ball_class,
}


@pytest.mark.parametrize("table, code", [
    ([[1.0, 0.5], [0.5]], "DIMENSION"), ([["a", "b"]], "DIMENSION"), ([[{}]], "DIMENSION"),
    ([], "EMPTY_INPUT"), (np.zeros((0, 3)), "EMPTY_INPUT"), (np.zeros((2, 0)), "DIMENSION"),
    (np.ones((2, 2, 2)), "DIMENSION"), (1.0, "DIMENSION"),
    ([[1.0, math.nan]], "BAD_INPUT"), ([[1.0, -math.inf]], "BAD_INPUT"),
])
def test_every_table_reader_applies_one_rule(table, code):
    for name, read in TABLE_READERS.items():
        with pytest.raises(InputError) as exc:
            read(table)
        assert exc.value.code == code, name


def test_a_single_point_is_one_row_only_where_points_are_read():
    point = [1.0, -1.0]
    assert as_table(point, "x", promote=True).shape == (1, 2)
    assert l1_domination(point).epsilon_star == 1.0
    assert coordinate_jl(point, 0.5, RngStream(0)).per_vector_ratio.shape == (1,)
    assert dual_ball_class(point).values.shape == (4, 1)
    for name in ("as_table", "FunctionClass", "psi_norms", "min_sign_norm"):
        with pytest.raises(InputError) as exc:
            TABLE_READERS[name](point)
        assert exc.value.code == "DIMENSION", name


class TestCoordinateSubset:
    def test_one_based_strictly_increasing(self):
        s = CoordinateSubset((1, 3, 4), 5)
        assert s.size == 3
        assert list(s.zero_based()) == [0, 2, 3]

    def test_rejects_bad_indices(self):
        with pytest.raises(InputError):
            CoordinateSubset((0, 1), 4)
        with pytest.raises(InputError):
            CoordinateSubset((2, 2), 4)
        with pytest.raises(InputError):
            CoordinateSubset((3, 1), 4)
        with pytest.raises(InputError):
            CoordinateSubset((5,), 4)

    def test_empty_subset_is_legal(self):
        s = CoordinateSubset((), 7)
        assert s.size == 0

    def test_full_and_mask_constructors(self):
        assert CoordinateSubset.full(3).indices == (1, 2, 3)
        s = CoordinateSubset.from_mask([True, False, True])
        assert s.indices == (1, 3) and s.ambient_n == 3


class TestRngStream:
    def test_same_stream_same_bits(self):
        a = RngStream(7, 3).generator().random(100)
        b = RngStream(7, 3).generator().random(100)
        assert np.array_equal(a, b)

    def test_different_streams_differ(self):
        a = RngStream(7, 3).generator().random(100)
        b = RngStream(7, 4).generator().random(100)
        assert not np.array_equal(a, b)

    def test_substreams_disjoint_across_parents(self):
        # derived ids collide only if the label span is violated
        seen = set()
        for sid in range(5):
            parent = RngStream(0, sid)
            for k in range(5):
                child = parent.substream(k)
                assert child.stream_id not in seen
                seen.add(child.stream_id)

    def test_substream_label_range(self):
        with pytest.raises(InputError):
            RngStream(0).substream(-1)
        with pytest.raises(InputError):
            RngStream(0).substream(1_000_003)


class TestFunctionClass:
    def test_shape_and_accessors(self):
        F = FunctionClass(np.arange(6.0).reshape(2, 3))
        assert (F.m, F.n) == (2, 3)

    def test_values_are_frozen_copies(self):
        base = np.ones((2, 2))
        F = FunctionClass(base)
        base[0, 0] = 99.0
        assert F.values[0, 0] == 1.0
        with pytest.raises(ValueError):
            F.values[0, 0] = 5.0

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(InputError) as exc:
            FunctionClass(np.zeros((0, 3)))
        assert exc.value.code == "EMPTY_INPUT"
        with pytest.raises(InputError) as exc:
            FunctionClass(np.array([[np.inf, 0.0]]))
        assert exc.value.code == "BAD_INPUT"


def test_banach_norm_oracles():
    v = np.array([3.0, -4.0])
    assert banach_norm(v, "sup") == 4.0
    assert banach_norm(v, 2.0) == pytest.approx(5.0)
    assert banach_norm(v, 1.0) == pytest.approx(7.0)
    for p in (0.25, math.nan, math.inf):
        with pytest.raises(InputError) as exc:
            banach_norm(v, p)
        assert exc.value.code == "BAD_EXPONENT"


@pytest.mark.parametrize("norm", ["sup", 1.0, 2.0, 3.0, 3.5])
def test_banach_norm_reduces_the_last_axis(norm):
    # a vector alone and inside a stack get the same bits, whatever the stack's
    # memory layout; 200 rows make a last-bit gap between vectorized and scalar
    # powers show, and 12 columns one between pairwise and sequential sums
    cols = np.random.default_rng(3).standard_normal((4, 12, 50))
    for rows in (np.random.default_rng(3).standard_normal((4, 50, 7)), cols.transpose(0, 2, 1)):
        batch = banach_norm(rows, norm)
        assert batch.shape == (4, 50)
        for idx in np.ndindex(4, 50):
            assert batch[idx] == banach_norm(rows[idx].copy(), norm)
        assert isinstance(banach_norm(rows[0, 0], norm), float)


@pytest.mark.parametrize("empty", [[], np.zeros((3, 0)), 1.0])
def test_banach_norm_needs_a_nonempty_vector(empty):
    for norm in ("sup", 2.0):
        with pytest.raises(InputError) as exc:
            banach_norm(empty, norm)
        assert exc.value.code == "DIMENSION"


def test_digest_sensitive_to_values_and_shape():
    a = np.arange(4.0)
    assert digest_inputs(a) == digest_inputs(a.copy())
    assert digest_inputs(a) != digest_inputs(a.reshape(2, 2))
    assert digest_inputs(a, 1) != digest_inputs(a, 2)


def test_error_types_carry_codes():
    err = InputError("BAD_INPUT", "nope")
    assert isinstance(err, ValueError) and err.code == "BAD_INPUT"
    cap = SizeCapError("too big", cost_estimate=1e9)
    assert isinstance(cap, RuntimeError) and cap.code == "SIZE_CAP"
    assert cap.cost_estimate == 1e9
    cert = CertificateError("witness failed")
    assert isinstance(cert, RuntimeError) and cert.code == "CERTIFICATE"


_DRAWS = {
    "uniform": lambda gen, rows, width: gen.random((rows, width)),
    "normal": lambda gen, rows, width: gen.standard_normal((rows, width)),
    "signs": lambda gen, rows, width: gen.integers(0, 2, size=(rows, width)) * 2 - 1,
}


@given(
    trials=st.integers(1, 400),
    width=st.integers(1, 12),
    block_scalars=st.integers(1, 64),
    kind=st.sampled_from(sorted(_DRAWS)),
    table=st.booleans(),
)
def test_monte_carlo_blocks_match_one_unblocked_draw(trials, width, block_scalars, kind, table):
    # a table block returns `width` statistics per trial, summed column by column
    draw = _DRAWS[kind]
    gen = np.random.default_rng(17)
    seen = []

    def block(rows):
        stats = draw(gen, rows, width)
        stats = stats if table else stats.sum(axis=1)
        seen.append(stats)
        return stats

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK_SCALARS", block_scalars)
        total, total_sq = monte_carlo(trials, width, block)
    full_rows = max(1, block_scalars // width)
    assert all(len(s) == full_rows for s in seen[:-1]) and 0 < len(seen[-1]) <= full_rows
    stats = draw(np.random.default_rng(17), trials, width)
    stats = stats if table else stats.sum(axis=1)
    assert np.array_equal(np.concatenate(seen), stats)
    assert total == pytest.approx(stats.sum(axis=0).tolist(), rel=1e-12, abs=1e-9)
    assert total_sq == pytest.approx((stats * stats).sum(axis=0).tolist(), rel=1e-12)
    if table:
        assert len(total) == len(total_sq) == width
    else:  # one statistic per trial: float sums, one block's sum at a time
        assert type(total) is float and type(total_sq) is float
        assert total == sum(float(s.sum()) for s in seen)
        assert total_sq == sum(float((s * s).sum()) for s in seen)


@given(x=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=200))
def test_mean_and_se_match_numpy(x):
    a = np.asarray(x)
    n = a.size
    total_sq = float((a * a).sum())
    mean, se = mean_and_se(float(a.sum()), total_sq, n)
    assert mean == pytest.approx(float(np.mean(a)), rel=1e-12, abs=1e-300)
    ref = float(np.std(a, ddof=1)) / math.sqrt(n)
    # the sum-of-squares form rounds its variance by a few ulps of total_sq / (n - 1)
    assert abs(se**2 - ref**2) <= 1e-12 * ref**2 + 1e-14 * total_sq / ((n - 1) * n)


def test_mean_and_se_single_sample():
    assert mean_and_se(3.0, 9.0, 1) == (3.0, 0.0)


@given(k=st.integers(0, 10), cuts=st.lists(st.integers(0, 1 << 10), max_size=4))
def test_sign_pattern_chunks_concatenate(k, cuts):
    edges = [0, *sorted(c % ((1 << k) + 1) for c in cuts), 1 << k]
    chunks = [sign_patterns(k, lo, hi) for lo, hi in zip(edges, edges[1:])]
    full = sign_patterns(k)
    assert full.shape == (1 << k, k)
    assert np.array_equal(np.concatenate(chunks), full)


@given(k=st.integers(1, 24), i=st.integers(0, (1 << 24) - 1))
def test_sign_pattern_rows_are_bits(k, i):
    i %= 1 << k
    row = sign_patterns(k, i, i + 1)[0]
    assert row.tolist() == [1 if (i >> b) & 1 else -1 for b in range(k)]


@pytest.mark.parametrize("k", range(9))
def test_reversed_negated_sign_patterns_are_product_order(k):
    product = np.array(list(itertools.product((1, -1), repeat=k))).reshape(1 << k, k)
    assert np.array_equal(-sign_patterns(k)[:, ::-1], product)


def test_sources_raise_no_assert_or_bare_runtime_error():
    # certificates are checked on paths that raise a coded error and survive python -O
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno} asserts"
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = getattr(exc, "id", None)
                assert name != "RuntimeError", f"{path.name}:{node.lineno} raises RuntimeError"


def _import_time_nodes(tree):
    # every node run when the module is imported: function bodies are left out
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def test_sources_import_scipy_only_inside_functions():
    # scipy costs most of a cold start, and only the LP certificates need it
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        for node in _import_time_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert all(name.split(".")[0] != "scipy" for name in names), \
                f"{path.name}:{node.lineno} imports scipy at module level"


# size caps, tolerances and restart counts with one value in use are module
# constants; only the command line sets max_sigma, of the two searches it caps
_TUNING_KEYWORDS = {"max_sigma", "max_functions", "max_points", "feas_tol", "max_exact",
                    "restarts", "exhaustive_cap", "exact_max", "exact_packing_max",
                    "exact_covering_max"}
# vc_dimension hands its max_sigma to vc_dimensions
_SET_BY_THE_CLI = {"shatter.vc_dimension": {"max_sigma"}, "shatter.vc_dimensions": {"max_sigma"},
                   "shatter.vc_convex_hull": {"max_sigma"}}


def test_public_functions_take_no_tuning_keywords():
    for path in sorted(Path(core.__file__).parent.glob("[!_]*.py")):
        module = importlib.import_module(f"coordproj.{path.stem}")
        for name, fn in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            allowed = _SET_BY_THE_CLI.get(f"{path.stem}.{name}", set())
            taken = (set(inspect.signature(fn).parameters) & _TUNING_KEYWORDS) - allowed
            assert not taken, f"{path.stem}.{name} takes {sorted(taken)}"


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_check_positive_rejects_with_the_callers_code(value):
    with pytest.raises(InputError) as exc:
        core.check_positive(value, "scale", "BAD_CONSTANT")
    assert exc.value.code == "BAD_CONSTANT"
    assert core.check_positive(5e-324, "scale") == 5e-324


@pytest.mark.parametrize("value", [0, -1, 1.5, math.nan, math.inf])
def test_check_count_rejects_with_the_callers_code(value):
    with pytest.raises(InputError) as exc:
        core.check_count(value, "trials", 1, "BAD_TRIALS")
    assert exc.value.code == "BAD_TRIALS"
    assert core.check_count(2.0, "trials", 1) == 2
    assert core.check_count(10**400, "trials", 1) == 10**400


@pytest.mark.parametrize("value", [0.0, 1.0, -0.5, math.nan, math.inf])
def test_check_eps_takes_the_open_unit_interval(value):
    with pytest.raises(InputError) as exc:
        core.check_eps(value)
    assert exc.value.code == "BAD_EPSILON"
    assert core.check_eps(np.float64(0.25)) == 0.25


@pytest.mark.parametrize("norm", ["sup", 1.0, 2.0])
def test_unit_ball_rule_names_the_first_row_outside(norm):
    core.check_in_unit_ball(np.array([[1.0, 0.0], [0.0, -1.0]]), norm, "point")
    with pytest.raises(InputError, match="point 2 lies outside") as exc:
        # an overflowed norm is inf: outside, with no numpy warning
        core.check_in_unit_ball(np.array([[0.5, 0.0], [1e308, 1e308], [2.0, 0.0]]), norm, "point")
    assert exc.value.code == "BAD_INPUT"
