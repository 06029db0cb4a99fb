import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from coordproj import orlicz, rotation
from coordproj.core import CertificateError, CoordinateSubset, InputError, RngStream
from coordproj.orlicz import psi_norm, psi_norms
from coordproj.rotation import (
    coordinate_jl,
    fit_jl_constant,
    haar_frame,
    scaled_basis,
)
from coordproj.selector import draw_selectors


class TestHaarOrthogonal:
    def test_orthogonality(self):
        for n in (1, 2, 5, 32):
            q = haar_frame(n, n, RngStream(3, n))
            assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-10
            assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-8

    def test_reproducible(self):
        a = haar_frame(6, 6, RngStream(9))
        b = haar_frame(6, 6, RngStream(9))
        assert np.array_equal(a, b)

    def test_rotation_invariance_sample_mean(self):
        # columns of a Haar matrix are exchangeable unit vectors; the mean
        # squared first entry over many draws is 1/n
        n, draws = 4, 400
        acc = 0.0
        for i in range(draws):
            q = haar_frame(n, n, RngStream(5, i))
            acc += q[0, 0] ** 2
        assert acc / draws == pytest.approx(1.0 / n, abs=0.02)

    def test_non_orthogonal_draws_raise(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "qr", lambda g: (2.0 * np.eye(len(g)), np.eye(len(g))))
        with pytest.raises(CertificateError):
            haar_frame(3, 3, RngStream(1))

    def test_rejects_bad_n(self):
        with pytest.raises(InputError):
            haar_frame(0, 0, RngStream(0))


class TestHaarFrame:
    def test_orthonormal_columns(self):
        for n, k in ((2, 1), (5, 3), (64, 4), (64, 63)):
            w = haar_frame(n, k, RngStream(3, n))
            assert w.shape == (n, k)
            assert np.abs(w.T @ w - np.eye(k)).max() <= 1e-10

    def test_one_column_is_a_normalized_gaussian(self):
        g = RngStream(4).generator().standard_normal((9, 1))
        w = haar_frame(9, 1, RngStream(4))
        assert np.allclose(w, g / np.linalg.norm(g), rtol=0, atol=1e-15)

    def test_non_orthogonal_draws_raise(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "qr", lambda g: (2.0 * g, np.eye(g.shape[1])))
        with pytest.raises(CertificateError):
            haar_frame(6, 2, RngStream(1))

    @pytest.mark.parametrize("n, k", [(0, 1), (3, 0), (3, 4)])
    def test_rejects_bad_shape(self, n, k):
        with pytest.raises(InputError):
            haar_frame(n, k, RngStream(0))


class TestRotatedPsi2:
    def test_rotation_flattens_a_spike(self):
        # a spike has the worst psi_2 on the sphere; Haar rotation brings it
        # down to the generic level sqrt(2/log n) * sqrt(n) or below
        n = 64
        spike = math.sqrt(n) * np.eye(n)[:1]
        vals = np.array([coordinate_jl(spike, 0.25, RngStream(7, seed)).psi2_max
                         for seed in range(20)])
        bound = math.sqrt(2.0 / math.log(n)) * math.sqrt(n)
        assert np.all(vals <= bound)
        spike_level = math.sqrt(n) * math.log(n * (math.e - 1) + 1) ** -0.5
        assert vals.mean() < spike_level


def _report(v, operator, subset):
    """The ratios coordinate_jl reports, for a given operator and subset."""
    v = np.atleast_2d(v)
    return rotation._report(v, v @ operator.T, subset, 0.0)


class TestDistortionReport:
    def test_identity_full_subset_is_exact(self):
        rng = np.random.default_rng(13)
        v = rng.standard_normal((5, 12))
        rep = _report(v, np.eye(12), CoordinateSubset.full(12))
        assert np.allclose(rep.per_vector_ratio, 1.0, atol=1e-12)
        assert rep.max_deviation <= 1e-12

    def test_rotation_preserves_full_norm(self):
        rng = np.random.default_rng(17)
        v = rng.standard_normal((3, 10))
        q = haar_frame(10, 10, RngStream(19))
        rep = _report(v, q, CoordinateSubset.full(10))
        assert np.allclose(rep.per_vector_ratio, 1.0, atol=1e-9)

    def test_half_subset_of_duplicated_block_is_exact(self):
        # vector (c, c) restricted to the first half keeps its norm exactly
        c = np.array([1.0, -2.0, 3.0])
        v = np.concatenate([c, c])[None, :]
        rep = _report(v, np.eye(6), CoordinateSubset((1, 2, 3), 6))
        assert rep.per_vector_ratio[0] == pytest.approx(1.0, abs=1e-12)

    def test_empty_subset_gives_zero_ratio(self):
        rep = _report(np.ones((2, 4)), np.eye(4), CoordinateSubset((), 4))
        assert np.all(rep.per_vector_ratio == 0.0)
        assert rep.max_deviation == 1.0


class TestCoordinateJl:
    def test_requires_unit_normalized_rows(self):
        with pytest.raises(InputError):
            coordinate_jl(np.ones((2, 8)) * 3.0, 0.25, RngStream(0))

    def test_scaled_basis_rows_are_unit(self):
        b = scaled_basis(16)
        assert np.allclose(np.mean(b**2, axis=1), 1.0)

    def test_identity_operator_spike_needs_everything(self):
        # an unrotated basis vector concentrates on one coordinate, so the
        # ratio is either 0 or sqrt(n / |sigma|)
        b = scaled_basis(8)
        for seed in range(4):
            subset = draw_selectors(8, 0.5, RngStream(3, seed)).subset
            rep = _report(b, np.eye(8), subset)
            kept = np.isin(np.arange(1, 9), subset.indices)
            want = np.where(kept, math.sqrt(8 / max(subset.size, 1)), 0.0)
            assert np.allclose(rep.per_vector_ratio, want, rtol=1e-12, atol=0.0)
            if 0 < subset.size < 8:
                assert rep.max_deviation >= math.sqrt(8 / subset.size) - 1.0 - 1e-9

    def test_target_formula_and_determinism(self):
        b = scaled_basis(32)
        r1 = coordinate_jl(b, 0.3, RngStream(11), c_fit=0.8)
        r2 = coordinate_jl(b, 0.3, RngStream(11), c_fit=0.8)
        assert np.array_equal(r1.per_vector_ratio, r2.per_vector_ratio)
        assert r1.sigma.indices == r2.sigma.indices
        want = math.ceil((0.8 * r1.psi2_max / 0.3) ** 2 * math.log(32))
        assert r1.target_cardinality == min(32, want)
        assert r1.delta == pytest.approx(r1.target_cardinality / 32)

    def test_no_compression_flag(self):
        b = scaled_basis(8)
        rep = coordinate_jl(b, 0.05, RngStream(5), c_fit=2.0)
        assert rep.target_cardinality == 8
        assert "NO_COMPRESSION" in rep.flags

    def test_distortion_small_at_generous_size(self):
        b = scaled_basis(64)
        hits = 0
        for seed in range(10):
            rep = coordinate_jl(b, 0.3, RngStream(seed), c_fit=1.2)
            if rep.max_deviation <= 0.3:
                hits += 1
        assert hits >= 8

    def test_psi2_of_rotated_rows_computed_once(self, monkeypatch):
        kernel = orlicz.psi_norms
        seen = []

        def counting(rows, *args, **kwargs):
            seen.append(np.shape(rows))
            return kernel(rows, *args, **kwargs)

        monkeypatch.setattr(orlicz, "psi_norms", counting)
        monkeypatch.setattr(rotation, "psi_norms", counting)
        rep = coordinate_jl(scaled_basis(32), 0.3, RngStream(11), c_fit=0.8)
        assert seen == [(32, 32)]
        monkeypatch.undo()
        q = haar_frame(32, 32, RngStream(11).substream(0))
        assert rep.psi2_max == max(psi_norm(row, 2.0).value for row in scaled_basis(32) @ q.T)

    def test_rejects_bad_eps(self):
        with pytest.raises(InputError):
            coordinate_jl(scaled_basis(8), 1.5, RngStream(0))


class TestFramePath:
    @given(
        n=st.integers(2, 40),
        k=st.integers(1, 39),
        duplicates=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=40, k=1, duplicates=0, seed=0)
    @example(n=40, k=39, duplicates=0, seed=1)
    @example(n=12, k=11, duplicates=3, seed=2)
    def test_gram_matrix_is_kept(self, n, k, duplicates, seed):
        # fewer vectors than coordinates go through a k-frame; the rotated
        # rows keep every inner product, rank-deficient families included
        k = min(k, n - 1)
        v = np.random.default_rng(seed).standard_normal((k, n))
        v[k - min(duplicates, k - 1):] = v[0]
        v /= np.sqrt(np.mean(v**2, axis=1, keepdims=True))
        rotated, _ = rotation._rotate(v, RngStream(seed))
        assert rotated.shape == (k, n)
        # rows have squared Euclidean norm n
        assert np.abs(rotated @ rotated.T - v @ v.T).max() <= 1e-10 * n

    def test_psi2_max_has_the_law_of_the_full_rotation(self):
        # two-sample Kolmogorov-Smirnov test at alpha = 0.001, 200 seeds per side
        n, k, seeds = 64, 4, 200
        v = np.random.default_rng(21).standard_normal((k, n))
        v[0] = scaled_basis(n)[0]
        v /= np.sqrt(np.mean(v**2, axis=1, keepdims=True))
        frame = [rotation._rotate(v, RngStream(s))[1] for s in range(seeds)]
        full = [psi_norms(v @ haar_frame(n, n, RngStream(s, 1)).T, 2.0).values.max()
                for s in range(seeds)]
        pooled = np.sort(frame + full)
        ecdf = [np.searchsorted(np.sort(x), pooled, side="right") / seeds for x in (frame, full)]
        statistic = np.abs(ecdf[0] - ecdf[1]).max()
        critical = math.sqrt(-0.5 * math.log(0.001 / 2)) * math.sqrt(2 / seeds)
        assert statistic < critical


class TestFitJlConstant:
    def test_matches_a_loop_over_coordinate_jl(self):
        n, eps, seeds = 16, 0.25, 8
        grid = rotation._c_grid(0.025, 2.0)
        reference = [
            sum(coordinate_jl(scaled_basis(n), eps, RngStream(s), c_fit=c).max_deviation <= eps
                for s in range(seeds))
            for c in grid
        ]
        assert rotation._jl_hits(n, eps, seeds, grid) == reference
        chosen = next(c for c, h in zip(grid, reference) if h / seeds >= 0.5)
        fitted = fit_jl_constant(n=n, eps=eps, seeds=seeds)
        assert fitted.value == math.ceil(chosen * 10.0 - 1e-9) / 10.0


def test_fit_jl_constant_rejects_a_grid_without_success():
    # C = 0.025 and 0.05 keep almost no coordinates, so no seed succeeds
    with pytest.raises(InputError) as exc:
        fit_jl_constant(n=16, eps=0.25, seeds=4, grid_step=0.025, grid_max=0.05)
    assert exc.value.code == "BAD_GRID"


@pytest.mark.parametrize("kwargs", [{"seeds": 0}, {"grid_step": 0.0}, {"grid_step": -0.025}])
def test_fit_jl_constant_rejects_an_empty_protocol(kwargs):
    # no seeds would divide by zero, and a step that never advances would grow the grid forever
    with pytest.raises(InputError):
        fit_jl_constant(n=16, **kwargs)
