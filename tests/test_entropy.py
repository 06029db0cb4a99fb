import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coordproj import entropy
from coordproj.core import FunctionClass, InputError, RngStream
from coordproj.entropy import (
    CoveringEstimate,
    _ball_masks,
    covering_estimate,
    entropy_inequality_audit,
    pairwise_l2_distances,
)


def sign_class(n: int) -> FunctionClass:
    rows = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    return FunctionClass(rows)


def random_class(rng, m, n, pm=False) -> FunctionClass:
    if pm:
        return FunctionClass(rng.choice([-1.0, 1.0], size=(m, n)))
    return FunctionClass(rng.uniform(-1.0, 1.0, size=(m, n)))


@given(
    m=st.integers(1, 70),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(0.01, 3.0),
)
def test_ball_masks_match_the_double_loop(m, n, seed, t):
    dist = pairwise_l2_distances(random_class(np.random.default_rng(seed), m, n))
    want = [sum(1 << j for j in range(m) if dist[i, j] <= t) for i in range(m)]
    assert _ball_masks(dist, t) == want


class TestPairwiseDistances:
    def test_matches_direct_norm(self):
        rng = RngStream(301).generator()
        F = random_class(rng, 7, 5)
        d = pairwise_l2_distances(F)
        for i in range(7):
            for j in range(7):
                expect = np.mean((F.values[i] - F.values[j]) ** 2) ** 0.5
                assert d[i, j] == pytest.approx(expect, abs=1e-12)

    def test_metric_axioms(self):
        rng = RngStream(302).generator()
        F = random_class(rng, 10, 4)
        d = pairwise_l2_distances(F)
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        for i, j, k in itertools.permutations(range(10), 3):
            assert d[i, k] <= d[i, j] + d[j, k] + 1e-12

    def test_identical_rows_and_antipodes(self):
        F = FunctionClass(np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]]))
        d = pairwise_l2_distances(F)
        assert d[0, 1] == 0.0
        assert d[0, 2] == pytest.approx(2.0, abs=1e-12)


class TestPackingNumber:
    def test_two_point_class(self):
        v = np.array([[0.0, 0.0], [0.6, 0.8]])  # normalized distance 1/sqrt(2)
        F = FunctionClass(v)
        d = pairwise_l2_distances(F)[0, 1]
        below = covering_estimate(F, d * 0.99)
        above = covering_estimate(F, d * 1.01)
        assert below.packing_lower == below.exact_packing == 2
        assert above.packing_lower == above.exact_packing == 1

    def test_above_diameter_gives_one(self):
        rng = RngStream(303).generator()
        F = random_class(rng, 8, 3)
        diam = pairwise_l2_distances(F).max()
        assert covering_estimate(F, diam + 0.01).exact_packing == 1

    def test_greedy_below_exact(self):
        rng = RngStream(304).generator()
        for i in range(15):
            F = random_class(rng, 20, 4)
            for t in (0.2, 0.5, 0.9):
                est = covering_estimate(F, t)
                assert est.packing_lower <= est.exact_packing

    def test_cap_disables_exact(self, monkeypatch):
        rng = RngStream(305).generator()
        F = random_class(rng, 12, 3)
        monkeypatch.setattr(entropy, "_EXACT_PACKING_MAX", 10)
        est = covering_estimate(F, 0.4)
        assert est.exact_packing is None and est.packing_lower >= 1

    def test_rejects_bad_scale(self):
        with pytest.raises(InputError):
            covering_estimate(sign_class(2), 0.0)


class TestCoveringNumber:
    def test_single_center_suffices(self):
        base = np.zeros((5, 4))
        base[1:] = 0.05 * np.eye(4)
        F = FunctionClass(base)
        assert covering_estimate(F, 0.1).covering_upper == 1

    def test_tiny_scale_needs_all_rows(self):
        rng = RngStream(306).generator()
        F = random_class(rng, 9, 3)
        assert covering_estimate(F, 1e-9).covering_upper == 9

    def test_greedy_upper_bounds_exact(self):
        rng = RngStream(307).generator()
        for i in range(15):
            F = random_class(rng, 16, 4)
            for t in (0.3, 0.6):
                est = covering_estimate(F, t)
                assert est.covering_upper >= est.exact_covering
                assert est.exact

    def test_exact_property_reflects_caps(self, monkeypatch):
        rng = RngStream(308).generator()
        F = random_class(rng, 12, 3)
        monkeypatch.setattr(entropy, "_EXACT_COVERING_MAX", 5)
        est = covering_estimate(F, 0.4)
        assert est.exact_covering is None and not est.exact


class TestSandwich:
    def test_packing_covering_sandwich(self):
        # P(2t) <= N(t) <= P(t) with exact values on every instance
        rng = RngStream(309).generator()
        for i in range(20):
            F = random_class(rng, int(rng.integers(3, 19)), int(rng.integers(2, 6)))
            for t in (0.15, 0.3, 0.6, 1.1):
                n_t = covering_estimate(F, t).exact_covering
                p_t = covering_estimate(F, t).exact_packing
                p_2t = covering_estimate(F, 2.0 * t).exact_packing
                assert p_2t <= n_t <= p_t

    def test_monotone_in_scale(self):
        rng = RngStream(310).generator()
        F = random_class(rng, 14, 4)
        grid = (0.1, 0.2, 0.4, 0.8, 1.6)
        covers = [covering_estimate(F, t).exact_covering for t in grid]
        packs = [covering_estimate(F, t).exact_packing for t in grid]
        assert all(a >= b for a, b in zip(covers, covers[1:]))
        assert all(a >= b for a, b in zip(packs, packs[1:]))

    def test_scale_covariance(self):
        rng = RngStream(311).generator()
        F = random_class(rng, 10, 3)
        s = 0.37
        Fs = FunctionClass(s * F.values)
        assert np.allclose(pairwise_l2_distances(Fs), s * pairwise_l2_distances(F))
        for t in (0.2, 0.5):
            assert covering_estimate(Fs, s * t).exact_covering == covering_estimate(F, t).exact_covering
            assert covering_estimate(Fs, s * t).exact_packing == covering_estimate(F, t).exact_packing


class TestEntropyAudit:
    def test_sign_class_finite_constant(self):
        audit = entropy_inequality_audit(sign_class(4), (0.3, 0.5, 0.9), c_assumed=0.25)
        assert audit.constant.value > 0.0
        assert math.isfinite(audit.constant.value)
        assert audit.flags == ()
        assert audit.constant.name == "K_entropy"
        assert audit.constant.protocol
        assert len(audit.rows) == 3
        for row in audit.rows:
            assert row.vc >= 1
            assert row.covering_is_exact
            assert row.term == pytest.approx(
                math.log(row.covering) / (row.vc * math.log(2.0 / row.t)), abs=1e-12
            )
        assert audit.constant.value == pytest.approx(max(r.term for r in audit.rows), abs=1e-12)

    def test_singleton_class_zero(self):
        audit = entropy_inequality_audit(FunctionClass(np.zeros((1, 4))), (0.2, 0.7))
        assert audit.constant.value == 0.0
        assert audit.flags == ()
        for row in audit.rows:
            assert row.covering == 1 and row.vc == 0 and row.term is None

    def test_vc_zero_anomaly_flag(self):
        # c_assumed = 2 pushes the shattering scale past the class range,
        # while two antipodal rows keep the covering number above 1
        F = FunctionClass(np.array([[1.0, 1.0], [-1.0, -1.0]]))
        audit = entropy_inequality_audit(F, (0.9,), c_assumed=2.0)
        assert "VC_ZERO_ANOMALY" in audit.flags
        assert audit.constant.value == 0.0

    def test_never_infinite_with_positive_vc(self):
        rng = RngStream(312).generator()
        for i in range(10):
            F = random_class(rng, int(rng.integers(4, 17)), int(rng.integers(2, 7)), pm=True)
            audit = entropy_inequality_audit(F, (0.25, 0.5, 0.75), c_assumed=0.25)
            assert math.isfinite(audit.constant.value)
            for row in audit.rows:
                if row.vc >= 1:
                    assert row.term is not None and math.isfinite(row.term)

    def test_greedy_fallback_flagged_in_protocol(self, monkeypatch):
        rng = RngStream(313).generator()
        F = random_class(rng, 12, 4, pm=True)
        monkeypatch.setattr(entropy, "_EXACT_COVERING_MAX", 5)
        audit = entropy_inequality_audit(F, (0.4,))
        assert not audit.rows[0].covering_is_exact
        assert "greedily bounded" in audit.constant.protocol

    def test_validation(self):
        F = sign_class(2)
        with pytest.raises(InputError):
            entropy_inequality_audit(F, ())
        with pytest.raises(InputError):
            entropy_inequality_audit(F, (0.5, 1.0))
        with pytest.raises(InputError):
            entropy_inequality_audit(F, (0.5,), c_assumed=0.0)
        with pytest.raises(InputError):
            entropy_inequality_audit(FunctionClass(2.0 * np.ones((2, 2))), (0.5,))

    def test_digest_tracks_inputs(self):
        a = entropy_inequality_audit(sign_class(3), (0.4,))
        b = entropy_inequality_audit(sign_class(3), (0.4,))
        c = entropy_inequality_audit(sign_class(3), (0.5,))
        assert a.constant.inputs_digest == b.constant.inputs_digest
        assert a.constant.inputs_digest != c.constant.inputs_digest


class TestCoveringEstimateType:
    def test_exact_flag_requires_both(self):
        assert not CoveringEstimate(t=0.5, exact_packing=3).exact
        assert CoveringEstimate(t=0.5, exact_packing=3, exact_covering=2).exact
