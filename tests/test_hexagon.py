import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexflow import (
    arc_jacobian,
    coefficient_matrix,
    edge_length,
    hexagon_arcs,
    hexagon_sides,
)
from hexflow.hexagon import _far_arcs, _slacks

from conftest import fd_jacobian
from mp_reference import mp_arcs, mp_face_block

ACOSH2 = math.acosh(2.0)


class TestHexagonArcs:
    def test_self_dual_point(self):
        arcs = hexagon_arcs(ACOSH2, ACOSH2, ACOSH2)
        # cosh(theta) = (2 + 4) / (sqrt3 * sqrt3) = 2
        assert arcs == pytest.approx((ACOSH2,) * 3, abs=1e-12)

    def test_equal_sides_give_equal_arcs(self):
        for L in (0.2, 1.0, 5.0, 25.0, 50.0):
            arcs = hexagon_arcs(L, L, L)
            assert arcs[0] == arcs[1] == arcs[2]
            assert arcs[0] > 0.0

    def test_equilateral_closed_form_large(self):
        # for equal sides L: cosh(theta) = c / (c - 1) with c = cosh L
        with mp.workdps(80):
            expected = float(mp.acosh(mp.cosh(50) / (mp.cosh(50) - 1)))
        got = hexagon_arcs(50.0, 50.0, 50.0)[0]
        assert got == pytest.approx(expected, rel=1e-13)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            sides = rng.uniform(0.1, 20.0, 3)
            got = hexagon_arcs(*sides)
            ref = mp_arcs(sides, dps=60)
            for g, r in zip(got, ref):
                assert g == pytest.approx(r, rel=1e-12)

    def test_arcs_decrease_as_all_sides_grow_uniformly(self):
        # A uniform increase shrinks every arc (the derivative row sums are
        # -sinh(l_ij)(cosh th_i + cosh th_j - 1) < 0).  Uneven increases can
        # grow an arc, since each arc increases in its opposite side.
        rng = np.random.default_rng(4)
        for _ in range(100):
            sides = rng.uniform(0.2, 15.0, 3)
            bumped = sides + rng.uniform(0.05, 0.5)
            for small, large in zip(hexagon_arcs(*bumped), hexagon_arcs(*sides)):
                assert small < large

    def test_large_sides_stay_finite_and_positive(self):
        for L in (100.0, 600.0, 1000.0):
            arcs = hexagon_arcs(L, L, L)
            assert all(math.isfinite(t) and t > 0.0 for t in arcs)
        # beyond the subnormal range the arcs underflow to zero but never
        # overflow or go NaN
        arcs = hexagon_arcs(1e4, 1e4, 1e4)
        assert all(math.isfinite(t) and t >= 0.0 for t in arcs)
        mixed = hexagon_arcs(1e4, 0.5, 2.0)
        assert all(math.isfinite(t) for t in mixed)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            hexagon_arcs(1.0, -0.5, 1.0)
        with pytest.raises(ValueError):
            hexagon_arcs(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            hexagon_arcs(1.0, math.nan, 1.0)
        with pytest.raises(ValueError):
            hexagon_sides(1.0, math.inf, 1.0)

    @pytest.mark.parametrize("sides", [(1e-200, 1e-200, 1.0), (1e-160, 1e-160, 1.0), (5e-324, 1.0, 1.0)])
    def test_refuses_arcs_past_the_float_range(self, sides):
        # Each triple has an arc past ln(float max) ~ 709.78 (738.45... at
        # 1e-160), where N / Q = 4 sinh^2(theta/2) overflows or Q underflows
        # to 0.
        for law in (hexagon_arcs, hexagon_sides):
            with pytest.raises(ValueError, match="too short"):
                law(*sides)

    def test_arcs_just_inside_the_float_range(self):
        arcs = hexagon_arcs(1e-150, 1e-150, 1.0)
        assert arcs == pytest.approx(mp_arcs((1e-150, 1e-150, 1.0)), rel=1e-15)
        assert 690.0 < arcs[2] < 709.78


class TestArcsAgainstQFormReference:
    """hexagon_arcs against a 400-digit mp_arcs on both sides of the
    threshold (200) between the half-angle form and the far form of the slacks."""

    @staticmethod
    def _ulps(sides):
        return max(abs(g - r) / math.ulp(r) for g, r in zip(hexagon_arcs(*sides), mp_arcs(sides, dps=400)))

    def test_direct_form_up_to_the_threshold(self):
        rng = np.random.default_rng(30)
        cases = [rng.uniform(30.0, 200.0, 3) for _ in range(60)] + [(200.0, 200.0, 200.0)]
        assert max(self._ulps(sides) for sides in cases) <= 4.0

    def test_one_tiny_side_and_two_near_the_threshold(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            sides = [rng.uniform(0.5e-8, 2e-8), rng.uniform(190.0, 200.0), rng.uniform(190.0, 200.0)]
            for shift in range(3):
                assert self._ulps(np.roll(sides, shift)) <= 4.0

    def test_log_form_beyond_the_threshold(self):
        # Rounding a side l perturbs a tiny arc e^((l_c - l_a - l_b)/2) by
        # about eps l / 2 relative, so the far form is held to the error of
        # rounding its inputs, eps (l_jk + l_ki + l_ij), plus the
        # smallest subnormal where an arc underflows.
        rng = np.random.default_rng(32)
        eps = np.finfo(float).eps
        for _ in range(60):
            sides = rng.uniform(200.0, 1000.0, 3)
            for got, ref in zip(hexagon_arcs(*sides), mp_arcs(sides, dps=400)):
                assert abs(got - ref) <= eps * sum(sides) * ref + math.ulp(0.0)


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.1, 20.0),
        st.floats(0.1, 20.0),
        st.floats(0.1, 20.0),
    )
    def test_sides_arcs_involution(self, s1, s2, s3):
        arcs = hexagon_arcs(s1, s2, s3)
        back = hexagon_sides(*arcs)
        for orig, rec in zip((s1, s2, s3), back):
            assert rec == pytest.approx(orig, rel=1e-9)

    def test_self_dual_inverts_exactly(self):
        sides = hexagon_sides(*hexagon_arcs(ACOSH2, ACOSH2, ACOSH2))
        assert sides == pytest.approx((ACOSH2,) * 3, abs=1e-12)

    def test_cosine_law_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = rng.uniform(0.1, 20.0, 3)
            t = hexagon_arcs(*s)
            ch, sh = np.cosh, np.sinh
            for (ta, la, lb, lc) in (
                (t[2], s[0], s[1], s[2]),
                (t[0], s[1], s[2], s[0]),
                (t[1], s[2], s[0], s[1]),
            ):
                lhs = ch(ta) * sh(la) * sh(lb)
                rhs = ch(lc) + ch(la) * ch(lb)
                assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), abs(rhs))

    def test_sides_blow_up_as_arcs_shrink(self):
        prev = hexagon_sides(0.5, 0.5, 0.5)
        for eps in (0.1, 0.01, 0.001):
            cur = hexagon_sides(eps, 0.5, 0.5)
            assert cur[1] > prev[1] and cur[2] > prev[2]
            prev = cur


class TestCoefficientMatrix:
    def test_value_at_2(self):
        m = coefficient_matrix(2.0, 2.0, 2.0)
        assert np.array_equal(m, [[12.0, 3.0, 3.0], [3.0, 12.0, 3.0], [3.0, 3.0, 12.0]])

    def test_eigenvalues_at_2(self):
        eig = np.linalg.eigvalsh(coefficient_matrix(2.0, 2.0, 2.0))
        assert eig == pytest.approx([9.0, 9.0, 18.0], abs=1e-12)

    def test_bitwise_symmetric(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a, b, c = np.exp(rng.uniform(np.log(1.0 + 1e-9), np.log(1e6), 3))
            m = coefficient_matrix(a, b, c)
            assert np.array_equal(m, m.T)

    def test_positive_definite_over_huge_range(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            a, b, c = np.exp(rng.uniform(np.log(1.0 + 1e-9), np.log(1e6), 3))
            np.linalg.cholesky(coefficient_matrix(a, b, c))

    def test_rejects_values_at_or_below_one(self):
        with pytest.raises(ValueError):
            coefficient_matrix(1.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            coefficient_matrix(2.0, 0.5, 2.0)

    def test_determinant_identity_observed(self):
        # det M = 2 * prod sinh(l) * (sinh th_i sinh th_j sinh l_ij)^2
        #           * prod sinh(l)/(cosh(l) - 1); recorded as an observed
        # identity, positive definiteness itself is certified by Cholesky.
        rng = np.random.default_rng(8)
        for _ in range(50):
            sides = rng.uniform(0.3, 4.0, 3)
            arcs = hexagon_arcs(*sides)
            det = np.linalg.det(coefficient_matrix(*np.cosh(sides)))
            sl = np.sinh(sides)
            expected = (
                2.0
                * sl.prod()
                * (math.sinh(arcs[0]) * math.sinh(arcs[1]) * sl[2]) ** 2
                * np.prod(sl / (np.cosh(sides) - 1.0))
            )
            assert det == pytest.approx(expected, rel=1e-10)


class TestArcJacobian:
    def test_closed_form_at_self_dual_point(self):
        j = arc_jacobian(ACOSH2, ACOSH2, ACOSH2)
        diag = -8.0 / math.sqrt(3.0)
        off = -2.0 / math.sqrt(3.0)
        expected = np.full((3, 3), off) + np.eye(3) * (diag - off)
        assert j == pytest.approx(expected, abs=1e-12)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            sides = rng.uniform(0.1, 25.0, 3)
            j = arc_jacobian(*sides)
            assert np.array_equal(j, j.T)

    def test_negative_definite(self):
        rng = np.random.default_rng(10)
        for _ in range(300):
            sides = rng.uniform(0.1, 25.0, 3)
            assert np.max(np.linalg.eigvalsh(arc_jacobian(*sides))) < 0.0

    def test_prefactor_is_cyclic_invariant(self):
        # sinh(theta_k) sinh(l_ki) sinh(l_jk) agrees with both cyclic images
        # (hexagon sine rule), so the quoted form does not single out k.
        rng = np.random.default_rng(11)
        for _ in range(100):
            s = rng.uniform(0.2, 10.0, 3)
            t = hexagon_arcs(*s)
            forms = (
                math.sinh(t[2]) * math.sinh(s[1]) * math.sinh(s[0]),
                math.sinh(t[0]) * math.sinh(s[2]) * math.sinh(s[1]),
                math.sinh(t[1]) * math.sinh(s[0]) * math.sinh(s[2]),
            )
            assert forms[1] == pytest.approx(forms[0], rel=1e-12)
            assert forms[2] == pytest.approx(forms[0], rel=1e-12)

    def test_matches_finite_differences_through_conformal_rule(self):
        rng = np.random.default_rng(12)
        samples = []
        while len(samples) < 500:
            l0 = rng.uniform(0.5, 3.0, 3)
            w0 = rng.uniform(-0.2, 0.6, 3)
            slacks = [
                w0[1] + w0[2] + math.log(math.cosh(0.5 * l0[0])),
                w0[2] + w0[0] + math.log(math.cosh(0.5 * l0[1])),
                w0[0] + w0[1] + math.log(math.cosh(0.5 * l0[2])),
            ]
            if min(slacks) > 0.01:
                samples.append((l0, w0))
        for l0, w0 in samples:

            def arcs_of_w(w):
                sides = (
                    edge_length(l0[0], w[1], w[2]),
                    edge_length(l0[1], w[2], w[0]),
                    edge_length(l0[2], w[0], w[1]),
                )
                return np.array(hexagon_arcs(*sides))

            sides0 = (
                edge_length(l0[0], w0[1], w0[2]),
                edge_length(l0[1], w0[2], w0[0]),
                edge_length(l0[2], w0[0], w0[1]),
            )
            j = arc_jacobian(*sides0)
            j_fd = fd_jacobian(arcs_of_w, w0)
            assert np.max(np.abs(j - j_fd)) <= 1e-6 * np.max(np.abs(j_fd))

    def test_log_path_consistent_with_direct_path(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            sides = rng.uniform(5.0, 60.0, 3)
            direct = arc_jacobian(*sides)
            arcs, far = _far_arcs(_slacks(sides), jacobian=True)
            assert far == pytest.approx(direct, rel=1e-11)
            assert arcs == pytest.approx(hexagon_arcs(*sides), rel=1e-13)

    def test_huge_sides_stay_finite(self):
        j = arc_jacobian(600.0, 610.0, 605.0)
        assert np.all(np.isfinite(j))
        assert np.array_equal(j, j.T)
        assert np.max(np.linalg.eigvalsh(j)) < 0.0

    def test_matches_high_precision_block(self):
        # mp_face_block, -2 M / (sinh theta_k sinh l_ki sinh l_jk), at 400 digits on
        # log-uniform sides in [1e-8, 200], the range of the direct form.
        rng = np.random.default_rng(14)
        worst = 0.0
        for sides in np.exp(rng.uniform(math.log(1e-8), math.log(200.0), (300, 3))):
            with mp.workdps(400):
                ref = np.array(mp_face_block([mp.sinh(mp.mpf(float(s)) / 2) ** 2 for s in sides]), dtype=float)
            worst = max(worst, np.max(np.abs(arc_jacobian(*sides) - ref)) / np.max(np.abs(ref)))
        assert worst <= 4e-15

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            arc_jacobian(1.0, 0.0, 1.0)

    def test_sides_too_short_for_a_finite_block(self):
        # Sides below about 1e-154 overflow M (and the arc's q-form).
        with pytest.raises(ValueError, match="too short"):
            arc_jacobian(1e-155, 1e-155, 1.0)
        assert np.all(np.isfinite(arc_jacobian(1e-150, 1e-150, 1.0)))

