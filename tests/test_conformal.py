import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from hexflow import (
    DomainError,
    arc_jacobian,
    boundary_jacobian,
    boundary_lengths,
    cusp_report,
    edge_length,
    face_sides,
    geometry_rows,
    hexagon_arcs,
    in_domain,
    parse_surface,
    surface_geometry,
    total_energy,
)
from hexflow.hexagon import _logcosh

from conftest import PANTS_EDGE, block_rows, fd_jacobian, generated, pants_text, random_in_domain
from mp_reference import float_slacks, mp_B, mp_H, mp_slack_arcs, mp_slack_H

ACOSH2 = math.acosh(2.0)
# closed form for the equilateral pants at w = 0: each face is the
# hexagon with sides 2 arccosh 2, whose arcs satisfy cosh(theta) = 7/6.
PANTS_B0 = 2.0 * math.acosh(7.0 / 6.0)
PANTS_H0_DIAG = -28.0 / (3.0 * math.sqrt(13.0))
PANTS_H0_OFF = -2.0 / (3.0 * math.sqrt(13.0))
# A base length whose float slack ln cosh(l0/2) is exactly 1.0.
EXACT_SLACK_EDGE = 3.3149089083061547


class TestEdgeLength:
    def test_identity_factor(self):
        assert edge_length(PANTS_EDGE, 0.0, 0.0) == pytest.approx(PANTS_EDGE, rel=1e-14)

    def test_ln2_factor(self):
        # cosh(l/2) = e^(ln 2) * 2 = 4
        got = edge_length(PANTS_EDGE, math.log(2.0), 0.0)
        assert got == pytest.approx(2.0 * math.acosh(4.0), rel=1e-14)
        assert got == pytest.approx(4.1268742, abs=1e-7)

    def test_threshold(self):
        # admissibility needs w_a + w_b > -ln cosh(l0/2) = -ln 2
        with pytest.raises(DomainError):
            edge_length(PANTS_EDGE, -0.70, 0.0)
        with pytest.raises(DomainError):
            edge_length(PANTS_EDGE, -math.log(2.0), 0.0)
        assert edge_length(PANTS_EDGE, -math.log(2.0) + 1e-9, 0.0) > 0.0

    def test_self_edge_uses_double_factor(self):
        # both endpoints on the same component: factor e^(2w)
        lone = edge_length(1.6, 0.3, 0.3)
        expected = 2.0 * math.acosh(math.exp(0.6) * math.cosh(0.8))
        assert lone == pytest.approx(expected, rel=1e-14)

    def test_rejects_bad_base_length(self):
        with pytest.raises(ValueError):
            edge_length(-1.0, 0.0, 0.0)

    def test_rejects_non_finite_factors_as_the_kernel_does(self, pants):
        tri, l0 = pants
        for w_a in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                edge_length(PANTS_EDGE, w_a, 0.0)
            with pytest.raises(ValueError):
                surface_geometry(tri, l0, np.array([w_a, 0.0, 0.0]))
        # A finite factor whose slack overflows.
        with pytest.raises(ValueError, match="must be finite"):
            edge_length(PANTS_EDGE, 1e308, 1e308)

    def test_rejects_base_length_with_subnormal_slack(self):
        # ln cosh(l0/2) ~ l0^2 / 8 drops below the least normal float at
        # l0 ~ 4.2e-154.
        for bad in (1e-170, 4e-154, math.inf, math.nan):
            with pytest.raises(ValueError, match="base length"):
                edge_length(bad, 0.0, 0.0)
        assert edge_length(1e-150, 0.0, 0.0) == pytest.approx(1e-150, rel=1e-15)


class TestInDomain:
    def test_zero_always_inside(self, pants, tetra, twin_pants, torus):
        for tri, l0 in (pants, tetra, twin_pants, torus):
            check = in_domain(tri, l0, np.zeros(tri.n_boundaries))
            assert check.ok
            assert check.margin > 0.0

    def test_pants_margin_at_zero(self, pants):
        tri, l0 = pants
        assert in_domain(tri, l0, np.zeros(3)).margin == pytest.approx(math.log(2.0), rel=1e-14)

    def test_boundary_of_halfspace_is_outside(self, pants):
        tri, l0 = pants
        w = np.array([-math.log(2.0), 0.0, 0.0])
        # edges 2 and 3 touch component 1; edge 3 = (1,2) sits exactly on
        # its half-space boundary
        check = in_domain(tri, l0, w)
        assert not check.ok
        assert check.margin == pytest.approx(0.0, abs=1e-15)

    def test_nonnegative_factors_always_inside(self, pants, tetra, torus):
        rng = np.random.default_rng(21)
        for tri, l0 in (pants, tetra, torus):
            for _ in range(50):
                w = rng.uniform(0.0, 5.0, tri.n_boundaries)
                assert in_domain(tri, l0, w).ok


class TestBoundaryLengths:
    def test_pants_at_zero(self, pants):
        tri, l0 = pants
        B = boundary_lengths(tri, l0, np.zeros(3))
        assert B == pytest.approx([PANTS_B0] * 3, rel=1e-12)

    def test_zero_factor_reproduces_base_geometry(self, tetra):
        tri, l0 = tetra
        B = boundary_lengths(tri, l0, np.zeros(4))
        expected = np.zeros(4)
        for face in tri.faces:
            arcs = hexagon_arcs(*face_sides(tri, l0, np.zeros(4), face))
            for t in range(3):
                expected[face.corners[t] - 1] += arcs[t]
        assert B == pytest.approx(expected, rel=1e-15)

    def test_uniform_blowup_kills_all_lengths(self, pants):
        tri, l0 = pants
        previous = boundary_lengths(tri, l0, np.zeros(3))
        for s in (1.0, 3.0, 8.0):
            B = boundary_lengths(tri, l0, np.full(3, s))
            assert np.all(B < previous)
            previous = B
        assert np.all(previous < 1e-6)

    def test_relabeling_equivariance(self):
        base = (
            "surface a\n"
            "boundaries 3\n"
            "edge 1 2 3 0.8\n"
            "edge 2 3 1 1.3\n"
            "edge 3 1 2 1.9\n"
            "face 1 1 2 3 1 2 3\n"
            "face 2 1 2 3 1 2 3\n"
        )
        # relabel sigma = (1 -> 2, 2 -> 3, 3 -> 1)
        relabeled = (
            "surface b\n"
            "boundaries 3\n"
            "edge 1 3 1 0.8\n"
            "edge 2 1 2 1.3\n"
            "edge 3 2 3 1.9\n"
            "face 1 1 2 3 2 3 1\n"
            "face 2 1 2 3 2 3 1\n"
        )
        tri_a, l0_a = parse_surface(base)
        tri_b, l0_b = parse_surface(relabeled)
        w = np.array([0.15, -0.1, 0.4])
        sigma = [1, 2, 0]  # component i of a is component sigma[i]+1 of b
        w_b = np.empty(3)
        for i in range(3):
            w_b[sigma[i]] = w[i]
        B_a = boundary_lengths(tri_a, l0_a, w)
        B_b = boundary_lengths(tri_b, l0_b, w_b)
        for i in range(3):
            assert B_b[sigma[i]] == B_a[i]

    def test_raising_w_k_strictly_lowers_B_k(self, tetra):
        tri, l0 = tetra
        rng = np.random.default_rng(22)
        for _ in range(50):
            w = random_in_domain(tri, l0, rng, low=-0.1, high=0.6)
            k = rng.integers(0, 4)
            B0 = boundary_lengths(tri, l0, w)
            w2 = w.copy()
            w2[k] += 0.05
            B1 = boundary_lengths(tri, l0, w2)
            assert B1[k] < B0[k]

    def test_locality_of_disjoint_components(self, twin_pants):
        tri, l0 = twin_pants
        w = np.zeros(6)
        before = boundary_lengths(tri, l0, w)
        w_perturbed = w.copy()
        w_perturbed[3] = 0.7  # component 4 shares no face with component 1
        after = boundary_lengths(tri, l0, w_perturbed)
        assert after[0] == before[0]
        assert after[1] == before[1]
        assert after[2] == before[2]
        assert after[3] != before[3]

    def test_out_of_domain_raises(self, pants):
        tri, l0 = pants
        with pytest.raises(DomainError):
            boundary_lengths(tri, l0, np.array([-0.8, 0.0, 0.0]))


class TestBoundaryJacobian:
    def test_pants_at_zero_closed_form(self, pants):
        tri, l0 = pants
        H = boundary_jacobian(tri, l0, np.zeros(3))
        expected = np.full((3, 3), PANTS_H0_OFF) + np.eye(3) * (PANTS_H0_DIAG - PANTS_H0_OFF)
        assert H == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_differences(self, pants, tetra, torus):
        rng = np.random.default_rng(23)
        for tri, l0 in (pants, tetra, torus):
            for _ in range(25):
                w = random_in_domain(tri, l0, rng, low=-0.15, high=0.8)
                H = boundary_jacobian(tri, l0, w)
                H_fd = fd_jacobian(lambda v: boundary_lengths(tri, l0, v), w)
                assert np.max(np.abs(H - H_fd)) <= 1e-6 * np.max(np.abs(H_fd))

    def test_exactly_symmetric(self, pants, tetra, twin_pants, torus):
        rng = np.random.default_rng(24)
        for tri, l0 in (pants, tetra, twin_pants, torus):
            for _ in range(50):
                w = random_in_domain(tri, l0, rng)
                H = boundary_jacobian(tri, l0, w)
                assert np.array_equal(H, H.T)

    def test_negative_definite(self, pants, tetra, twin_pants, torus):
        rng = np.random.default_rng(25)
        for tri, l0 in (pants, tetra, twin_pants, torus):
            for _ in range(50):
                w = random_in_domain(tri, l0, rng)
                assert np.max(np.linalg.eigvalsh(boundary_jacobian(tri, l0, w))) < 0.0

    def test_self_edge_accumulation(self, torus):
        # the one-holed torus has a single component; H is 1x1 and equals
        # the sum of all entries of both face blocks
        tri, l0 = torus
        from hexflow import arc_jacobian, face_sides

        w = np.array([0.2])
        H = boundary_jacobian(tri, l0, w)
        total = 0.0
        for face in tri.faces:
            total += float(np.sum(arc_jacobian(*face_sides(tri, l0, w, face))))
        assert H.shape == (1, 1)
        assert H[0, 0] == pytest.approx(total, rel=1e-15)
        assert H[0, 0] < 0.0


def _scalar_reference(tri, l0, w, jacobian=True):
    """Edge lengths, F x 3 arcs, B and H (None unless ``jacobian``) by the
    per-hexagon reference API, one face and one slot at a time."""
    n = tri.n_boundaries
    lengths = np.array([edge_length(l0[e.edge_id], w[e.b_i - 1], w[e.b_j - 1]) for e in tri.edges])
    arcs = np.zeros((len(tri.faces), 3))
    B = np.zeros(n)
    H = np.zeros((n, n)) if jacobian else None
    for f, face in enumerate(tri.faces):
        sides = face_sides(tri, l0, w, face)
        arcs[f] = hexagon_arcs(*sides)
        for r in range(3):
            B[face.corners[r] - 1] += arcs[f, r]
        if jacobian:
            block = arc_jacobian(*sides)
            for r in range(3):
                for s in range(3):
                    H[face.corners[r] - 1, face.corners[s] - 1] += block[r, s]
    return lengths, arcs, B, H


def _scalar_margin(tri, l0, w):
    """The domain margin as the scalar edge_length forms each edge slack."""
    return min(float_slacks(tri, l0, w).values())


FIXTURES = ("pants", "tetra", "twin_pants", "second_pants", "torus")


class TestArrayKernelOracle:
    """The compiled array kernel against the per-hexagon API and mpmath.

    The per-hexagon API runs the kernel's own face formulas on floats, so
    comparing the two checks the kernel's assembly: the slot tables, the
    corner sums into B and H, the branch each face takes and the block
    layout.  The formulas themselves are checked against the cosine law in
    mpmath (``mp_reference.mp_slack_arcs`` and ``mp_slack_H``), which reads
    the float slacks the kernel sees."""

    @staticmethod
    def _assert_matches(tri, l0, w):
        lengths, arcs, B, H = _scalar_reference(tri, l0, w)
        geometry = surface_geometry(tri, l0, w)
        np.testing.assert_allclose(geometry.edge_lengths, lengths, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(geometry.arcs, arcs, rtol=1e-13, atol=0.0)
        slack = float_slacks(tri, l0, w)
        for face, face_arcs in zip(tri.faces, geometry.arcs):
            ref = [float(arc) for arc in mp_slack_arcs([slack[eid] for eid in face.opposite_edges])]
            np.testing.assert_allclose(face_arcs, ref, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(boundary_lengths(tri, l0, w), B, rtol=1e-13, atol=0.0)
        np.testing.assert_array_equal(geometry.boundary, boundary_lengths(tri, l0, w))
        H_array = boundary_jacobian(tri, l0, w)
        assert np.max(np.abs(H_array - H)) <= 1e-12 * np.max(np.abs(H))
        assert np.array_equal(H_array, H_array.T)
        return lengths, arcs

    @pytest.mark.parametrize("fixture_name", FIXTURES)
    def test_random_admissible_factors(self, fixture_name, request):
        tri, l0 = request.getfixturevalue(fixture_name)
        rng = np.random.default_rng(26)
        for _ in range(40):
            self._assert_matches(tri, l0, random_in_domain(tri, l0, rng, low=-0.3, high=1.5, margin=1e-3))

    @pytest.mark.parametrize("fixture_name", FIXTURES)
    @pytest.mark.parametrize("level", [8.0, 40.0])
    def test_uniform_factors_direct_arcs(self, fixture_name, level, request):
        tri, l0 = request.getfixturevalue(fixture_name)
        lengths, _ = self._assert_matches(tri, l0, np.full(tri.n_boundaries, level))
        # every side lies in (30, 200]: direct arcs and Jacobian
        assert 30.0 < np.min(lengths) and np.max(lengths) <= 200.0

    @pytest.mark.parametrize("fixture_name", FIXTURES)
    @pytest.mark.parametrize("level", [55.0, 150.0, 400.0])
    def test_uniform_factors_take_the_log_domain(self, fixture_name, level, request):
        tri, l0 = request.getfixturevalue(fixture_name)
        lengths, _ = self._assert_matches(tri, l0, np.full(tri.n_boundaries, level))
        # every face has a side > 200 (far arcs and Jacobian); at
        # 400 the edge slacks pass 350, where the lengths switch to
        # 2 (u + ln 2)
        assert np.min(lengths) > (2.0 * (350.0 + math.log(2.0)) if level == 400.0 else 200.0)

    def test_direct_and_log_faces_in_one_call(self, twin_pants):
        tri, l0 = twin_pants
        w = np.array([0.1, 0.0, 0.2, 55.0, 55.5, 56.0])
        lengths, _ = self._assert_matches(tri, l0, w)
        assert np.max(lengths[:3]) < 200.0 < np.min(lengths[3:])

    def test_self_edges_near_the_domain_boundary(self, torus):
        tri, l0 = torus
        threshold = -math.log(math.cosh(0.6)) / 2.0  # edge 1 (l0 = 1.2) is the first to close
        for gap in (1e-2, 1e-4, 1e-6):
            self._assert_matches(tri, l0, np.array([threshold + gap]))
        # Closest admissible factor: edge 1 has length ~1e-8, whose cosh
        # rounds to 1; the Jacobian takes cosh l - 1 as 2 sinh^2(l/2), in
        # the kernel and the scalar reference alike.
        w = np.array([threshold - 1e-15])
        while not in_domain(tri, l0, w).ok:
            w = np.nextafter(w, 1.0)
        lengths, _ = self._assert_matches(tri, l0, w)
        assert np.min(lengths) < 1e-7

    @pytest.mark.parametrize("fixture_name", FIXTURES)
    def test_jacobian_at_the_domain_wall(self, fixture_name, request):
        # Least edge slack in [1e-15, 1e-8], sides down to ~1e-7: there
        # cosh l - 1 cancels, while the kernel reads it as 2 expm1(2u).
        tri, l0 = request.getfixturevalue(fixture_name)
        rng = np.random.default_rng(30)
        for _ in range(6):
            w = random_in_domain(tri, l0, rng)
            # A uniform shift moves every edge slack by twice the shift.
            w = w - 0.5 * (in_domain(tri, l0, w).margin - 10.0 ** rng.uniform(-15.0, -8.0))
            assert 0.0 < in_domain(tri, l0, w).margin <= 2e-8
            H = boundary_jacobian(tri, l0, w)
            H_ref = mp_slack_H(tri, l0, w)
            assert np.max(np.abs(H - H_ref)) <= 1e-13 * np.max(np.abs(H_ref))
            assert np.array_equal(H, H.T)
            np.linalg.cholesky(-H)

    @staticmethod
    def _pants_at_slacks(tri, target, edge=PANTS_EDGE):
        """The factor of the pants with base length ``edge`` whose edge
        slacks are the three targets, and the float slacks the kernel
        sees.  Pants edge t joins the two components other than t."""
        c = _logcosh(0.5 * edge)
        w = 0.5 * (target.sum() - 3.0 * c) - target + c
        return w, [w[e.b_i - 1] + w[e.b_j - 1] + c for e in tri.edges]

    @staticmethod
    def _far_slacks(rng):
        """Three slacks log-uniform from 1e-12 to 2000, one of them past
        ln cosh(100): every face takes the far form, many next to the wall.
        In every other draw the far slack is within 3 of the sum of the
        other two, so the arc opposite it is of order one and rests on a
        small difference of large slacks."""
        target = 10.0 ** rng.uniform(-12.0, math.log10(2000.0), 3)
        far = rng.integers(3)
        target[far] = 10.0 ** rng.uniform(math.log10(_logcosh(100.0)), math.log10(2000.0))
        if rng.integers(2):
            a, b = (far + 1) % 3, (far + 2) % 3
            target[a] = rng.uniform(0.0, target[far])
            target[b] = max(target[far] - target[a] + rng.uniform(-3.0, 3.0), 1e-12)
        return target

    def _worst_arc_ulps(self, tri, l0, targets, edge=PANTS_EDGE):
        worst = 0.0
        for target in targets:
            w, u = self._pants_at_slacks(tri, target, edge)
            arcs = surface_geometry(tri, l0, w).arcs[0]
            for arc, ref in zip(arcs, mp_slack_arcs(u)):
                worst = max(worst, float(abs(mp.mpf(float(arc)) - ref)) / np.spacing(float(ref)))
        return worst

    def test_arcs_within_8_ulp_of_the_slack_reference(self, pants):
        # Faces drawn by their three edge slacks, log-uniform from 1e-12 up
        # to ln cosh(100), the slack of a side of 200 (the largest on the
        # direct branch); the reference reads the float slack the kernel
        # sees.
        tri, l0 = pants
        rng = np.random.default_rng(31)
        targets = [10.0 ** rng.uniform(-12.0, math.log10(_logcosh(100.0)), 3) for _ in range(200)]
        assert self._worst_arc_ulps(tri, l0, targets) <= 8.0

    def test_far_arcs_within_8_ulp_of_the_slack_reference(self):
        # A far face forms its exponents from the factor, not from the
        # slacks, so the slacks are snapped to a grid of 2^-40 on a pants
        # whose base slack is 1.0: then the kernel forms each of them
        # exactly, and the reference at the float slacks is the one at
        # the factor.
        assert _logcosh(0.5 * EXACT_SLACK_EDGE) == 1.0
        tri, l0 = parse_surface(pants_text(EXACT_SLACK_EDGE))
        rng = np.random.default_rng(33)
        grid = 2.0**-40
        targets = [np.maximum(np.round(self._far_slacks(rng) / grid), 1.0) * grid for _ in range(40)]
        for target in targets:
            assert self._pants_at_slacks(tri, target, EXACT_SLACK_EDGE)[1] == target.tolist()
        assert self._worst_arc_ulps(tri, l0, targets, EXACT_SLACK_EDGE) <= 8.0

    def test_far_jacobian_against_the_slack_reference(self, pants):
        tri, l0 = pants
        rng = np.random.default_rng(34)
        for _ in range(15):
            w, _ = self._pants_at_slacks(tri, self._far_slacks(rng))
            H = boundary_jacobian(tri, l0, w)
            H_ref = mp_slack_H(tri, l0, w)
            assert np.max(np.abs(H - H_ref)) <= 1e-13 * np.max(np.abs(H_ref))
            assert np.array_equal(H, H.T)

    @pytest.mark.parametrize("fixture_name", FIXTURES)
    def test_domain_error_where_the_scalar_path_raises(self, fixture_name, request):
        tri, l0 = request.getfixturevalue(fixture_name)
        rng = np.random.default_rng(27)
        outside = 0
        for _ in range(200):
            w = rng.uniform(-1.5, 0.5, tri.n_boundaries)
            try:
                for face in tri.faces:
                    face_sides(tri, l0, w, face)
                scalar_raises = False
            except DomainError:
                scalar_raises = True
            outside += scalar_raises
            assert in_domain(tri, l0, w).ok is not scalar_raises
            for kernel in (boundary_lengths, boundary_jacobian, surface_geometry):
                if scalar_raises:
                    with pytest.raises(DomainError):
                        kernel(tri, l0, w)
                else:
                    kernel(tri, l0, w)
        assert 0 < outside < 200


class TestFarFactor:
    """One factor W far beyond the others.  A far face forms the exponent
    of corner t as c_t - c_(t+1) - c_(t+2) - 2 w_t, in which the factors
    of the other two corners cancel, so B on the other components keeps
    its digits however large W is; formed from slacks rounded at about
    eps W, it lost them (relative errors of 7e-13 at W = 1e4 and above
    0.1 from W = 1e17).  The reference works at enough digits to hold
    W + w_2 exactly."""

    @pytest.mark.parametrize("W", [1e4, 1e10, 1e17, 1e300])
    @pytest.mark.parametrize("surface", ["pants", "generated-20-1"])
    def test_other_components_match_the_exact_reference(self, request, surface, W):
        tri, l0 = request.getfixturevalue("pants") if surface == "pants" else generated(20, 1)
        w = np.linspace(0.2, 0.6, tri.n_boundaries)
        w[0] = W
        ref = [float(b) for b in mp_B(tri, l0, w, dps=int(math.log10(W)) + 40)]
        np.testing.assert_allclose(boundary_lengths(tri, l0, w)[1:], ref[1:], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("W", [1e4, 1e17, 1e300])
    def test_jacobian_matches_the_exact_reference(self, pants, W):
        tri, l0 = pants
        w = np.array([W, 0.2, 0.6])
        # mp_H steps w by 10^(-dps/3), which W + step must still hold.
        ref = np.array(mp_H(tri, l0, w, dps=2 * int(math.log10(W)) + 60).tolist(), dtype=float)[1:, 1:]
        H = boundary_jacobian(tri, l0, w)[1:, 1:]
        assert np.max(np.abs(H - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestFactorEntryChecks:
    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), (1, 3), ()])
    def test_wrong_shape_raises(self, pants, shape):
        tri, l0 = pants
        w = np.zeros(shape)
        for kernel in (boundary_lengths, boundary_jacobian, in_domain, surface_geometry):
            with pytest.raises(ValueError, match="one entry per boundary component"):
                kernel(tri, l0, w)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry(self, pants, bad):
        tri, l0 = pants
        w = np.array([0.1, bad, 0.2])
        check = in_domain(tri, l0, w)
        assert check.ok is False
        assert math.isnan(check.margin)
        for kernel in (boundary_lengths, boundary_jacobian, surface_geometry):
            with pytest.raises(ValueError, match="finite"):
                kernel(tri, l0, w)

    def test_accepts_lists_and_integers(self, pants):
        tri, l0 = pants
        assert boundary_lengths(tri, l0, [0, 0, 0]) == pytest.approx([PANTS_B0] * 3, rel=1e-12)


def test_opposite_infinities_on_one_edge_raise_value_error(pants):
    # The kernel reads non-finite entries off its slack reductions; an edge
    # joining +inf and -inf has slack NaN, which numpy warns about first.
    tri, l0 = pants
    w = np.array([math.inf, -math.inf, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for kernel in (boundary_lengths, surface_geometry):
            with pytest.raises(ValueError, match="finite"):
                kernel(tri, l0, w)


def test_overflowing_slack_raises_value_error(pants):
    # w_a + w_b overflows to +inf on finite entries; B would be NaN.
    tri, l0 = pants
    w = np.full(3, 1e308)
    with np.errstate(over="ignore"):
        for kernel in (boundary_lengths, surface_geometry):
            with pytest.raises(ValueError, match="edge slack .* overflows"):
                kernel(tri, l0, w)
        with pytest.raises(ValueError, match="overflows"):
            geometry_rows(tri, l0, np.stack([np.zeros(3), w]))


ENTRIES = {
    "boundary_lengths": boundary_lengths,
    "boundary_jacobian": boundary_jacobian,
    "surface_geometry": surface_geometry,
    "geometry_rows": lambda tri, l0, w: geometry_rows(tri, l0, w[None]),
    "cusp_report": cusp_report,
    "total_energy": total_energy,
}


@pytest.mark.parametrize(
    "value, error",
    [(math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError), (-10.0, DomainError), (1e308, ValueError)],
    ids=["nan", "inf", "-inf", "outside", "overflow"],
)
@pytest.mark.parametrize("entry", ENTRIES)
def test_every_entry_refuses_alike(entry, value, error):
    # One check on the edge slacks guards every entry: a non-finite entry
    # and an overflowing slack raise ValueError, a slack <= 0 DomainError,
    # each with boundary_lengths' text (geometry_rows names the row).
    tri, l0 = generated(4, 3)
    w = np.full(tri.n_boundaries, value)
    with np.errstate(over="ignore"), pytest.raises((ValueError, DomainError)) as caught:
        ENTRIES[entry](tri, l0, w)
    assert type(caught.value) is error
    with np.errstate(over="ignore"), pytest.raises(error) as kernel:
        boundary_lengths(tri, l0, w)
    row = " in row 0" if entry == "geometry_rows" and not math.isfinite(value) else ""
    assert str(caught.value) == f"{kernel.value}{row}"


class TestCompiledCache:
    def test_two_metrics_on_one_triangulation_alternate(self, pants):
        tri, l0_a = pants
        _, l0_b = parse_surface(pants_text(1.3))
        _, l0_a_copy = parse_surface(pants_text())  # same lengths, another object
        w = np.array([0.05, 0.1, 0.15])
        expected = {}
        for name, l0 in (("a", l0_a), ("b", l0_b), ("a_copy", l0_a_copy)):
            expected[name] = _scalar_reference(tri, l0, w, jacobian=False)[2]
        assert not np.allclose(expected["a"], expected["b"])
        for name, l0 in (("a", l0_a), ("b", l0_b), ("a", l0_a), ("a_copy", l0_a_copy), ("b", l0_b)) * 2:
            np.testing.assert_allclose(boundary_lengths(tri, l0, w), expected[name], rtol=1e-13, atol=0.0)
            assert in_domain(tri, l0, w).margin == _scalar_margin(tri, l0, w)


def test_margin_is_exactly_the_scalar_slack(pants, tetra, twin_pants, torus):
    rng = np.random.default_rng(28)
    for tri, l0 in (pants, tetra, twin_pants, torus):
        for _ in range(50):
            w = rng.uniform(-1.0, 1.0, tri.n_boundaries)
            assert in_domain(tri, l0, w).margin == _scalar_margin(tri, l0, w)


def assert_rows_are_single_calls(tri, l0, w):
    """geometry_rows(w) equals one surface_geometry call per row, bit for
    bit; returns the longest edge over the rows."""
    rows = geometry_rows(tri, l0, w)
    assert rows.boundary.shape == w.shape
    longest = 0.0
    for k, factor in enumerate(w):
        single = surface_geometry(tri, l0, factor)
        assert np.array_equal(rows.boundary[k], single.boundary)
        assert rows.min_edge[k] == single.edge_lengths.min()
        assert rows.max_arc[k] == single.arcs.max()
        longest = max(longest, single.edge_lengths.max())
    return longest


class TestGeometryRows:
    """A stack of factors in one kernel pass, block by block."""

    @pytest.mark.parametrize("faces", [2, 4, 20, 200, 2000])
    @pytest.mark.parametrize("level", [0.3, 3.0, 20.0, 200.0])
    def test_rows_equal_single_calls(self, faces, level):
        tri, l0 = generated(faces, 17)
        rng = np.random.default_rng([faces, int(level)])
        block = block_rows(tri)
        longest = max(
            assert_rows_are_single_calls(tri, l0, rng.uniform(0.0, level, (m, tri.n_boundaries)))
            for m in (1, block, block + 1)
        )
        # Levels 0.3 and 3 keep every side below 30; at 20 sides pass 30
        # but stay on the direct arcs (sides <= 200); at 200 faces take the
        # far arcs and edge slacks pass 350, where the lengths switch
        # to 2 (u + ln 2).
        if level < 20.0:
            assert longest < 30.0
        elif level == 20.0:
            assert 30.0 < longest <= 200.0
        else:
            assert longest > 2.0 * (350.0 + math.log(2.0))

    def test_self_edges(self, torus):
        tri, l0 = torus
        threshold = -math.log(math.cosh(0.6)) / 2.0  # edge 1 (l0 = 1.2) is the first to close
        rng = np.random.default_rng(29)
        w = rng.uniform(threshold + 1e-6, 400.0, (block_rows(tri) + 1, 1))
        w[:3, 0] = threshold + np.array([1e-2, 1e-4, 1e-6])
        assert_rows_are_single_calls(tri, l0, w)

    def test_empty_stack(self, pants):
        tri, l0 = pants
        rows = geometry_rows(tri, l0, np.zeros((0, 3)))
        assert rows.boundary.shape == (0, 3)
        assert rows.min_edge.shape == rows.max_arc.shape == (0,)

    @pytest.mark.parametrize("bad_row", [0, 3, "last"])
    def test_one_inadmissible_row_raises(self, pants, bad_row):
        tri, l0 = pants
        w = np.zeros((block_rows(tri) + 2, 3))
        w[-1 if bad_row == "last" else bad_row] = [-1.0, 0.0, 0.0]
        with pytest.raises(DomainError):
            geometry_rows(tri, l0, w)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_raises(self, pants, bad):
        tri, l0 = pants
        w = np.zeros((4, 3))
        w[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            geometry_rows(tri, l0, w)

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 3), (2, 4), (2, 1), ()])
    def test_wrong_shape_raises(self, pants, shape):
        tri, l0 = pants
        with pytest.raises(ValueError, match="shape"):
            geometry_rows(tri, l0, np.zeros(shape))
