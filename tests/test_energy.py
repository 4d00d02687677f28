
import numpy as np
import pytest

from hexflow import energy
from hexflow import (
    DomainError,
    QuadratureError,
    boundary_jacobian,
    boundary_lengths,
    edge_length,
    face_energy,
    hexagon_arcs,
    parse_surface,
    segment_energy,
    total_energy,
)

from conftest import PANTS_EDGE, fd_jacobian, generated, random_in_domain
from mp_reference import mp_face_energy

L0_SIDES = (PANTS_EDGE, PANTS_EDGE, PANTS_EDGE)


def pants_copies(count):
    """Disjoint union of ``count`` copies of the pants fixture; copy k has
    components 3k+1..3k+3, edges 3k+1..3k+3 and faces 2k+1, 2k+2."""
    lines = ["surface pantscopies", f"boundaries {3 * count}"]
    for k in range(count):
        a, b, c = 3 * k + 1, 3 * k + 2, 3 * k + 3
        lines += [f"edge {e} {i} {j} {PANTS_EDGE!r}" for e, i, j in ((a, b, c), (b, c, a), (c, a, b))]
        lines += [f"face {2 * k + f} {a} {b} {c} {a} {b} {c}" for f in (1, 2)]
    return parse_surface("\n".join(lines) + "\n")


def sum_of_face_energies(tri, l0, w):
    return sum(
        face_energy(tuple(l0[eid] for eid in face.opposite_edges), tuple(w[c - 1] for c in face.corners))
        for face in tri.faces
    )


def face_arcs(l0_sides, w):
    sides = (
        edge_length(l0_sides[0], w[1], w[2]),
        edge_length(l0_sides[1], w[2], w[0]),
        edge_length(l0_sides[2], w[0], w[1]),
    )
    return np.array(hexagon_arcs(*sides))


class TestFaceEnergy:
    def test_base_point_is_zero(self):
        assert face_energy(L0_SIDES, (0.0, 0.0, 0.0)) == 0.0

    def test_gradient_is_the_arc_vector(self):
        w = np.array([0.1, 0.2, 0.3])
        grad = fd_jacobian(lambda v: face_energy(L0_SIDES, v), w)[0]
        arcs = face_arcs(L0_SIDES, w)
        assert grad == pytest.approx(arcs, rel=1e-6)

    def test_path_independence_polyline(self):
        w = (0.1, 0.2, 0.3)
        via = (0.05, 0.15, 0.1)
        straight = face_energy(L0_SIDES, w)
        polyline = segment_energy(L0_SIDES, (0.0, 0.0, 0.0), via) + segment_energy(
            L0_SIDES, via, w
        )
        assert abs(straight - polyline) < 1e-8

    def test_path_independence_random_polylines(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            w = rng.uniform(0.0, 0.5, 3)
            mid1 = rng.uniform(0.0, 0.5, 3)
            mid2 = rng.uniform(0.0, 0.5, 3)
            straight = face_energy(L0_SIDES, w)
            detour = (
                segment_energy(L0_SIDES, (0.0, 0.0, 0.0), mid1)
                + segment_energy(L0_SIDES, mid1, mid2)
                + segment_energy(L0_SIDES, mid2, w)
            )
            assert abs(straight - detour) < 1e-8

    @pytest.mark.parametrize("w", [(5.0, 5.0, 5.0), (20.0, 1.0, 3.0), (60.0, 60.0, 0.1)])
    def test_matches_high_precision_integral_at_large_factors(self, w):
        assert face_energy(L0_SIDES, w) == pytest.approx(mp_face_energy(L0_SIDES, w), rel=1e-12)

    def test_out_of_domain_endpoint(self):
        with pytest.raises(DomainError):
            face_energy(L0_SIDES, (-0.5, -0.5, 0.0))

    def test_rule_is_numpys_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(32)
        assert energy._NODES.tobytes() == nodes.tobytes()
        assert energy._WEIGHTS.tobytes() == weights.tobytes()

    def test_quadrature_failure_reported(self, monkeypatch):
        nodes, weights = np.polynomial.legendre.leggauss(2)
        monkeypatch.setattr(energy, "_NODES", nodes)
        monkeypatch.setattr(energy, "_WEIGHTS", weights)
        monkeypatch.setattr(energy, "_TOLERANCE", 1e-16)
        monkeypatch.setattr(energy, "_MAX_DEPTH", 1)
        with pytest.raises(QuadratureError):
            face_energy(L0_SIDES, (0.4, 0.8, 1.2))


class TestTotalEnergy:
    def test_zero_at_base_point(self, pants, tetra, torus):
        for tri, l0 in (pants, tetra, torus):
            assert total_energy(tri, l0, np.zeros(tri.n_boundaries)) == 0.0

    def test_gradient_is_boundary_length_map(self, pants, tetra, torus, twin_pants):
        rng = np.random.default_rng(32)
        for tri, l0 in (pants, tetra, torus, twin_pants):
            for _ in range(3):
                w = random_in_domain(tri, l0, rng, low=-0.1, high=0.5)
                grad = fd_jacobian(lambda v: total_energy(tri, l0, v), w)[0]
                B = boundary_lengths(tri, l0, w)
                assert grad == pytest.approx(B, rel=1e-6)

    def test_strict_concavity_probe(self, pants):
        tri, l0 = pants
        rng = np.random.default_rng(33)
        for _ in range(20):
            w1 = random_in_domain(tri, l0, rng, low=-0.1, high=0.8)
            w2 = random_in_domain(tri, l0, rng, low=-0.1, high=0.8)
            if np.allclose(w1, w2):
                continue
            mid = 0.5 * (w1 + w2)
            e_mid = total_energy(tri, l0, mid)
            e_avg = 0.5 * (total_energy(tri, l0, w1) + total_energy(tri, l0, w2))
            assert e_mid > e_avg

    def test_hessian_matches_boundary_jacobian(self, pants):
        tri, l0 = pants
        w = np.array([0.1, -0.05, 0.3])
        H = boundary_jacobian(tri, l0, w)
        step = 1e-4
        n = 3
        H_fd = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                wpp = w.copy(); wpp[[i, j]] += step
                wmm = w.copy(); wmm[[i, j]] -= step
                wpm = w.copy(); wpm[i] += step; wpm[j] -= step
                wmp = w.copy(); wmp[i] -= step; wmp[j] += step
                if i == j:
                    wpp = w.copy(); wpp[i] += 2 * step
                    wmm = w.copy(); wmm[i] -= 2 * step
                    H_fd[i, i] = (
                        total_energy(tri, l0, wpp)
                        - 2 * total_energy(tri, l0, w)
                        + total_energy(tri, l0, wmm)
                    ) / (4 * step ** 2)
                else:
                    H_fd[i, j] = (
                        total_energy(tri, l0, wpp)
                        - total_energy(tri, l0, wpm)
                        - total_energy(tri, l0, wmp)
                        + total_energy(tri, l0, wmm)
                    ) / (4 * step ** 2)
        assert np.max(np.abs(H - H_fd)) <= 1e-4 * np.max(np.abs(H))

    def test_additivity_over_disjoint_union(self, twin_pants, pants, second_pants):
        tri, l0 = twin_pants
        tri1, l01 = pants
        tri2, l02 = second_pants
        rng = np.random.default_rng(34)
        for _ in range(5):
            w1 = random_in_domain(tri1, l01, rng, low=-0.05, high=0.5)
            w2 = random_in_domain(tri2, l02, rng, low=-0.05, high=0.5)
            w = np.concatenate([w1, w2])
            whole = total_energy(tri, l0, w)
            parts = total_energy(tri1, l01, w1) + total_energy(tri2, l02, w2)
            assert whole == pytest.approx(parts, abs=1e-14)
        # F = 2000: the tolerance scales with the face count, so the whole
        # surface converges as the per-face integrals do.
        count = 1000
        tri, l0 = pants_copies(count)
        for w_copy in (np.array([20.0, 1.0, 5.0]), np.array([0.4, 0.8, 1.2])):
            whole = total_energy(tri, l0, np.tile(w_copy, count))
            assert whole == pytest.approx(count * total_energy(tri1, l01, w_copy), rel=1e-12)

    def test_equals_sum_of_face_energies(self, pants, tetra, twin_pants, second_pants, torus):
        rng = np.random.default_rng(35)
        for tri, l0 in (pants, tetra, twin_pants, second_pants, torus):
            points = [random_in_domain(tri, l0, rng, low=-0.3, high=1.5) for _ in range(3)]
            points += [np.full(tri.n_boundaries, value) for value in (5.0, 20.0)]
            for w in points:
                assert total_energy(tri, l0, w) == pytest.approx(sum_of_face_energies(tri, l0, w), rel=1e-13)

    def test_out_of_domain(self, pants):
        tri, l0 = pants
        with pytest.raises(DomainError):
            total_energy(tri, l0, np.array([-0.9, 0.0, 0.0]))


def test_total_energy_makes_one_kernel_call_per_panel(monkeypatch, kernel_calls):
    tri, l0 = generated(20, 3)
    panels = []
    gl_panel = energy._gl_panel
    monkeypatch.setattr(energy, "_gl_panel", lambda f, a, b: panels.append((a, b)) or gl_panel(f, a, b))
    total_energy(tri, l0, np.full(tri.n_boundaries, 5.0))
    assert len(panels) >= 3
    assert kernel_calls == [len(energy._NODES)] * len(panels)


@pytest.mark.parametrize("faces", [20, 200])
def test_total_energy_evaluates_each_panel_once(monkeypatch, faces):
    tri, l0 = generated(faces, 3)
    panels = []
    gl_panel = energy._gl_panel
    monkeypatch.setattr(energy, "_gl_panel", lambda f, a, b: panels.append((a, b)) or gl_panel(f, a, b))
    total_energy(tri, l0, np.full(tri.n_boundaries, 5.0))
    assert len(panels) > 3
    assert len(set(panels)) == len(panels)
