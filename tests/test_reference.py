"""The reference of ``mp_reference`` against two other forms of the
hexagon, and the kernel and the Newton solve against the reference.

The core's arcs agree with the textbook cosine law, and its block with
central differences of its arcs through the conformal rule.  At 60
digits, the kernel's B agrees to 1e-15 relative per component, its H to
2e-15 of the largest entry, and Newton's answer lies within 4 ulp of the
reference solution w*.  A factor's ulp here is eps * max(1, max|w*|):
the kernel reads w only through the edge slacks w_a + w_b + ln
cosh(l0/2), whose base terms are of order one, so a smaller |w*| carries
no more digits."""

import math

import numpy as np
import pytest
from mpmath import mp

from hexflow import (
    ConvergenceError,
    SolveOptions,
    boundary_jacobian,
    boundary_lengths,
    solve_prescribed,
)

from conftest import generated
from mp_reference import mp_B, mp_face_arcs, mp_face_block, mp_H, mp_solve

FIXTURES = ["pants", "tetra", "twin_pants", "second_pants", "torus", "lopsided"]
GENERATED = [(2, 0), (4, 1), (8, 2), (12, 3)]
CASES = FIXTURES + [f"F{faces}-seed{seed}" for faces, seed in GENERATED]


# Faces with sides log-uniform in [1e-8, 1000]: huge and tiny arcs, on
# both sides of the kernel's far-form threshold (sides of 200).
FACES = np.exp(np.random.default_rng(40).uniform(math.log(1e-8), math.log(1000.0), (100, 3)))


def test_face_arcs_match_the_textbook_cosine_law():
    # cosh theta_t = (cosh l_t + cosh l_a cosh l_b) / (sinh l_a sinh l_b)
    # cancels to cosh theta_t - 1 ~ e^(l_t - l_a - l_b) on short arcs, at
    # most (l_a + l_b) / ln 10 < max(l) digits, so it is evaluated at
    # 60 + max(l) digits.
    worst = 0
    for sides in FACES:
        l = [mp.mpf(float(side)) for side in sides]
        with mp.workdps(60):
            arcs = mp_face_arcs([mp.sinh(side / 2) ** 2 for side in l])
        with mp.workdps(60 + int(max(sides))):
            for t, arc in enumerate(arcs):
                a, b = (t + 1) % 3, (t + 2) % 3
                law = mp.acosh((mp.cosh(l[t]) + mp.cosh(l[a]) * mp.cosh(l[b])) / (mp.sinh(l[a]) * mp.sinh(l[b])))
                worst = max(worst, abs(arc - law) / law)
    assert worst <= 1e-58


def test_face_block_matches_differences_of_the_arcs():
    # Slot t's slack u_t = w_(t+1) + w_(t+2) + ln cosh(l_t / 2) moves with
    # the two corners other than t, and S_t = expm1(2 u_t).  Central
    # differences with step h = 1e-40 at 120 digits err by about
    # (h / u)^2 <= 1e-46 relative, u >= 1.25e-17 on these faces.
    worst = 0
    with mp.workdps(120):
        h = mp.mpf(10) ** -40
        for sides in FACES:
            u = [mp.log(mp.cosh(mp.mpf(float(side)) / 2)) for side in sides]

            def arcs(dw):
                return mp_face_arcs([mp.expm1(2 * (u[t] + dw[(t + 1) % 3] + dw[(t + 2) % 3])) for t in range(3)])

            block = mp_face_block([mp.expm1(2 * x) for x in u])
            scale = max(abs(x) for row in block for x in row)
            for s in range(3):
                step = [h if k == s else 0 for k in range(3)]
                plus, minus = arcs(step), arcs([-x for x in step])
                for t in range(3):
                    worst = max(worst, abs((plus[t] - minus[t]) / (2 * h) - block[t][s]) / scale)
    assert worst <= 1e-45


@pytest.fixture(params=CASES)
def surface(request):
    if request.param in FIXTURES:
        return request.getfixturevalue(request.param)
    faces, seed = request.param[1:].split("-seed")
    return generated(int(faces), int(seed))


def ulps(w, w_star):
    """max|w - w*| in units of eps * max(1, max|w*|), at 60 digits."""
    with mp.workdps(60):
        error = max(abs(mp.mpf(float(x)) - y) for x, y in zip(w, w_star))
        scale = max(1, max(abs(y) for y in w_star))
        return float(error / (np.finfo(float).eps * scale))


def test_boundary_lengths_match_reference(surface):
    tri, l0 = surface
    w = np.random.default_rng(0).uniform(0.0, 0.5, tri.n_boundaries)
    B = boundary_lengths(tri, l0, w)
    with mp.workdps(60):
        relative = [abs((mp.mpf(float(b)) - ref) / ref) for b, ref in zip(B, mp_B(tri, l0, w))]
    assert float(max(relative)) <= 1e-15


def test_jacobian_matches_reference(surface):
    tri, l0 = surface
    w = np.random.default_rng(1).uniform(0.0, 0.5, tri.n_boundaries)
    n = tri.n_boundaries
    reference = mp_H(tri, l0, w)
    H_star = np.array([[float(reference[i, j]) for j in range(n)] for i in range(n)])
    assert np.max(np.abs(boundary_jacobian(tri, l0, w) - H_star)) <= 2e-15 * np.max(np.abs(H_star))


def _answer(tri, l0, target, opts=None):
    """The factor Newton hands back for ``target``: its result, or the
    last iterate its ConvergenceError holds."""
    try:
        return solve_prescribed(tri, l0, target, opts).factors
    except ConvergenceError as exc:
        return exc.partial.factors


def test_round_trip_lands_within_four_ulp(surface):
    # A tolerance below the rounding floor runs Newton until its steps
    # stall there.
    tri, l0 = surface
    target = boundary_lengths(tri, l0, np.random.default_rng(2).uniform(0.0, 0.5, tri.n_boundaries))
    w = _answer(tri, l0, target, SolveOptions(grad_tol=1e-16, max_iter=15))
    assert ulps(w, mp_solve(tri, l0, target, w)) <= 4.0


def test_uniform_target_answer_lies_within_four_ulp():
    # Uniform T = 20 on this surface ends in ConvergenceError: no float64
    # factor meets the residual test there.  The factor handed back still
    # lies within 4 ulp of w*, the floor a better representation of the
    # factor would have to lift.
    tri, l0 = generated(8, 0)
    target = np.full(tri.n_boundaries, 20.0)
    w = _answer(tri, l0, target)
    assert ulps(w, mp_solve(tri, l0, target, w)) <= 4.0
