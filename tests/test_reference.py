"""The kernel and the Newton solve against the 60-digit reference of
``mp_reference``: B to 1e-15 relative per component, H to 2e-15 of its
largest entry, and Newton's answer within 4 ulp of the reference
solution w*.  A factor's ulp here is eps * max(1, max|w*|): the kernel
reads w only through the edge slacks w_a + w_b + ln cosh(l0/2), whose
base terms are of order one, so a smaller |w*| carries no more digits."""

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
from mp_reference import mp_B, mp_H, mp_solve

FIXTURES = ["pants", "tetra", "twin_pants", "second_pants", "torus"]
GENERATED = [(2, 0), (4, 1), (8, 2), (12, 3)]
CASES = FIXTURES + [f"F{faces}-seed{seed}" for faces, seed in GENERATED]


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
