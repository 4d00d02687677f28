"""Concave energy whose gradient is the boundary-length map.

Per face, the 1-form theta_i dw_i + theta_j dw_j + theta_k dw_k is closed
on the (convex) admissible set of that face, so its line integral from
the base point 0 is a well-defined, strictly concave function with
partial derivatives equal to the arcs.  Summing over faces gives the
total energy, whose gradient is B and whose Hessian is the boundary
Jacobian.  No closed-form antiderivative is available here, so the
integral is evaluated by adaptive Gauss-Legendre quadrature along the
straight segment; the integrand is analytic on the open segment and the
order-32 rule typically converges in a single panel.

:func:`total_energy` integrates all faces at once, E(w) = int_0^1
<B(s w), w> ds on the array kernel, to the per-face tolerance times F;
:func:`segment_energy` and :func:`face_energy` are the scalar reference.

The Newton solver reads the energy once per solve, for the first entry
of its objective trace; otherwise these values serve as diagnostics and
as the reference the tests check B against.
"""

import numpy as np

from .conformal import boundary_lengths, edge_length, in_domain
from .errors import DomainError, QuadratureError
from .hexagon import hexagon_arcs


# Adaptive Gauss-Legendre controls: an order-32 rule per panel, absolute
# agreement 1e-12 between successive refinements (halved per bisection),
# and at most 12 levels of bisection.
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)
_TOLERANCE = 1e-12
_MAX_DEPTH = 12


def _gl_panel(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * sum(wt * f(mid + half * x) for x, wt in zip(_NODES, _WEIGHTS))


def _adaptive(f, a, b, tol, depth):
    coarse = _gl_panel(f, a, b)
    mid = 0.5 * (a + b)
    fine = _gl_panel(f, a, mid) + _gl_panel(f, mid, b)
    if abs(fine - coarse) <= tol:
        return fine
    if depth <= 1:
        raise QuadratureError(
            f"no convergence on [{a!r}, {b!r}]: refinements differ by {abs(fine - coarse):.3e} > {tol:.3e}"
        )
    return _adaptive(f, a, mid, 0.5 * tol, depth - 1) + _adaptive(f, mid, b, 0.5 * tol, depth - 1)


def _face_sides_at(l0_sides, w_point):
    """Rescaled slot lengths of one face; DomainError outside its admissible set."""
    return tuple(
        edge_length(l0, w_point[pa], w_point[pb])
        for l0, (pa, pb) in zip(l0_sides, ((1, 2), (2, 0), (0, 1)))
    )


def segment_energy(l0_sides, w_from, w_to):
    """Line integral of the arc 1-form along the straight segment between
    two admissible factor triples of one face.

    Both endpoints must be admissible; the open segment between them then
    is too, by convexity.
    """
    w_from = tuple(float(v) for v in w_from)
    w_to = tuple(float(v) for v in w_to)
    _face_sides_at(l0_sides, w_from)
    _face_sides_at(l0_sides, w_to)
    delta = tuple(b - a for a, b in zip(w_from, w_to))
    if all(d == 0.0 for d in delta):
        return 0.0

    def integrand(s):
        point = tuple(a + s * d for a, d in zip(w_from, delta))
        arcs = hexagon_arcs(*_face_sides_at(l0_sides, point))
        return arcs[0] * delta[0] + arcs[1] * delta[1] + arcs[2] * delta[2]

    return _adaptive(integrand, 0.0, 1.0, _TOLERANCE, _MAX_DEPTH)


def face_energy(l0_sides, w):
    """Energy of one face at the factor triple w = (w_i, w_j, w_k), for
    base side lengths l0_sides = (l0_jk, l0_ki, l0_ij).

    Defined as the integral of the closed arc 1-form from the base point 0
    (always admissible) to w along the straight segment; its gradient is
    the arc triple of the rescaled hexagon.
    """
    return segment_energy(l0_sides, (0.0, 0.0, 0.0), w)


def total_energy(tri, l0, w):
    """E(w) = int_0^1 <B(s w), w> ds, the sum of the face energies.
    Strictly concave in w; its gradient is the boundary-length map."""
    w = np.asarray(w, dtype=float)
    check = in_domain(tri, l0, w)
    if not check.ok:
        raise DomainError(f"factor outside the admissible domain (margin {check.margin!r})")
    if not w.any():
        return 0.0

    def integrand(s):
        return float(boundary_lengths(tri, l0, s * w) @ w)

    return _adaptive(integrand, 0.0, 1.0, _TOLERANCE * len(tri.faces), _MAX_DEPTH)
