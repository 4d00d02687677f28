"""Concave energy whose gradient is the boundary-length map.

Per face, the 1-form theta_i dw_i + theta_j dw_j + theta_k dw_k is closed
on the (convex) admissible set of that face, so its line integral from
the base point 0 is a well-defined, strictly concave function with
partial derivatives equal to the arcs.  Summing over faces gives the
total energy, whose gradient is B and whose Hessian is the boundary
Jacobian.  No closed-form antiderivative is available here, so the
integral is evaluated by adaptive Gauss-Legendre quadrature along the
straight segment; the integrand is analytic on the open segment and the
default order-32 rule typically converges in a single panel.

The Newton solver reads the energy once per solve, for the first entry
of its objective trace; otherwise these values serve as diagnostics and
as the reference the tests check B against.
"""

from dataclasses import dataclass

import numpy as np

from .conformal import edge_length, in_domain
from .errors import DomainError, QuadratureError
from .hexagon import hexagon_arcs


@dataclass(frozen=True)
class QuadratureSpec:
    """Adaptive Gauss-Legendre controls: node count per panel, absolute
    agreement required between successive refinements, and the bisection
    depth bound."""

    order: int = 32
    tolerance: float = 1e-12
    max_depth: int = 12

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"quadrature order must be >= 2, got {self.order}")
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_depth < 1:
            raise ValueError(f"max depth must be >= 1, got {self.max_depth}")


DEFAULT_QUADRATURE = QuadratureSpec()

_gl_cache = {}


def _gl_nodes(order):
    if order not in _gl_cache:
        _gl_cache[order] = np.polynomial.legendre.leggauss(order)
    return _gl_cache[order]


def _gl_panel(f, a, b, nodes, weights):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * sum(wt * f(mid + half * x) for x, wt in zip(nodes, weights))


def _adaptive(f, a, b, tol, depth, nodes, weights):
    coarse = _gl_panel(f, a, b, nodes, weights)
    mid = 0.5 * (a + b)
    fine = _gl_panel(f, a, mid, nodes, weights) + _gl_panel(f, mid, b, nodes, weights)
    if abs(fine - coarse) <= tol:
        return fine
    if depth <= 1:
        raise QuadratureError(
            f"no convergence on [{a!r}, {b!r}]: refinements differ by {abs(fine - coarse):.3e} > {tol:.3e}"
        )
    return _adaptive(f, a, mid, 0.5 * tol, depth - 1, nodes, weights) + _adaptive(
        f, mid, b, 0.5 * tol, depth - 1, nodes, weights
    )


def _face_sides_at(l0_sides, w_point):
    """Rescaled slot lengths of one face; DomainError outside its admissible set."""
    return tuple(
        edge_length(l0, w_point[pa], w_point[pb])
        for l0, (pa, pb) in zip(l0_sides, ((1, 2), (2, 0), (0, 1)))
    )


def segment_energy(l0_sides, w_from, w_to, quad=DEFAULT_QUADRATURE):
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

    nodes, weights = _gl_nodes(quad.order)
    return _adaptive(integrand, 0.0, 1.0, quad.tolerance, quad.max_depth, nodes, weights)


def face_energy(l0_sides, w, quad=DEFAULT_QUADRATURE):
    """Energy of one face at the factor triple w = (w_i, w_j, w_k), for
    base side lengths l0_sides = (l0_jk, l0_ki, l0_ij).

    Defined as the integral of the closed arc 1-form from the base point 0
    (always admissible) to w along the straight segment; its gradient is
    the arc triple of the rescaled hexagon.
    """
    return segment_energy(l0_sides, (0.0, 0.0, 0.0), w, quad)


def total_energy(tri, l0, w, quad=DEFAULT_QUADRATURE):
    """Sum of the face energies, each face reading its factor triple
    through its corner components.  Strictly concave in w; its gradient
    is the boundary-length map."""
    w = np.asarray(w, dtype=float)
    check = in_domain(tri, l0, w)
    if not check.ok:
        raise DomainError(f"factor outside the admissible domain (margin {check.margin!r})")
    base = (0.0, 0.0, 0.0)
    total = 0.0
    for face in tri.faces:
        l0_sides = tuple(l0[eid] for eid in face.opposite_edges)
        w_face = tuple(w[c - 1] for c in face.corners)
        total += segment_energy(l0_sides, base, w_face, quad)
    return total
