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
each panel's nodes are one batched kernel call
(:func:`.geometry_rows`, of which it reads B).
:func:`segment_energy` and :func:`face_energy` are the per-hexagon form:
per panel, the slot lengths of :func:`.face_sides` at every node by one
call of the kernel's length formula, then one :func:`.hexagon_arcs` call
per node, on the face formulas the kernel also runs.

The Newton solver reads the energy once per solve, for the first entry
of its objective trace.  At its default start w = 0 that is 0.0, returned
after the domain check without quadrature; the integral runs only for a
caller's ``start``.  Otherwise these values serve as diagnostics and as
the reference the tests check B against.
"""

import numpy as np

from .conformal import _base_slack, _factor, _lengths, _slot_lengths, boundary_lengths, geometry_rows, in_domain
from .errors import QuadratureError
from .hexagon import hexagon_arcs


# Adaptive Gauss-Legendre controls: an order-32 rule per panel, absolute
# agreement 1e-12 between successive refinements (halved per bisection),
# and at most 12 levels of bisection.  The rule's nodes and weights on
# [-1, 1] are the values of numpy's leggauss(32), written out as shortest
# round-trip floats so that no command imports numpy.polynomial.
_NODES = np.array([
    -0.9972638618494816, -0.9856115115452684, -0.9647622555875064, -0.9349060759377397,
    -0.8963211557660521, -0.84936761373257, -0.7944837959679424, -0.7321821187402897,
    -0.6630442669302152, -0.5877157572407623, -0.5068999089322294, -0.42135127613063533,
    -0.33186860228212767, -0.23928736225213706, -0.1444719615827965, -0.048307665687738324,
    0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
    0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
    0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
    0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816,
])
_WEIGHTS = np.array([
    0.007018610009470506, 0.016274394730905743, 0.025392065309262024, 0.034273862913021765,
    0.042835898022226836, 0.05099805926237609, 0.058684093478535565, 0.06582222277636168,
    0.07234579410884834, 0.07819389578707023, 0.08331192422694671, 0.08765209300440378,
    0.09117387869576378, 0.09384439908080451, 0.09563872007927471, 0.09654008851472766,
    0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
    0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
    0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
    0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506,
])
_TOLERANCE = 1e-12
_MAX_DEPTH = 12


def _gl_panel(f, a, b):
    """The rule on [a, b]; f maps the array of nodes to their values."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * sum(wt * v for v, wt in zip(f(mid + half * _NODES), _WEIGHTS))


def _adaptive(f, a, b, tol, depth, coarse=None):
    """Integral of f over [a, b] by bisection against ``coarse``, the rule
    on [a, b]; each half goes down as its child's coarse value, so no
    panel is evaluated twice."""
    if coarse is None:
        coarse = _gl_panel(f, a, b)
    mid = 0.5 * (a + b)
    left, right = _gl_panel(f, a, mid), _gl_panel(f, mid, b)
    fine = left + right
    if abs(fine - coarse) <= tol:
        return fine
    if depth <= 1:
        raise QuadratureError(
            f"no convergence on [{a!r}, {b!r}]: refinements differ by {abs(fine - coarse):.3e} > {tol:.3e}"
        )
    return _adaptive(f, a, mid, 0.5 * tol, depth - 1, left) + _adaptive(f, mid, b, 0.5 * tol, depth - 1, right)


def segment_energy(l0_sides, w_from, w_to):
    """Line integral of the arc 1-form along the straight segment between
    two admissible factor triples of one face.

    Both endpoints must be admissible; the open segment between them then
    is too, by convexity.
    """
    w_from = tuple(float(v) for v in w_from)
    w_to = tuple(float(v) for v in w_to)
    _slot_lengths(l0_sides, w_from)
    _slot_lengths(l0_sides, w_to)
    delta = tuple(b - a for a, b in zip(w_from, w_to))
    if all(d == 0.0 for d in delta):
        return 0.0
    slack = [_base_slack(l0) for l0 in l0_sides]

    def integrand(nodes):
        # _slot_lengths at every node (slot t joins corners t+1 and t+2).
        point = [a + nodes * d for a, d in zip(w_from, delta)]
        sides = _lengths(np.array([point[t - 2] + point[t - 1] + slack[t] for t in range(3)])).T.tolist()
        return [t[0] * delta[0] + t[1] * delta[1] + t[2] * delta[2] for t in (hexagon_arcs(*s) for s in sides)]

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
    Strictly concave in w; its gradient is the boundary-length map.
    Refuses w as the kernel does: ValueError on a non-finite entry or an
    overflowing slack, DomainError outside the domain."""
    w = _factor(tri, w)
    if not in_domain(tri, l0, w).ok:
        boundary_lengths(tri, l0, w)  # refuses w with the kernel's error
    if not w.any():
        return 0.0

    def integrand(nodes):
        return [float(B @ w) for B in geometry_rows(tri, l0, nodes[:, None] * w).boundary]

    return _adaptive(integrand, 0.0, 1.0, _TOLERANCE * len(tri.faces), _MAX_DEPTH)
