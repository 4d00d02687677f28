"""Boundary-length gradient flow dw_i/dt = B_i(t), w(0) = 0.

Every B_i is positive, so the factors increase monotonically and stay
admissible; the flow exists for all time, the squared-length sum
S = sum_i B_i^2 decreases strictly, the total energy increases strictly,
and every boundary length tends to zero while the edges stretch without
bound (each hexagon degenerates toward an ideal triangle).  A numerical
run therefore cuts off by a boundary-length threshold or an edge-length
cap rather than by reaching the limit.

The stepper is classical Runge-Kutta 4 with a step-doubling error
estimate and PI step-size control; the problem is smooth and non-stiff
(the flow decays), so an explicit method with modest tolerances tracks it
accurately.  Every stage right-hand side is one call of the array kernel
:func:`.boundary_lengths`.  At the start and at each accepted step, one
:func:`.surface_geometry` call gives both the right-hand side B and the
recorded geometry (shortest edge, longest arc); it counts as one
right-hand-side evaluation.  Samples take one such call per factor.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .conformal import boundary_lengths, in_domain, surface_geometry
from .conformal import edge_length, face_sides  # noqa: F401 - sites the tracer in bench/tracing.py wraps
from .errors import ConvergenceError, DomainError
from .hexagon import hexagon_arcs  # noqa: F401 - a site the tracer in bench/tracing.py wraps


@dataclass(frozen=True)
class FlowOptions:
    """Stopping and accuracy controls for :func:`integrate_flow`.

    The run stops at ``t_end``, or earlier once max_i B_i < ``cusp_tol``
    or the shortest edge exceeds ``length_cap`` (kept below the cosh
    overflow threshold near 710).  ``sample_dt`` spaces the interpolated
    trace grid; None picks t_end / 100.
    """

    t_end: float
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    cusp_tol: float = 1e-6
    length_cap: float = 600.0
    sample_dt: Optional[float] = None

    def __post_init__(self):
        for name in ("t_end", "rel_tol", "abs_tol", "cusp_tol", "length_cap"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive, got {value!r}")
        if self.sample_dt is not None and not self.sample_dt > 0.0:
            raise ValueError(f"sample_dt must be positive, got {self.sample_dt!r}")


@dataclass(frozen=True)
class CuspReport:
    """Geometry summary at one conformal factor."""

    boundary: np.ndarray
    max_boundary: float
    min_edge: float
    max_edge: float
    max_arc: float


@dataclass
class TraceTable:
    """Column-oriented trace rows: (t, w, B, S, min edge, max arc)."""

    times: np.ndarray
    factors: np.ndarray
    lengths: np.ndarray
    sum_sq: np.ndarray
    min_edge: np.ndarray
    max_arc: np.ndarray

    def __len__(self):
        return len(self.times)


@dataclass
class FlowTrace:
    """Accepted integrator steps at full resolution plus the interpolated
    sample grid; monotonicity statements hold at the accepted steps (the
    linear interpolation used for sampling need not preserve them)."""

    accepted: TraceTable
    sampled: TraceTable
    stop_reason: str
    error_estimate: float
    rhs_evaluations: int = field(default=0)


def cusp_report(tri, l0, w):
    """Pure diagnostics of the rescaled geometry at w; DomainError outside
    the domain, ValueError on a non-finite factor."""
    geometry = surface_geometry(tri, l0, w)
    min_edge, max_edge, max_arc = _geometry_extremes(geometry)
    return CuspReport(
        boundary=geometry.boundary,
        max_boundary=float(np.max(geometry.boundary)),
        min_edge=min_edge,
        max_edge=max_edge,
        max_arc=max_arc,
    )


def _geometry_extremes(geometry):
    """(shortest edge, longest edge, longest arc) of a SurfaceGeometry."""
    lengths = geometry.edge_lengths
    return float(lengths.min()), float(lengths.max()), float(geometry.arcs.max())


def _rk4(f, w, h, k1=None):
    if k1 is None:
        k1 = f(w)
    k2 = f(w + (0.5 * h) * k1)
    k3 = f(w + (0.5 * h) * k2)
    k4 = f(w + h * k3)
    return w + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_flow(tri, l0, opts):
    """Integrate the flow from w = 0 and return its trace.

    Positivity of B keeps every stage point admissible, so a domain
    violation mid-run indicates an integrator defect and raises
    DomainError rather than being treated as bad input.  The error
    estimate per step is the step-doubling difference scaled by 1/15.
    """
    check = in_domain(tri, l0, np.zeros(tri.n_boundaries))
    if not check.ok:  # pragma: no cover - a positive metric always admits 0
        raise DomainError("base metric rejected its own zero factor")

    evaluations = 0

    def rhs(w):
        nonlocal evaluations
        evaluations += 1
        return boundary_lengths(tri, l0, w)

    def accepted_geometry(w):
        nonlocal evaluations
        evaluations += 1
        return surface_geometry(tri, l0, w)

    n = tri.n_boundaries
    t = 0.0
    w = np.zeros(n)
    geometry = accepted_geometry(w)
    B = geometry.boundary
    if not opts.cusp_tol < np.max(B):
        raise ValueError(
            f"cusp_tol {opts.cusp_tol!r} must lie below the initial max "
            f"boundary length {float(np.max(B))!r}"
        )

    rows_t = [0.0]
    rows_w = [w.copy()]
    rows_B = [B.copy()]
    extremes = _geometry_extremes(geometry)
    rows_min_edge = [extremes[0]]
    rows_max_arc = [extremes[2]]

    h = min(0.1 / float(np.max(B)), opts.t_end)
    err_prev = 1.0
    total_err = 0.0
    stop_reason = "t_end"

    while True:
        remaining = opts.t_end - t
        if remaining <= 1e-12 * opts.t_end:
            break
        h_try = min(h, remaining)
        if h_try < 1e-13 * max(1.0, abs(t)):
            raise ConvergenceError(f"step size underflow at t = {t!r} (h = {h_try!r})")
        w_big = _rk4(rhs, w, h_try, k1=B)
        w_mid = _rk4(rhs, w, 0.5 * h_try, k1=B)
        w_fine = _rk4(rhs, w_mid, 0.5 * h_try)
        scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(w), np.abs(w_fine))
        err = float(np.max(np.abs(w_fine - w_big) / scale)) / 15.0
        if err <= 1.0:
            t += h_try
            w = w_fine
            geometry = accepted_geometry(w)
            B = geometry.boundary
            total_err += err * float(np.max(scale))
            rows_t.append(t)
            rows_w.append(w.copy())
            rows_B.append(B.copy())
            min_edge, _, max_arc = _geometry_extremes(geometry)
            rows_min_edge.append(min_edge)
            rows_max_arc.append(max_arc)
            if float(np.max(B)) < opts.cusp_tol:
                stop_reason = "cusp_tol"
                break
            if min_edge > opts.length_cap:
                stop_reason = "length_cap"
                break
            grow = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 0.0 else 5.0
            h = h_try * min(5.0, max(0.2, grow))
            err_prev = max(err, 1e-10)
        else:
            h = h_try * max(0.1, 0.9 * err ** -0.2)

    accepted = TraceTable(
        times=np.array(rows_t),
        factors=np.array(rows_w),
        lengths=np.array(rows_B),
        sum_sq=np.array([float(np.dot(b, b)) for b in rows_B]),
        min_edge=np.array(rows_min_edge),
        max_arc=np.array(rows_max_arc),
    )
    sampled = _sample(tri, l0, accepted, opts.sample_dt or float(accepted.times[-1]) / 100.0)
    return FlowTrace(
        accepted=accepted,
        sampled=sampled,
        stop_reason=stop_reason,
        error_estimate=total_err,
        rhs_evaluations=evaluations,
    )


def _sample(tri, l0, accepted, sample_dt):
    """Linear interpolation of w on the sample grid, with the geometry
    (B, shortest edge, longest arc) recomputed at each interpolated factor."""
    t_last = float(accepted.times[-1])
    grid = list(np.arange(0.0, t_last, sample_dt))
    if not grid or grid[-1] < t_last:
        grid.append(t_last)
    times = np.array(grid)
    factors = np.empty((len(times), accepted.factors.shape[1]))
    for col in range(accepted.factors.shape[1]):
        factors[:, col] = np.interp(times, accepted.times, accepted.factors[:, col])
    lengths = np.empty_like(factors)
    min_edge = np.empty(len(times))
    max_arc = np.empty(len(times))
    for r in range(len(times)):
        geometry = surface_geometry(tri, l0, factors[r])
        lengths[r] = geometry.boundary
        min_edge[r], _, max_arc[r] = _geometry_extremes(geometry)
    return TraceTable(
        times=times,
        factors=factors,
        lengths=lengths,
        sum_sq=np.einsum("ij,ij->i", lengths, lengths),
        min_edge=min_edge,
        max_arc=max_arc,
    )


def trace_csv(table, n_boundaries):
    """Render a trace table in the fixed CSV layout
    t,S,minLen,maxArc,w_1..w_n,B_1..B_n with 17 significant digits."""
    header = (
        ["t", "S", "minLen", "maxArc"]
        + [f"w_{i}" for i in range(1, n_boundaries + 1)]
        + [f"B_{i}" for i in range(1, n_boundaries + 1)]
    )
    lines = [",".join(header)]
    for r in range(len(table)):
        cells = [
            table.times[r],
            table.sum_sq[r],
            table.min_edge[r],
            table.max_arc[r],
            *table.factors[r],
            *table.lengths[r],
        ]
        lines.append(",".join(f"{c:.17g}" for c in cells))
    return "\n".join(lines) + "\n"
