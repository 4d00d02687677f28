"""Boundary-length gradient flow dw_i/dt = B_i(t), w(0) = 0.

Every B_i is positive, so the factors increase monotonically and stay
admissible; the flow exists for all time, the squared-length sum
S = sum_i B_i^2 decreases strictly, the total energy increases strictly,
and every boundary length tends to zero while the edges stretch without
bound (each hexagon degenerates toward an ideal triangle).  A numerical
run therefore cuts off by a boundary-length threshold or an edge-length
cap rather than by reaching the limit.

The stepper is the embedded Dormand-Prince 5(4) pair (Dormand & Prince,
J. Comput. Appl. Math. 6 (1980)) with PI step-size control, run in the
scaled log time tau = ln(1 + r t) on dw/dtau = (e^tau / r) B(w).  The rate
r = max_i B_i(0) is the fastest initial rate, so 1/r is the surface's own
time scale and B changes on a scale of order one in tau from the first
step on.  Along the flow w drifts like (1/2) ln t (see :func:`flow_limit`),
which is smooth in tau, so steps in tau stay long where steps in t would
have to grow without bound.  Each stage right-hand side is one call of
the array kernel :func:`.boundary_lengths`.  The last stage is one kernel
call at the trial point that also reads the shortest edge (from the least
edge slack) and the longest arc, as one row of :func:`.geometry_rows`; it
gives the error estimate, the first stage of the next step ("first same
as last") and, once the step is accepted, the recorded geometry.  It
counts as one right-hand-side evaluation, so an attempted step costs six.
The samples come from each accepted step's 4th-order dense output, and
their geometry is one batched kernel call (:func:`.geometry_rows`) over
all sampled factors.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .conformal import _compiled, _geometry_row, boundary_lengths, geometry_rows, in_domain, surface_geometry
from .conformal import edge_length, face_sides  # noqa: F401 - sites the tracer in bench/tracing.py wraps
from .errors import ConvergenceError, DomainError
from .hexagon import hexagon_arcs  # noqa: F401 - a site the tracer in bench/tracing.py wraps

# The Dormand-Prince 5(4) tableau and its 4th-order dense output, the
# values of scipy.integrate.RK45 (a test checks them).  They are written
# out because importing scipy.integrate adds ~23 MiB to a process; the
# driver is our own because RK45 clamps rel_tol at 100 eps (with a
# warning) and measures the error in an RMS norm.
_C = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
])
_B = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


@dataclass(frozen=True)
class FlowOptions:
    """Stopping and accuracy controls for :func:`integrate_flow`.

    The run stops at ``t_end``, or earlier once max_i B_i < ``cusp_tol``
    or the shortest edge exceeds ``length_cap`` (kept below the cosh
    overflow threshold near 710).  ``sample_dt`` spaces the sampled trace
    grid; None picks a hundredth of the final time.
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
    """Accepted integrator steps at full resolution plus the sample grid,
    whose factors come from each step's 4th-order dense output;
    monotonicity statements hold at the accepted steps (the dense output
    need not preserve them between steps)."""

    accepted: TraceTable
    sampled: TraceTable
    stop_reason: str
    error_estimate: float
    rhs_evaluations: int = field(default=0)


def cusp_report(tri, l0, w):
    """Pure diagnostics of the rescaled geometry at w; DomainError outside
    the domain, ValueError on a non-finite factor."""
    geometry = surface_geometry(tri, l0, w)
    lengths = geometry.edge_lengths
    return CuspReport(
        boundary=geometry.boundary,
        max_boundary=float(np.max(geometry.boundary)),
        min_edge=float(lengths.min()),
        max_edge=float(lengths.max()),
        max_arc=float(geometry.arcs.max()),
    )


def flow_limit(tri, l0):
    """Long-time limit of the flow: (K, c) with c = (1/2) ln(2K).

    For long sides the arc at corner k is e^(-2 w_k) lambda_opp /
    (lambda_adj lambda_adj'), with lambda_e = cosh(l0_e / 2) (Penner's
    horocyclic arcs for the lambda-lengths lambda_e), so B_k ~ K_k e^(-2 w_k)
    with K_k the sum of these ratios over the corners at k.  Hence along the
    flow w_k(t) = (1/2) ln(2 K_k t) + o(1) = c_k + (1/2) ln t + o(1), and
    t B_k(t) -> 1/2.
    """
    compiled = _compiled(tri, l0)
    log_lam = compiled.log_cosh0[compiled.table[:3]]
    ratios = np.exp(2.0 * log_lam - log_lam.sum(axis=0))
    K = np.bincount(compiled.corners, weights=ratios.ravel(), minlength=tri.n_boundaries)
    return K, 0.5 * np.log(2.0 * K)


def _table(times, factors, lengths, min_edge, max_arc):
    """A TraceTable from its columns: B, shortest edge and longest arc per row."""
    lengths = np.array(lengths)
    return TraceTable(
        times=np.array(times),
        factors=np.array(factors),
        lengths=lengths,
        sum_sq=np.einsum("ij,ij->i", lengths, lengths),
        min_edge=np.array(min_edge),
        max_arc=np.array(max_arc),
    )


def integrate_flow(tri, l0, opts):
    """Integrate the flow from w = 0 and return its trace.

    Positivity of B keeps the flow admissible, and on a step short
    enough for the error test every stage point lies above w (the pair
    has negative weights, but they cancel to first order), so a domain
    violation mid-run indicates an integrator defect and raises
    DomainError rather than being treated as bad input.  The error
    estimate per step is the difference of the embedded 5th- and
    4th-order solutions; the 5th-order one is kept.
    """
    check = in_domain(tri, l0, np.zeros(tri.n_boundaries))
    if not check.ok:  # pragma: no cover - a positive metric always admits 0
        raise DomainError("base metric rejected its own zero factor")

    evaluations = 0

    def rhs(w):
        nonlocal evaluations
        evaluations += 1
        return boundary_lengths(tri, l0, w)

    def geometry_at(w):
        nonlocal evaluations
        evaluations += 1
        return _geometry_row(tri, l0, w)

    n = tri.n_boundaries
    tau = t = 0.0
    w = np.zeros(n)
    row = geometry_at(w)
    B = row[0]
    rate = float(np.max(B))
    if not opts.cusp_tol < rate:
        raise ValueError(
            f"cusp_tol {opts.cusp_tol!r} must lie below the initial max "
            f"boundary length {rate!r}"
        )
    times, factors, rows = [0.0], [w], [row]
    # (tau, h, w, h K^T P) of each accepted step: its dense output.
    steps = []
    # Stage slopes dw/dtau = (e^tau / r) B; row 0 is the FSAL row.
    K = np.empty((7, n))
    K[0] = B / rate
    tau_end = math.log1p(rate * opts.t_end)
    h = min(0.1, tau_end)
    err_prev = 1.0
    total_err = 0.0
    stop_reason = "t_end"

    while True:
        remaining = tau_end - tau
        if remaining <= 1e-12 * tau_end:
            break
        h_try = min(h, remaining)
        if h_try < 1e-13 * max(1.0, tau):
            raise ConvergenceError(
                f"step size underflow at t = {t!r} (h = {h_try!r} in ln(1 + r t), "
                f"r = {rate!r})"
            )
        for s in range(1, 6):
            K[s] = math.exp(tau + _C[s] * h_try) / rate * rhs(w + h_try * (_A[s, :s] @ K[:s]))
        w_new = w + h_try * (_B @ K[:6])
        trial = geometry_at(w_new)
        K[6] = math.exp(tau + h_try) / rate * trial[0]
        scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(w), np.abs(w_new))
        err = float(np.max(np.abs(h_try * (_E @ K)) / scale))
        if err <= 1.0:
            steps.append((tau, h_try, w, h_try * (K.T @ _P)))
            landing = h_try == remaining
            tau = tau_end if landing else tau + h_try
            t = opts.t_end if landing else math.expm1(tau) / rate
            w, B = w_new, trial[0]
            K[0] = K[6]
            total_err += err * float(np.max(scale))
            times.append(t)
            factors.append(w)
            rows.append(trial)
            if float(np.max(B)) < opts.cusp_tol:
                stop_reason = "cusp_tol"
                break
            if rows[-1][1] > opts.length_cap:
                stop_reason = "length_cap"
                break
            grow = 0.9 * err ** -0.14 * err_prev ** 0.08 if err > 0.0 else 5.0
            h = h_try * min(5.0, max(0.2, grow))
            err_prev = max(err, 1e-10)
        else:
            h = h_try * max(0.1, 0.9 * err ** -0.2)

    return FlowTrace(
        accepted=_table(times, factors, *zip(*rows)),
        sampled=_sample(tri, l0, steps, rate, t, opts.sample_dt or t / 100.0),
        stop_reason=stop_reason,
        error_estimate=total_err,
        rhs_evaluations=evaluations,
    )


def _sample(tri, l0, steps, rate, t_last, sample_dt):
    """The factors on the sample grid from the dense output of the accepted
    step holding each sample time (steps in tau = ln(1 + rate t)), with the
    geometry (B, shortest edge, longest arc) recomputed at the sampled
    factors."""
    grid = list(np.arange(0.0, t_last, sample_dt))
    if not grid or grid[-1] < t_last:
        grid.append(t_last)
    times = np.array(grid)
    step_tau, step_h, step_w, step_hq = (np.array(column) for column in zip(*steps))
    tau = np.log1p(rate * times)
    k = np.clip(np.searchsorted(step_tau, tau, side="right") - 1, 0, len(steps) - 1)
    theta = (tau - step_tau[k]) / step_h[k]
    factors = step_w[k] + np.einsum("snj,sj->sn", step_hq[k], theta[:, None] ** np.arange(1, 5))
    return _table(times, factors, *geometry_rows(tri, l0, factors))


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
