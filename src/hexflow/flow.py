"""Boundary-length gradient flow dw_i/dt = B_i(t), w(0) = 0.

Every B_i is positive, so the factors increase monotonically and stay
admissible; the flow exists for all time, the squared-length sum
S = sum_i B_i^2 decreases strictly, the total energy increases strictly,
and every boundary length tends to zero while the edges stretch without
bound (each hexagon degenerates toward an ideal triangle).  A numerical
run therefore cuts off by a boundary-length threshold or an edge-length
cap rather than by reaching the limit.

The stepper is the embedded DOP853 8(5,3) pair (Hairer, Norsett & Wanner,
Solving Ordinary Differential Equations I, Sec. II.10) under the step-size
control of scipy's DOP853, run in the scaled log time tau = ln(1 + r t)
on dw/dtau = (e^tau / r) B(w).  The rate r = max_i B_i(0) is the fastest
initial rate, so 1/r is the surface's own time scale and B changes on a
scale of order one in tau from the first step on.  Along the flow w drifts
like (1/2) ln t (see :func:`flow_limit`), which is smooth in tau, so steps
in tau stay long where steps in t would have to grow without bound, and
the 8th-order pair takes about a third of the steps of a 5th-order one at
the default tolerance.  The first step comes from one probe evaluation of
how fast the slope changes at w = 0 and is sized to pass the error test.
Each stage right-hand side is one call of the array kernel
:func:`.boundary_lengths`.  The last stage is one kernel call at the trial
point that also reads the shortest edge (from the least edge slack) and
the longest arc, as one row of :func:`.geometry_rows`; it gives the error
estimate, the first stage of the next step ("first same as last") and,
once the step is accepted, the recorded geometry.  It counts as one
right-hand-side evaluation, so an attempted step costs twelve.

A step with a stage or trial point outside the domain was too long (the
exact flow only moves inwards) and is rejected like one that fails the
error test, as is a last step whose extra dense-output stages, crossing
search or trace samples leave the domain.

The run ends at the crossing of its stop, not at the first step past it:
inside the last step, the point where max B reaches cusp_tol (or the
shortest edge reaches length_cap) is found on the step's 7th-order dense
output, starting from the regula falsi point of the distances to the stop
measured at the step's two ends, one kernel call per iterate, and
replaces the step's end as the last accepted row.

The samples come from the 7th-order dense output of the accepted steps
that hold a sample time, but for the last, which is the run's end.  They
are taken once, when the last step is checked.  The three extra stages
cost a right-hand-side evaluation per row: single kernel calls in the
last step, one batched call each over the other steps that hold a
sample.  The geometry of all samples is one batched call too
(:func:`.geometry_rows`).
"""

import io
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .conformal import (
    _geometry_row,
    _tail_coefficients,
    boundary_lengths,
    geometry_rows,
    in_domain,
    surface_geometry,
)
from .conformal import edge_length, face_sides  # noqa: F401 - sites the tracer in bench/tracing.py wraps
from .errors import ConvergenceError, DomainError
from .hexagon import hexagon_arcs  # noqa: F401 - a site the tracer in bench/tracing.py wraps

# The most sample times a trace holds (rows of the sampled table and CSV);
# a finer sample_dt is refused rather than allowed to exhaust memory.
_MAX_SAMPLES = 10**6

# Step-size control of scipy.integrate.DOP853 (Hairer, Norsett & Wanner,
# Sec. II.4; a test checks them against scipy): a step with error err is
# followed by one SAFETY err^EXPONENT times as long, by a factor within
# [MIN_FACTOR, MAX_FACTOR], and a step accepted right after a rejection
# does not grow.  EXPONENT is -1 / (7 + 1), 7 the order of the estimate.
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_EXPONENT = -1.0 / 8.0

# A cusp or length-cap stop lands where ln(max B / cusp_tol) or
# ln(length_cap / shortest edge) lies in [-_CROSSING_TOL, 0), at most
# _CROSSING_ITERATIONS kernel calls in.
_CROSSING_TOL = 5e-10
_CROSSING_ITERATIONS = 60

# The DOP853 8(5,3) pair of Hairer, Norsett & Wanner (Solving Ordinary
# Differential Equations I, Sec. II.10), the values of scipy.integrate.DOP853
# (a test checks them bit for bit).  They are written out because importing
# scipy.integrate adds ~23 MiB to a process; the driver is our own because
# DOP853 clamps rel_tol at 100 eps (with a warning) and measures the error in
# an RMS norm.  Row s of _A holds a_s0 .. a_s(s-1), a continued line
# indented further: rows 1-11 are the stages of a step, row 12 the 8th-order
# weights (its point is the FSAL stage) and rows 13-15 the extra stages of
# the 7th-order dense output.
_A = np.zeros((16, 16))
_A[np.tril_indices(16, -1)] = [
    0.05260015195876773,
    0.0197250569845379, 0.0591751709536137,
    0.02958758547680685, 0, 0.08876275643042054,
    0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792,
    0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242,
    0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596, -0.017578125,
    0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
        0.008273789163814023,
    0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
        20.154067550477894, -43.48988418106996,
    0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
        15.279233632882423, -33.28821096898486, -0.020331201708508627,
    -0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
        -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196,
    2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
        27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
        0.6433927460157636,
    0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
        0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
    0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483, -0.2462390374708025,
        -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
        -0.008298,
    0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776, 0.053541988307438566,
        -0.05492374857139099, 0, 0, -0.00010834732869724932, 0.0003825710908356584,
        -0.00034046500868740456, 0.1413124436746325,
    -0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
        0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987,
]
_B = _A[12, :12]
_C = np.array([
    0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0, 1.0, 0.1, 0.2, 0.7777777777777778,
])
# The 5th- and 3rd-order error weights over stages 0-12.
_E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0,
])
_E3 = np.array([
    -0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0,
])
# Dense-output weights over stages 0-15: the last four of its seven
# coefficient rows.
_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
])


@dataclass(frozen=True)
class FlowOptions:
    """Stopping and accuracy controls for :func:`integrate_flow`.

    The run stops at ``t_end``, or earlier where max_i B_i first drops
    below ``cusp_tol`` or the shortest edge first exceeds ``length_cap``
    (which may lie past 710: no cosh of an edge length is formed).
    ``t_end`` is a normal float and ``rel_tol`` lies below 1;
    :func:`integrate_flow` refuses a ``cusp_tol`` not below max B(0) and a
    ``length_cap`` not above the shortest edge at t = 0.  ``sample_dt``
    spaces the sampled trace grid (at most ``_MAX_SAMPLES`` times); None
    picks a hundredth of the final time.
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
        # A subnormal t_end has too few digits for the sample grid, whose
        # default spacing t_end / 100 may round to 0.
        if self.t_end < sys.float_info.min:
            raise ValueError(f"t_end must be at least {sys.float_info.min!r}, got {self.t_end!r}")
        # The first-step probe forms exp(sqrt(rel_tol)).
        if not self.rel_tol < 1.0:
            raise ValueError(f"rel_tol must lie below 1, got {self.rel_tol!r}")
        if self.sample_dt is not None and not (math.isfinite(self.sample_dt) and self.sample_dt > 0.0):
            raise ValueError(f"sample_dt must be positive and finite, got {self.sample_dt!r}")


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
    whose factors come from each step's 7th-order dense output;
    monotonicity statements hold at the accepted steps (the dense output
    need not preserve them between steps).  A run stopped by ``cusp_tol``
    or ``length_cap`` ends at the crossing: its last accepted row is the
    point inside the last step where the stop first holds (max B within
    5e-10 relative below cusp_tol, or the shortest edge as close above
    length_cap).  Whatever the stop, the last sampled row is the last
    accepted row, bit for bit.  No accepted row, and no sample, lies
    outside the domain: a step with such a point is rejected and retried
    shorter (see :func:`integrate_flow`).  ``rhs_evaluations`` counts the
    kernel evaluations of B that advance the flow: the first-step probe,
    every stage and trial point, each row of the extra dense-output
    stages and each iterate of the crossing search, rejected steps
    included, but not the sampled geometry."""

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
    K = _tail_coefficients(tri, l0)
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

    Positivity of B keeps the exact flow admissible: w only grows from
    w = 0, and every w >= 0 is admissible.  A step with a point outside
    the domain was therefore too long, however loose the tolerance: its
    error counts as infinite, so it fails the error test and the next try
    is _MIN_FACTOR times as long.  The points are a stage or the trial
    point of any step, and for the last step (the one that lands on t_end
    or passes a stop) also its extra dense-output stages, an iterate of
    its crossing search, an extra dense-output stage of an earlier step
    that holds a sample, or any sample of the trace (the dense output at
    a sample time, the end itself at the last, so that the last sampled
    row is the last accepted one).  The error per component
    is |e5|^2 / hypot(e5, e3 / 10) from the embedded 5th- and 3rd-order
    estimates (as in DOP853), in the max norm; the 8th-order solution is
    kept.  Where e^tau overflows (t_end near the largest float), e^tau / r
    is formed as e^(tau - ln r).  Raises ConvergenceError where every
    B_i(0) underflows to 0 (base edges of about 1490 and longer), so that
    the rate r = max B(0) is 0 and no cusp_tol lies below it.
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

    def stages(K, rows, tau, h, w):
        """Stage slopes dw/dtau = (e^tau / r) B of the given rows of _A into K."""
        for s in rows:
            K[s] = _scaled_exp(tau + _C[s] * h, rate) * rhs(w + h * (_A[s, :s] @ K[:s]))

    def stage_rows(w):
        nonlocal evaluations
        evaluations += len(w)
        return geometry_rows(tri, l0, w)

    def finish(tau0, h, w0, w1, t, start, end):
        """The end of the run inside its last step (tau0 to tau0 + h, w0
        to w1, stages 0-12 in K; t the time at its end, start and end the
        geometry rows at its ends): fills in stages 13-15, lands a stop
        on its crossing and samples the run.  Returns the end's (t, w,
        geometry row) and the sampled table.  DomainError where a stage,
        crossing iterate or sample leaves the domain."""
        stages(K, range(13, 16), tau0, h, w0)
        coefficients = _coefficients(h, w0, w1, K)

        def measured(x):
            w = _interpolate(w0, coefficients, x)
            return w, geometry_at(w)

        w, row = w1, end
        if _stopped(end, opts):
            found = _crossing(measured, start, end, opts)
            if found is not None:
                x, w, row = found
                t = _time(tau0 + x * h, rate)
        sampled = _sample(tri, l0, [*steps, (tau0, h, w0, w1, K)], rate, _grid(t, opts.sample_dt), w, stage_rows)
        return (t, w, row), sampled

    n = tri.n_boundaries
    tau = t = 0.0
    w = np.zeros(n)
    row = geometry_at(w)
    B = row[0]
    rate = float(np.max(B))
    if rate == 0.0:
        raise ConvergenceError("every boundary length underflows to 0 at w = 0, so the flow has no rate")
    if not opts.cusp_tol < rate:
        raise ValueError(
            f"cusp_tol {opts.cusp_tol!r} must lie below the initial max "
            f"boundary length {rate!r}"
        )
    if not opts.length_cap > row[1]:
        raise ValueError(
            f"length_cap {opts.length_cap!r} must lie above the initial "
            f"shortest edge {row[1]!r}"
        )
    times, factors, rows = [0.0], [w], [row]
    # (tau, h, factors at both ends, stages 0-15) of each accepted step: its
    # dense output once stages 13-15 are filled in.
    steps = []
    # Stage slopes: row 0 is the FSAL row, row 12 the slope at the trial
    # point and rows 13-15 the extra stages of the dense output.
    K = np.empty((16, n))
    K[0] = B / rate
    # Where r t_end overflows, ln(1 + r t_end) is ln r + ln t_end to
    # float precision.
    rt_end = rate * opts.t_end
    tau_end = math.log1p(rt_end) if rt_end < math.inf else math.log(rate) + math.log(opts.t_end)
    # At w = 0 the error scale rel_tol |w_new| grows like h, so the first
    # step's error grows like (lam h)^7 / rel_tol, lam the relative rate at
    # which the slope changes.  One probe at h = sqrt(rel_tol) reads lam;
    # on the fixtures and on generated surfaces the error reaches 1 at
    # lam h = 0.09-0.15 for rel_tol = 1e-8, where rel_tol^(1/7) = 0.072.
    probe = math.sqrt(opts.rel_tol)
    lam = float(np.max(np.abs(math.exp(probe) / rate * rhs(probe * K[0]) / K[0] - 1.0))) / probe
    h = min(tau_end, opts.rel_tol ** (1.0 / 7.0) / lam) if lam > 0.0 else tau_end
    rejected = False
    total_err = 0.0

    while True:
        remaining = tau_end - tau
        h_try = min(h, remaining)
        # The landing step spans what is left, however short.
        landing = h_try == remaining
        if h_try < 1e-13 * max(1.0, tau) and not landing:
            raise ConvergenceError(
                f"step size underflow at t = {t!r} (h = {h_try!r} in ln(1 + r t), "
                f"r = {rate!r})"
            )
        try:
            stages(K, range(1, 12), tau, h_try, w)
            w_new = w + h_try * (_B @ K[:12])
            trial = geometry_at(w_new)
            K[12] = _scaled_exp(tau + h_try, rate) * trial[0]
            scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(w), np.abs(w_new))
            e5 = np.abs(_E5 @ K[:13])
            e3 = _E3 @ K[:13]
            denom = np.hypot(e5, 0.1 * e3)
            err = h_try * float(np.max(e5 * (e5 / np.where(denom > 0.0, denom, 1.0)) / scale))
            tau_new = tau_end if landing else tau + h_try
            t_new = opts.t_end if landing else _time(tau_new, rate)
            end = (t_new, w_new, trial)
            # The last step lands on t_end (to 1e-12 relative in tau) or lies
            # past a stop.
            last = _stopped(trial, opts) or tau_end - tau_new <= 1e-12 * tau_end
            if last and err <= 1.0:
                end, sampled = finish(tau, h_try, w, w_new, t_new, rows[-1], trial)
        except DomainError:
            err = math.inf
        if err > 1.0:
            rejected = True
            if steps or err == math.inf:
                h = h_try * max(_MIN_FACTOR, _SAFETY * err ** _EXPONENT)
            else:
                # Before the first accepted step the scale grows with h, so
                # the error falls like h^5 to h^7 rather than h^8: the retry
                # takes exponent -1/5 and no lower bound.
                h = h_try * _SAFETY * err ** -0.2
            continue
        steps.append((tau, h_try, w, w_new, K.copy()))
        total_err += err * float(np.max(scale))
        tau, (t, w, row) = tau_new, end
        times.append(t)
        factors.append(w)
        rows.append(row)
        if last:
            break
        K[0] = K[12]
        grow = min(_MAX_FACTOR, _SAFETY * err ** _EXPONENT) if err > 0.0 else _MAX_FACTOR
        h = h_try * (min(1.0, grow) if rejected else grow)
        rejected = False

    return FlowTrace(
        accepted=_table(times, factors, *zip(*rows)),
        sampled=sampled,
        stop_reason=_stopped(rows[-1], opts) or "t_end",
        error_estimate=total_err,
        rhs_evaluations=evaluations,
    )


def _scaled_exp(x, rate):
    """e^x / rate, formed as e^(x - ln rate) only where e^x overflows, so
    that runs whose e^x stays finite keep their bits."""
    try:
        return math.exp(x) / rate
    except OverflowError:
        return math.exp(x - math.log(rate))


def _time(tau, rate):
    """The time t = expm1(tau) / rate at tau = ln(1 + rate t); where e^tau
    overflows, e^tau / rate, the 1 / rate lying far below its last digit."""
    try:
        return math.expm1(tau) / rate
    except OverflowError:
        return _scaled_exp(tau, rate)


def _log_times(rate, times):
    """tau = ln(1 + rate t) of an array of times; where rate t overflows,
    ln rate + ln t, equal to float precision."""
    with np.errstate(over="ignore"):
        scaled = rate * times
    tau = np.log1p(scaled)
    far = np.isinf(scaled)
    tau[far] = math.log(rate) + np.log(times[far])
    return tau


def _stopped(row, opts):
    """The stop a geometry row (B, shortest edge, longest arc) lies past:
    "cusp_tol" where max B is below cusp_tol, else "length_cap" where the
    shortest edge is above length_cap, else None."""
    if float(np.max(row[0])) < opts.cusp_tol:
        return "cusp_tol"
    return "length_cap" if row[1] > opts.length_cap else None


def _distances(row, opts):
    """ln(max B / cusp_tol) and ln(length_cap / shortest edge) at a
    geometry row: each negative past its stop."""
    return math.log(float(np.max(row[0])) / opts.cusp_tol), math.log(opts.length_cap / row[1])


def _crossing(measured, start, end, opts):
    """(x, w, row) where the last step first passes a stop, x its fraction
    of the step, from its start (geometry row ``start``) before the stops
    to its end (row ``end``) past one: the row lies past the stop, within
    _CROSSING_TOL of it in :func:`_distances`.  None if the end row
    already does.

    ``measured(x)`` gives the factor and its geometry row (one kernel
    call).  The distance is the lesser of those to the stops the end row
    lies past, so it is smooth along the step where only one stop is
    crossed.  The first iterate is the regula falsi point of the distances
    at the two ends; each later one interpolates the last three measured
    distances by an inverse quadratic, or is an Illinois step where that
    point leaves the bracket.  Every iterate aims at the middle of the
    window, so the run converges into it from either side."""
    ends = _distances(end, opts)
    if min(ends) >= -_CROSSING_TOL:
        return None
    past = [d < 0.0 for d in ends]

    def distance(row):
        return min(d for d, p in zip(_distances(row, opts), past) if p)

    target = -0.5 * _CROSSING_TOL
    a, b = 0.0, 1.0
    fa, fb = distance(start) - target, distance(end) - target
    points = [(a, fa), (b, fb)]
    found, side = None, 0
    for _ in range(_CROSSING_ITERATIONS):
        x = (a * fb - b * fa) / (fb - fa)
        if len(points) > 2:
            (x0, f0), (x1, f1), (x2, f2) = points[-3:]
            if f0 != f1 and f1 != f2 and f2 != f0:
                y = (x0 * f1 * f2 / ((f0 - f1) * (f0 - f2)) + x1 * f0 * f2 / ((f1 - f0) * (f1 - f2))
                     + x2 * f0 * f1 / ((f2 - f0) * (f2 - f1)))
                if a < y < b:
                    x = y
        if not a < x < b:
            x = 0.5 * (a + b)
            if not a < x < b:
                break
        w, row = measured(x)
        g = distance(row)
        points.append((x, g - target))
        if g < 0.0:
            found = (x, w, row)
            if g >= -_CROSSING_TOL:
                break
            b, fb = x, g - target
            if side > 0:
                fa *= 0.5
            side = 1
        else:
            a, fa = x, g - target
            if side < 0:
                fb *= 0.5
            side = -1
    return found


def _grid(t_last, sample_dt):
    """Sample times 0, dt, 2 dt, ... below t_last, then t_last itself; dt
    defaults to t_last / 100 (101 times).  A multiple of dt within 1e-12
    relative of t_last is dropped rather than repeated in rounding;
    ValueError for more than _MAX_SAMPLES times, before any is allocated."""
    dt = sample_dt or t_last / 100.0
    count = t_last / dt * (1.0 - 1e-12)
    if not count < _MAX_SAMPLES:
        raise ValueError(f"sample_dt={dt!r} asks for {count:.3g} sample times, more than {_MAX_SAMPLES}")
    return np.append(dt * np.arange(math.ceil(count)), t_last)


def _coefficients(h, w0, w1, K):
    """Coefficient rows (..., 7, n) of the 7th-order dense output of steps
    of length h from w0 to w1 with stages K (..., 16, n): in x = (tau -
    tau0) / h, w(x) = w0 + x (F0 + (1-x) (F1 + x (F2 + (1-x) (F3 + x (F4 +
    (1-x) (F5 + x F6))))))."""
    hK = np.asarray(h)[..., None, None] * K
    dw = w1 - w0
    return np.concatenate([
        np.stack([dw, hK[..., 0, :] - dw, 2.0 * dw - hK[..., 0, :] - hK[..., 12, :]], axis=-2),
        np.einsum("ds,...sn->...dn", _D, hK),
    ], axis=-2)


def _interpolate(w0, F, x):
    """The dense output w(x) of :func:`_coefficients` F at x (broadcast
    against the rows of w0)."""
    value = F[..., 6, :]
    for d in range(5, -1, -1):
        value = F[..., d, :] + (x if d % 2 else 1.0 - x) * value
    return w0 + x * value


def _sample(tri, l0, steps, rate, times, end, stage_rows):
    """The sampled table at ``times``, the last of them the run's end at
    the factor ``end``.  The factor at each earlier time comes from the
    7th-order dense output of the accepted step that holds it, and the
    last of ``steps`` is the run's last step, with its stages 13-15
    formed.  Each extra dense-output stage of the other steps that hold a
    sample is one ``stage_rows`` call (:func:`.geometry_rows`), one row per
    step, and the sampled geometry is one :func:`.geometry_rows` call;
    DomainError where a row leaves the domain."""
    step_tau, step_h, step_w0, step_w1, step_K = (np.array(column) for column in zip(*steps))
    tau = _log_times(rate, times)
    # The end lies in the last step, though its rounded tau may not.
    index = np.append(np.searchsorted(step_tau, tau[:-1], side="right") - 1, len(steps) - 1)
    held, k = np.unique(index, return_inverse=True)
    tau0, h, w0, K = step_tau[held], step_h[held], step_w0[held], step_K[held]
    for s in range(13, 16):
        stage = w0[:-1] + h[:-1, None] * np.einsum("j,mjn->mn", _A[s, :s], K[:-1, :s])
        rates = np.array([_scaled_exp(x, rate) for x in tau0[:-1] + _C[s] * h[:-1]])
        K[:-1, s] = rates[:, None] * stage_rows(stage).boundary
    F = _coefficients(h, w0, step_w1[held], K)[k]
    factors = _interpolate(w0[k], F, ((tau - tau0[k]) / h[k])[:, None])
    factors[-1] = end
    return _table(times, factors, *geometry_rows(tri, l0, factors))


def trace_csv(table, n_boundaries):
    """Render a trace table in the fixed CSV layout
    t,S,minLen,maxArc,w_1..w_n,B_1..B_n with 17 significant digits."""
    labels = range(1, n_boundaries + 1)
    header = ",".join(["t", "S", "minLen", "maxArc", *(f"w_{i}" for i in labels), *(f"B_{i}" for i in labels)])
    columns = (table.times, table.sum_sq, table.min_edge, table.max_arc, table.factors, table.lengths)
    out = io.StringIO()
    np.savetxt(out, np.column_stack(columns), fmt="%.17g", delimiter=",", header=header, comments="")
    return out.getvalue()
