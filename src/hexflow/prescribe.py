"""Damped Newton solver for prescribed boundary lengths.

For every strictly positive target vector there is exactly one admissible
conformal factor whose boundary lengths match it: the target is the
gradient of the strictly concave objective

    G(w) = total_energy(w) - <target, w>,

so solving B(w) = target means maximizing G.  The iteration solves
H(w) d = target - B(w) with the (negative-definite) boundary Jacobian H
by one LAPACK ``solve`` of numpy's.  The step is taken only where it
ascends G, at a positive and finite slope <B - target, d>; where H is
numerically singular or not definite (as at the domain wall, or where B
and H underflow) the solve stops there.  Otherwise the iteration
backtracks until the trial point is safely admissible and the merit
satisfies an Armijo increase.
Since the gradient of G is B - target, the merit change along a step is
the line integral

    G(w + alpha d) - G(w) = int_0^alpha <B(w + s d) - target, d> ds,

evaluated by a fixed Gauss-Legendre rule.  It never subtracts two large
energy totals, so the test stays meaningful down to the final residuals.
A trial step is one batched kernel call (:func:`._trial_rows`) on the
rule's nodes plus the trial point itself, and the only kernel pass of
an iteration.  It forms the slacks of its rows once, rejects a trial
point within the cushion from them before any arc is formed, and hands
them to the kernel blocks, which check them as every evaluator does.
Once the step is accepted, the trial point's row is B at the next
iterate, and its row of the slack table gives H there
(:func:`._jacobian`, the assembly of :func:`.boundary_jacobian`, bit
for bit); only a Newton step from the start calls
:func:`.boundary_jacobian` itself.

From the default start w = 0, iteration 1 first tries a jump rather than
a Newton step.  For long edges B_k ~ K_k e^(-2 w_k), the tail the flow
follows to its cusp limit (:func:`.flow_limit`), so each component's
factor is near 1/2 ln(K_k / target_k) once that is large; the jump is
d = max(0, 1/2 ln(K / target)).  It is tried when its slope
<B(0) - target, d> is positive, as one trial at alpha = 1 under the same
Armijo test, and taken if it passes: then B and H at w = d come from its
kernel pass, and no H is assembled or solved at w = 0.  Otherwise
iteration 1 is the Newton step from w = 0.  A caller's ``start`` is used
as given, and every iteration from it is a Newton step.
"""

import math
import numbers
from dataclasses import dataclass, field
from typing import List

import numpy as np
import scipy  # noqa: F401 - on the path of sites the tracer in bench/tracing.py wraps

from .conformal import (
    _factor,
    _jacobian,
    _tail_coefficients,
    _trial_rows,
    boundary_jacobian,
    boundary_lengths,
)
from .energy import total_energy
from .errors import ConvergenceError


# Line search: backtracking factor, smallest step scale tried, strict
# interior cushion (on e^(w_a+w_b) cosh(l0/2) - 1) and Armijo parameter.
_BACKTRACK = 0.5
_MIN_STEP = 1e-9
_MARGIN = 1e-12
_ARMIJO = 1e-4


@dataclass(frozen=True)
class SolveOptions:
    """Newton controls: the tolerance, positive and finite, and the
    iteration cap, an integer >= 1.  A solve has converged when every
    |B_i(w) - target_i| <= grad_tol * min(1, target_i): an absolute test
    for targets of at least 1, a relative one below."""

    grad_tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        if not (math.isfinite(self.grad_tol) and self.grad_tol > 0.0):
            raise ValueError(f"grad_tol must be positive and finite, got {self.grad_tol!r}")
        if not (isinstance(self.max_iter, numbers.Integral) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass
class SolveResult:
    """Outcome of :func:`solve_prescribed`.  ``iterations`` counts the
    accepted steps, the jump of iteration 1 included; iterate 0 is the
    start.  ``objective_trace[k]`` is the merit G(w_k) = total_energy(w_k)
    - <target, w_k> at iterate k (0.0 at the default start, without
    quadrature) and ``residual_trace[k]`` is the absolute residual
    |B(w_k) - target|_inf, of which ``residual`` is the last;
    ``converged`` is the componentwise test of :class:`SolveOptions`."""

    factors: np.ndarray
    iterations: int
    residual: float
    objective_trace: List[float] = field(default_factory=list)
    residual_trace: List[float] = field(default_factory=list)
    converged: bool = True


# Nodes and weights on [-1, 1] of the 8-point Gauss-Legendre rule that
# integrates the merit change, the values of numpy's leggauss(8) written out
# as shortest round-trip floats, so that no command imports numpy.polynomial;
# and the points of one trial step as fractions of its length: the nodes
# mapped to [0, 1], then the trial point itself.
_GL_NODES = np.array([
    -0.9602898564975362, -0.7966664774136267, -0.525532409916329, -0.18343464249564978,
    0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362,
])
_GL_WEIGHTS = np.array([
    0.10122853629037706, 0.22238103445337443, 0.3137066458778869, 0.36268378337836166,
    0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706,
])
_GL_POINTS = np.append(0.5 * (1.0 + _GL_NODES), 1.0)


def _merit_gain(tri, l0, target, w, step, alpha):
    """None when the trial point w + alpha step lies within the cushion
    (expm1 of its least slack at most _MARGIN); otherwise
    (G(w + alpha step) - G(w), B(w + alpha step), the terms of H there).
    The gain integrates <B - target, step> along the segment, and the trial
    point is the last row of the same kernel call; both endpoints are
    admissible, so every node is."""
    rows = _trial_rows(tri, l0, w + (alpha * _GL_POINTS)[:, None] * step, _MARGIN)
    if rows is None:
        return None
    B, jacobian = rows
    gain = 0.5 * alpha * float(_GL_WEIGHTS @ ((B[:-1] - target) @ step))
    return gain, B[-1], jacobian


def _newton_step(H, grad):
    """The step d with -H d = grad, by numpy's LAPACK ``solve``.  None
    where d is no ascent direction of the merit: where the solve finds H
    singular, or the slope <grad, d> is not positive and finite (a step
    with an inf or NaN has no finite slope), as near the domain wall or
    where H has underflowed.  Leaves H and grad as they are; raises
    ValueError if H is not finite."""
    if not np.isfinite(H).all():
        raise ValueError("boundary Jacobian must not contain infs or NaNs")
    try:
        step = np.linalg.solve(-H, grad)
    except np.linalg.LinAlgError:
        return None
    return step if 0.0 < float(grad @ step) < math.inf else None


def _armijo_trial(tri, l0, target, w, step, slope, alpha):
    """:func:`_merit_gain`'s trial at w + alpha step when it gains at least
    _ARMIJO alpha slope, else None."""
    trial = _merit_gain(tri, l0, target, w, step, alpha)
    return trial if trial is not None and trial[0] >= _ARMIJO * alpha * slope else None


def solve_prescribed(tri, l0, target, opts=None, start=None):
    """Find the unique admissible factor w with boundary lengths equal to
    ``target`` (componentwise positive).

    Starts from w = 0 (always admissible), where iteration 1 first tries
    the jump to the flow's asymptote max(0, 1/2 ln(K / target)) and takes
    the Newton step only if the jump fails the line-search test.  A
    caller's ``start`` is used as given, and every iteration from it is a
    Newton step.  Raises ConvergenceError with ``partial`` set when the
    iteration cap is reached, the line search fails, or the Newton step is
    no ascent direction (``no ascent step at iteration k``: H singular to
    working precision, as at a base metric next to the domain wall or
    where B and H underflow on very long edges); extreme targets (for
    example near zero, which push w towards infinity) exist in principle
    but may exhaust the cap.
    """
    opts = opts or SolveOptions()
    target = _factor(tri, target, "target")
    if not np.all(np.isfinite(target) & (target > 0.0)):
        raise ValueError("target must be strictly positive")

    if start is None:
        w = np.zeros(tri.n_boundaries)
    else:
        w = _factor(tri, start, "start").copy()
        if not np.all(np.isfinite(w)):
            raise ValueError("start must be finite")
    tolerance = opts.grad_tol * np.minimum(1.0, target)
    grad = boundary_lengths(tri, l0, w) - target  # gradient of G
    jacobian = None  # the terms of H at w, from the accepted trial's kernel call
    objective = [total_energy(tri, l0, w) - float(target @ w)]
    residuals = []

    def result(iteration, converged=False):
        return SolveResult(w, iteration, residuals[-1], objective, residuals, converged)

    for iteration in range(opts.max_iter + 1):
        error = np.abs(grad)
        residuals.append(float(error.max()))
        if np.all(error <= tolerance):
            return result(iteration, converged=True)
        if iteration == opts.max_iter:
            raise ConvergenceError(
                f"no convergence in {opts.max_iter} iterations (residual {residuals[-1]:.3e})",
                partial=result(iteration),
            )

        trial = None
        if iteration == 0 and start is None:
            # The jump to the flow's asymptote, tried only where it ascends
            # G at a finite slope; a component whose K underflows to 0 takes
            # none.
            with np.errstate(divide="ignore"):
                step = np.maximum(0.0, 0.5 * (np.log(_tail_coefficients(tri, l0)) - np.log(target)))
            slope, alpha = float(grad @ step), 1.0
            if 0.0 < slope < math.inf:
                trial = _armijo_trial(tri, l0, target, w, step, slope, alpha)
        if trial is None:
            H = boundary_jacobian(tri, l0, w) if jacobian is None else _jacobian(*jacobian)
            step = _newton_step(H, grad)  # H step = target - B
            if step is None:
                raise ConvergenceError(
                    f"no ascent step at iteration {iteration} (residual {residuals[-1]:.3e})",
                    partial=result(iteration),
                )
            slope, alpha = float(grad @ step), 1.0
            while (trial := _armijo_trial(tri, l0, target, w, step, slope, alpha)) is None:
                alpha *= _BACKTRACK
                if alpha < _MIN_STEP:
                    raise ConvergenceError(
                        f"line search failed at iteration {iteration} (residual {residuals[-1]:.3e})",
                        partial=result(iteration),
                    )

        gain, B, jacobian = trial
        w, grad = w + alpha * step, B - target
        objective.append(objective[-1] + gain)
