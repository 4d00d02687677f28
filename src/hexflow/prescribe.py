"""Damped Newton solver for prescribed boundary lengths.

For every strictly positive target vector there is exactly one admissible
conformal factor whose boundary lengths match it: the target is the
gradient of the strictly concave objective

    G(w) = total_energy(w) - <target, w>,

so solving B(w) = target means maximizing G.  The iteration solves
H(w) d = target - B(w) with the (negative-definite) boundary Jacobian H,
then backtracks until the trial point is safely admissible and the merit
satisfies an Armijo increase.  Since the gradient of G is B - target, the
merit change along a step is the line integral

    G(w + alpha d) - G(w) = int_0^alpha <B(w + s d) - target, d> ds,

evaluated by a fixed Gauss-Legendre rule.  It never subtracts two large
energy totals, so the test stays meaningful down to the final residuals.
"""

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np
import scipy.linalg

from .conformal import _slack, boundary_jacobian, boundary_lengths
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
    """Newton controls: residual tolerance (inf-norm on B(w) - target) and
    iteration cap."""

    grad_tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        if not self.grad_tol > 0.0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")


@dataclass
class SolveResult:
    """Outcome of :func:`solve_prescribed`.  ``objective_trace[k]`` is the
    merit G(w_k) = total_energy(w_k) - <target, w_k> at iterate k and
    ``residual_trace[k]`` is |B(w_k) - target|_inf."""

    factors: np.ndarray
    iterations: int
    residual: float
    objective_trace: List[float] = field(default_factory=list)
    residual_trace: List[float] = field(default_factory=list)
    converged: bool = True


def _interior_slack(tri, l0, w):
    """min_e (e^(w_a + w_b) cosh(l0_e/2) - 1); positive inside the domain.
    expm1 is increasing, so this is expm1 of the smallest edge slack."""
    return math.expm1(float(_slack(tri, l0, w).min()))


# Nodes and weights on [-1, 1] of the rule that integrates the merit change.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _merit_gain(tri, l0, target, w, step, alpha):
    """G(w + alpha step) - G(w), the integral of <B - target, step> along
    the segment; both endpoints admissible, so every node is."""
    half = 0.5 * alpha
    return half * sum(
        weight * float((boundary_lengths(tri, l0, w + (half * (1.0 + x)) * step) - target) @ step)
        for x, weight in zip(_GL_NODES, _GL_WEIGHTS)
    )


def solve_prescribed(tri, l0, target, opts=None, start=None):
    """Find the unique admissible factor w with boundary lengths equal to
    ``target`` (componentwise positive).

    Starts from w = 0 (always admissible) unless ``start`` overrides it.
    Raises ConvergenceError with ``partial`` set when the iteration cap is
    reached; extreme targets (for example near zero, which push w towards
    infinity) exist in principle but may exhaust the cap.
    """
    opts = opts or SolveOptions()
    target = np.asarray(target, dtype=float)
    if target.shape != (tri.n_boundaries,):
        raise ValueError(
            f"target must have one entry per boundary component "
            f"({tri.n_boundaries}), got shape {target.shape}"
        )
    if not np.all(np.isfinite(target) & (target > 0.0)):
        raise ValueError("target must be strictly positive")

    if start is None:
        w = np.zeros(tri.n_boundaries)
    else:
        w = np.array(start, dtype=float)
        if w.shape != (tri.n_boundaries,):
            raise ValueError(
                f"start must have one entry per boundary component "
                f"({tri.n_boundaries}), got shape {w.shape}"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("start must be finite")
    B = boundary_lengths(tri, l0, w)
    objective = [total_energy(tri, l0, w) - float(target @ w)]
    residuals = [float(np.max(np.abs(B - target)))]

    for iteration in range(opts.max_iter + 1):
        residual = residuals[-1]
        result = SolveResult(
            factors=w,
            iterations=iteration,
            residual=residual,
            objective_trace=objective,
            residual_trace=residuals,
            converged=residual <= opts.grad_tol,
        )
        if result.converged:
            return result
        if iteration == opts.max_iter:
            raise ConvergenceError(
                f"no convergence in {opts.max_iter} iterations (residual {residual:.3e})",
                partial=result,
            )

        H = boundary_jacobian(tri, l0, w)
        grad = B - target  # gradient of G
        try:
            # H step = target - B, via the positive-definite factor of -H.
            cho = scipy.linalg.cho_factor(-H)
            step = scipy.linalg.cho_solve(cho, grad)
        except scipy.linalg.LinAlgError:
            # Near the domain boundary H can degenerate numerically; fall
            # back to plain gradient ascent with a conservative length.
            step = grad / float(np.max(np.abs(H)))

        slope = float(grad @ step)
        alpha = 1.0
        while alpha >= _MIN_STEP:
            if _interior_slack(tri, l0, w + alpha * step) > _MARGIN:
                gain = _merit_gain(tri, l0, target, w, step, alpha)
                if gain >= _ARMIJO * alpha * slope:
                    break
            alpha *= _BACKTRACK
        else:
            raise ConvergenceError(
                f"line search failed at iteration {iteration} (residual {residual:.3e})",
                partial=result,
            )

        w = w + alpha * step
        B = boundary_lengths(tri, l0, w)
        objective.append(objective[-1] + gain)
        residuals.append(float(np.max(np.abs(B - target))))
