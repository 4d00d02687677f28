"""Integrating the boundary-length flow dw/dt = B(w) on the pair of pants:
monotone quantities, cusp formation, and the closed-form long-time limit."""

import math

import numpy as np

from hexflow import (
    FlowOptions,
    cusp_report,
    flow_limit,
    integrate_flow,
    parse_surface,
    total_energy,
)

PANTS = f"""
surface pants
boundaries 3
edge 1 2 3 {2 * math.acosh(2.0)!r}
edge 2 3 1 {2 * math.acosh(2.0)!r}
edge 3 1 2 {2 * math.acosh(2.0)!r}
face 1 1 2 3 1 2 3
face 2 1 2 3 1 2 3
"""
tri, l0 = parse_surface(PANTS)

# Every boundary length is positive, so the factors only grow and the flow
# never leaves the admissible domain.  Two quantities certify each accepted
# step: S = sum B_i^2 falls, the energy rises.
print("== a short run ==")
trace = integrate_flow(tri, l0, FlowOptions(t_end=10.0, sample_dt=2.0))
print("   t        S            E(w)         min edge   max arc")
for r in range(len(trace.sampled.times)):
    t = trace.sampled.times[r]
    S = trace.sampled.sum_sq[r]
    E = total_energy(tri, l0, trace.sampled.factors[r])
    print(
        f"{t:6.1f}   {S:.6e}   {E:.6e}   {trace.sampled.min_edge[r]:8.4f}   "
        f"{trace.sampled.max_arc[r]:.3e}"
    )
S = trace.accepted.sum_sq
print(f"\nS strictly decreasing over all {len(S) - 1} accepted steps:",
      bool(np.all(np.diff(S) < 0)))

# Long-time behavior: boundary lengths decay to zero, edges stretch beyond
# any bound, each hexagon approaches an ideal triangle.  The run ends where
# max B reaches the requested threshold, found inside the last step.
print("\n== running into the cusp ==")
cusp_tol = 1e-4
trace = integrate_flow(tri, l0, FlowOptions(t_end=1e6, cusp_tol=cusp_tol))
final = cusp_report(tri, l0, trace.accepted.factors[-1])
print(f"stopped by {trace.stop_reason} at t = {trace.accepted.times[-1]:.1f} "
      f"after {len(trace.accepted) - 1} accepted steps "
      f"and {trace.rhs_evaluations} evaluations of B")
print(f"max boundary length {final.max_boundary:.3e}  "
      f"(1 - {1.0 - final.max_boundary / cusp_tol:.1e} times cusp_tol)")
print(f"min edge length     {final.min_edge:.2f}")
print(f"largest arc         {final.max_arc:.3e}")

# Long-time limit: for long sides the arc at corner k is e^(-2 w_k) times
# lambda_opp / (lambda_adj lambda_adj') with lambda = cosh(l0/2), so
# B_k ~ K_k e^(-2 w_k), w_k = (1/2) ln(2 K_k t) + o(1) and t B_k -> 1/2.
print("\n== the long-time limit ==")
K, c = flow_limit(tri, l0)
t = trace.accepted.times[-1]
w = trace.accepted.factors[-1]
print(f"K = {K[0]:.6f}: two corners, each 2 / (2 * 2) as lambda = cosh(arccosh 2) = 2")
print(f"c = 1/2 ln(2K) = {c[0]:.6f}")
print(f"at t = {t:.1f}:")
print(f"t * B           {t * final.max_boundary:.6f}  (limit 1/2)")
print(f"w - c - 1/2 ln t {np.max(np.abs(w - c - 0.5 * math.log(t))):.3e}  (= w - 1/2 ln(2Kt), limit 0)")
