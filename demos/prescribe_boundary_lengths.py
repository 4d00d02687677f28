"""Prescribing boundary lengths: the map from factors to lengths is a
bijection onto the positive orthant, realized here by damped Newton
ascent of the concave objective."""

import math

import numpy as np

from hexflow import boundary_lengths, parse_surface, solve_prescribed

# A four-holed sphere built from four hexagons glued along six seams,
# one seam for every pair of boundary components.
FOUR_HOLES = """
surface fourholes
boundaries 4
edge 1 1 2 0.9
edge 2 1 3 1.2
edge 3 1 4 1.5
edge 4 2 3 1.8
edge 5 2 4 2.1
edge 6 3 4 2.4
face 1 6 5 4 2 3 4
face 2 6 3 2 1 3 4
face 3 5 3 1 1 2 4
face 4 4 2 1 1 2 3
"""
tri, l0 = parse_surface(FOUR_HOLES)

print("== base boundary lengths ==")
print(boundary_lengths(tri, l0, np.zeros(4)), "\n")

# Ask for specific lengths.  Any positive quadruple is achievable by
# exactly one factor vector.
target = np.array([2.0, 1.0, 0.5, 3.0])
print(f"== solving for target {target} ==")
result = solve_prescribed(tri, l0, target)
print(f"converged in {result.iterations} iterations, "
      f"residual {result.residual:.2e}")
print("factors:", result.factors)
print("achieved:", boundary_lengths(tri, l0, result.factors), "\n")

# The residual history shows the phases: iteration 1 tries the jump to
# the flow's asymptote w = max(0, 1/2 ln(K / target)), which lengths
# B ~ K e^(-2w) of long edges suggest, then damped global steps, then
# undamped Newton doubling the correct digits per iteration.
print("== residual history ==")
for k, r in enumerate(result.residual_trace):
    print(f"iteration {k}: residual {r:.3e}")
print()

# Round trip: generate the target from a known factor vector and recover it.
print("== round trip through a known factor ==")
rng = np.random.default_rng(11)
w_star = rng.uniform(-0.1, 0.6, 4)
recovered = solve_prescribed(tri, l0, boundary_lengths(tri, l0, w_star))
print("planted  :", w_star)
print("recovered:", recovered.factors)
print(f"max error: {np.max(np.abs(recovered.factors - w_star)):.2e}\n")

# Uniqueness in practice: two very different starting points meet at the
# same solution.
print("== start-point independence ==")
a = solve_prescribed(tri, l0, target)
b = solve_prescribed(tri, l0, target, start=np.array([0.4, 0.3, 0.2, 0.1]))
print(f"disagreement between starts: {np.max(np.abs(a.factors - b.factors)):.2e}\n")

# Extreme targets exist too (tiny lengths push the factors far out); the
# jump to the flow's asymptote lands next to them, and Newton finishes.
print("== a nearly-cusped target ==")
tiny = solve_prescribed(tri, l0, np.full(4, 1e-3))
print(f"target 1e-3 everywhere: {tiny.iterations} iterations, "
      f"factors around {tiny.factors.mean():.2f}, residual {tiny.residual:.1e}")
