"""Right-angled hexagon trigonometry: the cosine law, its dual, and the
derivative structure that powers everything else in the package."""

import math

import numpy as np

from hexflow import arc_jacobian, coefficient_matrix, hexagon_arcs, hexagon_sides

# A right-angled hexagon is fixed up to isometry by three alternating side
# lengths.  The opposite sides ("arcs") come from the cosine law.
print("== the self-dual hexagon ==")
L = math.acosh(2.0)
arcs = hexagon_arcs(L, L, L)
print(f"sides  (arccosh 2 = {L:.10f}) x 3")
print(f"arcs   {arcs}")
print("cosh(arc) = (2 + 2*2) / (sqrt(3)*sqrt(3)) = 2, so arcs == sides here.\n")

# The sides -> arcs map is an involution: applying it twice returns the
# original triple.
print("== duality round trip ==")
sides = (0.7, 1.9, 3.2)
arcs = hexagon_arcs(*sides)
back = hexagon_sides(*arcs)
print(f"sides      {sides}")
print(f"arcs       {tuple(round(t, 12) for t in arcs)}")
print(f"round trip {tuple(round(s, 12) for s in back)}\n")

# Tiny arcs are where naive evaluation dies: for sides near 20 the arcs are
# ~1e-8 and the plain cosine law rounds cosh(theta) to 1.  The kernels build
# cosh(theta) - 1 out of positive terms instead, so the values keep full
# relative precision all the way down.
print("== stability for long sides ==")
for L in (20.0, 50.0, 200.0, 1000.0):
    t = hexagon_arcs(L, L, L)[0]
    print(f"sides {L:7.1f}  ->  arc {t:.6e}")
print()

# Under the conformal rescaling cosh(l/2) = e^(w_a + w_b) cosh(l0/2), the
# arcs depend on the three factors (w_i, w_j, w_k) with a Jacobian that is
# a scalar multiple of a symmetric positive-definite matrix M.  Symmetry is
# what later makes the arc 1-form closed; negative definiteness makes the
# energy strictly concave.
print("== derivative structure ==")
sides = (1.0, 1.5, 2.0)
M = coefficient_matrix(*np.cosh(sides))
J = arc_jacobian(*sides)
print("M(a, b, c) =")
print(M)
print("eigenvalues of M:", np.linalg.eigvalsh(M))
print("J = d(arcs)/d(factors) =")
print(J)
print("J symmetric:", bool(np.array_equal(J, J.T)))
print("eigenvalues of J (all negative):", np.linalg.eigvalsh(J))
