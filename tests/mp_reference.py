"""The mpmath reference of every accuracy test: one hexagon, many inputs.

The core reads a face by S_t = sinh^2(l_t / 2) of its three slots, arc t
opposite slot t.  :func:`mp_face_arcs` takes each arc through the q-form
of the cosine law,

    cosh theta - 1 = q = (cosh l_c + cosh(l_a - l_b)) / (sinh l_a sinh l_b),

with cosh l = 1 + 2S, sinh l = 2 sqrt(S (1 + S)) and cosh(l_a - l_b) =
(cosh^2 l_a + sinh^2 l_b) / (cosh l_a cosh l_b + sinh l_a sinh l_b), and
theta = 2 asinh(sqrt(q / 2)): sums and products of positive terms only,
so short sides, long sides and short arcs keep their digits at a fixed
precision.  :func:`mp_face_block` gives the face's block of H,
-2 M / (sinh theta_2 sinh l_0 sinh l_1) with M from the same S.

The front-ends read three kinds of input, each float as its exact binary
value:

- float sides: :func:`mp_arcs`;
- the float edge slacks u = w_a + w_b + ln cosh(l0/2) the kernel forms
  (:func:`float_slacks`): :func:`mp_slack_arcs` and :func:`mp_slack_H`;
- exact slacks, formed from the factor at the working precision with the
  slot rule of ``conformal._slot_lengths`` (slot t of a face joins its
  corners t+1 and t+2): :func:`mp_B`, :func:`mp_H`, :func:`mp_solve` and
  :func:`mp_face_energy`.

``mp_H`` takes central differences of ``mp_B`` at a step far below the
float64 resolution, and ``mp_solve`` runs Newton on them from a float
iterate.  ``tests/test_reference.py`` checks the core against the
textbook cosine law and its own finite differences.
"""

import numpy as np
from mpmath import mp

from hexflow.hexagon import _logcosh

DPS = 60


def _q(S, t):
    """cosh(theta_t) - 1 of the arc opposite slot t, and sinh l of the
    two slots next to it."""
    a, b = (t + 1) % 3, (t + 2) % 3
    cosh = [1 + 2 * s for s in S]
    sa, sb = (2 * mp.sqrt(S[k] * (1 + S[k])) for k in (a, b))
    near = (cosh[a] ** 2 + sb**2) / (cosh[a] * cosh[b] + sa * sb)
    return (cosh[t] + near) / (sa * sb), sa, sb


def mp_face_arcs(S):
    """The three arcs of the face with slots S = sinh^2(l/2), as mpf at
    the working precision."""
    return [2 * mp.asinh(mp.sqrt(_q(S, t)[0] / 2)) for t in range(3)]


def mp_face_block(S):
    """d theta_t / d w_s of the face with slots S = sinh^2(l/2), rows t and
    columns s: -2 M / (sinh theta_2 sinh l_0 sinh l_1), with P = 1 + S_0
    + S_1 + S_2, M_tt = P/S_(t+1) + P/S_(t+2) + 4 S_t and M_(t,t+1) =
    (1 + S_t + S_(t+1) - S_(t+2)) / S_(t+2); a 3x3 list of mpf."""
    q, s0, s1 = _q(S, 2)
    scale = -2 / (mp.sqrt(q * (q + 2)) * s0 * s1)
    P = 1 + sum(S)
    M = [[None] * 3 for _ in range(3)]
    for t in range(3):
        u, v = (t + 1) % 3, (t + 2) % 3
        M[t][t] = P / S[u] + P / S[v] + 4 * S[t]
        M[t][u] = M[u][t] = (1 + S[t] + S[u] - S[v]) / S[v]
    return [[scale * m for m in row] for row in M]


def mp_arcs(sides, dps=DPS):
    """The arcs of the hexagon with the three float ``sides``, at ``dps``
    digits, rounded to floats."""
    with mp.workdps(dps):
        return [float(arc) for arc in mp_face_arcs([mp.sinh(mp.mpf(float(l)) / 2) ** 2 for l in sides])]


def float_slacks(tri, l0, w):
    """Edge id -> the float slack w_a + w_b + ln cosh(l0/2), formed as the
    kernel and edge_length form it."""
    return {e.edge_id: w[e.b_i - 1] + w[e.b_j - 1] + _logcosh(0.5 * l0[e.edge_id]) for e in tri.edges}


def _slack_S(u):
    """S = sinh^2(l/2) = expm1(2u) of each slack."""
    return [mp.expm1(2 * mp.mpf(float(v))) for v in u]


def mp_slack_arcs(u, dps=DPS):
    """The arcs of the face with float slot slacks u, as mpf at ``dps``
    digits."""
    with mp.workdps(dps):
        return mp_face_arcs(_slack_S(u))


def mp_slack_H(tri, l0, w, dps=DPS):
    """H at ``dps`` digits from the float edge slacks of w, face block by
    face block, rounded to a float array."""
    n = tri.n_boundaries
    slack = float_slacks(tri, l0, w)
    with mp.workdps(dps):
        H = mp.zeros(n, n)
        for face in tri.faces:
            block = mp_face_block(_slack_S([slack[eid] for eid in face.opposite_edges]))
            for r in range(3):
                for s in range(3):
                    H[face.corners[r] - 1, face.corners[s] - 1] += block[r][s]
        return np.array(H.tolist(), dtype=float)


def _slot_S(corner_w, log_cosh0):
    """S = expm1(2u) of each slot t of a face, whose slack u = w_(t+1) +
    w_(t+2) + ln cosh(l0_t / 2) sums the factors of its corners t+1 and t+2."""
    return [mp.expm1(2 * (corner_w[(t + 1) % 3] + corner_w[(t + 2) % 3] + log_cosh0[t])) for t in range(3)]


def _mp_B(tri, l0, w):
    """B at the mpf factor entries w, at the working precision."""
    log_cosh0 = {eid: mp.log(mp.cosh(mp.mpf(length) / 2)) for eid, length in l0.items()}
    B = [mp.zero] * tri.n_boundaries
    for face in tri.faces:
        S = _slot_S([w[c - 1] for c in face.corners], [log_cosh0[eid] for eid in face.opposite_edges])
        for c, arc in zip(face.corners, mp_face_arcs(S)):
            B[c - 1] += arc
    return B


def _mp_H(tri, l0, w, step):
    """Central differences of _mp_B at w, column j for w_j."""
    n = tri.n_boundaries
    H = mp.matrix(n, n)
    for j in range(n):
        up, down = list(w), list(w)
        up[j] += step
        down[j] -= step
        plus, minus = _mp_B(tri, l0, up), _mp_B(tri, l0, down)
        for i in range(n):
            H[i, j] = (plus[i] - minus[i]) / (2 * step)
    return H


def mp_B(tri, l0, w, dps=DPS):
    """B at the float factor w, at ``dps`` digits, as a list of mpf."""
    with mp.workdps(dps):
        return _mp_B(tri, l0, [mp.mpf(float(x)) for x in w])


def mp_H(tri, l0, w, dps=DPS):
    """H = dB/dw at the float factor w, an mpmath matrix, from central
    differences of ``mp_B`` with step 10^(-dps/3): truncation and rounding
    both stay near 10^(-2 dps/3) relative to B's derivatives."""
    with mp.workdps(dps):
        return _mp_H(tri, l0, [mp.mpf(float(x)) for x in w], mp.mpf(10) ** (-(dps // 3)))


def mp_solve(tri, l0, target, start, dps=DPS, max_iter=20):
    """The factor w* with B(w*) = target to ``dps`` digits, as a list of
    mpf, by Newton from the float iterate ``start``, which must lie close
    enough for undamped steps to stay inside the domain.  AssertionError
    unless the step falls below 10^(10 - dps) relative within
    ``max_iter`` iterations."""
    with mp.workdps(dps):
        step_size = mp.mpf(10) ** (-(dps // 3))
        T = [mp.mpf(float(x)) for x in target]
        w = [mp.mpf(float(x)) for x in start]
        for _ in range(max_iter):
            residual = mp.matrix([b - t for b, t in zip(_mp_B(tri, l0, w), T)])
            step = mp.lu_solve(_mp_H(tri, l0, w, step_size), -residual)
            w = [x + d for x, d in zip(w, step)]
            if mp.norm(step, mp.inf) <= mp.mpf(10) ** (10 - dps) * max(1, max(abs(x) for x in w)):
                return w
    raise AssertionError(f"mp_solve did not converge in {max_iter} iterations")


def mp_face_energy(l0_sides, w, dps=30):
    """The face energy at the float factor w, the integral of the arc
    1-form sum_t theta_t dw_t along the segment from 0 to w, at ``dps``
    digits, rounded to a float; slot t of the face has base side
    l0_sides[t]."""
    with mp.workdps(dps):
        log_cosh0 = [mp.log(mp.cosh(mp.mpf(float(l)) / 2)) for l in l0_sides]
        w = [mp.mpf(float(v)) for v in w]

        def integrand(s):
            return sum(arc * v for arc, v in zip(mp_face_arcs(_slot_S([s * v for v in w], log_cosh0)), w))

        return float(mp.quad(integrand, [0, 1]))
