"""A surface-level reference at 60 digits: B, H and the Newton solve in mpmath.

``mp_B`` applies the hexagon cosine law face by face, with the slot rule of
``conformal._slot_lengths``: slot t of a face joins its corners t+1 and
t+2, and cosh(l_t / 2) = e^(w_(t+1) + w_(t+2)) cosh(l0_t / 2).  Each side
enters through its slack u = w_a + w_b + ln cosh(l0/2) as S = sinh^2(l/2)
= expm1(2u), and the arc at corner t through the positive q-form of
``tests/test_hexagon.py::mp_arcs``, so short sides and short arcs keep
their digits.  ``mp_H`` takes central differences of ``mp_B`` at a step
far below the float64 resolution, and ``mp_solve`` runs Newton on them
from a float iterate.  Factors and targets are read as the exact binary
values of their floats.
"""

from mpmath import mp

DPS = 60


def _mp_B(tri, l0, w):
    """B at the mpf factor entries w, at the working precision."""
    log_cosh0 = {eid: mp.log(mp.cosh(mp.mpf(length) / 2)) for eid, length in l0.items()}
    B = [mp.zero] * tri.n_boundaries
    for face in tri.faces:
        corner_w = [w[c - 1] for c in face.corners]
        S = [
            mp.expm1(2 * (corner_w[(t + 1) % 3] + corner_w[(t + 2) % 3] + log_cosh0[eid]))
            for t, eid in enumerate(face.opposite_edges)
        ]
        # cosh l = 1 + 2 S and sinh l = 2 sqrt(S (1 + S)) of each slot.
        cosh = [1 + 2 * s for s in S]
        sinh = [2 * mp.sqrt(s * (1 + s)) for s in S]
        for t, c in enumerate(face.corners):
            a, b = (t + 1) % 3, (t + 2) % 3
            # cosh theta - 1 = (cosh l_t + cosh(l_a - l_b)) / (sinh l_a sinh l_b).
            q = (cosh[t] + (cosh[a] ** 2 + cosh[b] ** 2 - 1) / (cosh[a] * cosh[b] + sinh[a] * sinh[b])) / (
                sinh[a] * sinh[b]
            )
            B[c - 1] += 2 * mp.asinh(mp.sqrt(q / 2))
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
