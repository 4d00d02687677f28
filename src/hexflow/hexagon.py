"""Exact kernels for right-angled hyperbolic hexagons.

A right-angled hexagon is determined up to isometry by the lengths of its
three pairwise non-adjacent sides (l_jk, l_ki, l_ij).  The opposite sides
(the "arcs" theta_i, theta_j, theta_k) follow from the cosine law

    cosh theta_k = (cosh l_ij + cosh l_jk * cosh l_ki) / (sinh l_jk * sinh l_ki)

and its cyclic images; the arc theta_k is adjacent to l_jk and l_ki and
opposite to l_ij.  The dual cosine law swaps the roles of sides and arcs,
so the sides->arcs map is an involution on positive triples.

When the three side lengths come from a conformal family
cosh(l/2) = e^(w_a + w_b) cosh(l0/2), the arcs acquire the Jacobian

    d(theta_i, theta_j, theta_k) / d(w_i, w_j, w_k)
        = -2 / (sinh theta_k * sinh l_ki * sinh l_jk) * M(a, b, c)

with a = cosh l_jk, b = cosh l_ki, c = cosh l_ij and M the symmetric
positive-definite matrix built in :func:`coefficient_matrix`.  The scalar
prefactor looks as if it singled out the index k, but the three cyclic
forms sinh theta_k sinh l_ki sinh l_jk are equal by the hexagon sine rule
(sinh l_ij / sinh theta_k is independent of the cyclic position); this is
asserted here numerically to machine precision.  Positive definiteness of
M is established by factorisation, never by a determinant formula; the
closed-form determinant identity

    det M = 2 * sinh l_jk sinh l_ki sinh l_ij
              * (sinh theta_i sinh theta_j sinh l_ij)^2
              * prod_e sinh l_e / (cosh l_e - 1)

has been confirmed numerically to 1e-13 relative but is used only as a
cross-check in the test suite.

A side beyond 200 (cosh overflows near l ~ 710, while the flow drives
edge lengths without bound) sends a hexagon to the far form
:func:`_far_arcs` of its slacks u = ln cosh(l/2).  Below it the arcs, the
sinh(theta) of their Jacobian and M come from :func:`_half_angle` and
:func:`_coefficient_row`, positive terms that keep tiny arcs and short
sides exact; both run on floats here and on the arrays of the kernel in
:mod:`.conformal`.  Arcs remain accurate down to the underflow threshold
(theta ~ 1e-308, sides ~ 1400) and underflow to 0.0 beyond it.
"""

import math

import numpy as np

LN2 = math.log(2.0)

# Direct evaluation is exact and cheap while cosh/sinh and their products
# stay well inside float range (cosh^2 200 ~ 1e173; the products inside the
# coefficient matrix overflow once side sums pass ~709); a hexagon with a
# side beyond this takes the far form of _far_arcs, arcs and Jacobian alike.
_FAR_SIDE = 200.0
# Row r holds the slot order rotated by r: row r, column t is slot t + r.
_ROTATIONS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
# _OFFSETS[t, s] = (s - t) mod 3, the rotation that takes slot t to slot s.
_OFFSETS = (np.arange(3) - np.arange(3)[:, None]) % 3


def _logcosh(x):
    """log(cosh(x)) for x >= 0 without overflow."""
    if x < 1.0:
        return math.log1p(2.0 * math.sinh(0.5 * x) ** 2)
    return x - LN2 + math.log1p(math.exp(-2.0 * x))


def _check_sides(*values):
    for v in values:
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"hexagon side and arc lengths must be positive finite reals, got {v!r}")


def _half_angle(Sc, Sa, Sb, xa, xb, sa, sb):
    """(N, Q) with sinh^2(theta/2) = N / (4 Q) for the arc opposite side c,
    next to a and b, from S = sinh^2(l/2), x = cosh(l/2), s = sinh(l/2) of
    sides <= _FAR_SIDE: N = S_c + ((1 + S_a + S_b) / (x_a x_b + s_a s_b))^2,
    Q = x_a x_b s_a s_b, positive terms; on arrays, only its own are updated in place."""
    xx, ss = xa * xb, sa * sb
    Q = xx * ss
    xx += ss
    N = 1.0 + Sa
    N += Sb
    N /= xx
    N *= N
    N += Sc
    return N, Q


# The symmetric 3x3 block from (M_11, M_22, M_33, M_12, M_23, M_13).
_BLOCK_LAYOUT = np.array([[0, 3, 5], [3, 1, 4], [5, 4, 2]])


def _coefficient_row(St, Su, Sv):
    """(M_tt, M_(t, t+1)) = (P/S_u + P/S_v + 4 S_t, P/S_v - 2), P = 1 + S_t + S_u
    + S_v, from S = sinh^2(l/2) = (cosh l - 1)/2 of slots t, u = t+1, v = t+2
    (row 2 gives M_13); floats or arrays, as :func:`_half_angle`."""
    P = 1.0 + St
    P += Su
    P += Sv
    off = P / Sv
    diagonal = P / Su
    diagonal += off
    diagonal += 4.0 * St
    off -= 2.0
    return diagonal, off


def _half_angles(l_jk, l_ki, l_ij):
    """S = sinh^2(l/2) of three sides and the :func:`_half_angle` of each arc."""
    s0, s1, s2 = math.sinh(0.5 * l_jk), math.sinh(0.5 * l_ki), math.sinh(0.5 * l_ij)
    x0, x1, x2 = math.cosh(0.5 * l_jk), math.cosh(0.5 * l_ki), math.cosh(0.5 * l_ij)
    S0, S1, S2 = S = (s0 * s0, s1 * s1, s2 * s2)
    return S, (
        _half_angle(S0, S1, S2, x1, x2, s1, s2),
        _half_angle(S1, S2, S0, x2, x0, s2, s0),
        _half_angle(S2, S0, S1, x0, x1, s0, s1),
    )


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly (Knuth's two-sum)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _rotations(x):
    """(x_c, x_a, x_b) of the (..., 3) slot values x: column t holds slot
    c = t and its neighbours a = t+1, b = t+2."""
    return np.moveaxis(x[..., _ROTATIONS], -2, 0)


def _far_arcs(u, jacobian=False):
    """Arcs of faces given by their (..., 3) slot slacks u > 0, with
    cosh(l/2) = e^u; column t is the arc opposite slot t.  With
    ``jacobian``, returns them with the (..., 3, 3) blocks
    d theta_t / d w_s, symmetric bit for bit.

    Valid for any sides, and the form of every hexagon with a side beyond
    _FAR_SIDE.  With sigma = tanh(l/2) = sqrt(-expm1(-2u)) and E = e^(-2u)
    per slot, the arc opposite c, next to a and b, is
    theta = 2 asinh(hypot(A, Bt) / 2), where

        A = e^(u_c - u_a - u_b) sigma_c / sqrt(sigma_a sigma_b),
        Bt = (E_b + sigma_b^2 E_a) / (sqrt(sigma_a sigma_b) (1 + sigma_a sigma_b)),

    positive terms that never form e^u.  The exponent u_c - u_a - u_b is
    summed by two-sum as d plus its rounding error delta, so
    e^d (1 + delta) keeps full relative accuracy however long the sides
    (Dekker 1971; Ogita, Rump & Oishi 2005).  Past d = 350 the arc is
    2 (d + delta) - ln(sigma_a sigma_b) to float precision.  Corner s
    moves the slacks of the two slots other than s.
    """
    sigma2 = -np.expm1(-2.0 * u)
    E = np.exp(-2.0 * u)
    (uc, ua, ub), (sc, sa, sb), (_, Ea, Eb) = (_rotations(x) for x in (u, np.sqrt(sigma2), E))
    d, e1 = _two_sum(uc, -ua)
    d, e2 = _two_sum(d, -ub)
    delta = e1 + e2
    root, one_ss = np.sqrt(sa * sb), 1.0 + sa * sb
    A = np.exp(np.minimum(d, 350.0)) * (1.0 + delta) * sc / root
    Bt = (Eb + sb * sb * Ea) / (root * one_ss)
    r = np.hypot(A, Bt)
    arcs = np.where(d > 350.0, 2.0 * (d + delta) - np.log(sa * sb), 2.0 * np.arcsinh(0.5 * r))
    if not jacobian:
        return arcs
    # d theta = 2 (A dA + Bt dBt) / (r hypot(r, 2)) through A/r, Bt/r <= 1,
    # so nothing overflows (r = 0 only where A and Bt underflow).  With
    # g = E / sigma^2 and C = E_b + sigma_b^2 E_a: d ln A / d u_c = 1 + g_c,
    # d ln A / d u_a = -(1 + g_a / 2) and d ln Bt / d u_a = -(2 E_a sigma_b^2 / C
    # + g_a (1/2 + sigma_a sigma_b / one_ss)), Bt / C finite where C underflows.
    k = 2.0 / np.hypot(r, 2.0)
    r = np.where(r > 0.0, r, 1.0)
    wa, wb = k * A / r, k * Bt / r
    gc, ga, gb = _rotations(E / sigma2)
    shared = 0.5 + sa * sb / one_ss
    Pc = wa * A * (1.0 + gc)
    Pa = -wa * A * (1.0 + 0.5 * ga) - wb * (2.0 * Ea * sb * sb / (root * one_ss) + Bt * ga * shared)
    Pb = -wa * A * (1.0 + 0.5 * gb) - wb * (2.0 * Eb * sa * sa / (root * one_ss) + Bt * gb * shared)
    # Slot e's slack moves with the two corners other than e, so
    # d theta_t / d w_s sums d theta_t / d u_e over the slots e != s.
    H = np.stack([Pa + Pb, Pc + Pb, Pc + Pa], axis=-2)[..., _OFFSETS, np.arange(3)[:, None]]
    return arcs, 0.5 * (H + H.swapaxes(-1, -2))


def _slacks(sides):
    """Edge slacks ln cosh(l/2) of the sides, as an array."""
    return np.array([_logcosh(0.5 * side) for side in sides])


def hexagon_arcs(l_jk, l_ki, l_ij):
    """Arc lengths (theta_i, theta_j, theta_k) of the right-angled hexagon
    with non-adjacent side lengths (l_jk, l_ki, l_ij).

    Any positive triple is realizable and the hexagon is unique up to
    isometry.  Stable for sides up to 1e4 and beyond; arcs shorter than
    the smallest positive float underflow to 0.0.  ValueError on arcs past
    ln(float max) ~ 709.78, where N / Q = 4 sinh^2(theta/2) overflows: two
    sides with a product below about 4e-222.
    """
    sides = (l_jk, l_ki, l_ij)
    _check_sides(*sides)
    if max(sides) > _FAR_SIDE:
        return tuple(_far_arcs(_slacks(sides)).tolist())
    arcs = []
    for N, Q in _half_angles(*sides)[1]:
        if not (Q > 0.0 and N / Q < math.inf):
            raise ValueError(f"hexagon lengths too short for finite opposite lengths, got {sides!r}")
        arcs.append(2.0 * math.asinh(0.5 * math.sqrt(N / Q)))
    return tuple(arcs)


def hexagon_sides(theta_i, theta_j, theta_k):
    """Side lengths (l_jk, l_ki, l_ij) of the right-angled hexagon with arc
    lengths (theta_i, theta_j, theta_k).

    Dual cosine law: cosh l_ij = (cosh theta_k + cosh theta_i cosh theta_j)
    / (sinh theta_i sinh theta_j), and cyclic images.  Inverse of
    :func:`hexagon_arcs`; sides grow without bound as any arc approaches 0.
    """
    return hexagon_arcs(theta_i, theta_j, theta_k)


def _matrix(S0, S1, S2):
    """M as a 3x3 array from S = sinh^2(l/2) of the three slots."""
    rows = zip(_coefficient_row(S0, S1, S2), _coefficient_row(S1, S2, S0), _coefficient_row(S2, S0, S1))
    return np.array([*rows]).ravel()[_BLOCK_LAYOUT]


def coefficient_matrix(a, b, c):
    """M(a, b, c) as a 3x3 array, a = cosh l_jk, b = cosh l_ki and
    c = cosh l_ij all > 1; symmetric bit-for-bit."""
    for v in (a, b, c):
        if not (math.isfinite(v) and v > 1.0):
            raise ValueError(f"coefficient matrix requires cosh values > 1, got {v!r}")
    return _matrix(0.5 * (a - 1.0), 0.5 * (b - 1.0), 0.5 * (c - 1.0))


def arc_jacobian(l_jk, l_ki, l_ij):
    """Jacobian of (theta_i, theta_j, theta_k) with respect to the conformal
    factors (w_i, w_j, w_k), at current side lengths (l_jk, l_ki, l_ij).

    Closed form -2 M(a,b,c) / (sinh theta_k sinh l_ki sinh l_jk), whose
    prefactor is -1 / sqrt(N (N + 4Q)) by the half-angle terms of theta_k
    (:func:`_half_angle`); the conformal rule enters only through
    d l = 2 coth(l/2) (dw_a + dw_b), which depends on the current lengths
    alone.  Symmetric bit-for-bit and negative definite.  ValueError where
    the block overflows, on sides below about 1e-154.
    """
    sides = (l_jk, l_ki, l_ij)
    _check_sides(*sides)
    if max(sides) > _FAR_SIDE:
        return _far_arcs(_slacks(sides), jacobian=True)[1]
    S, terms = _half_angles(*sides)
    if min(S) > 0.0:
        N, Q = terms[2]
        with np.errstate(over="ignore"):
            block = -1.0 / math.sqrt(N * (N + 4.0 * Q)) * _matrix(*S)
        if np.isfinite(block).all():
            return block
    raise ValueError(f"hexagon sides too short for the arc Jacobian, got {sides!r}")
