"""Conformal change of metric and the boundary-length map.

A conformal factor assigns one real w_i to each boundary component and
rescales every edge through

    cosh(l_ij / 2) = e^(w_i + w_j) cosh(l0_ij / 2),

a self-edge picking up e^(2 w_i).  The factor is admissible when every
rescaled length stays positive, i.e. w_i + w_j > -ln cosh(l0_ij / 2) for
every edge; these strict half-space conditions cut out an open convex
polytope containing w = 0.

Throughout, a factor is a length-n array with position i-1 holding the
value for boundary component i, and the boundary-length map returns the
array B with B_i the total length of component i (the sum of its hexagon
arcs).  B is the gradient of the concave total energy in :mod:`.energy`,
and its Jacobian H below is the (symmetric, negative-definite) Hessian.

The surface-level functions (:func:`in_domain`, :func:`surface_geometry`,
:func:`boundary_lengths`, :func:`boundary_jacobian`) run on a compiled
array kernel.  Each (triangulation, metric) pair is compiled once into
index arrays (edge endpoints, each face's slots in the per-edge table
below, face corners, face-block positions in H) and the float array
ln cosh(l0/2), cached on the triangulation for the last metric seen.
Every evaluation works on whole arrays from the per-edge slack
u = w_a + w_b + ln cosh(l0/2), with cosh(l/2) = e^u.  On a face whose
slacks are all <= ln cosh(100) (sides <= 200) the arcs and H read the
table S = sinh^2(l/2) = expm1(2u), x = e^u, s = sqrt(S) through the face
formulas :func:`.hexagon._half_angle` and :func:`.hexagon._coefficient_row`;
the other faces take their arcs and their block of H from the far form
:func:`.hexagon._far_arcs` of their three slacks.  Edge lengths
2 arccosh(e^u) are formed only where they are read.  B is one
``bincount`` over the corners, slot by slot and then face by face; H
sums face by face.  Every evaluator (B, H, geometry, energy) refuses a
factor by one check on the slacks, :func:`_checked`.

The kernel evaluates a stack of factors, one per row, in one pass:
:func:`geometry_rows` takes an (m, n) stack and returns B, the shortest
edge (2 arccosh(e^u) of the least slack) and the longest arc of every
row.  Rows run in blocks of at most ``_BLOCK_EDGES`` edge values,
so a block's temporaries stay in cache; B is one ``bincount`` over the
corners offset by n per row, which keeps each row's sum order, and each
face picks its branch alone, so every row is bit-identical to a
single-factor call (a single factor is a stack of one row).  The Newton
trial call (:func:`_trial_rows`) checks the trial row's interior cushion
on the stack's slacks before any arc is formed, and hands back the
trial row's slack-table terms, from which :func:`_jacobian` assembles H
at that point exactly as :func:`boundary_jacobian` does.  The
per-hexagon API (:func:`edge_length`, :func:`face_sides`,
:func:`.hexagon_arcs`, :func:`.arc_jacobian`) runs the same formulas on
floats: a face's realized hexagon has sides ``face_sides(tri, l0, w,
face)`` and arcs ``hexagon_arcs(*sides)``, the arc in slot t on the
component of corner t.
"""

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .hexagon import (
    _BLOCK_LAYOUT,
    _FAR_SIDE,
    _coefficient_row,
    _far_arcs,
    _half_angle,
    _logcosh,
    arc_jacobian,  # noqa: F401 - a site the tracer in bench/tracing.py wraps
    hexagon_arcs,  # noqa: F401 - a site the tracer in bench/tracing.py wraps
)

# A face takes the far form of its arcs and its block of H once a slack
# passes ln cosh(100), the slack of a side of 200; below it the direct
# table is exact, and cheaper.
_FAR_SLACK = _logcosh(0.5 * _FAR_SIDE)
# A block of factor rows holds at most this many edge values (rows x E),
# and always at least one row.  At E = 300 a block holds 6 rows, so the
# flow's 101 sampled rows keep about half the temporaries of 13-row blocks
# (about 0.35 MiB less peak RSS).  On a 2-vCPU VM (geometry_rows, best of
# 3 x 20 calls, median of 12 interleaved rounds), 101 rows took 2.63 ms in
# blocks of 4096, 2.78 ms at 2048 and 3.70 ms at 1024; 10 rows took
# 0.43, 0.30 and 0.40 ms.
_BLOCK_EDGES = 2048


class DomainCheck(NamedTuple):
    ok: bool
    margin: float


class SurfaceGeometry(NamedTuple):
    """Rescaled geometry at one factor: edge lengths in ``tri.edges``
    order, the F x 3 arcs (row f is face ``tri.faces[f]``, column t the
    arc on the component of its corner t) and the boundary lengths B."""

    edge_lengths: np.ndarray
    arcs: np.ndarray
    boundary: np.ndarray


class GeometryRows(NamedTuple):
    """What :func:`geometry_rows` returns for an (m, n) stack of factors:
    B of every row (m, n), the shortest edge (m,) and the longest arc (m,)."""

    boundary: np.ndarray
    min_edge: np.ndarray
    max_arc: np.ndarray


class _Compiled(NamedTuple):
    ends: tuple  # two (E,) arrays, the 0-based components joined by each edge
    log_cosh0: np.ndarray  # (E,) ln cosh(l0/2)
    # (13, F) positions in the per-edge table [S | x | s] of S in slots
    # 0, 1, 2, 0, 1 of each face, then of x and of s in slots 1, 2, 0, 1;
    # rows 0-2 are the edge indices of slots 0-2.
    table: np.ndarray
    corners: np.ndarray  # (3F,) 0-based component of each corner, slot by slot
    pairs: np.ndarray  # (9F,) flat position in H of each face-block entry


def _base_slack(l0):
    """ln cosh(l0/2) of a base length; ValueError unless l0 is positive and
    finite with a slack of at least the least normal float (l0 above about
    4.2e-154), since a subnormal slack keeps too few digits for the arcs
    and a zero one leaves w = 0 outside the domain."""
    slack = _logcosh(0.5 * l0) if l0 > 0.0 else 0.0
    if not sys.float_info.min <= slack < math.inf:
        raise ValueError(f"base length must be positive, finite and above about 4.2e-154, got {l0!r}")
    return slack


def _compile(tri, l0):
    n = tri.n_boundaries
    index = {e.edge_id: k for k, e in enumerate(tri.edges)}
    ends = tuple(np.array([[e.b_i - 1 for e in tri.edges], [e.b_j - 1 for e in tri.edges]], dtype=np.intp))
    # The slack (and the domain margin) is exactly that of edge_length.
    log_cosh0 = np.array([_base_slack(l0[e.edge_id]) for e in tri.edges])
    slot = np.array(
        [[index[eid] for eid in f.opposite_edges] for f in tri.faces], dtype=np.intp
    ).reshape(-1, 3)
    corners = np.array([f.corners for f in tri.faces], dtype=np.intp).reshape(-1, 3) - 1
    window = slot.T[[0, 1, 2, 0, 1]]
    return _Compiled(
        ends=ends,
        log_cosh0=log_cosh0,
        table=np.concatenate([window, window[1:] + len(tri.edges), window[1:] + 2 * len(tri.edges)]),
        corners=corners.T.ravel(),
        pairs=(corners[:, :, None] * n + corners[:, None, :]).ravel(),
    )


def _compiled(tri, l0):
    """The compiled arrays of (tri, l0), cached on tri as ``_compiled`` for
    the last metric.  Both objects are immutable, so the same metric object
    means the same lengths."""
    cached = getattr(tri, "_compiled", None)
    if cached is not None and cached[0] is l0:
        return cached[1]
    compiled = _compile(tri, l0)
    object.__setattr__(tri, "_compiled", (l0, compiled))
    return compiled


def _factor(tri, w, name="factor"):
    """w as a float array; ValueError naming it ``name`` unless it has
    shape (n,), one entry per boundary component."""
    w = np.asarray(w, dtype=float)
    if w.shape != (tri.n_boundaries,):
        raise ValueError(
            f"{name} must have one entry per boundary component "
            f"({tri.n_boundaries}), got shape {w.shape}"
        )
    return w


def _finite(w):
    """w unless an entry of the factor (n,) or stack (m, n) is not finite:
    then ValueError naming the first such entry, its boundary component
    and, in a stack, its row (from 0)."""
    finite = np.isfinite(w)
    if not finite.all():
        *row, i = first = np.argwhere(~finite)[0]
        where = f" in row {row[0]}" if row else ""
        raise ValueError(f"factor entries must be finite, got {float(w[tuple(first)])!r} for component {i + 1}{where}")
    return w


def _edge_slack(compiled, w):
    """u_e = w_a + w_b + ln cosh(l0_e/2) along the last axis of w."""
    a, b = compiled.ends
    u = w.take(a, axis=-1)
    u += w.take(b, axis=-1)
    u += compiled.log_cosh0
    return u


def _lengths(u):
    """Edge lengths 2 arccosh(e^u) = 2 (u + ln(1 + sqrt(1 - e^(-2u)))) of
    positive slacks: a sum of positive terms that never forms e^u."""
    return 2.0 * (u + np.log1p(np.sqrt(-np.expm1(-2.0 * u))))


def _arc_terms(compiled, u):
    """S, N and Q (:func:`.hexagon._half_angle`) of the arc opposite slot t
    of every face of the (..., E) slacks, from its sides c = t, a = t+1,
    b = t+2, with S = sinh^2(l/2) = expm1(2u), x = e^u and s = sqrt(S).
    S (..., 5, F) holds S of slots 0, 1, 2, 0, 1, so rows t, t+1, t+2 are
    S_c, S_a, S_b of the arc opposite slot t; N and Q are (..., 3, F)."""
    S = np.expm1(2.0 * u)
    # (..., 13, F): rows t, t+1, t+2 of a window are slots t, t+1, t+2 of
    # each face, so every rotation is a contiguous (..., 3, F) slice.
    G = np.concatenate([S, np.exp(u), np.sqrt(S)], axis=-1).take(compiled.table, axis=-1)
    N, Q = _half_angle(
        G[..., :3, :], G[..., 1:4, :], G[..., 2:5, :], G[..., 5:8, :], G[..., 6:9, :], G[..., 9:12, :], G[..., 10:13, :]
    )
    return G[..., :5, :], N, Q


def _face_arcs(compiled, u, largest, jacobian=False):
    """(..., 3, F) arcs of the (..., E) slacks, whose largest is
    ``largest``, row t the arcs opposite slot t; each face of each row
    takes the far form iff a slack exceeds ln cosh(100).  Returned with
    what H needs of the last row's :func:`_arc_terms` when ``jacobian``
    is set (S, and N and Q of the arc opposite slot 2), else None."""
    large = largest > _FAR_SLACK
    # Clipped slacks keep the direct pass finite; its values on the far
    # faces are overwritten.
    S, N, Q = _arc_terms(compiled, np.minimum(u, _FAR_SLACK) if large else u)
    # Copy N's row before N becomes the arcs.
    terms = (S[-1], N[-1, 2].copy(), Q[-1, 2]) if jacobian else None
    # arcs = 2 asinh(sqrt(N / Q) / 2), in place.
    arcs = np.divide(N, Q, out=N)
    np.sqrt(arcs, out=arcs)
    arcs *= 0.5
    np.arcsinh(arcs, out=arcs)
    arcs *= 2.0
    if large:
        face_u = u.take(compiled.table[:3].T, axis=-1)
        far = np.nonzero(face_u.max(axis=-1) > _FAR_SLACK)
        arcs.swapaxes(-1, -2)[far] = _far_arcs(face_u[far])
    return arcs, terms


def _checked(compiled, w, u=None):
    """The edge slacks u of a factor (n,) or stack (m, n), formed unless
    given, and the largest of them: ValueError if an entry of w is not
    finite, DomainError if a slack is <= 0, ValueError if one overflowed.

    The check reads the slack reductions the kernel takes anyway: a NaN or
    -inf entry shows at the least slack and +inf at the largest, so w
    itself is scanned only when one of them is out of range.  (An edge
    joining a +inf and a -inf entry has slack NaN, which numpy reports
    with its "invalid value" RuntimeWarning before the ValueError.)  A
    finite, admissible w whose largest slack is still +inf overflowed in
    the sum w_a + w_b + ln cosh(l0/2)."""
    if u is None:
        u = _edge_slack(compiled, w)
    least, largest = u.min(), u.max()
    if not (least > 0.0 and largest < math.inf):
        _finite(w)
        if not least > 0.0:
            raise DomainError(
                f"factor outside the admissible domain: an edge slack "
                f"w_a + w_b + ln cosh(l0/2) is {float(least)!r} <= 0"
            )
        raise ValueError("factor too large: an edge slack w_a + w_b + ln cosh(l0/2) overflows")
    return u, largest


def _geometry(compiled, w, corners=None, u=None, jacobian=False):
    """Edge slacks (..., E), arcs (..., F, 3) and B (..., n) of a factor
    (n,) or stack (m, n), after :func:`_checked`, and the last row's
    terms of H from :func:`_face_arcs` (None unless ``jacobian``).  A
    stack takes ``corners``, the corners of row r offset by n r, for at
    least the rows of w, and may take its slacks ``u`` ready made."""
    u, largest = _checked(compiled, w, u)
    arcs, terms = _face_arcs(compiled, u, largest, jacobian)
    corners = compiled.corners if corners is None else corners[: arcs.size]
    B = np.bincount(corners, weights=arcs.ravel(), minlength=w.size)
    return u, arcs.swapaxes(-1, -2), B.reshape(w.shape), terms


def in_domain(tri, l0, w):
    """Admissibility flag and margin min_e (w_a + w_b + ln cosh(l0_e/2)).

    The test is strict, matching the open domain; solvers that need a
    safety cushion keep their own.  A factor with a non-finite entry is
    reported outside with margin NaN; one of the wrong shape raises
    ValueError.  A finite factor whose slack overflows (entries near
    1e308) is inside, with margin +inf, but every evaluator refuses it
    with ValueError.
    """
    w = _factor(tri, w)
    if not np.isfinite(w).all():
        return DomainCheck(ok=False, margin=math.nan)
    margin = float(_edge_slack(_compiled(tri, l0), w).min())
    return DomainCheck(ok=margin > 0.0, margin=margin)


def edge_length(l0, w_a, w_b):
    """Rescaled length 2 arccosh(e^(w_a + w_b) cosh(l0/2)) of one edge.

    Raises DomainError when the factor drops the argument to 1 or below
    (the strict inequality defining the admissible domain fails), and
    ValueError on a base length :func:`_base_slack` refuses and, as the
    kernel does, on a non-finite factor or an overflowing slack.
    """
    slack = _base_slack(l0)
    u = float(w_a) + float(w_b) + slack
    if not (math.isfinite(w_a) and math.isfinite(w_b) and u < math.inf):
        raise ValueError(f"factor entries and their edge slack must be finite, got w_a={w_a!r}, w_b={w_b!r}")
    if u <= 0.0:
        raise DomainError(
            f"w_a + w_b = {w_a + w_b!r} at or below the admissibility "
            f"threshold {-slack!r} for base length {l0!r}"
        )
    return float(_lengths(u))


def _slot_lengths(l0_sides, w_corners):
    """Rescaled slot lengths of one face from its base slot lengths and corner
    factors (slot t joins corners t+1 and t+2); DomainError outside its domain."""
    return tuple(
        edge_length(l0, w_corners[(t + 1) % 3], w_corners[(t + 2) % 3])
        for t, l0 in enumerate(l0_sides)
    )


def face_sides(tri, l0, w, face):
    """Rescaled lengths of a face's slot edges, in slot order, each between
    the face's other two corners."""
    return _slot_lengths([l0[eid] for eid in face.opposite_edges], [w[c - 1] for c in face.corners])


def surface_geometry(tri, l0, w):
    """Edge lengths, face arcs and boundary lengths at w in one pass; B_i
    sums the arcs on component i slot by slot, face by face."""
    u, arcs, B, _ = _geometry(_compiled(tri, l0), _factor(tri, w))
    return SurfaceGeometry(edge_lengths=_lengths(u), arcs=arcs, boundary=B)


def _stack(tri, w):
    """w as a float array; ValueError unless it is an (m, n) stack.  Its
    entries are checked block by block, as the kernel reaches them."""
    w = np.asarray(w, dtype=float)
    n = tri.n_boundaries
    if w.ndim != 2 or w.shape[1] != n:
        raise ValueError(f"factor rows must have shape (m, {n}), got shape {w.shape}")
    return w


def _blocks(tri, l0, w, u=None, jacobian=False):
    """The kernel on the (m, n) stack w in blocks of at most _BLOCK_EDGES
    edge values: yields each block's row slice, edge slacks, arcs, B and
    the terms of H at its last row (None unless ``jacobian``), from the
    slacks ``u`` of w when they are at hand."""
    compiled = _compiled(tri, l0)
    block = max(1, min(len(w), _BLOCK_EDGES // len(tri.edges)))
    corners = (np.arange(0, block * tri.n_boundaries, tri.n_boundaries)[:, None] + compiled.corners).ravel()
    for start in range(0, len(w), block):
        part = slice(start, start + block)
        try:
            result = _geometry(compiled, w[part], corners, None if u is None else u[part], jacobian)
        except ValueError:
            # Every earlier block is finite, so this names the entry's row in w.
            _finite(w)
            raise
        yield (part, *result)


def geometry_rows(tri, l0, w):
    """B, the shortest edge and the longest arc of every row of the
    (m, n) stack of factors w, each row bit-identical to a single
    :func:`surface_geometry` call.

    Raises ValueError unless w is an (m, n) array; block by block, a
    non-finite entry or an overflowing slack raises ValueError and a row
    outside the domain DomainError, so the first failing block decides.
    """
    w = _stack(tri, w)
    rows = GeometryRows(np.empty(w.shape), np.empty(len(w)), np.empty(len(w)))
    for part, u, arcs, B, _ in _blocks(tri, l0, w):
        rows.boundary[part] = B
        # The shortest edge is the one of least slack.
        rows.min_edge[part] = _lengths(u.min(axis=1))
        rows.max_arc[part] = arcs.max(axis=(1, 2))
    return rows


def _geometry_row(tri, l0, w):
    """(B, shortest edge, longest arc) of the finite factor w (n,): one
    row of :func:`geometry_rows`, bit for bit, without the stack."""
    u, arcs, B, _ = _geometry(_compiled(tri, l0), w)
    return B, float(_lengths(u.min())), float(arcs.max())


def boundary_lengths(tri, l0, w):
    """The boundary-length map: B_i = sum of the arcs on component i over
    all incident face corners."""
    return _geometry(_compiled(tri, l0), _factor(tri, w))[2]


def _tail_coefficients(tri, l0):
    """K of the tail B_k ~ K_k e^(-2 w_k) for long edges (:func:`.flow_limit`):
    K_k sums lambda_opp / (lambda_adj lambda_adj') over the corners at k,
    with lambda_e = cosh(l0_e / 2)."""
    compiled = _compiled(tri, l0)
    log_lam = compiled.log_cosh0[compiled.table[:3]]
    ratios = np.exp(2.0 * log_lam - log_lam.sum(axis=0))
    return np.bincount(compiled.corners, weights=ratios.ravel(), minlength=tri.n_boundaries)


def _trial_rows(tri, l0, w, margin):
    """B of every row of the (m, n) stack w, whose last row is a trial
    point, with the arguments of :func:`_jacobian` for H there; None when
    expm1 of the trial point's least slack is not above ``margin``, found
    from the stack's slacks before any arc is formed.  Raises ValueError
    unless the trial point is finite."""
    compiled = _compiled(tri, l0)
    _finite(w[-1])
    u = _edge_slack(compiled, w)
    # expm1 overflows past a slack of 709; a slack of 1 clears any cushion
    # below e - 1.
    if not math.expm1(min(float(u[-1].min()), 1.0)) > margin:
        return None
    B = np.empty(w.shape)
    for part, _, _, rows, terms in _blocks(tri, l0, w, u, jacobian=True):
        B[part] = rows
    # The trial point is the last row of the last block.
    return B, (compiled, tri.n_boundaries, u[-1], *terms)


def _jacobian(compiled, n, u, S, N, Q):
    """H of :func:`boundary_jacobian` at one factor, from its slacks u (E,)
    and the arc terms of :func:`_arc_terms` at u clipped to ln cosh(100):
    S (5, F), and N and Q of the arc opposite slot 2, each (F,)."""
    M = np.concatenate(_coefficient_row(S[0:3], S[1:4], S[2:5]))
    # -2 / (sinh theta_k sinh l_ki sinh l_jk) = -1 / sqrt(N (N + 4Q)),
    # theta_k the arc opposite slot 2, whose neighbours are slots 0 and 1.
    M *= -1.0 / np.sqrt(N * (N + 4.0 * Q))
    blocks = M.T[:, _BLOCK_LAYOUT]
    if u.max() > _FAR_SLACK:
        face_u = u[compiled.table[:3].T]
        far = np.flatnonzero(face_u.max(axis=1) > _FAR_SLACK)
        blocks[far] = _far_arcs(face_u[far], jacobian=True)[1]
    return np.bincount(compiled.pairs, weights=blocks.ravel(), minlength=n * n).reshape(n, n)


def boundary_jacobian(tri, l0, w):
    """H = dB/dw, assembled densely from the per-face arc Jacobians.

    A face contributes its 3x3 block -2 M(a, b, c) / (sinh theta_k
    sinh l_ki sinh l_jk) through the corner -> component map; repeated
    corners (self-edges) accumulate per slot, face by face in row-major
    block order.  H is symmetric bit-for-bit and negative definite on the
    admissible domain.  Faces with a slack beyond ln cosh(100) (a side
    beyond 200) take their block from the far form of their slacks.
    """
    compiled = _compiled(tri, l0)
    u, largest = _checked(compiled, _factor(tri, w))
    S, N, Q = _arc_terms(compiled, np.minimum(u, _FAR_SLACK) if largest > _FAR_SLACK else u)
    return _jacobian(compiled, tri.n_boundaries, u, S, N[2], Q[2])
