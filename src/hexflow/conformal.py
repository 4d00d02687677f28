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
index arrays (edge endpoints, face slot -> edge in the three rotated
slot orders, face corners, face-block positions in H) and the float array
ln cosh(l0/2); the compiled form is cached on the triangulation for the
last metric seen.  Every evaluation then works on whole arrays: the
per-edge slack u = w_a + w_b + ln cosh(l0/2), the edge lengths, the F x 3
arcs (the cancellation-free q-form for faces whose sides are all <= 200,
the log-domain form on the other faces' three sides) and B by one
``bincount`` over the face-ordered corners.  H comes from the
closed-form coefficient matrix.  The sums run in the same order as a
loop over faces and slots.

The kernel evaluates a stack of factors, one per row, in one pass:
:func:`geometry_rows` takes an (m, n) stack and returns B, the shortest
edge and the longest arc of every row; callers that read B alone run the
same blocks without the two reductions.  Rows run in blocks of at most
``_BLOCK_EDGES`` edge values, so a block's temporaries stay in cache; B
is one ``bincount`` over the corners offset by n per row, which keeps
each row's face order, so every row is bit-identical to a single-factor
call (a single factor is a stack of one row).  The scalar
:func:`edge_length`, :func:`face_sides` and :func:`face_hexagon`, with
:func:`.hexagon_arcs` and :func:`.arc_jacobian`, are the per-hexagon
reference API the kernel is tested against.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .hexagon import (
    LN2,
    _LOG_DOMAIN_THRESHOLD,
    HexagonGeometry,
    _acosh_exp,
    _logcosh,
    arc_jacobian,
    hexagon_arcs,  # noqa: F401 - a site the tracer in bench/tracing.py wraps
)

# Faces with a side beyond the log-domain threshold (where the cosh products
# inside the coefficient matrix approach overflow) or below this minimum
# (where cosh rounds to 1, which the scalar coefficient matrix rejects) take
# the scalar arc_jacobian.
_JACOBIAN_DIRECT_MIN = 1e-7
# Row-major 3x3 block from (M_11, M_22, M_33, M_12, M_23, M_13).
_BLOCK_LAYOUT = [0, 3, 5, 3, 1, 4, 5, 4, 2]
# Row r holds the slot order rotated by r: side t of a face, then t+1, t+2.
_ROTATIONS = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
# A block of factor rows holds at most this many edge values (rows x E),
# and always at least one row.
_BLOCK_EDGES = 1024


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
    slots: np.ndarray  # (3, F, 3) edge index in slot t, t+1, t+2 (mod 3)
    corners: np.ndarray  # (3F,) 0-based component of each corner, face by face
    pairs: np.ndarray  # (9F,) flat position in H of each face-block entry


def _base_length(l0, edge_id):
    value = l0[edge_id]
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"base length must be positive, got {value!r}")
    return value


def _compile(tri, l0):
    n = tri.n_boundaries
    index = {e.edge_id: k for k, e in enumerate(tri.edges)}
    ends = tuple(np.array([[e.b_i - 1 for e in tri.edges], [e.b_j - 1 for e in tri.edges]], dtype=np.intp))
    # The scalar _logcosh, so the slack (and the domain margin) is exactly
    # that of edge_length.
    log_cosh0 = np.array([_logcosh(0.5 * _base_length(l0, e.edge_id)) for e in tri.edges])
    slot = np.array(
        [[index[eid] for eid in f.opposite_edges] for f in tri.faces], dtype=np.intp
    ).reshape(-1, 3)
    corners = np.array([f.corners for f in tri.faces], dtype=np.intp).reshape(-1, 3) - 1
    return _Compiled(
        ends=ends,
        log_cosh0=log_cosh0,
        slots=np.stack([slot, slot[:, [1, 2, 0]], slot[:, [2, 0, 1]]]),
        corners=corners.ravel(),
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


def _factor(tri, w):
    """w as a float array; ValueError unless it has shape (n,)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (tri.n_boundaries,):
        raise ValueError(
            f"factor must have one entry per boundary component "
            f"({tri.n_boundaries}), got shape {w.shape}"
        )
    return w


def _finite(w):
    if not np.isfinite(w).all():
        raise ValueError(f"factor entries must be finite, got {w!r}")
    return w


def _edge_slack(compiled, w):
    """u_e = w_a + w_b + ln cosh(l0_e/2) along the last axis of w."""
    a, b = compiled.ends
    return w.take(a, axis=-1) + w.take(b, axis=-1) + compiled.log_cosh0


def _slack(tri, l0, w):
    """Per-edge slack u_e = w_a + w_b + ln cosh(l0_e/2), in ``tri.edges``
    order; w is admissible iff every u_e > 0.  Raises ValueError unless w
    is a finite vector of shape (n,)."""
    return _edge_slack(_compiled(tri, l0), _finite(_factor(tri, w)))


def _acosh1p_array(q):
    """Array form of :func:`.hexagon._acosh1p`."""
    if q.max() <= 1e8:
        return np.log1p(q + np.sqrt(q * (q + 2.0)))
    small = np.minimum(q, 1e8)
    return np.where(q > 1e8, LN2 + np.log1p(q), np.log1p(small + np.sqrt(small * (small + 2.0))))


def _acosh_exp_array(u):
    """Array form of :func:`.hexagon._acosh_exp`: arccosh(e^u) as
    arccosh(1 + expm1(u)), and u + ln 2 beyond u = 350 where e^u would
    overflow.  The common case (all expm1(u) <= 1e8) costs one max."""
    q = np.expm1(np.minimum(u, 350.0))
    if q.max() <= 1e8:
        return np.log1p(q + np.sqrt(q * (q + 2.0)))
    return np.where(u > 350.0, u + LN2, _acosh1p_array(q))


def _logcosh_array(x):
    """Array form of :func:`.hexagon._logcosh`."""
    small = np.minimum(x, 1.0)
    large = x - LN2 + np.log1p(np.exp(-2.0 * x))
    return np.where(x < 1.0, np.log1p(2.0 * np.sinh(0.5 * small) ** 2), large)


def _logsinh_array(x):
    """Array form of :func:`.hexagon._logsinh`."""
    small, large = np.minimum(x, 1.0), np.maximum(x, 1.0)
    return np.where(x < 1.0, np.log(np.sinh(small)), large - LN2 + np.log1p(-np.exp(-2.0 * large)))


def _lengths(u):
    """Rescaled edge lengths 2 arccosh(e^u), as :func:`edge_length`
    computes them; DomainError unless every slack is positive."""
    margin = u.min()
    if not margin > 0.0:
        raise DomainError(
            f"factor outside the admissible domain: an edge slack "
            f"w_a + w_b + ln cosh(l0/2) is {float(margin)!r} <= 0"
        )
    return 2.0 * _acosh_exp_array(u)


def _q_form(cc, ca, cb, sa, sb):
    """cosh(theta) - 1 for the arc opposite the side with cosh cc, from the
    cosh and sinh of its two neighbours: the cancellation-free sum of
    positive terms of :func:`.hexagon._arc_direct`."""
    sab = sa * sb
    return (cc + (ca * ca + cb * cb - 1.0) / (ca * cb + sab)) / sab


def _gather(x, index):
    """x gathered along its last axis, with the first axis of index moved
    to the front, so that the result unpacks into one array per rotation.
    A single row takes plain indexing, the cheaper form of the same gather."""
    return x[index] if x.ndim == 1 else x.take(index, axis=-1).swapaxes(0, 1)


def _arcs_direct(lengths, slots):
    """Arc opposite slot t of every face of every row, by the q-form;
    exact while every side is <= 200."""
    cc, ca, cb = _gather(np.cosh(lengths), slots)
    sa, sb = _gather(np.sinh(lengths), slots[1:])
    return _acosh1p_array(_q_form(cc, ca, cb, sa, sb))


def _arcs_log(sides):
    """The same arcs by the log-domain q-form of :func:`.hexagon._arc_log`,
    for k faces given by their (k, 3) sides in slot order."""
    log_cosh, log_sinh = _logcosh_array(sides), _logsinh_array(sides)
    lcc, lca, lcb = _gather(log_cosh, _ROTATIONS)
    lsa, lsb = _gather(log_sinh, _ROTATIONS[1:])
    lsab = lsa + lsb
    log_a2b2m1 = np.logaddexp(0.0, np.logaddexp(2.0 * lsa, 2.0 * lsb))
    log_den = np.logaddexp(lca + lcb, lsab)
    log_q = np.logaddexp(lcc, log_a2b2m1 - log_den) - lsab
    arcs = _acosh1p_array(np.exp(np.clip(log_q, -37.0, 690.0)))
    arcs = np.where(log_q > 690.0, LN2 + log_q, arcs)
    return np.where(log_q < -37.0, np.exp(0.5 * (LN2 + np.minimum(log_q, -37.0))), arcs)


def _face_arcs(compiled, lengths):
    """(..., F, 3) arcs of the (..., E) edge lengths; each face of each
    row takes the log-domain branch iff a side exceeds 200."""
    slots = compiled.slots
    if lengths.max() <= _LOG_DOMAIN_THRESHOLD:
        return _arcs_direct(lengths, slots)
    # Clipped sides keep the direct pass finite; its values on the log
    # faces are overwritten.
    arcs = _arcs_direct(np.minimum(lengths, _LOG_DOMAIN_THRESHOLD), slots)
    sides = lengths.take(slots[0], axis=-1)
    log_faces = np.nonzero(sides.max(axis=-1) > _LOG_DOMAIN_THRESHOLD)
    arcs[log_faces] = _arcs_log(sides[log_faces])
    return arcs


def _geometry(compiled, w, corners):
    """Edge lengths (..., E), arcs (..., F, 3) and B (..., n) of a finite
    factor (n,) or stack (m, n); DomainError if any row leaves the domain.
    ``corners`` holds the corners of row r offset by n r, for at least
    the rows of w."""
    lengths = _lengths(_edge_slack(compiled, w))
    arcs = _face_arcs(compiled, lengths)
    B = np.bincount(corners[: arcs.size], weights=arcs.ravel(), minlength=w.size)
    return lengths, arcs, B.reshape(w.shape)


def in_domain(tri, l0, w):
    """Admissibility flag and margin min_e (w_a + w_b + ln cosh(l0_e/2)).

    The test is strict, matching the open domain; solvers that need a
    safety cushion keep their own.  A factor with a non-finite entry is
    reported outside with margin NaN; one of the wrong shape raises
    ValueError.
    """
    if not np.isfinite(_factor(tri, w)).all():
        return DomainCheck(ok=False, margin=math.nan)
    margin = float(_slack(tri, l0, w).min())
    return DomainCheck(ok=margin > 0.0, margin=margin)


def edge_length(l0, w_a, w_b):
    """Rescaled length 2 arccosh(e^(w_a + w_b) cosh(l0/2)) of one edge.

    Raises DomainError when the factor drops the argument to 1 or below
    (the strict inequality defining the admissible domain fails).
    """
    if not (math.isfinite(l0) and l0 > 0.0):
        raise ValueError(f"base length must be positive, got {l0!r}")
    u = w_a + w_b + _logcosh(0.5 * l0)
    if u <= 0.0:
        raise DomainError(
            f"w_a + w_b = {w_a + w_b!r} at or below the admissibility "
            f"threshold {-_logcosh(0.5 * l0)!r} for base length {l0!r}"
        )
    return 2.0 * _acosh_exp(u)


def face_sides(tri, l0, w, face):
    """Rescaled lengths of a face's slot edges, in slot order."""
    return tuple(
        edge_length(l0[eid], w[tri.edge(eid).b_i - 1], w[tri.edge(eid).b_j - 1])
        for eid in face.opposite_edges
    )


def face_hexagon(tri, l0, w, face):
    """Realized hexagon of one face under the rescaled metric; the arc in
    slot t lies on the component of corner t."""
    return HexagonGeometry.from_sides(*face_sides(tri, l0, w, face))


def surface_geometry(tri, l0, w):
    """Edge lengths, face arcs and boundary lengths at w in one pass; B_i
    sums the arcs on component i face by face, slot by slot."""
    compiled = _compiled(tri, l0)
    lengths, arcs, B = _geometry(compiled, _finite(_factor(tri, w)), compiled.corners)
    return SurfaceGeometry(edge_lengths=lengths, arcs=arcs, boundary=B)


def _stack(tri, w):
    """w as a float array; ValueError unless it is a finite (m, n) stack."""
    w = _finite(np.asarray(w, dtype=float))
    n = tri.n_boundaries
    if w.ndim != 2 or w.shape[1] != n:
        raise ValueError(f"factor rows must have shape (m, {n}), got shape {w.shape}")
    return w


def _blocks(tri, l0, w):
    """The kernel on the (m, n) stack w in blocks of at most _BLOCK_EDGES
    edge values: yields each block's row slice, edge lengths, arcs and B."""
    compiled = _compiled(tri, l0)
    block = max(1, min(len(w), _BLOCK_EDGES // len(tri.edges)))
    corners = (compiled.corners + tri.n_boundaries * np.arange(block)[:, None]).ravel()
    for start in range(0, len(w), block):
        part = slice(start, start + block)
        yield (part, *_geometry(compiled, w[part], corners))


def _boundary_rows(tri, l0, w):
    """B of every row of the (m, n) stack w: :func:`geometry_rows` without
    the per-row reductions, for callers that read B alone."""
    w = _stack(tri, w)
    B = np.empty(w.shape)
    for part, _, _, block in _blocks(tri, l0, w):
        B[part] = block
    return B


def geometry_rows(tri, l0, w):
    """B, the shortest edge and the longest arc of every row of the
    (m, n) stack of factors w, each row bit-identical to a single
    :func:`surface_geometry` call.

    Raises ValueError unless w is a finite (m, n) array and DomainError
    if any row lies outside the domain.
    """
    w = _stack(tri, w)
    rows = GeometryRows(np.empty(w.shape), np.empty(len(w)), np.empty(len(w)))
    for part, lengths, arcs, B in _blocks(tri, l0, w):
        rows.boundary[part] = B
        rows.min_edge[part] = lengths.min(axis=1)
        rows.max_arc[part] = arcs.max(axis=(1, 2))
    return rows


def boundary_lengths(tri, l0, w):
    """The boundary-length map: B_i = sum of the arcs on component i over
    all incident face corners."""
    return surface_geometry(tri, l0, w).boundary


def boundary_jacobian(tri, l0, w):
    """H = dB/dw, assembled densely from the per-face arc Jacobians.

    A face contributes its 3x3 block -2 M(a, b, c) / (sinh theta_k
    sinh l_ki sinh l_jk) through the corner -> component map; repeated
    corners (self-edges) accumulate per slot, face by face in row-major
    block order.  H is symmetric bit-for-bit and negative definite on the
    admissible domain.  Faces with a side beyond 200 (or below 1e-7)
    take the scalar :func:`.arc_jacobian`.
    """
    compiled = _compiled(tri, l0)
    lengths = _lengths(_slack(tri, l0, w))
    n = tri.n_boundaries
    slots = compiled.slots
    scalar = (lengths > _LOG_DOMAIN_THRESHOLD) | (lengths < _JACOBIAN_DIRECT_MIN)
    has_scalar = scalar.any()
    sides = np.where(scalar, 1.0, lengths) if has_scalar else lengths
    # Slot-rotated cosh/sinh: for face side triple (a, b, c) = cosh of
    # slots (0, 1, 2), column t of x, y, z holds the t-th cyclic shift.
    x, y, z = np.cosh(sides)[slots]
    sinh_y, sinh_z = np.sinh(sides)[slots[1:]]
    ym1, zm1 = y - 1.0, z - 1.0
    # Column t: M_tt, and the off-diagonal entry M_(t, t+1) (column 2
    # holds M_13 = M_31).
    diagonal = (z + x * y) / ym1 + (y + z * x) / zm1
    off = (x + y - z + 1.0) / zm1
    # -2 / (sinh theta_k sinh l_ki sinh l_jk), theta_k the arc opposite
    # slot 2, whose neighbours are slots 0 and 1.
    sinh_jk, sinh_ki = sinh_y[:, 2], sinh_z[:, 2]
    q = _q_form(x[:, 2], y[:, 2], z[:, 2], sinh_jk, sinh_ki)
    scale = -2.0 / (np.sqrt(q * (q + 2.0)) * sinh_ki * sinh_jk)
    entries = np.concatenate([diagonal, off], axis=1) * scale[:, None]
    blocks = entries[:, _BLOCK_LAYOUT]
    if has_scalar:
        slot = slots[0]
        for f in np.flatnonzero(scalar[slot].any(axis=1)):
            blocks[f] = arc_jacobian(*(float(side) for side in lengths[slot[f]])).ravel()
    return np.bincount(compiled.pairs, weights=blocks.ravel(), minlength=n * n).reshape(n, n)
