"""Deterministic random cubic ribbon-graph surfaces for the benchmark.

A surface with F faces has 3F half-edges (f, s), s = 0, 1, 2; half-edge
(f, s) is the edge in slot s of face f.  The generator pairs the
half-edges uniformly at random (the involution alpha) and glues each pair
into one edge.  With sigma(f, s) = (f, s+1 mod 3), the boundary
components are the cycles of sigma o alpha, and corner t of face f lies
on the component of half-edge (f, t+2 mod 3).  Base lengths are drawn
uniformly from a fixed positive range.  The same (F, seed) always gives
the same surface.
"""

from dataclasses import dataclass

import numpy as np

import hexflow

# Base edge lengths are drawn from this range.
L0_RANGE = (0.5, 3.0)


@dataclass(frozen=True)
class Generated:
    """A generated surface with its combinatorial sizes."""

    tri: object
    l0: object
    faces: int
    edges: int
    boundaries: int


def random_surface(faces, seed):
    """Random cubic ribbon-graph surface with ``faces`` faces (an even
    number >= 2), validated before it is returned."""
    if faces < 2 or faces % 2:
        raise ValueError(f"face count must be even and >= 2, got {faces}")
    rng = np.random.default_rng([faces, seed])
    half = 3 * faces
    order = rng.permutation(half)
    alpha = np.empty(half, dtype=np.int64)
    alpha[order[0::2]] = order[1::2]
    alpha[order[1::2]] = order[0::2]

    # Half-edge h = 3 f + s; sigma(h) = 3 f + (s + 1) % 3.
    def sigma(h):
        return h - h % 3 + (h % 3 + 1) % 3

    component = np.zeros(half, dtype=np.int64)
    n = 0
    for start in range(half):
        if component[start]:
            continue
        n += 1
        h = start
        while not component[h]:
            component[h] = n
            h = sigma(int(alpha[h]))

    lengths = rng.uniform(*L0_RANGE, size=half // 2)
    edge_of = np.empty(half, dtype=np.int64)
    edges = []
    for h in range(half):
        partner = int(alpha[h])
        if h < partner:
            edge_id = len(edges) + 1
            edge_of[h] = edge_of[partner] = edge_id
            # Slot s of face f: the other corners are s+1 and s+2, lying on
            # the components of half-edges (f, s) and (f, s+1).
            edges.append(hexflow.Edge(edge_id, int(component[h]), int(component[sigma(h)])))
    face_list = []
    for f in range(faces):
        slots = tuple(int(edge_of[3 * f + s]) for s in range(3))
        corners = tuple(int(component[3 * f + (t + 2) % 3]) for t in range(3))
        face_list.append(hexflow.Face(f + 1, slots, corners))

    tri = hexflow.IdealTriangulation(n_boundaries=n, edges=tuple(edges), faces=tuple(face_list))
    l0 = hexflow.Metric({e.edge_id: float(v) for e, v in zip(edges, lengths)})
    report = hexflow.validate(tri, l0)
    if not report.ok:
        detail = "; ".join(v.message for v in report.violations[:5])
        raise AssertionError(f"generated surface F={faces} seed={seed} is invalid: {detail}")
    return Generated(tri=tri, l0=l0, faces=faces, edges=len(edges), boundaries=n)
