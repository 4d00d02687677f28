"""Combinatorial model of ideally triangulated compact surfaces with boundary.

A surface is described by hexagonal faces glued along their pairwise
non-adjacent ("red") edges; the remaining sides are arcs on the boundary
components.  The data kept here is purely combinatorial: boundary
components are indices 1..n, each edge records the two components it
joins (possibly equal), and each face records three edge ids together
with the component carrying each corner arc.  Slot t of a face holds the
edge opposite corner t.

The companion :class:`Metric` assigns a positive length to every edge;
any positive assignment is realizable, so validation is combinatorial
plus positivity.
"""

from dataclasses import dataclass, field
from math import isfinite
from types import MappingProxyType
from typing import Mapping, Tuple

from .errors import ParseError


@dataclass(frozen=True)
class Edge:
    edge_id: int
    b_i: int
    b_j: int


@dataclass(frozen=True)
class Face:
    face_id: int
    opposite_edges: Tuple[int, int, int]
    corners: Tuple[int, int, int]


@dataclass(frozen=True)
class IdealTriangulation:
    """Immutable combinatorial surface: safe to share across threads."""

    n_boundaries: int
    edges: Tuple[Edge, ...]
    faces: Tuple[Face, ...]

    def __post_init__(self):
        # Cache the id lookup once; the scalar conformal.face_sides reads
        # it for every face slot.
        object.__setattr__(self, "edge_by_id", {e.edge_id: e for e in self.edges})

    def edge(self, edge_id):
        return self.edge_by_id[edge_id]


@dataclass(frozen=True)
class Metric:
    """One positive hyperbolic length per edge id.  The container itself
    does not enforce positivity; :func:`validate` reports it."""

    lengths: Mapping[int, float]

    def __post_init__(self):
        object.__setattr__(self, "lengths", MappingProxyType(dict(self.lengths)))

    def __getitem__(self, edge_id):
        return self.lengths[edge_id]

    def __len__(self):
        return len(self.lengths)

    def items(self):
        return self.lengths.items()


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    ids: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: Tuple[Violation, ...] = field(default_factory=tuple)


def validate(tri, l0=None):
    """Check every structural invariant; returns a report, never raises.

    Codes: counts, duplicate id, boundary range, unknown edge,
    edge multiplicity, corner/edge mismatch, unused boundary,
    non-positive length, metric mismatch.
    """
    violations = []

    def flag(code, message, *ids):
        violations.append(Violation(code, message, tuple(ids)))

    if tri.n_boundaries < 1:
        flag("counts", f"need at least one boundary component, have {tri.n_boundaries}")
    if len(tri.faces) < 1:
        flag("counts", f"need at least one face, have {len(tri.faces)}")
    if 2 * len(tri.edges) != 3 * len(tri.faces):
        flag(
            "counts",
            f"edge count {len(tri.edges)} != 3/2 * face count {len(tri.faces)}",
        )

    seen_edges = {}
    for e in tri.edges:
        if e.edge_id in seen_edges:
            flag("duplicate id", f"edge id {e.edge_id} declared twice", e.edge_id)
        seen_edges[e.edge_id] = e
        for b in (e.b_i, e.b_j):
            if not 1 <= b <= tri.n_boundaries:
                flag(
                    "boundary range",
                    f"edge {e.edge_id} references boundary {b} outside 1..{tri.n_boundaries}",
                    e.edge_id,
                )

    seen_faces = set()
    slot_use = {eid: 0 for eid in seen_edges}
    for f in tri.faces:
        if f.face_id in seen_faces:
            flag("duplicate id", f"face id {f.face_id} declared twice", f.face_id)
        seen_faces.add(f.face_id)
        for c in f.corners:
            if not 1 <= c <= tri.n_boundaries:
                flag(
                    "boundary range",
                    f"face {f.face_id} corner on boundary {c} outside 1..{tri.n_boundaries}",
                    f.face_id,
                )
        for t in range(3):
            eid = f.opposite_edges[t]
            if eid not in seen_edges:
                flag("unknown edge", f"face {f.face_id} references undeclared edge {eid}", f.face_id, eid)
                continue
            slot_use[eid] += 1
            e = seen_edges[eid]
            others = sorted((f.corners[(t + 1) % 3], f.corners[(t + 2) % 3]))
            if others != sorted((e.b_i, e.b_j)):
                flag(
                    "corner/edge mismatch",
                    f"face {f.face_id} slot {t}: edge {eid} joins "
                    f"{{{e.b_i},{e.b_j}}} but the other corners lie on "
                    f"{{{others[0]},{others[1]}}}",
                    f.face_id,
                    eid,
                )

    for eid, count in sorted(slot_use.items()):
        if count != 2:
            flag(
                "edge multiplicity",
                f"edge {eid} appears in {count} face slots, expected exactly 2",
                eid,
            )

    used = {c for f in tri.faces for c in f.corners}
    for b in range(1, tri.n_boundaries + 1):
        if b not in used:
            flag("unused boundary", f"boundary component {b} never appears as a corner", b)

    if l0 is not None:
        for eid in sorted(seen_edges):
            if eid not in l0.lengths:
                flag("metric mismatch", f"edge {eid} has no length", eid)
        for eid in sorted(l0.lengths):
            if eid not in seen_edges:
                flag("metric mismatch", f"length given for undeclared edge {eid}", eid)
        for eid, value in sorted(l0.items()):
            if not (isfinite(value) and value > 0.0):
                flag("non-positive length", f"edge {eid} has length {value!r}, must be > 0", eid)

    return ValidationReport(ok=not violations, violations=tuple(violations))


def euler_characteristic(tri):
    """|F| - |E|; negative for every valid ideal triangulation."""
    return len(tri.faces) - len(tri.edges)


def corner_incidence(tri, i):
    """All (face_id, slot) pairs whose corner lies on boundary component i,
    ordered by face id then slot."""
    if not 1 <= i <= tri.n_boundaries:
        raise ValueError(f"boundary index {i} outside 1..{tri.n_boundaries}")
    hits = [
        (f.face_id, t)
        for f in tri.faces
        for t in range(3)
        if f.corners[t] == i
    ]
    return sorted(hits)


def _parse_int(token, line_no, what):
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected integer {what}, got {token!r}", line_no) from None


def _parse_float(token, line_no, what):
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"expected decimal {what}, got {token!r}", line_no) from None


def parse_surface(text, strict=True):
    """Parse a surface file into (IdealTriangulation, Metric).

    Lines: ``surface <name>``, ``boundaries <n>``,
    ``edge <id> <b_i> <b_j> <l0>``, ``face <id> <e0> <e1> <e2> <c0> <c1> <c2>``;
    '#' starts a comment, blank lines are ignored.  Ids are arbitrary
    positive integers and are kept exactly as written.

    With ``strict=True`` (default) the parsed surface must also pass
    :func:`validate`; ``strict=False`` returns whatever was declared, so a
    caller can inspect the validation report itself.
    """
    name = None
    n_boundaries = None
    edges = []
    faces = []
    lengths = {}
    edge_lines = {}
    face_lines = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "surface":
            if len(tokens) != 2:
                raise ParseError("surface line takes exactly one name token", line_no)
            if name is not None:
                raise ParseError("surface declared twice", line_no)
            name = tokens[1]
        elif keyword == "boundaries":
            if len(tokens) != 2:
                raise ParseError("boundaries line takes exactly one integer", line_no)
            if n_boundaries is not None:
                raise ParseError("boundaries declared twice", line_no)
            n_boundaries = _parse_int(tokens[1], line_no, "boundary count")
            if n_boundaries < 1:
                raise ParseError(f"boundary count must be >= 1, got {n_boundaries}", line_no)
        elif keyword == "edge":
            if len(tokens) != 5:
                raise ParseError("edge line needs: edge <id> <b_i> <b_j> <l0>", line_no)
            if n_boundaries is None:
                raise ParseError("edge declared before boundaries", line_no)
            eid = _parse_int(tokens[1], line_no, "edge id")
            b_i = _parse_int(tokens[2], line_no, "boundary index")
            b_j = _parse_int(tokens[3], line_no, "boundary index")
            value = _parse_float(tokens[4], line_no, "length")
            if eid in edge_lines:
                raise ParseError(f"duplicate edge id {eid} (first on line {edge_lines[eid]})", line_no)
            edge_lines[eid] = line_no
            for b in (b_i, b_j):
                if not 1 <= b <= n_boundaries:
                    raise ParseError(
                        f"edge {eid} references undeclared boundary {b} (declared 1..{n_boundaries})",
                        line_no,
                    )
            if not (isfinite(value) and value > 0.0):
                raise ParseError(f"edge {eid} has non-positive length {tokens[4]}", line_no)
            edges.append(Edge(eid, b_i, b_j))
            lengths[eid] = value
        elif keyword == "face":
            if len(tokens) != 8:
                raise ParseError(
                    "face line needs: face <id> <e0> <e1> <e2> <c0> <c1> <c2>", line_no
                )
            if n_boundaries is None:
                raise ParseError("face declared before boundaries", line_no)
            fid = _parse_int(tokens[1], line_no, "face id")
            if fid in face_lines:
                raise ParseError(f"duplicate face id {fid} (first on line {face_lines[fid]})", line_no)
            face_lines[fid] = line_no
            eids = tuple(_parse_int(t, line_no, "edge id") for t in tokens[2:5])
            corners = tuple(_parse_int(t, line_no, "boundary index") for t in tokens[5:8])
            for c in corners:
                if not 1 <= c <= n_boundaries:
                    raise ParseError(
                        f"face {fid} corner on undeclared boundary {c} (declared 1..{n_boundaries})",
                        line_no,
                    )
            faces.append(Face(fid, eids, corners))
        else:
            raise ParseError(f"unknown directive {keyword!r}", line_no)

    if name is None:
        raise ParseError("missing surface line")
    if n_boundaries is None:
        raise ParseError("missing boundaries line")
    for f in faces:
        for eid in f.opposite_edges:
            if eid not in edge_lines:
                raise ParseError(
                    f"face {f.face_id} references undeclared edge {eid}", face_lines[f.face_id]
                )

    tri = IdealTriangulation(n_boundaries=n_boundaries, edges=tuple(edges), faces=tuple(faces))
    metric = Metric(lengths)
    if strict:
        report = validate(tri, metric)
        if not report.ok:
            detail = "; ".join(v.message for v in report.violations)
            raise ParseError(f"invalid surface: {detail}")
    return tri, metric


def serialize_surface(tri, l0, name="surface"):
    """Canonical text form; floats print in shortest round-trip form, so
    parse(serialize(...)) reproduces the input bit for bit."""
    lines = [f"surface {name}", f"boundaries {tri.n_boundaries}"]
    for e in tri.edges:
        lines.append(f"edge {e.edge_id} {e.b_i} {e.b_j} {l0[e.edge_id]!r}")
    for f in tri.faces:
        e0, e1, e2 = f.opposite_edges
        c0, c1, c2 = f.corners
        lines.append(f"face {f.face_id} {e0} {e1} {e2} {c0} {c1} {c2}")
    return "\n".join(lines) + "\n"
