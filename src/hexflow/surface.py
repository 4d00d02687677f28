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


@dataclass(frozen=True, slots=True)
class Edge:
    edge_id: int
    b_i: int
    b_j: int


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True)
class Metric:
    """One positive hyperbolic length per edge id.  The container itself
    does not enforce positivity; :func:`validate` reports it."""

    lengths: Mapping[int, float]

    def __post_init__(self):
        object.__setattr__(self, "lengths", MappingProxyType(dict(self.lengths)))

    def __getitem__(self, edge_id):
        return self.lengths[edge_id]

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


def validate(tri, l0):
    """Check every structural invariant of tri and its metric l0; returns
    a report, never raises.

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
        c0, c1, c2 = f.corners
        for t, eid, a, b in zip(range(3), f.opposite_edges, (c1, c2, c0), (c2, c0, c1)):
            e = seen_edges.get(eid)
            if e is None:
                flag("unknown edge", f"face {f.face_id} references undeclared edge {eid}", f.face_id, eid)
                continue
            slot_use[eid] += 1
            # The other two corners must lie on the edge's ends, in either order.
            if not (a == e.b_i and b == e.b_j or a == e.b_j and b == e.b_i):
                low, high = sorted((a, b))
                flag(
                    "corner/edge mismatch",
                    f"face {f.face_id} slot {t}: edge {eid} joins "
                    f"{{{e.b_i},{e.b_j}}} but the other corners lie on {{{low},{high}}}",
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

    # Each component carries a corner, so n <= 3F; the bound also keeps the
    # loop below from running over a huge declared count.
    if tri.n_boundaries > 3 * len(tri.faces):
        flag(
            "counts",
            f"boundary count {tri.n_boundaries} > 3 * face count {len(tri.faces)}: "
            "some component carries no corner",
        )
    else:
        used = {c for f in tri.faces for c in f.corners}
        for b in range(1, tri.n_boundaries + 1):
            if b not in used:
                flag("unused boundary", f"boundary component {b} never appears as a corner", b)

    for eid in sorted(seen_edges):
        if eid not in l0.lengths:
            flag("metric mismatch", f"edge {eid} has no length", eid)
    for eid in sorted(l0.lengths):
        if eid not in seen_edges:
            flag("metric mismatch", f"length given for undeclared edge {eid}", eid)
    for eid, value in sorted(l0.items()):
        if not _positive(value):
            flag("non-positive length", f"edge {eid} has length {value!r}, must be > 0", eid)

    return ValidationReport(ok=not violations, violations=tuple(violations))


def euler_characteristic(tri):
    """|F| - |E|; negative for every valid ideal triangulation."""
    return len(tri.faces) - len(tri.edges)


def _positive(length):
    return isfinite(length) and length > 0.0


def _plain(text):
    """``text`` (a token or a whole line) if it is ASCII without '_';
    ValueError otherwise.  int and float also read other scripts' digits
    and '_' digit separators, which the file grammar does not hold."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return text


def _parse_int(token, line_no, what):
    try:
        return int(_plain(token))
    except ValueError:
        raise ParseError(f"expected integer {what}, got {token!r}", line_no) from None


def _parse_float(token, line_no, what):
    try:
        return float(_plain(token))
    except ValueError:
        raise ParseError(f"expected decimal {what}, got {token!r}", line_no) from None


def parse_surface(text, strict=True):
    """Parse a surface file into (IdealTriangulation, Metric).

    Lines: ``surface <name>``, ``boundaries <n>``,
    ``edge <id> <b_i> <b_j> <l0>``, ``face <id> <e0> <e1> <e2> <c0> <c1> <c2>``;
    '#' starts a comment, blank lines are ignored.  Edge and face ids are
    arbitrary integers, zero and negative ones included, and are kept
    exactly as written.  A repeated edge id keeps its last length, unless
    one of its lines declares a length that is not positive and finite;
    then it keeps the first such, for :func:`validate` to report.

    The parser refuses only faults of this grammar, naming the line: a
    wrong token count, a token that is not an ASCII integer or decimal
    without '_', an unknown directive, a second ``surface`` or
    ``boundaries`` line, and a missing one.  Every rule about what the
    lines declare is :func:`validate`'s.  With ``strict=True`` (default)
    the parsed surface must also pass it; ``strict=False`` returns
    whatever was declared, so a caller can inspect the validation report
    itself.
    """
    name = None
    n_boundaries = None
    edges = []
    faces = []
    lengths = {}

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
        elif keyword == "edge":
            if len(tokens) != 5:
                raise ParseError("edge line needs: edge <id> <b_i> <b_j> <l0>", line_no)
            # The whole line is checked once; only a line that fails to read
            # goes token by token, to name the first token refused.
            try:
                _plain(line)
                eid, b_i, b_j = map(int, tokens[1:4])
                length = float(tokens[4])
            except ValueError:
                eid = _parse_int(tokens[1], line_no, "edge id")
                b_i = _parse_int(tokens[2], line_no, "boundary index")
                b_j = _parse_int(tokens[3], line_no, "boundary index")
                length = _parse_float(tokens[4], line_no, "length")
            # A repeated id keeps the first length that is not positive and
            # finite, so that validate flags it along with the duplicate.
            if eid not in lengths or _positive(lengths[eid]):
                lengths[eid] = length
            edges.append(Edge(eid, b_i, b_j))
        elif keyword == "face":
            if len(tokens) != 8:
                raise ParseError(
                    "face line needs: face <id> <e0> <e1> <e2> <c0> <c1> <c2>", line_no
                )
            try:
                _plain(line)
                fid, e0, e1, e2, c0, c1, c2 = map(int, tokens[1:])
            except ValueError:
                fid = _parse_int(tokens[1], line_no, "face id")
                e0, e1, e2 = (_parse_int(t, line_no, "edge id") for t in tokens[2:5])
                c0, c1, c2 = (_parse_int(t, line_no, "boundary index") for t in tokens[5:8])
            faces.append(Face(fid, (e0, e1, e2), (c0, c1, c2)))
        else:
            raise ParseError(f"unknown directive {keyword!r}", line_no)

    if name is None:
        raise ParseError("missing surface line")
    if n_boundaries is None:
        raise ParseError("missing boundaries line")

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
    parse(serialize(...)) reproduces the input bit for bit.  ValueError
    unless ``name`` is one token without '#', which the parser reads back."""
    if name.split() != [name] or "#" in name:
        raise ValueError(f"surface name must be one token without '#', got {name!r}")
    lines = [f"surface {name}", f"boundaries {tri.n_boundaries}"]
    for e in tri.edges:
        lines.append(f"edge {e.edge_id} {e.b_i} {e.b_j} {l0[e.edge_id]!r}")
    for f in tri.faces:
        e0, e1, e2 = f.opposite_edges
        c0, c1, c2 = f.corners
        lines.append(f"face {f.face_id} {e0} {e1} {e2} {c0} {c1} {c2}")
    return "\n".join(lines) + "\n"
