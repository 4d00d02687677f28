import ast
import dataclasses
import inspect
import math
import re
import textwrap
from pathlib import Path

import pytest

from hexflow import (
    Edge,
    Face,
    IdealTriangulation,
    Metric,
    ParseError,
    Violation,
    euler_characteristic,
    parse_surface,
    serialize_surface,
    validate,
)

from hexflow.cli import run

from conftest import PANTS_EDGE, TETRA_TEXT, TORUS_TEXT, TWIN_TEXT, pants_text


class TestParse:
    def test_pants_counts(self, pants):
        tri, metric = pants
        assert tri.n_boundaries == 3
        assert len(tri.edges) == 3
        assert len(tri.faces) == 2
        assert all(metric[e.edge_id] == PANTS_EDGE for e in tri.edges)

    def test_ids_kept_verbatim(self):
        text = (
            "surface sparse\n"
            "boundaries 3\n"
            "edge 10 2 3 1.0\n"
            "edge 7 3 1 1.5\n"
            "edge 99 1 2 2.0\n"
            "face 42 10 7 99 1 2 3\n"
            "face 5 10 7 99 1 2 3\n"
        )
        tri, metric = parse_surface(text)
        assert [e.edge_id for e in tri.edges] == [10, 7, 99]
        assert [f.face_id for f in tri.faces] == [42, 5]
        assert metric[99] == 2.0

    def test_comments_and_blank_lines(self):
        text = "# header\n\nsurface s # trailing\nboundaries 3\n" + "\n".join(
            pants_text().splitlines()[2:]
        )
        tri, _ = parse_surface(text)
        assert tri.n_boundaries == 3

    def test_nonpositive_length_rejected(self):
        text = "surface s\nboundaries 2\nedge 1 1 2 0.0\n"
        with pytest.raises(ParseError) as info:
            parse_surface(text)
        assert str(info.value) == (
            "invalid surface: need at least one face, have 0; edge count 1 != 3/2 * face count 0; "
            "edge 1 appears in 0 face slots, expected exactly 2; "
            "boundary count 2 > 3 * face count 0: some component carries no corner; "
            "edge 1 has length 0.0, must be > 0"
        )

    def test_syntax_error_reports_line(self):
        text = "surface s\nboundaries 3\nedge 1 2 3\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_surface(text)

    def test_duplicate_edge_id(self):
        text = "surface s\nboundaries 3\nedge 1 2 3 1.0\nedge 1 3 1 1.0\n"
        with pytest.raises(ParseError) as info:
            parse_surface(text)
        assert str(info.value) == (
            "invalid surface: need at least one face, have 0; edge count 2 != 3/2 * face count 0; "
            "edge id 1 declared twice; edge 1 appears in 0 face slots, expected exactly 2; "
            "boundary count 3 > 3 * face count 0: some component carries no corner"
        )

    @pytest.mark.parametrize("lines", [("-1.0", "1.0"), ("1.0", "-1.0"), ("nan", "1.0"), ("1.0", "inf")])
    def test_repeated_edge_id_keeps_a_bad_length(self, lines):
        first, second = lines
        text = pants_text(1.0).replace("edge 1 2 3 1.0", f"edge 1 2 3 {first}\nedge 1 2 3 {second}")
        tri, metric = parse_surface(text, strict=False)
        codes = {v.code for v in validate(tri, metric).violations}
        assert {"counts", "duplicate id", "non-positive length"} <= codes

    def test_duplicate_face_id(self):
        base = pants_text().replace("face 2", "face 1")
        with pytest.raises(ParseError) as info:
            parse_surface(base)
        assert str(info.value) == "invalid surface: face id 1 declared twice"

    def test_undeclared_boundary(self):
        text = "surface s\nboundaries 2\nedge 1 1 3 1.0\n"
        with pytest.raises(ParseError) as info:
            parse_surface(text)
        assert str(info.value) == (
            "invalid surface: need at least one face, have 0; edge count 1 != 3/2 * face count 0; "
            "edge 1 references boundary 3 outside 1..2; edge 1 appears in 0 face slots, expected exactly 2; "
            "boundary count 2 > 3 * face count 0: some component carries no corner"
        )

    def test_undeclared_edge_in_face(self):
        text = (
            "surface s\nboundaries 3\n"
            "edge 1 2 3 1.0\nedge 2 3 1 1.0\nedge 3 1 2 1.0\n"
            "face 1 1 2 9 1 2 3\nface 2 1 2 3 1 2 3\n"
        )
        with pytest.raises(ParseError) as info:
            parse_surface(text)
        assert str(info.value) == (
            "invalid surface: face 1 references undeclared edge 9; "
            "edge 3 appears in 1 face slots, expected exactly 2"
        )

    def test_non_integer_id(self):
        text = "surface s\nboundaries 2\nedge 1.5 1 2 1.0\n"
        with pytest.raises(ParseError, match="expected integer"):
            parse_surface(text)

    def test_unknown_directive(self):
        with pytest.raises(ParseError, match="unknown directive"):
            parse_surface("surface s\nboundaries 1\nvertex 1\n")

    def test_strict_mode_rejects_invariant_violations(self):
        # edge 2 appears in three face slots
        text = (
            "surface s\nboundaries 3\n"
            "edge 1 2 3 1.0\nedge 2 3 1 1.0\nedge 3 1 2 1.0\n"
            "face 1 1 2 2 1 2 3\nface 2 1 2 3 1 2 3\n"
        )
        with pytest.raises(ParseError, match="edge 2 appears in 3 face slots"):
            parse_surface(text)
        tri, metric = parse_surface(text, strict=False)
        assert not validate(tri, metric).ok

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("surface a b\n", "surface line takes exactly one name token", 1),
            ("surface a\nsurface b\n", "surface declared twice", 2),
            ("surface s\nboundaries 1 2\n", "boundaries line takes exactly one integer", 2),
            ("surface s\nboundaries 1\nboundaries 2\n", "boundaries declared twice", 3),
            ("surface s\nboundaries 1\nface 1 1 1 1 1 1\n",
             "face line needs: face <id> <e0> <e1> <e2> <c0> <c1> <c2>", 3),
            ("boundaries 1\n", "missing surface line", None),
            ("surface s\n", "missing boundaries line", None),
            ("surface s\nboundaries 1\nedge 1 1 1 1,5\n", "expected decimal length, got '1,5'", 3),
            # int and float read these as 3, 10.0 and 3; the grammar does not.
            (pants_text().replace("boundaries 3", "boundaries 0_3"),
             "expected integer boundary count, got '0_3'", 2),
            (pants_text().replace("edge 1 2 3 ", "edge 1 2 3 1_0.0 #"),
             "expected decimal length, got '1_0.0'", 3),
            (pants_text().replace("boundaries 3", "boundaries \u0663"),
             "expected integer boundary count, got '\u0663'", 2),
            # An edge or face line that does not read names its first
            # refused token.
            (pants_text().replace("edge 1 2 3 ", "edge 1 2_0 x "),
             "expected integer boundary index, got '2_0'", 3),
            (pants_text().replace("edge 2 3 1 ", "edge 2 3 \u0661 "),
             "expected integer boundary index, got '\u0661'", 4),
            (pants_text().replace("face 2 1 2 3 1 2 3", "face 2 1 2.0 3 1 \u0662 3"),
             "expected integer edge id, got '2.0'", 7),
            (pants_text().replace("face 2 1 2 3 1 2 3", "face 2 1 2 3 1 2_0 3"),
             "expected integer boundary index, got '2_0'", 7),
            # validate's violations, joined, with no line.
            ("surface s\nboundaries 0\n",
             "invalid surface: need at least one boundary component, have 0; "
             "need at least one face, have 0", None),
            ("surface s\nboundaries 1\n",
             "invalid surface: need at least one face, have 0; "
             "boundary count 1 > 3 * face count 0: some component carries no corner", None),
            ("surface s\nboundaries 1\nface 1 1 1 1 1 1 2\n",
             "invalid surface: edge count 0 != 3/2 * face count 1; "
             "face 1 corner on boundary 2 outside 1..1; "
             + "; ".join(["face 1 references undeclared edge 1"] * 3), None),
        ],
    )
    def test_error_message_and_line(self, text, message, line):
        with pytest.raises(ParseError) as info:
            parse_surface(text)
        assert info.value.line == line
        assert str(info.value) == (message if line is None else f"line {line}: {message}")

    def test_unicode_spaces_separate_tokens(self):
        # str.split reads a no-break or ideographic space as whitespace, so
        # such a line is read token by token, to the same surface.
        text = pants_text().replace("edge 2 3 1 ", "edge 2\u00a03 1 ").replace("face 2 1 2 3 ", "face 2 1\u30002 3 ")
        assert parse_surface(text) == parse_surface(pants_text())

    @pytest.mark.parametrize("edge_id, face_id", [(0, 0), (-1, -5)])
    def test_zero_and_negative_ids_round_trip(self, edge_id, face_id):
        text = pants_text().replace("edge 1 ", f"edge {edge_id} ").replace("face 2 1 ", f"face {face_id} {edge_id} ")
        text = text.replace("face 1 1 ", f"face 1 {edge_id} ")
        tri, metric = parse_surface(text)
        assert tri.edges[0].edge_id == edge_id and tri.faces[1].face_id == face_id
        assert parse_surface(serialize_surface(tri, metric, "pants")) == (tri, metric)

    def test_directives_in_any_order(self, pants):
        # Nothing is checked against the boundary count while reading.
        lines = pants_text().splitlines(keepends=True)
        assert parse_surface("".join(lines[2:] + lines[1::-1])) == pants

    def test_all_fixture_texts_parse_strictly(self):
        for text in (pants_text(), TETRA_TEXT, TWIN_TEXT, TORUS_TEXT):
            tri, metric = parse_surface(text)
            assert validate(tri, metric).ok


_PANTS = pants_text(1.0)

# One file for each violation code a file can cause (the parser gives every
# declared edge a length, so no file causes "metric mismatch").
FILE_FOR_CODE = {
    "counts": _PANTS.replace("boundaries 3", "boundaries 7"),
    "duplicate id": _PANTS.replace("face 2 ", "face 1 "),
    "boundary range": _PANTS.replace("edge 1 2 3", "edge 1 2 4"),
    "unknown edge": _PANTS.replace("face 1 1 2 3", "face 1 1 2 9"),
    "edge multiplicity": TORUS_TEXT.replace("face 1 1 2 3", "face 1 1 2 2"),
    "corner/edge mismatch": _PANTS.replace("face 1 1 2 3 1 2 3", "face 1 1 2 3 2 1 3"),
    "unused boundary": _PANTS.replace("boundaries 3", "boundaries 4"),
    "non-positive length": _PANTS.replace("edge 2 3 1 1.0", "edge 2 3 1 -1.0"),
}


@pytest.mark.parametrize("code", FILE_FOR_CODE)
def test_validate_holds_each_rule(code, tmp_path, capsys):
    # The parser reads the file whatever it declares; validate reports the
    # fault, the strict parse raises its report and the CLI lists it.
    text = FILE_FOR_CODE[code]
    report = validate(*parse_surface(text, strict=False))
    assert code in {v.code for v in report.violations}
    with pytest.raises(ParseError) as info:
        parse_surface(text)
    assert info.value.line is None
    assert str(info.value) == "invalid surface: " + "; ".join(v.message for v in report.violations)
    surface = tmp_path / "bad.surf"
    surface.write_text(text)
    assert run(["validate", str(surface)]) == 1
    assert f"\nviolation {code}: " in "\n" + capsys.readouterr().out


def test_violation_codes_are_the_flagged_ones():
    # The codes validate's docstring and the README list are those its
    # flag(...) calls raise.
    tree = ast.parse(textwrap.dedent(inspect.getsource(validate)))
    flagged = {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "flag"
    }
    docstring = " ".join(validate.__doc__.split("Codes:", 1)[1].split()).split(".", 1)[0]
    assert {code.strip() for code in docstring.split(",")} == flagged
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("under one of these codes:", 1)[1].split(".", 1)[0]
    assert {" ".join(code.split()) for code in re.findall(r"`([^`]+)`", sentence)} == flagged


class TestSlots:
    def test_edge_and_face_hold_no_dict(self):
        edge, face = Edge(1, 2, 3), Face(1, (1, 2, 3), (1, 2, 3))
        for item, name in ((edge, "b_i"), (face, "corners")):
            assert not hasattr(item, "__dict__")
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(item, name, 4)

    def test_equality_hashing_and_replace(self):
        edge, face = Edge(1, 2, 3), Face(1, (1, 2, 3), (1, 2, 3))
        assert edge == Edge(1, 2, 3) != Edge(1, 3, 2)
        assert face == Face(1, (1, 2, 3), (1, 2, 3)) != Face(2, (1, 2, 3), (1, 2, 3))
        assert hash(edge) == hash(Edge(1, 2, 3)) == hash((1, 2, 3))
        assert hash(face) == hash((1, (1, 2, 3), (1, 2, 3)))
        assert len({edge, Edge(1, 2, 3), face, Face(1, (1, 2, 3), (1, 2, 3))}) == 2
        assert dataclasses.replace(edge, b_j=1) == Edge(1, 2, 1)
        assert dataclasses.replace(face, face_id=2) == Face(2, (1, 2, 3), (1, 2, 3))


class TestSerializeRoundTrip:
    @pytest.mark.parametrize("text", [pants_text(), TETRA_TEXT, TWIN_TEXT, TORUS_TEXT])
    def test_bit_exact_round_trip(self, text):
        tri, metric = parse_surface(text)
        out = serialize_surface(tri, metric)
        tri2, metric2 = parse_surface(out)
        assert tri2 == tri
        assert dict(metric2.items()) == dict(metric.items())
        assert serialize_surface(tri2, metric2) == out

    @pytest.mark.parametrize("name", ["a b", "", "#x", "a\nb"])
    def test_unreadable_name_is_refused(self, pants, name):
        with pytest.raises(ValueError) as info:
            serialize_surface(*pants, name)
        assert str(info.value) == f"surface name must be one token without '#', got {name!r}"

    def test_name_round_trips(self, pants):
        text = serialize_surface(*pants, "gen-F4-s0")
        assert text.startswith("surface gen-F4-s0\n")
        assert serialize_surface(*parse_surface(text), "gen-F4-s0") == text

    def test_awkward_floats_survive(self):
        length = math.nextafter(2.0, 3.0)
        text = f"surface s\nboundaries 3\nedge 1 2 3 {length!r}\nedge 2 3 1 0.1\nedge 3 1 2 {1e-300!r}\nface 1 1 2 3 1 2 3\nface 2 1 2 3 1 2 3\n"
        tri, metric = parse_surface(text)
        tri2, metric2 = parse_surface(serialize_surface(tri, metric))
        assert metric2[1] == length
        assert metric2[3] == 1e-300


def _corrupt(tri, **kwargs):
    data = {
        "n_boundaries": tri.n_boundaries,
        "edges": tri.edges,
        "faces": tri.faces,
    }
    data.update(kwargs)
    return IdealTriangulation(**data)


class TestValidate:
    def test_ok_fixtures(self, pants, tetra, twin_pants, torus, lopsided):
        # lopsided's face 1 uses one edge in two slots.
        for tri, metric in (pants, tetra, twin_pants, torus, lopsided):
            report = validate(tri, metric)
            assert report.ok
            assert report.violations == ()

    def test_corner_edge_mismatch(self, pants):
        tri, metric = pants
        # slot-0 edge of face 1 joins {2,3}; swap its corners to {1,3}
        bad_faces = (Face(1, (1, 2, 3), (2, 1, 3)), tri.faces[1])
        report = validate(_corrupt(tri, faces=bad_faces), metric)
        assert not report.ok
        # Slot 1's other corners, 3 then 2, are worded sorted as {2,3}.
        # Slot 2's corners 2, 1 match its edge {1,2} reversed.
        assert [v for v in report.violations if v.code == "corner/edge mismatch"] == [
            Violation("corner/edge mismatch", "face 1 slot 0: edge 1 joins {2,3} but the other corners lie on {1,3}", (1, 1)),
            Violation("corner/edge mismatch", "face 1 slot 1: edge 2 joins {3,1} but the other corners lie on {2,3}", (1, 2)),
        ]

    def test_unused_boundary(self, pants):
        tri, metric = pants
        report = validate(_corrupt(tri, n_boundaries=4), metric)
        assert not report.ok
        assert any(v.code == "unused boundary" and v.ids == (4,) for v in report.violations)

    def test_edge_multiplicity(self, pants):
        tri, metric = pants
        bad_faces = (Face(1, (1, 1, 1), (1, 2, 3)), tri.faces[1])
        report = validate(_corrupt(tri, faces=bad_faces), Metric({1: 1.0, 2: 1.0, 3: 1.0}))
        assert any(v.code == "edge multiplicity" for v in report.violations)

    def test_counts(self, pants):
        tri, metric = pants
        report = validate(_corrupt(tri, edges=tri.edges[:2]), metric)
        assert any(v.code == "counts" for v in report.violations)

    def test_boundary_range(self, pants):
        tri, metric = pants
        bad_edges = (Edge(1, 2, 5), tri.edges[1], tri.edges[2])
        report = validate(_corrupt(tri, edges=bad_edges), metric)
        assert any(v.code == "boundary range" for v in report.violations)

    def test_duplicate_ids(self, pants):
        tri, metric = pants
        bad_edges = (tri.edges[0], tri.edges[0], tri.edges[2])
        report = validate(_corrupt(tri, edges=bad_edges), metric)
        assert any(v.code == "duplicate id" for v in report.violations)

    def test_nonpositive_length(self, pants):
        tri, _ = pants
        report = validate(tri, Metric({1: PANTS_EDGE, 2: -1.0, 3: PANTS_EDGE}))
        assert any(v.code == "non-positive length" and v.ids == (2,) for v in report.violations)

    def test_metric_mismatch(self, pants):
        tri, _ = pants
        report = validate(tri, Metric({1: 1.0, 2: 1.0}))
        assert any(v.code == "metric mismatch" for v in report.violations)

    def test_no_faces_and_duplicate_face_ids(self, pants):
        tri, metric = pants
        report = validate(_corrupt(tri, edges=(), faces=()), Metric({}))
        assert Violation("counts", "need at least one face, have 0") in report.violations
        report = validate(_corrupt(tri, faces=(tri.faces[0], tri.faces[0])), metric)
        assert report.violations == (Violation("duplicate id", "face id 1 declared twice", (1,)),)

    def test_ok_iff_no_violations(self, pants):
        tri, metric = pants
        for report in (validate(tri, metric), validate(_corrupt(tri, n_boundaries=0), metric)):
            assert report.ok == (len(report.violations) == 0)


class TestEulerCharacteristic:
    def test_pants(self, pants):
        assert euler_characteristic(pants[0]) == -1

    def test_four_faces(self, tetra):
        assert euler_characteristic(tetra[0]) == -2

    def test_negative_for_all_fixtures(self, pants, tetra, twin_pants, torus):
        for tri, _ in (pants, tetra, twin_pants, torus):
            assert euler_characteristic(tri) < 0
