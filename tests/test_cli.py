import argparse
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hexflow
from hexflow import serialize_surface
from hexflow.cli import build_parser, run

from conftest import PANTS_EDGE, generated, pants_text

PANTS_B0 = 2.0 * math.acosh(7.0 / 6.0)


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


class TestValidateCommand:
    def test_ok_summary(self, capsys, pants_file):
        code, out = invoke(capsys, ["validate", str(pants_file)])
        assert code == 0
        assert out == "ok, n=3, F=2, E=3, chi=-1\n"

    def test_violations_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.surf"
        bad.write_text(
            "surface s\nboundaries 4\n"
            "edge 1 2 3 1.0\nedge 2 3 1 1.0\nedge 3 1 2 1.0\n"
            "face 1 1 2 3 1 2 3\nface 2 1 2 3 1 2 3\n"
        )
        code, out = invoke(capsys, ["validate", str(bad)])
        assert code == 1
        assert "violation unused boundary" in out
        assert "ERROR 1:" in out.splitlines()[-1]

    def test_parse_error_exit_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.surf"
        bad.write_text("surface s\nboundaries 2\nedge 1 1 2 0,5\n")
        code, out = invoke(capsys, ["validate", str(bad)])
        assert code == 1
        assert out == f"ERROR 1: {bad}: line 3: expected decimal length, got '0,5'\n"

    def test_every_fault_is_listed(self, capsys, tmp_path):
        multi = tmp_path / "multi.surf"
        text = pants_text().replace(f"edge 1 2 3 {PANTS_EDGE!r}", "edge 1 2 3 -1.0")
        multi.write_text(text.replace("boundaries 3", "boundaries 4"))
        code, out = invoke(capsys, ["validate", str(multi)])
        assert (code, out) == (1, (
            "violation unused boundary: boundary component 4 never appears as a corner [4]\n"
            "violation non-positive length: edge 1 has length -1.0, must be > 0 [1]\n"
            "ERROR 1: validation failed with 2 violation(s)\n"
        ))

    def test_huge_boundary_count_is_one_violation(self, capsys, tmp_path):
        # Checking each declared component would take memory and time
        # linear in the count; a count above 3 * faces is refused at once.
        huge = tmp_path / "huge.surf"
        huge.write_text(pants_text().replace("boundaries 3", "boundaries 1000000000000"))
        message = "boundary count 1000000000000 > 3 * face count 2: some component carries no corner"
        assert invoke(capsys, ["validate", str(huge)]) == (
            1, f"violation counts: {message}\nERROR 1: validation failed with 1 violation(s)\n"
        )
        assert invoke(capsys, ["lengths", str(huge)]) == (1, f"ERROR 1: {huge}: invalid surface: {message}\n")

    def test_missing_file(self, capsys, tmp_path):
        code, out = invoke(capsys, ["validate", str(tmp_path / "nope.surf")])
        assert code == 1
        assert out.startswith("ERROR 1:")
        # A file that is not UTF-8 is named like one that cannot be opened.
        surface = tmp_path / "utf16.surf"
        surface.write_bytes(b"\xff\xfesurface s\n")
        code, out = invoke(capsys, ["validate", str(surface)])
        assert code == 1
        assert out.startswith(f"ERROR 1: cannot read {surface}: 'utf-8' codec can't decode") and len(out.splitlines()) == 1


class TestLengthsCommand:
    def test_csv_default_factors(self, capsys, pants_file):
        code, out = invoke(capsys, ["lengths", str(pants_file)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "edge,b_i,b_j,length"
        b_index = lines.index("boundary,B")
        for row in lines[b_index + 1 : b_index + 4]:
            idx, value = row.split(",")
            assert float(value) == pytest.approx(PANTS_B0, rel=1e-12)
        assert lines[-1] == "chi,-1"

    def test_json_round_trip(self, capsys, pants_file):
        code, out = invoke(capsys, ["lengths", str(pants_file), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["euler_characteristic"] == -1
        assert len(payload["edges"]) == 3
        assert payload["edges"][0]["length"] == pytest.approx(PANTS_EDGE, rel=1e-15)
        assert payload["boundaries"][2]["length"] == pytest.approx(PANTS_B0, rel=1e-12)

    def test_with_factor_file(self, capsys, tmp_path, pants_file):
        factors = tmp_path / "w.csv"
        factors.write_text("boundary_index,w\n1,0.1\n2,0.1\n3,0.1\n")
        code, out = invoke(capsys, ["lengths", str(pants_file), "--factors", str(factors)])
        assert code == 0
        edge_row = out.splitlines()[1]
        got = float(edge_row.split(",")[-1])
        assert got == pytest.approx(2.0 * math.acosh(math.exp(0.2) * 2.0), rel=1e-12)

    def test_commented_factor_file_reads_as_plain(self, capsys, tmp_path, pants_file):
        plain, commented = tmp_path / "plain.csv", tmp_path / "commented.csv"
        plain.write_text("boundary_index,w\n1,0.1\n2,0.2\n3,0.3\n")
        commented.write_text("# made by x\n\nboundary_index,w  # header\n1,0.1\n\n2,0.2 # two\n3,0.3\n# end\n")
        outputs = [invoke(capsys, ["lengths", str(pants_file), "--factors", str(path)]) for path in (plain, commented)]
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]
        commented.write_text("# made by x\nboundary_index,w\nw,0.1\n")
        code, out = invoke(capsys, ["lengths", str(pants_file), "--factors", str(commented)])
        assert (code, out) == (1, f"ERROR 1: {commented} line 3: expected 'boundary_index,value', got 'w,0.1'\n")

    def test_unreadable_or_malformed_factor_file_exits_one(self, capsys, tmp_path, pants_file):
        factors = tmp_path / "w.csv"
        code, out = invoke(capsys, ["lengths", str(pants_file), "--factors", str(factors)])
        assert code == 1
        assert out.startswith(f"ERROR 1: cannot read factors file {factors}:") and len(out.splitlines()) == 1
        factors.write_text("boundary_index,w\n1,0.1\n2;0.1\n")
        code, out = invoke(capsys, ["lengths", str(pants_file), "--factors", str(factors)])
        assert code == 1
        assert out == f"ERROR 1: {factors} line 3: expected 'boundary_index,value', got '2;0.1'\n"
        # A first line with an integer index is data, not a header.
        factors.write_text("1,0.1x\n2,0.5\n3,0.25\n")
        code, out = invoke(capsys, ["lengths", str(pants_file), "--factors", str(factors)])
        assert (code, out) == (1, f"ERROR 1: {factors} line 1: expected 'boundary_index,value', got '1,0.1x'\n")
        factors.write_bytes(b"\xff\xfe1,0.1\n")
        code, out = invoke(capsys, ["lengths", str(pants_file), "--factors", str(factors)])
        assert code == 1
        assert out.startswith(f"ERROR 1: cannot read factors file {factors}:") and len(out.splitlines()) == 1

    @pytest.mark.parametrize("line", ["1,1_0e-1", "\u0661,0.1", "1,\u0660.\u0662"], ids=["separator", "index", "value"])
    def test_factor_numbers_follow_the_surface_grammar(self, capsys, tmp_path, pants_file, line):
        # int and float read '_' separators and other scripts' digits (here
        # 1 and 0.2 in Arabic-Indic digits); factor files hold ASCII numbers
        # without '_', as surface files do.  A first line int can read is
        # data, never a header, so it is refused too.
        factors = tmp_path / "w.csv"
        factors.write_text(f"{line}\n2,0.1\n3,0.1\n", encoding="utf-8")
        code, out = invoke(capsys, ["lengths", str(pants_file), "--factors", str(factors)])
        assert (code, out) == (1, f"ERROR 1: {factors} line 1: expected 'boundary_index,value', got {line!r}\n")

    def test_out_of_domain_factors(self, capsys, tmp_path, pants_file):
        factors = tmp_path / "w.csv"
        factors.write_text("1,-3\n")
        code, out = invoke(capsys, ["lengths", str(pants_file), "--factors", str(factors)])
        assert (code, out) == (1, (
            "ERROR 1: factor outside the admissible domain: an edge slack"
            " w_a + w_b + ln cosh(l0/2) is -2.3068528194400546 <= 0\n"
        ))

    def test_non_finite_factor_is_one_error_line(self, capsys, tmp_path, pants_file):
        factors = tmp_path / "w.csv"
        factors.write_text("1,nan\n")
        code, out = invoke(capsys, ["lengths", str(pants_file), "--factors", str(factors)])
        assert code == 1
        assert out == "ERROR 1: factor entries must be finite, got nan for component 1\n"

    def test_overflowing_factors_are_one_error_line(self, capsys, tmp_path, pants_file):
        # Every edge slack w_a + w_b + ln cosh(l0/2) overflows to +inf.
        factors = tmp_path / "w.csv"
        factors.write_text("1,1e308\n2,1e308\n3,1e308\n")
        with np.errstate(over="ignore"):
            code, out = invoke(capsys, ["lengths", str(pants_file), "--factors", str(factors)])
        assert code == 1
        assert out.startswith("ERROR 1: factor too large") and len(out.splitlines()) == 1

    def test_deterministic_output(self, capsys, pants_file):
        _, first = invoke(capsys, ["lengths", str(pants_file)])
        _, second = invoke(capsys, ["lengths", str(pants_file)])
        assert first == second


@pytest.mark.parametrize(
    "command, flag", [("lengths", "--factors"), ("prescribe", "--target")], ids=["lengths", "prescribe"]
)
class TestVectorFileHeader:
    """A first line of content is a header, and skipped, only when neither
    of its fields reads as a number; a first line with a number in it is
    data, so a typo there is refused, not dropped."""

    ROWS = "1,1.0\n2,0.9\n3,1.1\n"

    @pytest.fixture(autouse=True)
    def in_tmp_path(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # prescribe writes w.csv to the working directory

    def run_with(self, capsys, pants_file, command, flag, text):
        path = Path("vector.csv").resolve()
        path.write_text(text)
        return path, invoke(capsys, [command, str(pants_file), flag, str(path)])

    def test_first_line_with_a_number_is_refused(self, capsys, pants_file, command, flag):
        path, result = self.run_with(capsys, pants_file, command, flag, "1x,0.5\n" + self.ROWS)
        assert result == (1, f"ERROR 1: {path} line 1: expected 'boundary_index,value', got '1x,0.5'\n")

    @pytest.mark.parametrize("header", ["boundary_index,w", "boundary_index,target_length"])
    def test_header_is_skipped(self, capsys, pants_file, command, flag, header):
        _, plain = self.run_with(capsys, pants_file, command, flag, self.ROWS)
        _, headed = self.run_with(capsys, pants_file, command, flag, f"{header}\n" + self.ROWS)
        assert plain[0] == 0
        assert headed == plain


class TestTinyBaseLength:
    """A base length whose slack ln cosh(l0/2) would be subnormal (l0 below
    about 4.2e-154) passes validate but is refused, naming the value, by
    every command that evaluates the metric."""

    @staticmethod
    def _files(tmp_path, length):
        surface = tmp_path / "tiny.surf"
        surface.write_text(pants_text().replace(f"edge 1 2 3 {PANTS_EDGE!r}", f"edge 1 2 3 {length!r}"))
        target = tmp_path / "target.csv"
        target.write_text("1,1.0\n2,1.0\n3,1.0\n")
        return surface, target

    def test_subnormal_slack_is_refused(self, capsys, tmp_path):
        surface, target = self._files(tmp_path, 1e-170)
        assert invoke(capsys, ["validate", str(surface)])[0] == 0
        out_file = str(tmp_path / "out.csv")
        for argv in (
            ["lengths"],
            ["flow", "--t-end", "5", "--out", out_file],
            ["prescribe", "--target", str(target), "--out", out_file],
        ):
            code, out = invoke(capsys, [argv[0], str(surface), *argv[1:]])
            assert code == 1
            assert out.splitlines()[-1].startswith("ERROR 1: base length")
            assert "1e-170" in out

    def test_normal_slack_is_accepted(self, capsys, tmp_path):
        surface, target = self._files(tmp_path, 1e-150)
        code, out = invoke(capsys, ["lengths", str(surface), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["edges"][0]["length"] == pytest.approx(1e-150, rel=1e-15)
        base = [b["length"] for b in payload["boundaries"]]
        assert all(math.isfinite(b) and b > 0.0 for b in base)
        # The base metric solves its own boundary lengths at once.
        target.write_text("".join(f"{i},{b!r}\n" for i, b in enumerate(base, start=1)))
        out_file = str(tmp_path / "out.csv")
        code, out = invoke(capsys, ["prescribe", str(surface), "--target", str(target), "--out", out_file])
        assert code == 0
        assert "iterations=0" in out
        # The flow accepts the metric (its first step then meets the domain
        # wall, where B is singular).
        code, out = invoke(capsys, ["flow", str(surface), "--t-end", "5", "--out", out_file])
        assert "base length" not in out


def test_underflowed_lengths_are_one_error_line_or_none(capsys, tmp_path):
    # At base edges of 1490 every boundary length and every entry of H at
    # w = 0 underflows to 0.  Each command still ends in its exit code.
    surface = tmp_path / "long.surf"
    surface.write_text(pants_text(1490.0))
    target = tmp_path / "target.csv"
    target.write_text("1,1.0\n2,1.0\n3,1.0\n")
    out_file = str(tmp_path / "out.csv")
    codes = []
    for argv in (
        ["validate"],
        ["lengths"],
        ["flow", "--t-end", "10", "--out", out_file],
        ["prescribe", "--target", str(target), "--out", out_file],
        ["check-jacobian", "--samples", "3"],
    ):
        code, out = invoke(capsys, [argv[0], str(surface), *argv[1:]])
        errors = [line for line in out.splitlines() if line.startswith("ERROR")]
        assert errors == ([] if code == 0 else [out.splitlines()[-1]])
        assert code == 0 or errors[0].startswith(f"ERROR {code}:")
        codes.append(code)
    assert codes == [0, 0, 2, 2, 2]


class TestFlowCommand:
    def test_run_and_trace(self, capsys, tmp_path, pants_file):
        out_file = tmp_path / "trace.csv"
        code, out = invoke(
            capsys,
            ["flow", str(pants_file), "--t-end", "5", "--out", str(out_file)],
        )
        assert code == 0
        assert out.splitlines()[0].startswith("# flow t_end=5 rel_tol=1e-08")
        assert "stop_reason=t_end" in out
        text = out_file.read_text()
        assert text.splitlines()[0] == "t,S,minLen,maxArc,w_1,w_2,w_3,B_1,B_2,B_3"
        first_row = text.splitlines()[1].split(",")
        assert float(first_row[0]) == 0.0
        assert float(first_row[1]) == pytest.approx(3.0 * PANTS_B0 ** 2, rel=1e-12)

    def test_cusp_stop(self, capsys, tmp_path, pants_file):
        out_file = tmp_path / "trace.csv"
        code, out = invoke(
            capsys,
            [
                "flow", str(pants_file),
                "--t-end", "1000000",
                "--cusp-tol", "1e-3",
                "--out", str(out_file),
            ],
        )
        assert code == 0
        assert "stop_reason=cusp_tol" in out
        max_b = [l for l in out.splitlines() if l.startswith("max_B=")][0]
        assert float(max_b.split("=")[1]) < 1e-3

    def test_b_lines_are_the_trace_end(self, capsys, tmp_path, pants_file):
        # The printed B_i are the B columns of the CSV's last row, digit for digit.
        out_file = tmp_path / "trace.csv"
        flags = ["--t-end", "1e9", "--cusp-tol", "1e-6"]
        code, out = invoke(capsys, ["flow", str(pants_file), *flags, "--out", str(out_file)])
        assert code == 0
        printed = [line.split("=")[1] for line in out.splitlines() if line.startswith("B_")]
        assert len(printed) == 3
        assert out_file.read_text().splitlines()[-1].split(",")[-3:] == printed

    def test_byte_identical_reruns(self, capsys, tmp_path, pants_file):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        _, text_a = invoke(capsys, ["flow", str(pants_file), "--t-end", "3", "--out", str(out_a)])
        _, text_b = invoke(capsys, ["flow", str(pants_file), "--t-end", "3", "--out", str(out_b)])
        assert out_a.read_text() == out_b.read_text()
        assert text_a.replace(str(out_a), "X") == text_b.replace(str(out_b), "X")

    def test_bad_cusp_tol(self, capsys, pants_file):
        code, out = invoke(capsys, ["flow", str(pants_file), "--t-end", "5", "--cusp-tol", "99"])
        assert code == 1
        assert out.splitlines()[-1].startswith("ERROR 1:")

    @pytest.mark.parametrize(
        "t_end, reason",
        [
            ("1e-14", "t_end"),
            ("1e-300", "t_end"),
            ("1.7976931348623157e308", "cusp_tol"),
            # e^tau overflows in the stages: tau_end = ln(1 + r t_end) is about 709.9.
            pytest.param(
                "1.7976931348623157e308 --cusp-tol 5e-324 --length-cap 1e4", "t_end", id="1.7976931348623157e308-t_end"
            ),
        ],
    )
    def test_extreme_t_end(self, capsys, tmp_path, pants_file, t_end, reason):
        out_file = tmp_path / "trace.csv"
        t_end, *flags = t_end.split()
        code, out = invoke(capsys, ["flow", str(pants_file), "--t-end", t_end, *flags, "--out", str(out_file)])
        assert code == 0
        assert f"stop_reason={reason}" in out.splitlines()
        if reason == "t_end":
            assert f"t_final={float(t_end):.17g}" in out.splitlines()
            assert float(out_file.read_text().splitlines()[-1].split(",")[0]) == float(t_end)

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--t-end", "1e6", "--length-cap", "1"], "length_cap 1.0 must lie above the initial shortest edge"),
            (["--t-end", "1", "--rel-tol", "1e6"], "rel_tol must lie below 1"),
            (["--t-end", "5e-324"], "t_end must be at least"),
        ],
    )
    def test_options_the_run_cannot_honour(self, capsys, tmp_path, pants_file, flags, message):
        out_file = tmp_path / "trace.csv"
        code, out = invoke(capsys, ["flow", str(pants_file), *flags, "--out", str(out_file)])
        assert code == 1
        assert [l for l in out.splitlines() if l.startswith("ERROR")] == [out.splitlines()[-1]]
        assert out.splitlines()[-1].startswith(f"ERROR 1: {message}")
        assert not out_file.exists()

    def test_step_underflow_exits_two(self, capsys, tmp_path, pants_file):
        out_file = tmp_path / "trace.csv"
        argv = ["flow", str(pants_file), "--t-end", "1", "--rel-tol", "1e-300", "--abs-tol", "1e-300"]
        code, out = invoke(capsys, argv + ["--out", str(out_file)])
        assert code == 2
        assert [l for l in out.splitlines() if l.startswith("ERROR")] == [out.splitlines()[-1]]
        assert out.splitlines()[-1].startswith("ERROR 2: step size underflow at t = 0.0")
        assert not out_file.exists()

    @pytest.mark.parametrize("sample_dt", ["inf", "nan", "1e-12", "1e-300"])
    def test_unusable_sample_dt_is_one_error_line(self, capsys, tmp_path, pants_file, sample_dt):
        # An infinite step would write no t = 0 row, and a step far below
        # the final time a grid too large to allocate.
        out_file = tmp_path / "trace.csv"
        argv = ["flow", str(pants_file), "--t-end", "5", "--sample-dt", sample_dt, "--out", str(out_file)]
        code, out = invoke(capsys, argv)
        assert code == 1
        assert [l for l in out.splitlines() if l.startswith("ERROR")] == [out.splitlines()[-1]]
        assert out.splitlines()[-1].startswith("ERROR 1:") and "sample" in out.splitlines()[-1]
        assert not out_file.exists()

    def test_unwritable_out_is_one_error_line(self, capsys, tmp_path, pants_file):
        out_file = tmp_path / "missing" / "trace.csv"
        code, out = invoke(capsys, ["flow", str(pants_file), "--t-end", "5", "--out", str(out_file)])
        assert code == 1
        assert [l for l in out.splitlines() if l.startswith("ERROR")] == [out.splitlines()[-1]]
        assert out.splitlines()[-1].startswith(f"ERROR 1: cannot write {out_file}:")


class TestPrescribeCommand:
    def test_zero_target_rejected(self, capsys, tmp_path, pants_file):
        target = tmp_path / "zeros.csv"
        target.write_text("1,0.0\n2,1.0\n3,1.0\n")
        code, out = invoke(capsys, ["prescribe", str(pants_file), "--target", str(target)])
        assert code == 1
        assert "ERROR 1: target must be strictly positive" in out

    def test_solves_and_writes_csv(self, capsys, tmp_path, pants_file):
        target = tmp_path / "target.csv"
        target.write_text("boundary_index,target_length\n1,1.0\n2,0.9\n3,1.1\n")
        out_file = tmp_path / "w.csv"
        code, out = invoke(
            capsys,
            ["prescribe", str(pants_file), "--target", str(target), "--out", str(out_file)],
        )
        assert code == 0
        assert out.splitlines()[0] == "# prescribe grad_tol=1e-10 max_iter=100"
        lines = out_file.read_text().splitlines()
        assert lines[0] == "boundary_index,w"
        assert len(lines) == 4
        # verify the solution round-trips through the library
        import hexflow

        tri, l0 = hexflow.parse_surface(pants_text())
        w = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert hexflow.boundary_lengths(tri, l0, w) == pytest.approx([1.0, 0.9, 1.1], abs=1e-9)

    def test_iteration_cap_exit_two(self, capsys, tmp_path, pants_file):
        target = tmp_path / "target.csv"
        target.write_text("1,1e-4\n2,1e-4\n3,1e-4\n")
        out_file = tmp_path / "w.csv"
        code, out = invoke(
            capsys,
            [
                "prescribe", str(pants_file),
                "--target", str(target),
                "--max-iter", "1",
                "--out", str(out_file),
            ],
        )
        assert code == 2
        assert "partial factors written" in out
        assert out.splitlines()[-1].startswith("ERROR 2:")
        assert out_file.exists()

    def test_failed_line_search_writes_the_start(self, capsys, tmp_path, pants_file, monkeypatch):
        import hexflow
        from hexflow import prescribe

        monkeypatch.setattr(prescribe, "_merit_gain", lambda *args: None)
        target = tmp_path / "target.csv"
        target.write_text("1,1.0\n2,0.9\n3,1.1\n")
        out_file = tmp_path / "w.csv"
        code, out = invoke(capsys, ["prescribe", str(pants_file), "--target", str(target), "--out", str(out_file)])
        tri, l0 = hexflow.parse_surface(pants_text())
        residual = float(np.abs(hexflow.boundary_lengths(tri, l0, np.zeros(3)) - [1.0, 0.9, 1.1]).max())
        assert code == 2
        assert out.splitlines() == [
            "# prescribe grad_tol=1e-10 max_iter=100",
            "iterations=0",
            f"residual={residual:.17g}",
            f"partial factors written to {out_file}",
            f"ERROR 2: line search failed at iteration 0 (residual {residual:.3e})",
        ]
        assert out_file.read_text() == "boundary_index,w\n1,0\n2,0\n3,0\n"

    def test_singular_jacobian_at_the_wall_writes_the_start(self, capsys, tmp_path):
        # At a base edge of 1e-100, H at w = 0 is singular to working
        # precision: numpy's solve finds it exactly singular.
        text = pants_text().replace(f"edge 1 2 3 {PANTS_EDGE!r}", "edge 1 2 3 1e-100")
        surface = tmp_path / "wall.surf"
        surface.write_text(text)
        tri, l0 = hexflow.parse_surface(text)
        values = hexflow.boundary_lengths(tri, l0, np.full(3, 0.1))
        target = tmp_path / "target.csv"
        target.write_text("".join(f"{i},{v!r}\n" for i, v in enumerate(values.tolist(), start=1)))
        out_file = tmp_path / "w.csv"
        code, out = invoke(capsys, ["prescribe", str(surface), "--target", str(target), "--out", str(out_file)])
        assert code == 2
        errors = [line for line in out.splitlines() if line.startswith("ERROR")]
        assert errors == [out.splitlines()[-1]]
        assert errors[0].startswith("ERROR 2: no ascent step at iteration 0")
        assert f"partial factors written to {out_file}" in out
        assert out_file.read_text() == "boundary_index,w\n1,0\n2,0\n3,0\n"

    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_non_finite_or_nonpositive_tol_rejected(self, capsys, tmp_path, pants_file, tol):
        target = tmp_path / "target.csv"
        target.write_text("1,1.0\n2,0.9\n3,1.1\n")
        out_file = tmp_path / "w.csv"
        argv = ["prescribe", str(pants_file), "--target", str(target), "--out", str(out_file)]
        code, out = invoke(capsys, argv + ["--tol", tol])
        assert code == 1
        assert out == f"ERROR 1: grad_tol must be positive and finite, got {float(tol)!r}\n"
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "target_text, max_iter",
        [("1,1.0\n2,0.9\n3,1.1\n", "100"), ("1,1e-4\n2,1e-4\n3,1e-4\n", "2")],
        ids=["solution", "partial"],
    )
    def test_unwritable_out_is_one_error_line(self, capsys, tmp_path, pants_file, target_text, max_iter):
        target = tmp_path / "target.csv"
        target.write_text(target_text)
        out_file = tmp_path / "missing" / "w.csv"
        argv = ["prescribe", str(pants_file), "--target", str(target), "--max-iter", max_iter, "--out", str(out_file)]
        code, out = invoke(capsys, argv)
        assert code == 1
        assert [l for l in out.splitlines() if l.startswith("ERROR")] == [out.splitlines()[-1]]
        assert out.splitlines()[-1].startswith(f"ERROR 1: cannot write {out_file}:")

    @pytest.mark.parametrize("max_iter", ["0", "-3", "2.5"])
    def test_iteration_cap_below_one_is_a_usage_error(self, capsys, tmp_path, pants_file, max_iter):
        target = tmp_path / "target.csv"
        target.write_text("1,1.0\n2,0.9\n3,1.1\n")
        out_file = tmp_path / "w.csv"
        argv = ["prescribe", str(pants_file), "--target", str(target), "--max-iter", max_iter, "--out", str(out_file)]
        code, out = invoke(capsys, argv)
        assert code == 64
        assert out.startswith("ERROR 64:") and "--max-iter" in out and len(out.splitlines()) == 1
        assert not out_file.exists()

    def test_non_finite_jacobian_is_one_error_line(self, capsys, tmp_path, pants_file, monkeypatch):
        from hexflow import prescribe

        jacobian = prescribe.boundary_jacobian
        monkeypatch.setattr(prescribe, "boundary_jacobian", lambda *args: jacobian(*args) * np.nan)
        # Targets above the tail coefficients K = 1 of pants ask for no
        # jump, so iteration 1 is a Newton step from w = 0.
        target = tmp_path / "target.csv"
        target.write_text("1,1.2\n2,1.1\n3,1.3\n")
        out_file = tmp_path / "w.csv"
        code, out = invoke(capsys, ["prescribe", str(pants_file), "--target", str(target), "--out", str(out_file)])
        assert code == 1
        assert [l for l in out.splitlines() if l.startswith("ERROR")] == [out.splitlines()[-1]]
        assert out.splitlines()[-1].startswith("ERROR 1:")
        assert not out_file.exists()

    def test_missing_component_in_target(self, capsys, tmp_path, pants_file):
        target = tmp_path / "target.csv"
        target.write_text("1,1.0\n2,1.0\n")
        code, out = invoke(capsys, ["prescribe", str(pants_file), "--target", str(target)])
        assert code == 1
        assert "missing boundary components" in out

    def test_commented_target_file_reads_as_plain(self, capsys, tmp_path, pants_file):
        plain, commented = tmp_path / "plain.csv", tmp_path / "commented.csv"
        plain.write_text("boundary_index,target_length\n1,1.0\n2,0.9\n3,1.1\n")
        commented.write_text("# made by x\nboundary_index,target_length\n\n1,1.0 # first\n2,0.9\n\n3,1.1\n# end\n")
        outputs = []
        for path in (plain, commented):
            out_file = tmp_path / f"w_{path.stem}.csv"
            code, out = invoke(capsys, ["prescribe", str(pants_file), "--target", str(path), "--out", str(out_file)])
            outputs.append((code, out.replace(str(out_file), "OUT"), out_file.read_text()))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]

    def test_unreadable_target_file_exits_one(self, capsys, tmp_path, pants_file):
        target = tmp_path / "absent.csv"
        out_file = tmp_path / "w.csv"
        code, out = invoke(capsys, ["prescribe", str(pants_file), "--target", str(target), "--out", str(out_file)])
        assert code == 1
        assert out.startswith(f"ERROR 1: cannot read target file {target}:") and len(out.splitlines()) == 1
        assert not out_file.exists()
        # A file that is not UTF-8 is named the same way.
        target.write_bytes(b"\xff\xfe1,1.0\n")
        code, out = invoke(capsys, ["prescribe", str(pants_file), "--target", str(target), "--out", str(out_file)])
        assert code == 1
        assert out.startswith(f"ERROR 1: cannot read target file {target}:") and len(out.splitlines()) == 1
        assert not out_file.exists()

    @pytest.mark.parametrize("line", ["2,1.0,7", "2,abc", "4,1.0", "1,2.0"])
    def test_malformed_target_line_exits_one(self, capsys, tmp_path, pants_file, line):
        target = tmp_path / "target.csv"
        target.write_text(f"boundary_index,target_length\n1,1.0\n{line}\n3,1.1\n")
        out_file = tmp_path / "w.csv"
        code, out = invoke(capsys, ["prescribe", str(pants_file), "--target", str(target), "--out", str(out_file)])
        assert code == 1
        assert out.startswith("ERROR 1:") and len(out.splitlines()) == 1
        assert not out_file.exists()

    @pytest.mark.parametrize("surface", ["pants", "F40-seed2"])
    def test_nan_trial_point_is_one_error_line(self, capsys, tmp_path, pants_file, monkeypatch, surface):
        from hexflow import prescribe

        newton_step = prescribe._newton_step

        def with_nan(H, grad):
            step = newton_step(H, grad)
            step[1] = np.nan
            return step

        monkeypatch.setattr(prescribe, "_newton_step", with_nan)
        target = tmp_path / "target.csv"
        target.write_text("1,1.0\n2,0.9\n3,1.1\n")
        surface_file = pants_file
        if surface != "pants":
            # Eight components: numpy's repr of the whole factor would span two lines.
            tri, l0 = generated(40, 2)
            surface_file = tmp_path / "generated.surf"
            surface_file.write_text(serialize_surface(tri, l0))
            target.write_text("".join(f"{i},1.0\n" for i in range(1, tri.n_boundaries + 1)))
        out_file = tmp_path / "w.csv"
        code, out = invoke(capsys, ["prescribe", str(surface_file), "--target", str(target), "--out", str(out_file)])
        assert code == 1
        assert [l for l in out.splitlines() if l.startswith("ERROR")] == [out.splitlines()[-1]]
        assert out.splitlines()[-1].startswith("ERROR 1: factor entries must be finite")
        assert not out_file.exists()


class TestOutputFiles:
    """--out is rewritten in place and cut to the new length; the bytes are
    those of a fresh write, and devices, which cannot be cut, still work."""

    @pytest.fixture(params=["flow", "prescribe"])
    def argv(self, request, tmp_path, pants_file):
        if request.param == "flow":
            return lambda out: ["flow", str(pants_file), "--t-end", "3", "--out", str(out)]
        target = tmp_path / "target.csv"
        target.write_text("1,1.0\n2,0.9\n3,1.1\n")
        return lambda out: ["prescribe", str(pants_file), "--target", str(target), "--out", str(out)]

    def test_longer_file_is_cut_to_a_fresh_write(self, capsys, tmp_path, argv):
        fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
        invoke(capsys, argv(fresh))
        reused.write_bytes(b"x" * (3 * len(fresh.read_bytes())) + b"\n")
        code, _ = invoke(capsys, argv(reused))
        assert code == 0
        assert reused.read_bytes() == fresh.read_bytes()

    def test_inode_and_mode_are_kept(self, capsys, tmp_path, argv):
        out = tmp_path / "out.csv"
        out.write_text("old contents\n" * 100)
        out.chmod(0o640)
        before = out.stat()
        code, _ = invoke(capsys, argv(out))
        after = out.stat()
        assert code == 0
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    def test_symlink_is_written_through(self, capsys, tmp_path, argv):
        fresh, real, link = tmp_path / "fresh.csv", tmp_path / "real.csv", tmp_path / "link.csv"
        invoke(capsys, argv(fresh))
        real.write_text("old contents\n" * 100)
        link.symlink_to(real)
        code, _ = invoke(capsys, argv(link))
        assert code == 0
        assert link.is_symlink()
        assert real.read_bytes() == fresh.read_bytes()

    def test_dev_null(self, capsys, tmp_path, argv):
        out = tmp_path / "out.csv"
        _, expected = invoke(capsys, argv(out))
        code, got = invoke(capsys, argv("/dev/null"))
        assert code == 0
        assert got == expected.replace(str(out), "/dev/null")


class TestCheckJacobianCommand:
    def test_passes_on_good_surface(self, capsys, pants_file):
        code, out = invoke(capsys, ["check-jacobian", str(pants_file), "--samples", "25"])
        assert code == 0
        assert "all jacobian checks passed" in out
        sym = [l for l in out.splitlines() if l.startswith("max_symmetry_deviation=")][0]
        assert float(sym.split("=")[1]) < 1e-12

    def test_failed_check_exits_two(self, capsys, pants_file, monkeypatch):
        from hexflow import cli

        jacobian = cli.boundary_jacobian
        monkeypatch.setattr(cli, "boundary_jacobian", lambda *args: -jacobian(*args))
        code, out = invoke(capsys, ["check-jacobian", str(pants_file), "--samples", "3"])
        assert code == 2
        assert out.splitlines()[-1] == "ERROR 2: jacobian checks failed"
        assert "passed" not in out

    def test_one_draw_per_sample(self, capsys, tmp_path, monkeypatch):
        # On short pants edges some draws lie within 0.05 of the wall; each
        # is lifted inwards rather than drawn again.
        from hexflow import cli

        checks = []
        check = cli.in_domain

        def counted(*args):
            checks.append(check(*args))
            return checks[-1]

        monkeypatch.setattr(cli, "in_domain", counted)
        surface = tmp_path / "short.surf"
        surface.write_text(pants_text(0.1))
        code, out = invoke(capsys, ["check-jacobian", str(surface), "--samples", "10"])
        assert (code, out.splitlines()[-1]) == (0, "all jacobian checks passed")
        assert len(checks) == 10
        assert any(c.margin <= 0.05 for c in checks)

    def test_deterministic(self, capsys, pants_file):
        _, a = invoke(capsys, ["check-jacobian", str(pants_file), "--samples", "10"])
        _, b = invoke(capsys, ["check-jacobian", str(pants_file), "--samples", "10"])
        assert a == b

    @pytest.mark.parametrize("samples", ["0", "-3", "2.5"])
    def test_sample_count_below_one_is_a_usage_error(self, capsys, pants_file, samples):
        # Checking nothing must not report that every check passed.
        code, out = invoke(capsys, ["check-jacobian", str(pants_file), "--samples", samples])
        assert code == 64
        assert out.startswith("ERROR 64:") and "--samples" in out
        assert "passed" not in out


class TestConsecutiveRuns:
    """One parser serves every run; no flag value carries over to the next."""

    def test_lengths_format_does_not_leak(self, capsys, pants_file):
        code, out = invoke(capsys, ["lengths", str(pants_file), "--format", "json"])
        assert code == 0 and out.startswith("{")
        code, out = invoke(capsys, ["lengths", str(pants_file)])
        assert code == 0
        assert out.splitlines()[0] == "edge,b_i,b_j,length"

    def test_flow_cusp_tol_does_not_leak(self, capsys, tmp_path, pants_file):
        argv = ["flow", str(pants_file), "--t-end", "5", "--out", str(tmp_path / "trace.csv")]
        code, out = invoke(capsys, argv + ["--cusp-tol", "1e-3"])
        assert code == 0 and " cusp_tol=0.001 " in out.splitlines()[0]
        code, out = invoke(capsys, argv)
        assert code == 0
        assert out.splitlines()[0] == (
            "# flow t_end=5 rel_tol=1e-08 abs_tol=1e-10 cusp_tol=9.9999999999999995e-07"
            " length_cap=600 sample_dt=auto"
        )


class TestFootprint:
    """One fresh interpreter per command, since this process has loaded
    scipy.linalg already.  No command loads scipy.linalg (~27 MiB of peak
    RSS; ``prescribe`` solves with numpy's LAPACK), scipy.integrate
    (~23 MiB) or numpy.polynomial (~1.2 MiB; the Gauss-Legendre rules are
    written out), which the benchmarks' peak_rss_mb bound would reject."""

    def loaded(self, tmp_path, argv):
        """Exit code, stdout and the scipy.linalg, scipy.integrate and
        numpy.polynomial module lists (as printed) after ``run(argv)``."""
        source = str(Path(hexflow.__file__).resolve().parents[1])
        script = (
            "import contextlib, io, sys\n"
            f"sys.path.insert(0, {source!r})\n"
            "from hexflow.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            f"    code = run({argv!r})\n"
            "print(code)\n"
            "print(sorted(name for name in sys.modules if name.startswith('scipy.linalg')))\n"
            "print(sorted(name for name in sys.modules if name.startswith('scipy.integrate')))\n"
            "print(sorted(name for name in sys.modules if name.startswith('numpy.polynomial')))\n"
            "print(out.getvalue(), end='')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True, cwd=tmp_path
        )
        code, linalg, integrate, polynomial, out = result.stdout.split("\n", 4)
        return int(code), out, linalg, integrate, polynomial

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate"],
            ["lengths"],
            ["flow", "--t-end", "1e6", "--cusp-tol", "1e-4"],
            ["check-jacobian", "--samples", "3"],
            ["prescribe", "--target", "target.csv"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_command_leaves_scipy_linalg_and_integrate_unloaded(self, tmp_path, pants_file, argv):
        (tmp_path / "target.csv").write_text("1,1.0\n2,0.9\n3,1.1\n")
        argv = [argv[0], str(pants_file)] + argv[1:]
        code, out, linalg, integrate, polynomial = self.loaded(tmp_path, argv)
        assert code == 0
        assert linalg == "[]"
        assert integrate == "[]"
        assert polynomial == "[]"
        if argv[0] == "flow":
            assert "stop_reason=cusp_tol" in out.splitlines()
        if argv[0] == "prescribe":
            assert re.fullmatch(r"iterations=[1-9]\d*", out.splitlines()[1])  # it took a Newton step


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        code, out = invoke(capsys, ["frobnicate"])
        assert code == 64
        assert out.startswith("ERROR 64:")

    def test_missing_required_flag(self, capsys, pants_file):
        code, out = invoke(capsys, ["flow", str(pants_file)])
        assert code == 64
        assert out.startswith("ERROR 64:")

    def test_error_lines_are_single_line_parsable(self, capsys, tmp_path):
        code, out = invoke(capsys, ["validate", str(tmp_path / "missing.surf")])
        error_lines = [l for l in out.splitlines() if l.startswith("ERROR")]
        assert len(error_lines) == 1
        prefix, rest = error_lines[0].split(":", 1)
        assert prefix == "ERROR 1"
        assert rest.strip()


def test_readme_synopsis_lists_every_flag():
    # Each `hexflow <command>` line of the README's block under "## Command
    # line" (indented lines continue it) names exactly the parser's flags.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```")[1]
    synopsis = {}
    for line in filter(str.strip, block.splitlines()):
        if line.startswith("hexflow "):
            command = line.split()[1]
        synopsis[command] = synopsis.get(command, set()) | set(re.findall(r"--[a-z-]+", line))
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        command: {o for a in parser._actions if not isinstance(a, argparse._HelpAction) for o in a.option_strings}
        for command, parser in subparsers.choices.items()
    }
    assert synopsis == flags
