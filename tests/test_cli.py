import json
import math

import numpy as np
import pytest

from hexflow.cli import run

from conftest import PANTS_EDGE, pants_text

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
        bad.write_text("surface s\nboundaries 2\nedge 1 1 2 0.0\n")
        code, out = invoke(capsys, ["validate", str(bad)])
        assert code == 1
        assert out.startswith("ERROR 1:")
        assert "line 3" in out

    def test_missing_file(self, capsys, tmp_path):
        code, out = invoke(capsys, ["validate", str(tmp_path / "nope.surf")])
        assert code == 1
        assert out.startswith("ERROR 1:")


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

    def test_out_of_domain_factors(self, capsys, tmp_path, pants_file):
        factors = tmp_path / "w.csv"
        factors.write_text("1,-0.5\n2,-0.5\n3,-0.5\n")
        code, out = invoke(capsys, ["lengths", str(pants_file), "--factors", str(factors)])
        assert code == 1
        assert out.startswith("ERROR 1:")

    def test_non_finite_factor_is_one_error_line(self, capsys, tmp_path, pants_file):
        factors = tmp_path / "w.csv"
        factors.write_text("1,nan\n")
        code, out = invoke(capsys, ["lengths", str(pants_file), "--factors", str(factors)])
        assert code == 1
        assert out == "ERROR 1: factors outside the admissible domain (margin nan)\n"

    def test_deterministic_output(self, capsys, pants_file):
        _, first = invoke(capsys, ["lengths", str(pants_file)])
        _, second = invoke(capsys, ["lengths", str(pants_file)])
        assert first == second


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
                "--max-iter", "2",
                "--out", str(out_file),
            ],
        )
        assert code == 2
        assert "partial factors written" in out
        assert out.splitlines()[-1].startswith("ERROR 2:")
        assert out_file.exists()

    def test_missing_component_in_target(self, capsys, tmp_path, pants_file):
        target = tmp_path / "target.csv"
        target.write_text("1,1.0\n2,1.0\n")
        code, out = invoke(capsys, ["prescribe", str(pants_file), "--target", str(target)])
        assert code == 2
        assert "missing boundary components" in out


class TestCheckJacobianCommand:
    def test_passes_on_good_surface(self, capsys, pants_file):
        code, out = invoke(capsys, ["check-jacobian", str(pants_file), "--samples", "25"])
        assert code == 0
        assert "all jacobian checks passed" in out
        sym = [l for l in out.splitlines() if l.startswith("max_symmetry_deviation=")][0]
        assert float(sym.split("=")[1]) < 1e-12

    def test_deterministic(self, capsys, pants_file):
        _, a = invoke(capsys, ["check-jacobian", str(pants_file), "--samples", "10"])
        _, b = invoke(capsys, ["check-jacobian", str(pants_file), "--samples", "10"])
        assert a == b


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
