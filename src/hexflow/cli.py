"""Command-line front end.

Subcommands: validate, lengths, flow, prescribe, check-jacobian.  Exit
codes: 0 success, 1 an input problem (an input file that cannot be read
or is malformed, a failed validation, an invalid value) or an output
file that cannot be written, 2 numeric failure (iteration cap, step
underflow, failed checks), 64 usage error.  Every error path prints a
single machine-parsable line prefixed ``ERROR <code>:``.  Output is
deterministic: fixed row order, 17 significant digits in CSV, shortest
round-trip floats in JSON, and for flow and prescribe a run header
restating every field of their options dataclass.  The flow flags are the
FlowOptions fields themselves; prescribe exposes only --tol (grad_tol) and
--max-iter.
"""

import argparse
import json
import os
import stat
import sys
from dataclasses import MISSING, fields

import numpy as np

from .conformal import boundary_jacobian, geometry_rows, in_domain, surface_geometry
from .errors import ConvergenceError, DomainError, HexflowError, ParseError
from .flow import FlowOptions, cusp_report, integrate_flow, trace_csv
from .prescribe import SolveOptions, solve_prescribed
from .surface import _plain, euler_characteristic, parse_surface, validate

_CHECK_SEED = 1787


class UsageError(Exception):
    pass


class OutputError(Exception):
    """An output file could not be written (exit 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x):
    return f"{x:.17g}"


def _header(command, opts):
    """Print the run header: every field of the options object, None as auto."""
    values = ((f.name, getattr(opts, f.name)) for f in fields(opts))
    print(f"# {command}" + "".join(f" {name}={'auto' if v is None else _fmt(v)}" for name, v in values))


def _read_text(path, name):
    """The text of the file at ``path``; ParseError 'cannot read <name>'
    where it cannot be opened or is not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {name}: {exc}") from exc


def _load_surface(path, strict=True):
    text = _read_text(path, path)
    try:
        return parse_surface(text, strict=strict)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _reads(number, text):
    """Whether ``number`` (int or float) reads ``text``."""
    try:
        number(text)
    except ValueError:
        return False
    return True


def _read_vector(path, n, what, default=None):
    """The length-n vector in the ``what`` file at ``path``, CSV lines
    'boundary_index,value' of ASCII numbers without '_', as in a surface
    file: '#' starts a comment, blank lines are ignored, and a first line
    of content neither of whose fields int or float reads, in any script,
    is a header and skipped.  Every line is parsed before the indices are
    checked against 1..n; components the file leaves out take
    ``default``, and without one every component must be given."""
    values = {}
    header = True  # the first line of content may be a header
    for line_no, raw in enumerate(_read_text(path, f"{what} file {path}").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        first, header = header, False
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise ParseError(f"{path} line {line_no}: expected 'boundary_index,value', got {raw!r}")
        try:
            index, value = int(_plain(parts[0])), float(_plain(parts[1]))
        except ValueError:
            if first and not any(map(_reads, (int, float), parts)):
                continue
            raise ParseError(f"{path} line {line_no}: expected 'boundary_index,value', got {raw!r}") from None
        if index in values:
            raise ParseError(f"{path} line {line_no}: duplicate boundary index {index}")
        values[index] = value
    for index in values:
        if not 1 <= index <= n:
            raise ParseError(f"{what} file names boundary {index} outside 1..{n}")
    missing = [i for i in range(1, n + 1) if i not in values]
    if default is None and missing:
        raise ParseError(f"{what} file missing boundary components {missing}")
    return np.array([values.get(i, default) for i in range(1, n + 1)], dtype=float)


def _positive_int(text):
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_validate(args):
    tri, metric = _load_surface(args.surface, strict=False)
    report = validate(tri, metric)
    if report.ok:
        print(
            f"ok, n={tri.n_boundaries}, F={len(tri.faces)}, "
            f"E={len(tri.edges)}, chi={euler_characteristic(tri)}"
        )
        return 0
    for v in report.violations:
        ids = " ".join(str(i) for i in v.ids)
        print(f"violation {v.code}: {v.message}" + (f" [{ids}]" if ids else ""))
    print(f"ERROR 1: validation failed with {len(report.violations)} violation(s)")
    return 1


def _cmd_lengths(args):
    tri, metric = _load_surface(args.surface)
    n = tri.n_boundaries
    w = _read_vector(args.factors, n, "factors", default=0.0) if args.factors else np.zeros(n)
    geometry = surface_geometry(tri, metric, w)
    B = geometry.boundary
    chi = euler_characteristic(tri)
    edge_rows = [
        (e.edge_id, e.b_i, e.b_j, length)
        for e, length in zip(tri.edges, geometry.edge_lengths.tolist())
    ]
    face_rows = [(f.face_id, arcs) for f, arcs in zip(tri.faces, geometry.arcs.tolist())]

    if args.format == "json":
        payload = {
            "edges": [
                {"edge": eid, "b_i": bi, "b_j": bj, "length": length}
                for eid, bi, bj, length in edge_rows
            ],
            "faces": [
                {"face": fid, "arcs": list(arcs)} for fid, arcs in face_rows
            ],
            "boundaries": [
                {"boundary": i + 1, "length": float(B[i])} for i in range(n)
            ],
            "euler_characteristic": chi,
        }
        print(json.dumps(payload, indent=2))
    else:
        print("edge,b_i,b_j,length")
        for eid, bi, bj, length in edge_rows:
            print(f"{eid},{bi},{bj},{_fmt(length)}")
        print("face,arc_0,arc_1,arc_2")
        for fid, arcs in face_rows:
            print(f"{fid},{_fmt(arcs[0])},{_fmt(arcs[1])},{_fmt(arcs[2])}")
        print("boundary,B")
        for i in range(n):
            print(f"{i + 1},{_fmt(B[i])}")
        print(f"chi,{chi}")
    return 0


def _cmd_flow(args):
    tri, metric = _load_surface(args.surface)
    opts = FlowOptions(**{f.name: getattr(args, f.name) for f in fields(FlowOptions)})
    _header("flow", opts)
    trace = integrate_flow(tri, metric, opts)
    _write_file(args.out, trace_csv(trace.sampled, tri.n_boundaries))
    final = cusp_report(tri, metric, trace.accepted.factors[-1])
    print(f"stop_reason={trace.stop_reason}")
    print(f"t_final={_fmt(trace.accepted.times[-1])}")
    print(f"steps_accepted={len(trace.accepted) - 1}")
    print(f"error_estimate={_fmt(trace.error_estimate)}")
    print(f"max_B={_fmt(final.max_boundary)}")
    print(f"min_edge={_fmt(final.min_edge)}")
    print(f"max_edge={_fmt(final.max_edge)}")
    print(f"max_arc={_fmt(final.max_arc)}")
    for i, value in enumerate(final.boundary, start=1):
        print(f"B_{i}={_fmt(value)}")
    print(f"trace written to {args.out}")
    return 0


def _cmd_prescribe(args):
    tri, metric = _load_surface(args.surface)
    n = tri.n_boundaries
    target = _read_vector(args.target, n, "target")
    opts = SolveOptions(grad_tol=args.tol, max_iter=args.max_iter)
    _header("prescribe", opts)
    failure = None
    try:
        result = solve_prescribed(tri, metric, target, opts)
    except ConvergenceError as exc:
        result, failure = exc.partial, exc
    print(f"iterations={result.iterations}")
    print(f"residual={_fmt(result.residual)}")
    _write_factor_csv(args.out, result.factors)
    print(f"{'' if failure is None else 'partial '}factors written to {args.out}")
    if failure is None:
        return 0
    print(f"ERROR 2: {failure}")
    return 2


def _write_factor_csv(path, factors):
    rows = "".join(f"{i},{_fmt(value)}\n" for i, value in enumerate(factors, start=1))
    _write_file(path, "boundary_index,w\n" + rows)


def _write_file(path, text):
    """Write ``text`` to ``path`` in place: an existing file is overwritten
    from its start and then cut to the new length, never truncated to zero
    first (on ext4 that truncation makes each close start writeback).
    Devices and pipes, which cannot be cut, are only written."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        with open(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            if stat.S_ISREG(os.fstat(fd).st_mode):
                handle.truncate()
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc}") from exc


def _cmd_check_jacobian(args):
    tri, metric = _load_surface(args.surface)
    n = tri.n_boundaries
    rng = np.random.default_rng(_CHECK_SEED)
    sym_worst = 0.0
    fd_worst = 0.0
    eig_worst = -np.inf
    for _ in range(args.samples):
        w = rng.uniform(-0.2, 0.8, n)
        margin = in_domain(tri, metric, w).margin
        if margin <= 0.05:
            # A constant added to every entry raises each edge slack
            # w_a + w_b + ln cosh(l0/2) by twice itself: lift the margin to 0.1.
            w += 0.5 * (0.1 - margin)
        H = boundary_jacobian(tri, metric, w)
        # An H that underflowed to 0 is measured absolutely; its eigenvalue
        # 0 fails the definiteness check.
        scale = float(np.max(np.abs(H))) or 1.0
        sym_worst = max(sym_worst, float(np.max(np.abs(H - H.T))) / scale)
        eig_worst = max(eig_worst, float(np.max(np.linalg.eigvalsh(H))))
        step = 1e-5
        # Row j of the stack is w + step e_j, row n + j is w - step e_j.
        bumps = step * np.eye(n)
        B = geometry_rows(tri, metric, np.concatenate([w + bumps, w - bumps])).boundary
        for j in range(n):
            column = (B[j] - B[n + j]) / (2.0 * step)
            fd_worst = max(fd_worst, float(np.max(np.abs(column - H[:, j]))) / scale)
    print(f"# check-jacobian samples={args.samples} seed={_CHECK_SEED} fd_step=1e-05")
    print(f"max_symmetry_deviation={_fmt(sym_worst)}")
    print(f"max_fd_deviation={_fmt(fd_worst)}")
    print(f"max_eigenvalue={_fmt(eig_worst)}")
    ok = sym_worst < 1e-12 and fd_worst < 1e-6 and eig_worst < 0.0
    if not ok:
        print("ERROR 2: jacobian checks failed")
        return 2
    print("all jacobian checks passed")
    return 0


def build_parser():
    parser = _Parser(prog="hexflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a surface file and report violations")
    p.add_argument("surface")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("lengths", help="rescaled edge lengths, arcs and boundary lengths")
    p.add_argument("surface")
    p.add_argument("--factors", help="CSV boundary_index,w (defaults to w = 0)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_lengths)

    p = sub.add_parser("flow", help="integrate the boundary-length flow")
    p.add_argument("surface")
    for f in fields(FlowOptions):
        flag = "--" + f.name.replace("_", "-")
        p.add_argument(flag, type=float, required=f.default is MISSING, default=f.default)
    p.add_argument("--out", default="trace.csv")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("prescribe", help="solve for factors with given boundary lengths")
    p.add_argument("surface")
    p.add_argument("--target", required=True, help="CSV boundary_index,target_length")
    p.add_argument("--tol", type=float, default=SolveOptions.grad_tol)
    p.add_argument("--max-iter", type=_positive_int, default=SolveOptions.max_iter, dest="max_iter")
    p.add_argument("--out", default="w.csv")
    p.set_defaults(func=_cmd_prescribe)

    p = sub.add_parser("check-jacobian", help="certify symmetry, definiteness and finite differences")
    p.add_argument("surface")
    p.add_argument("--samples", type=_positive_int, default=200)
    p.set_defaults(func=_cmd_check_jacobian)

    return parser


_PARSER = build_parser()


def run(argv):
    """Execute one CLI invocation; returns the exit status."""
    try:
        args = _PARSER.parse_args(argv)
    except UsageError as exc:
        print(f"ERROR 64: {exc}")
        return 64
    try:
        return args.func(args)
    except (ParseError, ValueError, DomainError, OutputError) as exc:
        print(f"ERROR 1: {exc}")
        return 1
    except HexflowError as exc:
        print(f"ERROR 2: {exc}")
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
