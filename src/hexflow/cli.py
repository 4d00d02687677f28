"""Command-line front end.

Subcommands: validate, lengths, flow, prescribe, check-jacobian.  Exit
codes: 0 success, 1 validation failure, 2 numeric failure (iteration cap,
step underflow, failed checks), 64 usage error.  Every error path prints
a single machine-parsable line prefixed ``ERROR <code>:``.  Output is
deterministic: fixed row order, 17 significant digits in CSV, shortest
round-trip floats in JSON, and for flow and prescribe a run header
restating every field of their options dataclass.  The flow flags are the
FlowOptions fields themselves; prescribe exposes only --tol (grad_tol) and
--max-iter.
"""

import argparse
import json
import sys
from dataclasses import MISSING, fields

import numpy as np

from .conformal import boundary_jacobian, boundary_lengths, in_domain, surface_geometry
from .errors import ConvergenceError, DomainError, HexflowError, ParseError
from .flow import FlowOptions, cusp_report, integrate_flow, trace_csv
from .prescribe import SolveOptions, solve_prescribed
from .surface import euler_characteristic, parse_surface, validate

_CHECK_SEED = 1787


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x):
    return f"{x:.17g}"


def _header(command, opts):
    """Print the run header: every field of the options object, None as auto."""
    values = ((f.name, getattr(opts, f.name)) for f in fields(opts))
    print(f"# {command}" + "".join(f" {name}={'auto' if v is None else _fmt(v)}" for name, v in values))


def _load_surface(path, strict=True):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_surface(text, strict=strict)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _read_indexed_csv(path, what):
    """CSV lines 'boundary_index,value'; a non-numeric first line is
    treated as a header and skipped."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise HexflowError(f"cannot read {what} file {path}: {exc}") from exc
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 2:
            raise HexflowError(f"{path} line {line_no}: expected 'boundary_index,value', got {raw!r}")
        try:
            index = int(parts[0])
            value = float(parts[1])
        except ValueError:
            if line_no == 1:
                continue  # header row
            raise HexflowError(f"{path} line {line_no}: expected 'boundary_index,value', got {raw!r}") from None
        if index in values:
            raise HexflowError(f"{path} line {line_no}: duplicate boundary index {index}")
        values[index] = value
    return values


def _vector_from_map(values, n, what, default=None):
    out = np.zeros(n) if default is None else np.full(n, default)
    for index, value in values.items():
        if not 1 <= index <= n:
            raise HexflowError(f"{what} names boundary {index} outside 1..{n}")
        out[index - 1] = value
    missing = [i for i in range(1, n + 1) if i not in values]
    if default is None and missing:
        raise HexflowError(f"{what} missing boundary components {missing}")
    return out


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
    if args.factors:
        w = _vector_from_map(_read_indexed_csv(args.factors, "factors"), n, "factors file", default=0.0)
    else:
        w = np.zeros(n)
    check = in_domain(tri, metric, w)
    if not check.ok:
        raise DomainError(f"factors outside the admissible domain (margin {check.margin!r})")
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
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(trace_csv(trace.sampled, tri.n_boundaries))
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
    target = _vector_from_map(_read_indexed_csv(args.target, "target"), n, "target file")
    opts = SolveOptions(grad_tol=args.tol, max_iter=args.max_iter)
    _header("prescribe", opts)
    try:
        result = solve_prescribed(tri, metric, target, opts)
    except ConvergenceError as exc:
        print(f"iterations={exc.partial.iterations if exc.partial else args.max_iter}")
        if exc.partial is not None:
            print(f"residual={_fmt(exc.partial.residual)}")
            _write_factor_csv(args.out, exc.partial.factors)
            print(f"partial factors written to {args.out}")
        print(f"ERROR 2: {exc}")
        return 2
    print(f"iterations={result.iterations}")
    print(f"residual={_fmt(result.residual)}")
    _write_factor_csv(args.out, result.factors)
    print(f"factors written to {args.out}")
    return 0


def _write_factor_csv(path, factors):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("boundary_index,w\n")
        for i, value in enumerate(factors, start=1):
            handle.write(f"{i},{_fmt(value)}\n")


def _cmd_check_jacobian(args):
    tri, metric = _load_surface(args.surface)
    n = tri.n_boundaries
    rng = np.random.default_rng(_CHECK_SEED)
    sym_worst = 0.0
    fd_worst = 0.0
    eig_worst = -np.inf
    taken = 0
    while taken < args.samples:
        w = rng.uniform(-0.2, 0.8, n)
        if in_domain(tri, metric, w).margin <= 0.05:
            continue
        taken += 1
        H = boundary_jacobian(tri, metric, w)
        scale = float(np.max(np.abs(H)))
        sym_worst = max(sym_worst, float(np.max(np.abs(H - H.T))) / scale)
        eig_worst = max(eig_worst, float(np.max(np.linalg.eigvalsh(H))))
        step = 1e-5
        for j in range(n):
            bump = np.zeros(n)
            bump[j] = step
            column = (
                boundary_lengths(tri, metric, w + bump)
                - boundary_lengths(tri, metric, w - bump)
            ) / (2.0 * step)
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
    p.add_argument("--max-iter", type=int, default=SolveOptions.max_iter, dest="max_iter")
    p.add_argument("--out", default="w.csv")
    p.set_defaults(func=_cmd_prescribe)

    p = sub.add_parser("check-jacobian", help="certify symmetry, definiteness and finite differences")
    p.add_argument("surface")
    p.add_argument("--samples", type=int, default=200)
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
    except (ParseError, ValueError, DomainError) as exc:
        print(f"ERROR 1: {exc}")
        return 1
    except HexflowError as exc:
        print(f"ERROR 2: {exc}")
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
