"""Benchmark workloads: inputs made from a seed, one operation, its check.

Every workload builds its inputs in ``__init__`` (the timed set-up), runs
operation ``i`` in ``run(i)`` through the public module attributes that the
tracer wraps, and checks the returned value in ``check(i, out)`` outside
the timing.  ``check`` raises :class:`OpFailed` when the program reported
a failure and :class:`CheckFailed` when it returned a wrong answer.
``warm_up()`` runs, untimed, a whole operation where one is cheap and the
layer calls an operation starts with otherwise, so that lazy imports and
first-call costs stay out of the timing.
"""

import contextlib
import functools
import io
import math
from pathlib import Path

import numpy as np

import hexflow
import hexflow.cli
from hexflow import conformal, flow, prescribe, surface
from surfaces import random_surface

# Newton round trips must recover the factor to this accuracy.
NEWTON_TOL = 1e-8
# The CLI solver stops at residual 1e-10 (its default); recomputing B from
# the written factors may differ in the last bits, so the check allows 10x.
CLI_RESIDUAL_TOL = 1e-9


class OpFailed(Exception):
    """The program reported a failure (a nonzero exit code); the message
    names the kind of failure."""


class CheckFailed(Exception):
    """The program returned an answer that fails the workload's check."""


def prepare_surface(faces, seed):
    """Generate a surface, serialize it and parse it back; the strict parse
    validates it again.  Returns (generated, text, tri, l0)."""
    generated = random_surface(faces, seed)
    text = surface.serialize_surface(generated.tri, generated.l0, name=f"gen-F{faces}-s{seed}")
    tri, l0 = surface.parse_surface(text)
    return generated, text, tri, l0


def check_newton(w, w_star):
    err = float(np.max(np.abs(np.asarray(w) - w_star)))
    if not err <= NEWTON_TOL:
        raise CheckFailed(f"max|w - w*| = {err:.3e} > {NEWTON_TOL:g}")


def check_flow(trace):
    if trace.stop_reason != "cusp_tol":
        raise CheckFailed(f"stop_reason {trace.stop_reason!r}, expected 'cusp_tol'")
    accepted = trace.accepted
    if not np.all(accepted.lengths > 0.0):
        raise CheckFailed("a boundary length is not positive at an accepted step")
    if np.any(np.diff(accepted.sum_sq) > 0.0):
        raise CheckFailed("sum B^2 increases between accepted steps")
    if np.any(np.diff(accepted.factors, axis=0) < 0.0):
        raise CheckFailed("a factor decreases between accepted steps")


def check_cli(code, output, out_path, tri, l0, target):
    if code != 0:
        errors = [line.split(":", 1)[1].split() for line in output.splitlines() if line.startswith("ERROR")]
        raise OpFailed(f"exit {code}: " + (" ".join(errors[-1][:3]) if errors else "no ERROR line"))
    w = np.zeros(tri.n_boundaries)
    with open(out_path, encoding="utf-8") as handle:
        rows = handle.read().splitlines()[1:]
    if len(rows) != tri.n_boundaries:
        raise CheckFailed(f"{len(rows)} factor rows for {tri.n_boundaries} components")
    for row in rows:
        index, value = row.split(",")
        w[int(index) - 1] = float(value)
    residual = float(np.max(np.abs(conformal.boundary_lengths(tri, l0, w) - target)))
    if not residual <= CLI_RESIDUAL_TOL:
        raise CheckFailed(f"|B(w_out) - target| = {residual:.3e} > {CLI_RESIDUAL_TOL:g}")


class Newton:
    """``solve_prescribed`` round trips on one generated surface: targets
    are B(w*) for w* uniform in [0, 0.5]^n."""

    def __init__(self, seed, workdir, faces=2000, pool=8):
        generated, _, self.tri, self.l0 = prepare_surface(faces, seed)
        self.surfaces = [generated]
        rng = np.random.default_rng([seed, 1])
        self.w_star = [rng.uniform(0.0, 0.5, self.tri.n_boundaries) for _ in range(pool)]
        self.targets = [conformal.boundary_lengths(self.tri, self.l0, w) for w in self.w_star]

    def warm_up(self):
        conformal.boundary_jacobian(self.tri, self.l0, self.w_star[0])

    def run(self, i):
        k = i % len(self.targets)
        return prescribe.solve_prescribed(self.tri, self.l0, self.targets[k])

    def check(self, i, result):
        check_newton(result.factors, self.w_star[i % len(self.w_star)])


class Flow:
    """``integrate_flow`` from w = 0 to ``cusp_tol`` on several generated
    surfaces, one per operation in turn."""

    OPTIONS = hexflow.FlowOptions(t_end=1e6, cusp_tol=1e-4)

    def __init__(self, seed, workdir, faces=200, count=8):
        self.surfaces = []
        self.parsed = []
        for k in range(count):
            generated, _, tri, l0 = prepare_surface(faces, seed * 1000 + k)
            self.surfaces.append(generated)
            self.parsed.append((tri, l0))

    def warm_up(self):
        tri, l0 = self.parsed[0]
        conformal.boundary_jacobian(tri, l0, np.zeros(tri.n_boundaries))

    def run(self, i):
        tri, l0 = self.parsed[i % len(self.parsed)]
        return flow.integrate_flow(tri, l0, self.OPTIONS)

    def check(self, i, trace):
        check_flow(trace)


def round_trip_target(rng, tri, l0):
    """B(w*) for w* uniform in [0, 0.5]^n: every solve converges."""
    return conformal.boundary_lengths(tri, l0, rng.uniform(0.0, 0.5, tri.n_boundaries))


def extreme_target(rng, tri, l0):
    """Each component log-uniform over [1e-3, 60]; drives the log-domain
    branches, backtracking and the known quadrature failures."""
    return np.exp(rng.uniform(math.log(1e-3), math.log(60.0), tri.n_boundaries))


class NewtonCli:
    """In-process ``hexflow prescribe`` on small surface files, one target
    file per surface; ``target(rng, tri, l0)`` makes each target.  One
    operation is ``batch`` CLI calls on consecutive surfaces."""

    def __init__(self, seed, workdir, faces=(4, 8, 12, 20), per_size=16, target=extreme_target, batch=1):
        workdir = Path(workdir)
        rng = np.random.default_rng([seed, 2])
        self.batch = batch
        self.surfaces = []
        self.parsed = []
        self.paths = []
        self.targets = []
        self.target_paths = []
        for k in range(per_size * len(faces)):
            generated, text, tri, l0 = prepare_surface(faces[k % len(faces)], seed * 1000 + k)
            path = workdir / f"surface-{k}.txt"
            path.write_text(text, encoding="utf-8")
            values = target(rng, tri, l0)
            target_path = workdir / f"target-{k}.csv"
            target_path.write_text(
                "boundary_index,target_length\n"
                + "".join(f"{j},{float(v)!r}\n" for j, v in enumerate(values, start=1)),
                encoding="utf-8",
            )
            self.surfaces.append(generated)
            self.parsed.append((tri, l0))
            self.paths.append(str(path))
            self.targets.append(values)
            self.target_paths.append(str(target_path))
        self.out_paths = [str(workdir / f"w-{j}.csv") for j in range(batch)]

    def _inputs(self, i):
        return [(i * self.batch + j) % len(self.targets) for j in range(self.batch)]

    def warm_up(self):
        self.run(0)

    def run(self, i):
        outs = []
        for k, out_path in zip(self._inputs(i), self.out_paths):
            argv = ["prescribe", self.paths[k], "--target", self.target_paths[k], "--out", out_path]
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                code = hexflow.cli.run(argv)
            outs.append((code, captured.getvalue()))
        return outs

    def check(self, i, outs):
        for k, out, out_path in zip(self._inputs(i), outs, self.out_paths):
            tri, l0 = self.parsed[k]
            check_cli(*out, out_path, tri, l0, self.targets[k])


# name -> (factory, why it is in the benchmark)
WORKLOADS = {
    "newton-2k": (
        Newton,
        "Newton round trips at F=2000: time goes to the energy merit, with B/H assembly visible",
    ),
    "flow-200": (
        Flow,
        "the flow at F=200 to cusp_tol 1e-4: B assembly and the integrator, never the energy",
    ),
    "cli-roundtrip": (
        functools.partial(NewtonCli, faces=(4, 8, 12, 16, 20), target=round_trip_target, batch=5),
        "CLI prescribe round trips on batches of small surfaces (F=4..20): CLI, parse, file I/O and the energy merit of small solves",
    ),
    "newton-small-cli": (
        NewtonCli,
        "CLI prescribe on F=4..20 with extreme targets: log-domain branches, backtracking, quadrature failures",
    ),
}
