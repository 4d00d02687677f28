"""hexflow benchmark: time to solution for Newton and the flow.

Usage (from the repository root):

    python3 bench/run.py --workload cli-roundtrip --seed 1 --seconds 50 --trace 0

One client in one process runs one operation at a time (a closed loop) on
inputs generated from ``--seed`` and checks every answer.  The untraced run
(``--trace 0``) reports the end-to-end metrics; the traced run
(``--trace 1``) wraps each layer's public functions and reports per-layer
numbers.  BLAS runs on one thread unless its environment variables are
already set.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out PATH`` also
writes a full record (environment, all metrics, spans) as JSON.

The package is imported from ``src/`` of the checkout; the benchmark exits
with status 2 when it is not there.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# Set-up is repeated in two batches, one before and one after the timed
# operations, each at least this often and for at least this long, and the
# median of all repeats is reported: a set-up of a few milliseconds then
# reads steadily even when the machine's speed drifts during a run.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.5
SETUP_MAX_REPEATS = 25
# Percentiles tried for the tail, highest first; one is reported only when
# at least TAIL_BEYOND operations lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def _single_thread_blas():
    """Default the BLAS thread pools to one thread; returns the settings
    as found."""
    found = {name: os.environ.get(name) for name in BLAS_ENV}
    for name in BLAS_ENV:
        os.environ.setdefault(name, "1")
    return found


def _import_package():
    src = ROOT / "src"
    if not (src / "hexflow" / "__init__.py").is_file():
        print(f"error: no hexflow package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def environment(seed, blas_found):
    """What the result depends on besides the code: machine, library
    versions, BLAS thread settings as found and as used, commit, seed,
    loop shape."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
            )
            commit = done.stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env_found": blas_found,
        "blas_threads_env_used": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_commit": commit,
        "seeds": [seed],
        "loop": {"kind": "closed", "clients": 1, "processes": 1},
    }


def tail(times):
    """(percentile, nearest-rank value) of the highest percentile with at
    least TAIL_BEYOND operations beyond it, or None when the run is too
    short for one."""
    ordered = sorted(times)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        if len(ordered) - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1]
    return None


def percentile(times, p):
    """Linear-interpolation percentile of ``times`` (+inf allowed: a
    failed operation); inf when it reaches a failed operation."""
    ordered = sorted(times)
    pos = p / 100.0 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if math.isinf(ordered[hi]):
        return math.inf
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Tally:
    """Outcome of the operations of one run."""

    def __init__(self):
        self.times = []  # seconds; +inf for a failed operation
        self.failures = Counter()
        self.wrong = []

    def record(self, workload, i, call):
        """Run operation i through ``call`` (which returns its output),
        time it and check it.  Returns the elapsed seconds."""
        from hexflow.errors import HexflowError
        from workloads import CheckFailed, OpFailed

        start = perf_counter()
        try:
            out = call(i)
        except HexflowError as exc:
            elapsed = perf_counter() - start
            failure = type(exc).__name__
        else:
            elapsed = perf_counter() - start
            try:
                workload.check(i, out)
                failure = None
            except OpFailed as exc:
                failure = str(exc)
            except CheckFailed as exc:
                failure = "wrong answer"
                self.wrong.append(f"op {i}: {exc}")
        if failure is not None:
            self.failures[failure] += 1
        self.times.append(elapsed if failure is None else math.inf)
        return elapsed

    @property
    def attempted(self):
        return len(self.times)

    @property
    def failed(self):
        return sum(self.failures.values())


def set_up(factory, seed, workdir):
    """Build the workload repeatedly; returns (last workload, seconds of
    each repeat)."""
    durations = []
    started = perf_counter()
    while len(durations) < SETUP_MAX_REPEATS and (
        len(durations) < SETUP_MIN_REPEATS or perf_counter() - started < SETUP_MIN_SECONDS
    ):
        t0 = perf_counter()
        workload = factory(seed, workdir)
        durations.append(perf_counter() - t0)
    return workload, durations


def run_untraced(workload, seconds):
    workload.warm_up()
    tally = Tally()
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        tally.record(workload, i, workload.run)
        i += 1
    return tally, perf_counter() - start


def run_traced(factory, seed, workdir, seconds):
    """Trace one set-up, then run each operation once untraced and once
    traced on the same input (alternating which goes first) until the
    time is up.  Returns (workload, tally of the traced operations, tracer,
    traced over untraced seconds)."""
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed("setup"):
        workload = factory(seed, workdir)
    tracer.drop_kernels()

    def traced_call(i):
        with tracer.operation(i):
            return workload.run(i)

    workload.warm_up()
    tally = Tally()
    plain_s = traced_s = 0.0
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        first_traced = i % 2 == 1
        for traced in (first_traced, not first_traced):
            if traced:
                traced_s += tally.record(workload, i, traced_call)
            else:
                plain_s += Tally().record(workload, i, workload.run)
        i += 1
    return workload, tally, tracer, traced_s / plain_s


def untraced_report(factory, seed, workdir, seconds):
    """Set up, run the closed loop, set up again and derive the end-to-end
    metrics.
    Returns (workload, tally, metrics, extra) or None when at least half
    of the operations failed, so that there is no finite median."""
    workload, before = set_up(factory, seed, workdir)
    tally, wall = run_untraced(workload, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _, after = set_up(factory, seed, workdir)
    setup_s = statistics.median(before + after)
    p50 = statistics.median(tally.times)
    if math.isinf(p50):
        return None
    metrics = {
        "setup_s": (setup_s, "s"),
        # On a shared 2-vCPU VM a run's speed alternates between a sustained
        # level and bursts up to 1.6x faster lasting tens of seconds: the
        # median moves with the share of bursts in a run, while the 90th
        # percentile stays near the sustained level.
        "op_s_p90": (percentile(tally.times, 90.0), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
    extra = {
        "op_s_p50": (p50, "s"),
        "ops_per_s": ((tally.attempted - tally.failed) / wall, "1/s"),
        "fail_ratio": (tally.failed / tally.attempted, "ratio"),
    }
    found = tail(tally.times)
    if found is not None:
        extra["op_s_tail"] = (found[1], "s")
        extra["op_s_tail.percentile"] = (found[0], "%")
    extra["op_count"] = (tally.attempted, "count")
    return workload, tally, metrics, extra


def traced_report(factory, seed, workdir, seconds):
    """Traced set-up and operations; returns (workload, tally, metrics,
    extra, absent metrics, tracer)."""
    from tracing import LAYER_METRICS, layer_metrics

    workload, tally, tracer, overhead = run_traced(factory, seed, workdir, seconds)
    op_spans = [span for span in tracer.spans if span.name == "op"]
    values, absent = layer_metrics(tracer, [span.op_id for span in op_spans], overhead)
    metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}
    op_s = [span.end - span.start for span in op_spans]
    extra = {
        "traced_op_s_p50": (statistics.median(op_s), "s"),
        "energy.total.share": (values["energy.total.busy_s"] * len(op_s) / sum(op_s), "ratio"),
        "fail_ratio": (tally.failed / tally.attempted, "ratio"),
        "op_count": (tally.attempted, "count"),
        "span_count": (len(tracer.spans), "count"),
    }
    return workload, tally, metrics, extra, absent, tracer


def _json_number(value):
    """JSON has no infinity: a metric that reached a failed operation is
    written as null."""
    return value if math.isfinite(value) else None


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record as JSON to this file")
    args = parser.parse_args(argv)

    blas_found = _single_thread_blas()
    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    factory, why = WORKLOADS[args.workload]

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    absent = []
    try:
        if args.trace:
            workload, tally, metrics, extra, absent, tracer = traced_report(
                factory, args.seed, workdir, args.seconds
            )
        else:
            report = untraced_report(factory, args.seed, workdir, args.seconds)
            if report is None:
                print("error: at least half of the operations failed; no median", file=sys.stderr)
                return 1
            workload, tally, metrics, extra = report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    env = environment(args.seed, blas_found)
    print(f"# workload {args.workload} (seed {args.seed}, trace {args.trace}): {why}")
    sizes = ", ".join(f"F={g.faces} E={g.edges} n={g.boundaries}" for g in workload.surfaces[:4])
    more = len(workload.surfaces) - 4
    print(f"# surfaces: {sizes}" + (f" (+{more} more)" if more > 0 else ""))
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:34s} {_fmt(value):>14s} {unit}")
    if tally.failed:
        print("# failures: " + ", ".join(f"{kind} x{n}" for kind, n in sorted(tally.failures.items())))
    for line in tally.wrong:
        print(f"# wrong answer: {line}")
    if absent:
        print(f"# absent metrics (their names are gone; reported as 0): {', '.join(absent)}")
    if tracer is not None and tracer.missing_sites:
        print(f"# names not found, not traced: {', '.join(sorted(tracer.missing_sites))}")

    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": _json_number(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out:
        record = {
            "workload": args.workload,
            "why": why,
            "trace": args.trace,
            "environment": env,
            "surfaces": [
                {"faces": g.faces, "edges": g.edges, "boundaries": g.boundaries} for g in workload.surfaces
            ],
            "result": result,
            "extra": {name: {"value": value, "unit": unit} for name, (value, unit) in extra.items()},
            "failures": dict(tally.failures),
            "op_s": [t if math.isfinite(t) else None for t in tally.times],
            "absent": absent,
            "spans": [vars(span) for span in tracer.spans] if tracer else None,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
