"""Benchmark-side tracing of hexflow's layers.

The tracer replaces module attributes at the names the solver, flow and
CLI modules call through (``hexflow.prescribe.total_energy``,
``hexflow.flow.boundary_lengths`` and so on) with timing wrappers, and restores every replaced attribute
when it is uninstalled.  Two kinds of wrapper exist:

* span wrappers, for layer boundaries crossed a few thousand times per
  operation at most: each call records a span (name, start, end, parent,
  operation id) kept in memory;
* kernel wrappers, for the per-hexagon and per-edge functions called up to
  millions of times: each call adds to a (layer, site) call count and busy
  time, and its duration is charged to the enclosing span as child time.

A span's self time is its duration minus the time covered by its child
spans and kernel calls.  A name that no longer exists is skipped, and a
layer none of whose names exist is reported as absent, so the benchmark
keeps running after refactors.
"""

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import hexflow
import hexflow.cli
from hexflow.errors import QuadratureError


@dataclass
class Span:
    op_id: object
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_s: float = 0.0

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


# (object path, attribute, layer).  Paths walk attributes from the
# ``hexflow`` package, so each site is the name the calling module looks
# up at call time.  Spans: layer boundaries.
SPAN_SITES = (
    ("hexflow.cli", "run", "cli.run"),
    ("hexflow.cli", "parse_surface", "surface.parse"),
    ("hexflow.surface", "parse_surface", "surface.parse"),
    ("hexflow.surface", "validate", "surface.validate"),
    ("hexflow.cli", "solve_prescribed", "prescribe.solve"),
    ("hexflow.prescribe", "solve_prescribed", "prescribe.solve"),
    ("hexflow.prescribe", "boundary_lengths", "conformal.lengths"),
    ("hexflow.flow", "boundary_lengths", "conformal.lengths"),
    ("hexflow.prescribe", "boundary_jacobian", "conformal.jacobian"),
    ("hexflow.prescribe", "total_energy", "energy.total"),
    ("hexflow.prescribe.scipy.linalg", "cho_factor", "prescribe.linalg"),
    ("hexflow.prescribe.scipy.linalg", "cho_solve", "prescribe.linalg"),
    ("hexflow.flow", "integrate_flow", "flow.integrate"),
)

# Kernels: aggregated, never stored per call.
KERNEL_SITES = (
    ("hexflow.conformal", "hexagon_arcs", "hexagon.arcs"),
    ("hexflow.energy", "hexagon_arcs", "hexagon.arcs"),
    ("hexflow.flow", "hexagon_arcs", "hexagon.arcs"),
    ("hexflow.conformal", "arc_jacobian", "hexagon.jacobian"),
    ("hexflow.flow", "edge_length", "conformal.geometry"),
    ("hexflow.flow", "face_sides", "conformal.geometry"),
    ("hexflow.flow", "in_domain", "conformal.geometry"),
    ("hexflow.energy", "in_domain", "conformal.geometry"),
)


def _resolve(path):
    """The object at a dotted attribute path below the hexflow package, or
    None when some step is missing."""
    obj = hexflow
    for part in path.split(".")[1:]:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


class Tracer:
    """Collects spans, kernel aggregates and result counters while
    installed; holds no wrappers otherwise."""

    def __init__(self):
        self.spans = []
        self.kernels = {}  # (layer, site) -> [calls, busy_s]
        self.counters = Counter()
        self.missing_sites = set()
        self.installed_layers = set()
        self.absent = set()  # metrics whose result field is missing
        self._stack = []
        self._op_id = None

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, layer, fn):
        spans = self.spans
        stack = self._stack
        on_result = _RESULT_HOOKS.get(layer)
        on_error = _ERROR_HOOKS.get(layer)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(self._op_id, layer, perf_counter(), parent=parent)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent].child_s += span.end - span.start
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def _kernel_wrapper(self, key, fn):
        stat = self.kernels.setdefault(key, [0, 0.0])
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat[0] += 1
                stat[1] += elapsed
                if stack:
                    spans[stack[-1]].child_s += elapsed

        return traced

    @contextmanager
    def installed(self, op_id):
        """Install every wrapper for one operation (or set-up) and restore
        the original attributes on exit, also when the body raises."""
        self._op_id = op_id
        saved = []
        try:
            for sites, kernel in ((SPAN_SITES, False), (KERNEL_SITES, True)):
                for path, attr, layer in sites:
                    site = f"{path}.{attr}"
                    owner = _resolve(path)
                    original = getattr(owner, attr, None)
                    if original is None:
                        self.missing_sites.add(site)
                        continue
                    self.installed_layers.add(layer)
                    if kernel:
                        wrapper = self._kernel_wrapper((layer, site), original)
                    else:
                        wrapper = self._span_wrapper(layer, original)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self._op_id = None

    @contextmanager
    def operation(self, op_id):
        """Install the wrappers and record one root span for the operation."""
        with self.installed(op_id):
            root = Span(op_id, "op", perf_counter())
            self._stack.append(len(self.spans))
            self.spans.append(root)
            try:
                yield root
            finally:
                root.end = perf_counter()
                self._stack.pop()

    def drop_kernels(self):
        """Forget the kernel aggregates gathered so far (those of the traced
        set-up), so that kernel metrics cover operations only."""
        self.kernels = {}


def _count_iterations(tracer, result):
    tracer.counters["prescribe.iterations"] += result.iterations


def _count_partial_iterations(tracer, exc):
    partial = getattr(exc, "partial", None)
    if partial is not None:
        tracer.counters["prescribe.iterations"] += partial.iterations


def _count_quadrature_error(tracer, exc):
    if isinstance(exc, QuadratureError):
        tracer.counters["energy.quadrature_errors"] += 1


def _count_cholesky_fallback(tracer, exc):
    if type(exc).__name__ == "LinAlgError":
        tracer.counters["prescribe.cholesky_fallbacks"] += 1


def _count_flow(tracer, trace):
    accepted = getattr(trace, "accepted", None)
    if accepted is not None:
        tracer.counters["flow.steps_accepted"] += len(accepted) - 1
    else:
        tracer.absent.update({"flow.steps_accepted", "flow.rhs_per_step"})
    rhs = getattr(trace, "rhs_evaluations", None)
    if rhs is not None:
        tracer.counters["flow.rhs_evals"] += rhs
    else:
        tracer.absent.update({"flow.rhs_evals", "flow.rhs_per_step"})


_RESULT_HOOKS = {
    "prescribe.solve": _count_iterations,
    "flow.integrate": _count_flow,
}
_ERROR_HOOKS = {
    "prescribe.solve": _count_partial_iterations,
    "energy.total": _count_quadrature_error,
    "prescribe.linalg": _count_cholesky_fallback,
}


# Per-layer metrics: name -> unit.  Values are per traced operation
# unless the unit says otherwise.
LAYER_METRICS = {
    "hexagon.arcs.calls": "calls/op",
    "hexagon.arcs.busy_s": "s/op",
    "hexagon.jacobian.calls": "calls/op",
    "hexagon.jacobian.busy_s": "s/op",
    "conformal.lengths.calls": "calls/op",
    "conformal.lengths.self_s": "s/op",
    "conformal.jacobian.calls": "calls/op",
    "conformal.jacobian.self_s": "s/op",
    "conformal.geometry.calls": "calls/op",
    "conformal.geometry.self_s": "s/op",
    "energy.total.calls": "calls/op",
    "energy.total.busy_s": "s/op",
    "energy.total.self_s": "s/op",
    "energy.integrand_evals": "evals/op",
    "energy.quadrature_errors": "errors/op",
    "prescribe.solve.self_s": "s/op",
    "prescribe.iterations": "iters/op",
    "prescribe.merit_evals": "evals/op",
    "prescribe.linalg.busy_s": "s/op",
    "prescribe.cholesky_fallbacks": "count/op",
    "flow.integrate.self_s": "s/op",
    "flow.steps_accepted": "steps/op",
    "flow.rhs_evals": "evals/op",
    "flow.rhs_per_step": "evals/step",
    "surface.parse.self_s": "s/op",
    "surface.validate.self_s": "s/op",
    "setup.surface.parse.self_s": "s/setup",
    "setup.surface.validate.self_s": "s/setup",
    "cli.run.self_s": "s/op",
    "trace.overhead_ratio": "ratio",
}

# Metrics read from results or counters, and the layer they come from;
# the others belong to the layer their name starts with.
_SOURCE_LAYER = {
    "energy.integrand_evals": "hexagon.arcs",
    "energy.quadrature_errors": "energy.total",
    "prescribe.iterations": "prescribe.solve",
    "prescribe.merit_evals": "energy.total",
    "prescribe.cholesky_fallbacks": "prescribe.linalg",
    "flow.steps_accepted": "flow.integrate",
    "flow.rhs_evals": "flow.integrate",
    "flow.rhs_per_step": "flow.integrate",
}


def _layer_of(metric):
    return _SOURCE_LAYER.get(metric) or metric.removeprefix("setup.").rsplit(".", 1)[0]


def layer_metrics(tracer, op_ids, overhead_ratio):
    """Per-layer metrics from a finished traced run: totals over the traced
    operations ``op_ids`` divided by their number; ``setup.*`` metrics
    come from the single traced set-up (op id ``"setup"``)."""
    n_ops = max(len(op_ids), 1)
    ops = set(op_ids)
    busy = Counter()
    self_s = Counter()
    calls = Counter()
    for span in tracer.spans:
        prefix = "setup." if span.op_id == "setup" else ("" if span.op_id in ops else None)
        if prefix is None:
            continue
        busy[prefix + span.name] += span.end - span.start
        self_s[prefix + span.name] += span.self_s
        calls[prefix + span.name] += 1
    for (layer, site), (count, seconds) in tracer.kernels.items():
        calls[layer] += count
        busy[layer] += seconds
        self_s[layer] += seconds
    counters = tracer.counters
    steps = counters["flow.steps_accepted"]
    values = {
        "hexagon.arcs.calls": calls["hexagon.arcs"] / n_ops,
        "hexagon.arcs.busy_s": busy["hexagon.arcs"] / n_ops,
        "hexagon.jacobian.calls": calls["hexagon.jacobian"] / n_ops,
        "hexagon.jacobian.busy_s": busy["hexagon.jacobian"] / n_ops,
        "conformal.lengths.calls": calls["conformal.lengths"] / n_ops,
        "conformal.lengths.self_s": self_s["conformal.lengths"] / n_ops,
        "conformal.jacobian.calls": calls["conformal.jacobian"] / n_ops,
        "conformal.jacobian.self_s": self_s["conformal.jacobian"] / n_ops,
        "conformal.geometry.calls": calls["conformal.geometry"] / n_ops,
        "conformal.geometry.self_s": self_s["conformal.geometry"] / n_ops,
        "energy.total.calls": calls["energy.total"] / n_ops,
        "energy.total.busy_s": busy["energy.total"] / n_ops,
        "energy.total.self_s": self_s["energy.total"] / n_ops,
        "energy.integrand_evals": tracer.kernels.get(("hexagon.arcs", "hexflow.energy.hexagon_arcs"), (0, 0.0))[0]
        / n_ops,
        "energy.quadrature_errors": counters["energy.quadrature_errors"] / n_ops,
        "prescribe.solve.self_s": self_s["prescribe.solve"] / n_ops,
        "prescribe.iterations": counters["prescribe.iterations"] / n_ops,
        "prescribe.merit_evals": calls["energy.total"] / n_ops,
        "prescribe.linalg.busy_s": busy["prescribe.linalg"] / n_ops,
        "prescribe.cholesky_fallbacks": counters["prescribe.cholesky_fallbacks"] / n_ops,
        "flow.integrate.self_s": self_s["flow.integrate"] / n_ops,
        "flow.steps_accepted": steps / n_ops,
        "flow.rhs_evals": counters["flow.rhs_evals"] / n_ops,
        "flow.rhs_per_step": counters["flow.rhs_evals"] / steps if steps else 0.0,
        "surface.parse.self_s": self_s["surface.parse"] / n_ops,
        "surface.validate.self_s": self_s["surface.validate"] / n_ops,
        "setup.surface.parse.self_s": self_s["setup.surface.parse"],
        "setup.surface.validate.self_s": self_s["setup.surface.validate"],
        "cli.run.self_s": self_s["cli.run"] / n_ops,
        "trace.overhead_ratio": overhead_ratio,
    }
    wrapped = {layer for _, _, layer in SPAN_SITES + KERNEL_SITES}
    absent = sorted(
        metric
        for metric in values
        if metric in tracer.absent
        or (_layer_of(metric) in wrapped and _layer_of(metric) not in tracer.installed_layers)
    )
    return values, absent
