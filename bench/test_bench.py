"""Tests of the benchmark itself: generator, per-operation checks, tracer."""

import dataclasses
import math
import sys
from pathlib import Path

import pytest
import scipy.linalg

import hexflow
import hexflow.cli
from run import percentile, run_traced, tail
from surfaces import random_surface
from tracing import Tracer, layer_metrics
from workloads import CheckFailed, Flow, Newton, NewtonCli, OpFailed, round_trip_target


@pytest.mark.parametrize("faces", [4, 20, 200, 2000])
def test_generator_is_deterministic_and_valid(faces):
    first = random_surface(faces, seed=7)
    again = random_surface(faces, seed=7)
    text = hexflow.serialize_surface(first.tri, first.l0)
    assert text == hexflow.serialize_surface(again.tri, again.l0)
    assert hexflow.validate(first.tri, first.l0).ok
    assert (first.faces, first.edges) == (faces, 3 * faces // 2)
    assert first.boundaries == first.tri.n_boundaries >= 1
    other = random_surface(faces, seed=8)
    assert hexflow.serialize_surface(other.tri, other.l0) != text


def test_generator_rejects_odd_face_count():
    with pytest.raises(ValueError):
        random_surface(5, seed=0)


def test_newton_check_rejects_perturbed_factor(tmp_path):
    workload = Newton(3, tmp_path, faces=4, pool=1)
    result = workload.run(0)
    workload.check(0, result)
    result.factors[0] += 1e-6
    with pytest.raises(CheckFailed):
        workload.check(0, result)


def _with_table(trace, **changes):
    return dataclasses.replace(trace, accepted=dataclasses.replace(trace.accepted, **changes))


def test_flow_check_rejects_perturbed_trace(tmp_path):
    workload = Flow(3, tmp_path, faces=4, count=1)
    trace = workload.run(0)
    workload.check(0, trace)
    acc = trace.accepted
    sum_sq = acc.sum_sq.copy()
    sum_sq[5] = sum_sq[4] * 1.001
    factors = acc.factors.copy()
    factors[5, 0] = factors[4, 0] - 1e-9
    lengths = acc.lengths.copy()
    lengths[-1, 0] = 0.0
    for bad in (
        dataclasses.replace(trace, stop_reason="t_end"),
        _with_table(trace, sum_sq=sum_sq),
        _with_table(trace, factors=factors),
        _with_table(trace, lengths=lengths),
    ):
        with pytest.raises(CheckFailed):
            workload.check(0, bad)


def test_cli_check_rejects_perturbed_output(tmp_path):
    workload = NewtonCli(1, tmp_path, faces=(4, 8), per_size=1, target=round_trip_target, batch=2)
    out = workload.run(0)
    workload.check(0, out)

    path = Path(workload.out_paths[1])
    rows = path.read_text().splitlines()
    index, value = rows[1].split(",")
    rows[1] = f"{index},{float(value) + 1e-6!r}"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(CheckFailed):
        workload.check(0, out)
    with pytest.raises(OpFailed):
        workload.check(0, [(2, "ERROR 2: no convergence\n")])


def _wrapped_owners():
    owners = {"hexflow": hexflow, "scipy.linalg": scipy.linalg}
    owners.update({name: module for name, module in sys.modules.items() if name.startswith("hexflow.")})
    return {name: dict(vars(owner)) for name, owner in owners.items()}


def _assert_unchanged(before):
    after = _wrapped_owners()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        changed = [attr for attr, value in attrs.items() if after[name][attr] is not value]
        assert not changed, f"{name}: {changed}"


@pytest.mark.parametrize(
    "factory",
    [
        lambda seed, workdir: Newton(seed, workdir, faces=4, pool=1),
        lambda seed, workdir: Flow(seed, workdir, faces=4, count=1),
        lambda seed, workdir: NewtonCli(seed, workdir, faces=(4,), per_size=1),
    ],
    ids=["newton", "flow", "cli"],
)
def test_traced_run_restores_every_attribute(factory, tmp_path):
    before = _wrapped_owners()
    _, tally, tracer, overhead = run_traced(factory, 5, tmp_path, seconds=0.0)
    _assert_unchanged(before)
    assert tally.attempted == 1 and overhead > 0.0
    assert any(span.name == "op" for span in tracer.spans)
    assert sum(count for count, _ in tracer.kernels.values()) > 0


def test_flow_trace_never_enters_the_energy(tmp_path):
    _, _, tracer, overhead = run_traced(lambda s, w: Flow(s, w, faces=4, count=1), 5, tmp_path, 0.0)
    values, absent = layer_metrics(tracer, [0], overhead)
    assert values["energy.total.calls"] == 0
    assert values["flow.steps_accepted"] > 0 and values["conformal.lengths.calls"] > 0
    assert not absent


def test_tracer_restores_after_error_and_reports_missing_names(monkeypatch):
    monkeypatch.delattr(hexflow.flow, "hexagon_arcs")
    before = _wrapped_owners()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(0):
            assert hexflow.flow.boundary_lengths is not before["hexflow.flow"]["boundary_lengths"]
            raise RuntimeError("boom")
    _assert_unchanged(before)
    assert tracer.missing_sites == {"hexflow.flow.hexagon_arcs"}
    assert "hexagon.arcs" in tracer.installed_layers


def test_layer_whose_names_are_gone_is_reported_absent(monkeypatch):
    monkeypatch.delattr(hexflow.prescribe, "total_energy")
    tracer = Tracer()
    with tracer.installed(0):
        pass
    _, absent = layer_metrics(tracer, [], 1.0)
    assert set(absent) == {
        "energy.total.calls",
        "energy.total.busy_s",
        "energy.total.self_s",
        "energy.quadrature_errors",
        "prescribe.merit_evals",
    }


def test_tail_needs_ten_operations_beyond_the_percentile():
    assert tail([1.0] * 19) is None
    assert tail([float(i) for i in range(40)]) == (75.0, 29.0)
    p, value = tail([float(i) for i in range(1, 1001)])
    assert p == 99.0 and value == 990.0


def test_percentile_interpolates_and_reaches_failures():
    assert percentile([5.0, 1.0, 3.0, 2.0, 4.0], 75.0) == 4.0
    assert percentile([1.0, 2.0], 75.0) == 1.75
    assert percentile([1.0, 2.0, 3.0, math.inf], 50.0) == 2.5
    assert percentile([1.0, 2.0, 3.0, math.inf], 75.0) == math.inf
