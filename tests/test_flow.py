import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp
from scipy.integrate._ivp import rk

from hexflow import (
    ConvergenceError,
    DomainError,
    FlowOptions,
    boundary_lengths,
    cusp_report,
    edge_length,
    flow_limit,
    geometry_rows,
    hexagon_arcs,
    integrate_flow,
    surface_geometry,
    total_energy,
    trace_csv,
)
from hexflow import conformal
from hexflow import flow as flow_module

from conftest import PANTS_EDGE, block_rows, generated

PANTS_B0 = 2.0 * math.acosh(7.0 / 6.0)
FIXTURES = ("pants", "tetra", "torus", "twin_pants", "second_pants")


def scalar_pants_rhs(x):
    """Reduced pants flow: all three factors stay equal by symmetry."""
    side = edge_length(PANTS_EDGE, x, x)
    return 2.0 * hexagon_arcs(side, side, side)[0]


def attempts_before_first_step(monkeypatch, tri, l0):
    """The trace of a cusp run and the number of step attempts rejected
    before the first accepted step; every attempt ends in one
    ``_geometry_row`` call at its trial point."""
    points = []
    geometry_row = flow_module._geometry_row

    def logged(tri, l0, w):
        points.append(w)
        return geometry_row(tri, l0, w)

    monkeypatch.setattr(flow_module, "_geometry_row", logged)
    trace = integrate_flow(tri, l0, FlowOptions(t_end=1e6, cusp_tol=1e-4))
    first = trace.accepted.factors[1]
    # points[0] is the initial factor.
    return trace, next(k for k, w in enumerate(points) if np.array_equal(w, first)) - 1


class TestFlowOptions:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            FlowOptions(t_end=0.0)
        with pytest.raises(ValueError):
            FlowOptions(t_end=1.0, rel_tol=-1e-8)
        with pytest.raises(ValueError):
            FlowOptions(t_end=1.0, sample_dt=0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="sample_dt"):
                FlowOptions(t_end=1.0, sample_dt=bad)

    def test_cusp_tol_must_undercut_initial_lengths(self, pants):
        tri, l0 = pants
        with pytest.raises(ValueError, match="cusp_tol"):
            integrate_flow(tri, l0, FlowOptions(t_end=1.0, cusp_tol=10.0))

    def test_length_cap_must_exceed_initial_shortest_edge(self, pants):
        # A cap the run starts past would stop it inside its first step.
        tri, l0 = pants
        shortest = geometry_rows(tri, l0, np.zeros((1, 3))).min_edge[0]
        for cap in (1.0, shortest):
            with pytest.raises(ValueError, match="length_cap"):
                integrate_flow(tri, l0, FlowOptions(t_end=1e6, length_cap=cap))
        trace = integrate_flow(tri, l0, FlowOptions(t_end=1e6, length_cap=math.nextafter(shortest, math.inf)))
        assert trace.stop_reason == "length_cap"

    @pytest.mark.parametrize("rel_tol", [1.0, 1e6])
    def test_rel_tol_must_lie_below_one(self, rel_tol):
        # The first-step probe forms exp(sqrt(rel_tol)).
        with pytest.raises(ValueError, match="rel_tol must lie below 1"):
            FlowOptions(t_end=1.0, rel_tol=rel_tol)
        FlowOptions(t_end=1.0, rel_tol=0.99)

    def test_t_end_must_be_normal(self):
        # Its default sample spacing t_end / 100 would round to 0.
        with pytest.raises(ValueError, match="t_end must be at least"):
            FlowOptions(t_end=5e-324)
        FlowOptions(t_end=sys.float_info.min)


class TestIntegrateFlow:
    def test_initial_row(self, pants):
        tri, l0 = pants
        trace = integrate_flow(tri, l0, FlowOptions(t_end=1.0))
        assert trace.accepted.times[0] == 0.0
        assert trace.accepted.lengths[0] == pytest.approx([PANTS_B0] * 3, rel=1e-12)
        assert trace.accepted.sum_sq[0] == pytest.approx(3.0 * PANTS_B0 ** 2, rel=1e-12)
        assert trace.accepted.min_edge[0] == pytest.approx(PANTS_EDGE, rel=1e-12)

    def test_sum_of_squares_strictly_decreases(self, pants, tetra, torus):
        for tri, l0 in (pants, tetra, torus):
            trace = integrate_flow(tri, l0, FlowOptions(t_end=20.0))
            assert trace.stop_reason == "t_end"
            assert np.all(np.diff(trace.accepted.sum_sq) < 0.0)

    def test_factors_strictly_increase(self, pants, tetra, torus):
        for tri, l0 in (pants, tetra, torus):
            trace = integrate_flow(tri, l0, FlowOptions(t_end=20.0))
            assert np.all(np.diff(trace.accepted.factors, axis=0) > 0.0)
            assert np.all(trace.accepted.factors[1:] > 0.0)

    def test_times_strictly_increase(self, pants):
        tri, l0 = pants
        trace = integrate_flow(tri, l0, FlowOptions(t_end=20.0))
        assert np.all(np.diff(trace.accepted.times) > 0.0)

    def test_energy_increases_along_trace(self, pants):
        tri, l0 = pants
        trace = integrate_flow(tri, l0, FlowOptions(t_end=5.0))
        energies = [total_energy(tri, l0, w) for w in trace.accepted.factors]
        assert np.all(np.diff(energies) > 0.0)

    def test_symmetric_run_matches_scalar_reference(self, pants):
        tri, l0 = pants
        t_end = 10.0
        trace = integrate_flow(tri, l0, FlowOptions(t_end=t_end))
        w_end = trace.accepted.factors[-1]
        assert np.ptp(w_end) < 1e-12  # symmetry never breaks
        ref = solve_ivp(
            lambda _, y: [scalar_pants_rhs(y[0])],
            [0.0, t_end],
            [0.0],
            rtol=1e-12,
            atol=1e-14,
        )
        assert w_end[0] == pytest.approx(ref.y[0, -1], rel=1e-7)

    def test_cusp_stop(self, pants):
        tri, l0 = pants
        trace = integrate_flow(tri, l0, FlowOptions(t_end=1e6, cusp_tol=1e-4))
        assert trace.stop_reason == "cusp_tol"
        final = cusp_report(tri, l0, trace.accepted.factors[-1])
        assert final.max_boundary < 1e-4
        assert final.max_arc < 1e-4
        assert final.min_edge > 10.0

    def test_length_cap_stop(self, pants):
        tri, l0 = pants
        trace = integrate_flow(tri, l0, FlowOptions(t_end=1e6, cusp_tol=1e-8, length_cap=15.0))
        assert trace.stop_reason == "length_cap"
        # The run ends at the crossing inside its last step.
        assert 15.0 < trace.accepted.min_edge[-1] <= 15.0 * (1.0 + 1e-9)
        assert trace.sampled.times[-1] == trace.accepted.times[-1]

    @pytest.mark.parametrize(
        "surface, options",
        [
            ("tetra", dict(t_end=1e6, cusp_tol=1e-8, length_cap=15.0)),
            ((4, 0), dict(t_end=3.0)),
        ],
        ids=["tetra-length_cap", "F4-t_end"],
    )
    def test_last_sampled_row_is_the_end(self, request, surface, options):
        # The trace's last sample is the run's end, bit for bit, at a crossing
        # and on landing at t_end.
        tri, l0 = request.getfixturevalue(surface) if isinstance(surface, str) else generated(*surface)
        trace = integrate_flow(tri, l0, FlowOptions(**options))
        n = tri.n_boundaries
        assert trace_csv(trace.sampled, n).splitlines()[-1] == trace_csv(trace.accepted, n).splitlines()[-1]

    def test_cusp_stop_lands_on_crossing(self, pants):
        tri, l0 = pants
        cusp_tol = 1e-6
        trace = integrate_flow(tri, l0, FlowOptions(t_end=1e9, cusp_tol=cusp_tol))
        assert trace.stop_reason == "cusp_tol"
        max_b = np.max(trace.accepted.lengths[-1])
        assert (1.0 - 1e-9) * cusp_tol <= max_b < cusp_tol
        assert max_b == cusp_report(tri, l0, trace.accepted.factors[-1]).max_boundary
        assert trace.sampled.times[-1] == trace.accepted.times[-1]
        assert trace_csv(trace.sampled, 3).splitlines()[-1] == trace_csv(trace.accepted, 3).splitlines()[-1]
        # max B stays above cusp_tol until the crossing and S keeps falling
        # into the crossing row.
        assert np.all(np.max(trace.accepted.lengths[:-1], axis=1) >= cusp_tol)
        assert np.all(np.diff(trace.accepted.sum_sq) < 0.0)
        assert np.all(np.diff(trace.accepted.factors, axis=0) > 0.0)

        def crossing(_, y):
            return scalar_pants_rhs(y[0]) - cusp_tol

        crossing.terminal = True
        ref = solve_ivp(
            lambda _, y: [scalar_pants_rhs(y[0])],
            [0.0, 1e9],
            [0.0],
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
            events=crossing,
        )
        (t_cross,) = ref.t_events[0]
        assert trace.accepted.times[-1] == pytest.approx(t_cross, rel=1e-2)

    def test_halving_tolerance_stays_within_error_estimate(self, pants):
        tri, l0 = pants
        opts = FlowOptions(t_end=10.0, rel_tol=1e-8, abs_tol=1e-10)
        finer = FlowOptions(t_end=10.0, rel_tol=5e-9, abs_tol=5e-11)
        run_a = integrate_flow(tri, l0, opts)
        run_b = integrate_flow(tri, l0, finer)
        shift = np.max(np.abs(run_a.accepted.factors[-1] - run_b.accepted.factors[-1]))
        assert shift < 10.0 * run_a.error_estimate

    def test_step_control_is_scipys_dop853(self):
        assert flow_module._SAFETY == rk.SAFETY
        assert flow_module._MIN_FACTOR == rk.MIN_FACTOR
        assert flow_module._MAX_FACTOR == rk.MAX_FACTOR
        assert flow_module._EXPONENT == -1.0 / (DOP853.error_estimator_order + 1)

    @pytest.mark.parametrize("name", ["tetra", "generated"])
    def test_first_step_rejected_at_most_once(self, request, monkeypatch, name):
        tri, l0 = request.getfixturevalue("tetra") if name == "tetra" else generated(200, 3)
        trace, rejected = attempts_before_first_step(monkeypatch, tri, l0)
        assert trace.stop_reason == "cusp_tol"
        assert rejected <= 1

    def test_first_step_retry_is_accepted(self, tetra, monkeypatch):
        # A probe that sees a tenth of the slope's change makes the first
        # step about ten times too long; its retry from the rejected error
        # is accepted.
        tri, l0 = tetra
        kernel = flow_module.boundary_lengths
        probes = []

        def misread_probe(tri, l0, w):
            if not probes:
                probes.append(w)
                return kernel(tri, l0, 0.1 * w) * math.exp(-0.9 * w.max())
            return kernel(tri, l0, w)

        monkeypatch.setattr(flow_module, "boundary_lengths", misread_probe)
        trace, rejected = attempts_before_first_step(monkeypatch, tri, l0)
        assert trace.stop_reason == "cusp_tol"
        assert rejected == 1

    @pytest.mark.parametrize("t_end", [1e-14, 1e-300, sys.float_info.min])
    def test_tiny_t_end_lands(self, pants, t_end):
        # The landing step spans all of ln(1 + r t_end), however short.
        tri, l0 = pants
        trace = integrate_flow(tri, l0, FlowOptions(t_end=t_end))
        assert trace.stop_reason == "t_end"
        assert trace.accepted.times[-1] == trace.sampled.times[-1] == t_end

    def test_largest_t_end_runs_to_the_cusp(self, pants):
        # r t_end overflows; the run matches one whose t_end does not.
        tri, l0 = pants
        trace = integrate_flow(tri, l0, FlowOptions(t_end=sys.float_info.max))
        assert trace.stop_reason == "cusp_tol"
        reference = integrate_flow(tri, l0, FlowOptions(t_end=1e308))
        assert trace_csv(trace.accepted, 3) == trace_csv(reference.accepted, 3)

    def test_crossing_past_the_largest_float_over_r(self, tetra):
        # The crossing lies at t ~ 5e307, past max float / r (r ~ 5.67), so
        # its time is e^tau / r, formed where expm1(tau) overflows.
        tri, l0 = tetra
        opts = FlowOptions(t_end=sys.float_info.max, cusp_tol=1e-308, length_cap=1e4)
        trace = integrate_flow(tri, l0, opts)
        assert trace.stop_reason == "cusp_tol"
        assert trace.accepted.times[-1] > sys.float_info.max / trace.accepted.lengths[0].max()
        assert -flow_module._CROSSING_TOL <= math.log(trace.accepted.lengths[-1].max() / opts.cusp_tol) < 0.0
        assert np.all(np.diff(trace.accepted.times) > 0.0)

    def test_step_underflow_raises(self, pants):
        tri, l0 = pants
        with pytest.raises(ConvergenceError, match="underflow"):
            integrate_flow(tri, l0, FlowOptions(t_end=1.0, rel_tol=1e-300, abs_tol=1e-300))

    def test_sampled_grid(self, pants):
        tri, l0 = pants
        trace = integrate_flow(tri, l0, FlowOptions(t_end=8.0, sample_dt=1.0))
        assert trace.sampled.times[0] == 0.0
        assert trace.sampled.times[-1] == pytest.approx(8.0, rel=1e-12)
        assert len(trace.sampled.times) == 9
        # sampled geometry is recomputed from the interpolated factors
        for r in (0, len(trace.sampled.times) - 1):
            w = trace.sampled.factors[r]
            assert trace.sampled.sum_sq[r] == pytest.approx(
                float(np.sum(np.asarray(w) * 0 + trace.sampled.lengths[r] ** 2)), rel=1e-12
            )

    def test_tableau_is_scipys_dop853(self):
        # _A and _C hold the 12 stages of a step, the 8th-order row and the
        # three extra dense-output stages.
        ours = {
            "A": flow_module._A[:12, :12],
            "B": flow_module._B,
            "C": flow_module._C[:12],
            "E3": flow_module._E3,
            "E5": flow_module._E5,
            "D": flow_module._D,
            "A_EXTRA": flow_module._A[13:],
            "C_EXTRA": flow_module._C[13:],
        }
        for name, value in ours.items():
            expected = getattr(DOP853, name)
            assert value.shape == expected.shape, name
            assert value.tobytes() == expected.tobytes(), name

    def test_samples_match_reference(self, tetra):
        tri, l0 = tetra
        trace = integrate_flow(tri, l0, FlowOptions(t_end=1e6, cusp_tol=1e-4))
        times = trace.sampled.times
        ref = solve_ivp(
            lambda _, y: boundary_lengths(tri, l0, y),
            [0.0, times[-1]],
            np.zeros(tri.n_boundaries),
            rtol=1e-12,
            atol=1e-14,
            t_eval=times,
        )
        assert np.max(np.abs(trace.sampled.factors - ref.y.T)) <= 1e-6

    def test_evaluation_count(self, tetra):
        tri, l0 = tetra
        trace = integrate_flow(tri, l0, FlowOptions(t_end=1e6, cusp_tol=1e-4))
        assert trace.stop_reason == "cusp_tol"
        assert trace.rhs_evaluations <= 300  # 271

    def test_large_surface_evaluation_count(self, monkeypatch):
        # Log time scaled by the fastest initial rate (max B(0) = 278 here)
        # keeps the early steps long, and the sides stay below 200 to the
        # end, so every call takes the direct arcs.
        tri, l0 = generated(200, 3)
        far_calls = []
        far_arcs = conformal._far_arcs

        def counted(u, *args, **kwargs):
            far_calls.append(len(u))
            return far_arcs(u, *args, **kwargs)

        monkeypatch.setattr(conformal, "_far_arcs", counted)
        trace = integrate_flow(tri, l0, FlowOptions(t_end=1e6, cusp_tol=1e-4))
        assert trace.stop_reason == "cusp_tol"
        assert trace.rhs_evaluations <= 390  # 355
        assert far_calls == []

    @pytest.mark.parametrize("name", [*FIXTURES, *(f"generated-{seed}" for seed in range(4))])
    def test_crossing_costs_few_kernel_calls(self, request, monkeypatch, name):
        # The crossing search starts from the regula falsi point of the
        # distances measured at the step's two ends.
        if name.startswith("generated"):
            tri, l0 = generated(200, int(name.split("-")[1]))
        else:
            tri, l0 = request.getfixturevalue(name)
        crossing = flow_module._crossing
        calls = []

        def counted(measured, *args):
            calls.append(0)

            def wrapped(x):
                calls[-1] += 1
                return measured(x)

            return crossing(wrapped, *args)

        monkeypatch.setattr(flow_module, "_crossing", counted)
        for opts, reason, most in (
            (FlowOptions(t_end=1e6, cusp_tol=1e-4), "cusp_tol", 2),
            (FlowOptions(t_end=1e6, cusp_tol=1e-9, length_cap=15.0), "length_cap", 6),
        ):
            calls.clear()
            assert integrate_flow(tri, l0, opts).stop_reason == reason
            assert len(calls) == 1 and 1 <= calls[0] <= most

    def test_samples_take_one_kernel_call_per_block(self, monkeypatch, kernel_calls):
        # The samples are taken once, when the last step is checked: one
        # batched call for each of the three extra dense-output stages, over
        # the steps before the last that hold a sample, and one for the
        # geometry of every sample.  Each runs in blocks of block_rows(tri)
        # rows.
        tri, l0 = generated(200, 3)
        batches, samples = [], []
        geometry_rows, sample = flow_module.geometry_rows, flow_module._sample

        def recorded(tri, l0, w):
            before = len(kernel_calls)
            result = geometry_rows(tri, l0, w)
            batches.append((len(w), kernel_calls[before:]))
            return result

        def counted(*args):
            samples.append(args)
            return sample(*args)

        monkeypatch.setattr(flow_module, "geometry_rows", recorded)
        monkeypatch.setattr(flow_module, "_sample", counted)
        trace = integrate_flow(tri, l0, FlowOptions(t_end=1e6, cusp_tol=1e-4))
        assert len(samples) == 1
        rows = block_rows(tri)
        for m, calls in batches:
            assert calls == [min(rows, m - start) for start in range(0, m, rows)]
        (steps, _), *_ = batches
        times = trace.sampled.times
        assert [m for m, _ in batches] == [steps, steps, steps, len(times)]
        # The last step starts at the second-to-last accepted time.
        held = np.searchsorted(trace.accepted.times, times[:-1], side="right") - 1
        assert steps == len(np.unique(held[held < len(trace.accepted) - 2]))
        assert 1 < steps < len(trace.accepted)
        # Every other kernel call is one right-hand-side evaluation, and so
        # is each row of the extra stages; the sampled geometry is not.
        batched = sum(len(calls) for _, calls in batches)
        assert len(kernel_calls) - batched + 3 * steps == trace.rhs_evaluations

    def test_shortest_edge_is_the_edge_of_least_slack(self):
        # The recorded shortest edge is 2 arccosh(e^(min u)), read off the
        # least slack rather than the minimum over every edge length.
        tri, l0 = generated(200, 3)
        trace = integrate_flow(tri, l0, FlowOptions(t_end=1e6, cusp_tol=1e-4))
        for w, min_edge in zip(trace.accepted.factors, trace.accepted.min_edge):
            assert min_edge == surface_geometry(tri, l0, w).edge_lengths.min()


class TestDomainRejections:
    """The exact flow never leaves the domain, so a step whose stages,
    trial point, crossing search or sampled dense output do was too long:
    it is rejected, and the next try is _MIN_FACTOR times as long."""

    @pytest.mark.parametrize("faces", [4, 20, 200])
    def test_loose_tolerances_end_where_asked(self, faces):
        for seed in range(3):
            tri, l0 = generated(faces, seed)
            for rel_tol in (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
                for t_end, reason in ((10.0, "t_end"), (1e6, "cusp_tol")):
                    trace = integrate_flow(tri, l0, FlowOptions(t_end=t_end, cusp_tol=1e-4, rel_tol=rel_tol))
                    assert trace.stop_reason == reason
                    assert np.all(np.diff(trace.accepted.times) > 0.0)
                    assert np.all(np.diff(trace.accepted.factors, axis=0) > 0.0)

    def test_stage_outside_the_domain_rejects_the_step(self, tetra, monkeypatch):
        # The first stage of the first step is refused once; the retry
        # starts with a stage point a fifth as far from w = 0.
        tri, l0 = tetra
        kernel = flow_module.boundary_lengths
        points = []

        def refuse_once(tri, l0, w):
            points.append(w)
            if len(points) == 2:  # points[0] is the first-step probe
                raise DomainError("refused")
            return kernel(tri, l0, w)

        monkeypatch.setattr(flow_module, "boundary_lengths", refuse_once)
        trace = integrate_flow(tri, l0, FlowOptions(t_end=1e6, cusp_tol=1e-4))
        assert trace.stop_reason == "cusp_tol"
        np.testing.assert_allclose(points[2], flow_module._MIN_FACTOR * points[1], rtol=1e-15)

    def test_earlier_sample_outside_the_domain_rejects_the_last_step(self, monkeypatch):
        # The samples' geometry, the t = 0 row first, is refused once: the
        # last step is rejected, retried a fifth as long, and the run goes
        # on to its stop.
        tri, l0 = generated(20, 1)
        geometry_rows, sample = flow_module.geometry_rows, flow_module._sample
        refused, calls = [], []

        def refuse_once(tri, l0, w):
            if not refused and len(w) and not np.any(w[0]):
                refused.append(len(w))
                raise DomainError("refused")
            return geometry_rows(tri, l0, w)

        def counted(tri, l0, steps, *args):
            calls.append([step[:2] for step in steps])
            return sample(tri, l0, steps, *args)

        monkeypatch.setattr(flow_module, "geometry_rows", refuse_once)
        monkeypatch.setattr(flow_module, "_sample", counted)
        trace = integrate_flow(tri, l0, FlowOptions(t_end=1e6, cusp_tol=1e-4))
        assert trace.stop_reason == "cusp_tol"
        assert refused == [101] and len(calls) == 2
        # The step from the refused last step's start is a fifth as long.
        tau, h = calls[0][-1]
        assert dict(calls[1])[tau] == flow_module._MIN_FACTOR * h
        assert not np.any(trace.sampled.factors[0])
        n = tri.n_boundaries
        assert trace_csv(trace.sampled, n).splitlines()[-1] == trace_csv(trace.accepted, n).splitlines()[-1]


class TestCrossing:
    """The crossing search on a synthetic step, with cusp_tol = 1: a row's
    distance is ln max B, and its shortest edge stays far below the cap."""

    OPTS = FlowOptions(t_end=1.0, cusp_tol=1.0)
    TARGET = -0.5 * flow_module._CROSSING_TOL

    @staticmethod
    def row(B):
        return (np.array([B]), 1.0, 0.0)

    def test_end_inside_the_window_is_kept(self):
        def measured(x):
            raise AssertionError("no iterate needed")

        end = self.row(1.0 - 1e-10)
        assert flow_module._crossing(measured, self.row(2.0), end, self.OPTS) is None

    def test_illinois_then_bisection(self):
        # Before 1 - 2e-15 every iterate lies short of the stop, so the bracket
        # keeps its end b = 1: fb is halved from the second iterate on, until
        # the regula falsi point rounds onto b and the search bisects.
        crossing = 1.0 - 2e-15
        xs = []

        def measured(x):
            xs.append(x)
            return np.array([x]), self.row(2.0 if x < crossing else 1.0 - 1e-10)

        found = flow_module._crossing(measured, self.row(2.0), self.row(0.25), self.OPTS)
        fa, fb = math.log(2.0) - self.TARGET, math.log(0.25) - self.TARGET
        x1 = (0.0 * fb - 1.0 * fa) / (fb - fa)
        x2 = (x1 * fb - 1.0 * fa) / (fb - fa)
        assert xs[:3] == [x1, x2, (x2 * (0.5 * fb) - 1.0 * fa) / (0.5 * fb - fa)]
        assert found is not None and found[0] == xs[-1] >= crossing
        assert found[1] == np.array([xs[-1]])
        assert xs[-1] == 0.5 * (xs[-2] + 1.0)

    @pytest.mark.parametrize("x0", [0.3, 0.5])
    def test_jump_past_the_window_ends_on_the_jump(self, x0):
        # Max B jumps from twice the stop to half of it at x0, so no iterate
        # lands inside the window: the bracket closes onto x0 and its
        # midpoint rounds to an end, which stops the search before its cap.
        xs = []

        def measured(x):
            xs.append(x)
            return np.array([x]), self.row(2.0 if x < x0 else 0.5)

        found = flow_module._crossing(measured, self.row(2.0), self.row(0.5), self.OPTS)
        assert found is not None and found[0] == x0
        assert np.nextafter(x0, 0.0) in xs
        assert len(xs) < flow_module._CROSSING_ITERATIONS


class TestSampleGrid:
    @settings(max_examples=500, deadline=None)
    @given(st.floats(1.0, 2e4))
    @example(55.76726490279175)  # arange put a point one ulp below it
    def test_default_grid_has_101_distinct_times(self, t_last):
        times = flow_module._grid(t_last, None)
        assert len(times) == 101
        assert times[0] == 0.0 and times[-1] == t_last
        assert np.min(np.diff(times)) > 0.99 * t_last / 100.0

    @settings(max_examples=500, deadline=None)
    @given(st.floats(1.0, 2e4), st.floats(1e-3, 2.0))
    def test_grid_steps_by_sample_dt_and_ends_at_t_last(self, t_last, fraction):
        dt = fraction * t_last
        times = flow_module._grid(t_last, dt)
        assert times[0] == 0.0 and times[-1] == t_last
        assert np.array_equal(times[:-1], dt * np.arange(len(times) - 1))
        # Every multiple of dt short of t_last is on the grid, and none
        # lies within rounding of it.
        assert times[-2] + dt >= t_last * (1.0 - 1e-11)
        assert t_last - times[-2] > 1e-13 * t_last


class TestFlowLimit:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_matches_per_face_loop(self, request, name):
        tri, l0 = request.getfixturevalue(name)
        lam = {e.edge_id: math.cosh(0.5 * l0[e.edge_id]) for e in tri.edges}
        expected = np.zeros(tri.n_boundaries)
        for face in tri.faces:
            for t in range(3):
                opp, adj, adj2 = (face.opposite_edges[(t + s) % 3] for s in range(3))
                expected[face.corners[t] - 1] += lam[opp] / (lam[adj] * lam[adj2])
        K, c = flow_limit(tri, l0)
        assert K == pytest.approx(expected, rel=1e-14)
        assert c == pytest.approx(0.5 * np.log(2.0 * expected), rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_flow_tends_to_limit(self, request, name):
        tri, l0 = request.getfixturevalue(name)
        trace = integrate_flow(tri, l0, FlowOptions(t_end=1e9, cusp_tol=1e-6))
        assert trace.stop_reason == "cusp_tol"
        _, c = flow_limit(tri, l0)
        t = trace.accepted.times[-1]
        w, B = trace.accepted.factors[-1], trace.accepted.lengths[-1]
        assert np.max(np.abs(w - c - 0.5 * math.log(t))) <= 1e-5
        assert np.max(np.abs(t * B - 0.5)) <= 1e-5


class TestCuspReport:
    def test_base_point(self, pants):
        tri, l0 = pants
        rep = cusp_report(tri, l0, np.zeros(3))
        assert rep.max_boundary == pytest.approx(PANTS_B0, rel=1e-12)
        assert rep.min_edge == pytest.approx(PANTS_EDGE, rel=1e-12)
        assert rep.max_edge == pytest.approx(PANTS_EDGE, rel=1e-12)
        assert rep.max_arc == pytest.approx(PANTS_B0 / 2.0, rel=1e-12)
        assert rep.boundary == pytest.approx([PANTS_B0] * 3, rel=1e-12)

    def test_no_overflow_for_large_factors(self, pants):
        tri, l0 = pants
        # min edge length near 1e3: w with 2w + ln 2 = 500
        w_value = 250.0
        rep = cusp_report(tri, l0, np.full(3, w_value))
        assert math.isfinite(rep.min_edge)
        assert rep.min_edge > 900.0
        assert math.isfinite(rep.max_arc)
        assert rep.max_arc > 0.0
        assert rep.max_boundary == pytest.approx(2.0 * rep.max_arc, rel=1e-12)

    def test_rejects_out_of_domain(self, pants):
        tri, l0 = pants
        with pytest.raises(DomainError):
            cusp_report(tri, l0, np.array([-0.9, 0.0, 0.0]))
        with pytest.raises(ValueError):
            cusp_report(tri, l0, np.array([math.nan, 0.0, 0.0]))


class TestTraceCsv:
    def test_header_and_shape(self, pants):
        tri, l0 = pants
        trace = integrate_flow(tri, l0, FlowOptions(t_end=2.0, sample_dt=0.5))
        text = trace_csv(trace.sampled, tri.n_boundaries)
        lines = text.strip().split("\n")
        assert lines[0] == "t,S,minLen,maxArc,w_1,w_2,w_3,B_1,B_2,B_3"
        assert len(lines) == 1 + len(trace.sampled.times)
        # 17 significant digits reparse exactly
        cells = lines[1].split(",")
        assert float(cells[0]) == trace.sampled.times[0]
        assert float(cells[1]) == trace.sampled.sum_sq[0]

    def test_deterministic(self, pants):
        tri, l0 = pants
        a = trace_csv(integrate_flow(tri, l0, FlowOptions(t_end=2.0)).sampled, 3)
        b = trace_csv(integrate_flow(tri, l0, FlowOptions(t_end=2.0)).sampled, 3)
        assert a == b

    @pytest.mark.parametrize(
        "faces, options",
        [
            (None, dict(t_end=3.0)),
            (20, dict(t_end=1e6, cusp_tol=1e-4)),
            # B and S underflow to subnormals and zero.
            (None, dict(t_end=1e308, cusp_tol=1e-300, length_cap=1e4)),
        ],
    )
    def test_matches_per_cell_format(self, pants, faces, options):
        # Every cell as f"{value:.17g}", row by row: the layout the CSV keeps.
        tri, l0 = pants if faces is None else generated(faces, 0)
        n = tri.n_boundaries
        trace = integrate_flow(tri, l0, FlowOptions(**options))
        for table in (trace.accepted, trace.sampled):
            header = ",".join(["t", "S", "minLen", "maxArc"] + [f"w_{i}" for i in range(1, n + 1)]
                              + [f"B_{i}" for i in range(1, n + 1)])
            rows = [
                ",".join(f"{c:.17g}" for c in (table.times[r], table.sum_sq[r], table.min_edge[r],
                                               table.max_arc[r], *table.factors[r], *table.lengths[r]))
                for r in range(len(table))
            ]
            assert trace_csv(table, n) == "\n".join([header, *rows]) + "\n"
