import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hexflow import (
    ConvergenceError,
    DomainError,
    FlowOptions,
    cusp_report,
    edge_length,
    hexagon_arcs,
    integrate_flow,
    total_energy,
    trace_csv,
)

from conftest import PANTS_EDGE

PANTS_B0 = 2.0 * math.acosh(7.0 / 6.0)


def scalar_pants_rhs(x):
    """Reduced pants flow: all three factors stay equal by symmetry."""
    side = edge_length(PANTS_EDGE, x, x)
    return 2.0 * hexagon_arcs(side, side, side)[0]


class TestFlowOptions:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            FlowOptions(t_end=0.0)
        with pytest.raises(ValueError):
            FlowOptions(t_end=1.0, rel_tol=-1e-8)
        with pytest.raises(ValueError):
            FlowOptions(t_end=1.0, sample_dt=0.0)

    def test_cusp_tol_must_undercut_initial_lengths(self, pants):
        tri, l0 = pants
        with pytest.raises(ValueError, match="cusp_tol"):
            integrate_flow(tri, l0, FlowOptions(t_end=1.0, cusp_tol=10.0))


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
        assert trace.accepted.min_edge[-1] > 15.0

    def test_halving_tolerance_stays_within_error_estimate(self, pants):
        tri, l0 = pants
        opts = FlowOptions(t_end=10.0, rel_tol=1e-8, abs_tol=1e-10)
        finer = FlowOptions(t_end=10.0, rel_tol=5e-9, abs_tol=5e-11)
        run_a = integrate_flow(tri, l0, opts)
        run_b = integrate_flow(tri, l0, finer)
        shift = np.max(np.abs(run_a.accepted.factors[-1] - run_b.accepted.factors[-1]))
        assert shift < 10.0 * run_a.error_estimate

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
