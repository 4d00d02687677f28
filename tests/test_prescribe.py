import numpy as np
import pytest

from hexflow import (
    ConvergenceError,
    SolveOptions,
    boundary_lengths,
    solve_prescribed,
)

from conftest import random_in_domain


class TestSolveOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(grad_tol=0.0)
        with pytest.raises(ValueError):
            SolveOptions(max_iter=0)


class TestSolvePrescribed:
    def test_fixed_point_of_base_metric(self, pants):
        tri, l0 = pants
        target = boundary_lengths(tri, l0, np.zeros(3))
        result = solve_prescribed(tri, l0, target)
        assert result.iterations <= 1
        assert np.max(np.abs(result.factors)) < 1e-10
        assert result.converged

    def test_recovers_known_factor(self, pants):
        tri, l0 = pants
        w_star = np.array([0.1, 0.2, 0.3])
        result = solve_prescribed(tri, l0, boundary_lengths(tri, l0, w_star))
        assert np.max(np.abs(result.factors - w_star)) < 1e-8
        assert result.residual <= 1e-10

    def test_rejects_nonpositive_target(self, pants):
        tri, l0 = pants
        with pytest.raises(ValueError, match="strictly positive"):
            solve_prescribed(tri, l0, [1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="strictly positive"):
            solve_prescribed(tri, l0, [1.0, -2.0, 1.0])

    def test_rejects_wrong_shape(self, pants):
        tri, l0 = pants
        with pytest.raises(ValueError, match="one entry per boundary"):
            solve_prescribed(tri, l0, [1.0, 1.0])

    def test_rejects_bad_start(self, pants):
        tri, l0 = pants
        target = boundary_lengths(tri, l0, np.zeros(3))
        for start in ([0.1, 0.1], [0.1, 0.1, 0.1, 0.1], [[0.1, 0.1, 0.1]]):
            with pytest.raises(ValueError, match="start must have one entry per boundary"):
                solve_prescribed(tri, l0, target, start=start)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="start must be finite"):
                solve_prescribed(tri, l0, target, start=[0.1, bad, 0.1])

    @pytest.mark.parametrize("fixture_name", ["pants", "tetra", "torus"])
    def test_round_trip_recovery(self, fixture_name, request):
        tri, l0 = request.getfixturevalue(fixture_name)
        rng = np.random.default_rng(41)
        for _ in range(100):
            w_star = random_in_domain(tri, l0, rng, low=-0.2, high=1.0, margin=0.02)
            target = boundary_lengths(tri, l0, w_star)
            result = solve_prescribed(tri, l0, target)
            assert result.converged
            assert result.iterations <= 50
            assert np.max(np.abs(result.factors - w_star)) < 1e-8

    def test_two_starts_agree(self, pants):
        tri, l0 = pants
        rng = np.random.default_rng(42)
        for _ in range(20):
            w_star = random_in_domain(tri, l0, rng, low=-0.2, high=1.0)
            target = boundary_lengths(tri, l0, w_star)
            from_zero = solve_prescribed(tri, l0, target)
            from_random = solve_prescribed(
                tri, l0, target, start=random_in_domain(tri, l0, rng, low=0.0, high=0.4)
            )
            assert np.max(np.abs(from_zero.factors - from_random.factors)) < 1e-7

    def test_objective_increases_in_global_phase(self, pants):
        tri, l0 = pants
        rng = np.random.default_rng(43)
        for _ in range(10):
            w_star = random_in_domain(tri, l0, rng, low=0.2, high=1.0)
            result = solve_prescribed(tri, l0, boundary_lengths(tri, l0, w_star))
            for k in range(len(result.objective_trace) - 1):
                if result.residual_trace[k] >= 1e-3:
                    assert result.objective_trace[k + 1] > result.objective_trace[k]
                else:
                    assert result.objective_trace[k + 1] >= result.objective_trace[k] - 1e-10

    def test_residual_contracts_in_quadratic_basin(self, pants, tetra):
        for fixture in (pants, tetra):
            tri, l0 = fixture
            rng = np.random.default_rng(44)
            w_star = random_in_domain(tri, l0, rng, low=-0.1, high=0.8)
            result = solve_prescribed(tri, l0, boundary_lengths(tri, l0, w_star))
            trace = result.residual_trace
            for k in range(len(trace) - 1):
                if trace[k] < 1e-3 and trace[k] > 0.0:
                    assert trace[k + 1] < trace[k]

    def test_iteration_cap_reports_partial_progress(self, pants):
        tri, l0 = pants
        target = np.full(3, 1e-4)  # pulls w far out; one step cannot get there
        with pytest.raises(ConvergenceError) as err:
            solve_prescribed(tri, l0, target, SolveOptions(max_iter=2))
        partial = err.value.partial
        assert partial is not None
        assert not partial.converged
        assert partial.iterations == 2
        assert partial.residual > 0.0

    def test_extreme_target_still_converges_with_budget(self, pants):
        tri, l0 = pants
        result = solve_prescribed(tri, l0, np.full(3, 1e-4))
        assert result.converged
        assert np.all(result.factors > 3.0)

    def test_asymmetric_target_on_torus(self, torus):
        tri, l0 = torus
        target = np.array([2.5])
        result = solve_prescribed(tri, l0, target)
        assert result.converged
        got = boundary_lengths(tri, l0, result.factors)
        assert got[0] == pytest.approx(2.5, abs=1e-9)

    @pytest.mark.parametrize("fixture_name", ["pants", "tetra"])
    def test_large_uniform_target_converges(self, fixture_name, request):
        tri, l0 = request.getfixturevalue(fixture_name)
        target = np.full(tri.n_boundaries, 20.0)
        result = solve_prescribed(tri, l0, target)
        assert result.converged
        assert np.max(np.abs(boundary_lengths(tri, l0, result.factors) - target)) <= 1e-9
