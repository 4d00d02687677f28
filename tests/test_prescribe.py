import math

import numpy as np
import pytest
import scipy.linalg

from hexflow import (
    ConvergenceError,
    SolveOptions,
    boundary_lengths,
    flow_limit,
    parse_surface,
    solve_prescribed,
)
from hexflow import conformal, prescribe

from conftest import PANTS_EDGE, generated, pants_text, random_in_domain


class TestSolveOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(grad_tol=0.0)
        with pytest.raises(ValueError):
            SolveOptions(max_iter=0)

    @pytest.mark.parametrize("grad_tol", [math.inf, math.nan, -1e-10])
    def test_rejects_non_finite_or_nonpositive_tolerance(self, grad_tol):
        with pytest.raises(ValueError, match="grad_tol"):
            SolveOptions(grad_tol=grad_tol)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, "3", None])
    def test_rejects_non_integer_iteration_cap(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            SolveOptions(max_iter=max_iter)

    def test_accepts_numpy_integer_iteration_cap(self):
        assert SolveOptions(max_iter=np.int64(7)).max_iter == 7


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
        # Pulls w far out; the jump of iteration 1 lands near it, but not
        # within the tolerance.
        target = np.full(3, 1e-4)
        with pytest.raises(ConvergenceError) as err:
            solve_prescribed(tri, l0, target, SolveOptions(max_iter=1))
        partial = err.value.partial
        assert partial is not None
        assert not partial.converged
        assert partial.iterations == 1
        assert partial.residual > 0.0

    def test_failed_line_search_reports_the_start(self, monkeypatch, pants):
        tri, l0 = pants
        monkeypatch.setattr(prescribe, "_merit_gain", lambda *args: None)
        start = np.array([0.1, 0.2, 0.3])
        target = np.array([1.0, 0.9, 1.1])
        with pytest.raises(ConvergenceError, match="line search failed at iteration 0") as err:
            solve_prescribed(tri, l0, target, start=start)
        partial = err.value.partial
        assert partial.iterations == 0
        assert not partial.converged
        assert np.array_equal(partial.factors, start)
        assert partial.residual == np.abs(boundary_lengths(tri, l0, start) - target).max()

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


def _tiny_target_sets():
    """The mixed sets (targets log-uniform over [1e-150, 30]) and uniform
    tiny targets on generated surfaces, as (label, tri, l0, target)."""
    for faces in (4, 8, 12, 20, 200):
        for seed in range(8):
            tri, l0 = generated(faces, seed)
            rng = np.random.default_rng(seed)
            target = np.exp(rng.uniform(math.log(1e-150), math.log(30.0), tri.n_boundaries))
            yield f"mixed F={faces} seed={seed}", tri, l0, target
    for faces, seed in ((4, 0), (12, 0), (200, 9000)):
        tri, l0 = generated(faces, seed)
        for value in (1e-12, 1e-150, 1e-6):
            yield f"uniform {value:g} F={faces}", tri, l0, np.full(tri.n_boundaries, value)


def test_tiny_targets_never_converge_off_target():
    # An absolute stopping test would accept any factor whose B lies under
    # grad_tol, however far from a tiny target.  From w = 0 the jump to the
    # flow's asymptote brings all but the sets with targets near 1e-150
    # (the three uniform ones and mixed F=4 seed=3, down to 9e-138) into
    # Newton's basin.
    off_target, converged = [], 0
    for label, tri, l0, target in _tiny_target_sets():
        try:
            result = solve_prescribed(tri, l0, target)
        except ConvergenceError:
            continue
        converged += 1
        error = float(np.max(np.abs(boundary_lengths(tri, l0, result.factors) - target) / target))
        if error > 1e-10:
            off_target.append((label, error))
    assert off_target == []
    assert converged >= 45


def test_scipy_is_a_lazy_attribute():
    # The tracer's sites on scipy.linalg resolve through the module, and
    # reading them leaves its namespace as it was.
    before = dict(vars(prescribe))
    assert prescribe.scipy is scipy
    assert prescribe.scipy.linalg.cho_factor is scipy.linalg.cho_factor
    after = vars(prescribe)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())
    with pytest.raises(AttributeError, match="no attribute 'sci'"):
        prescribe.sci


def test_merit_rule_is_numpys_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert prescribe._GL_NODES.tobytes() == nodes.tobytes()
    assert prescribe._GL_WEIGHTS.tobytes() == weights.tobytes()


def test_one_kernel_call_per_trial_step(monkeypatch, kernel_calls):
    tri, l0 = generated(20, 3)
    w_star = np.random.default_rng(43).uniform(0.0, 0.5, tri.n_boundaries)
    target = boundary_lengths(tri, l0, w_star)
    trials = []
    merit_gain = prescribe._merit_gain
    monkeypatch.setattr(prescribe, "_merit_gain", lambda *args: trials.append(args[-1]) or merit_gain(*args))
    kernel_calls.clear()
    result = solve_prescribed(tri, l0, target)
    assert np.max(np.abs(result.factors - w_star)) < 1e-8
    assert len(trials) >= result.iterations > 0
    # B at the start, then per trial step one call on the 8 Gauss nodes
    # and the trial point, whose row is B at the next iterate.
    assert kernel_calls == [1] + [9] * len(trials)


def test_trial_inside_the_cushion_forms_no_arc(monkeypatch, kernel_calls, pants):
    # Target 20 pulls w towards the domain wall, so some full steps end
    # within the cushion; those trials are rejected from their slacks alone.
    tri, l0 = pants
    trials = []
    merit_gain = prescribe._merit_gain
    monkeypatch.setattr(prescribe, "_merit_gain", lambda *args: trials.append(merit_gain(*args)) or trials[-1])
    kernel_calls.clear()
    result = solve_prescribed(tri, l0, np.full(3, 20.0))
    assert result.converged
    assert None in trials
    assert kernel_calls == [1] + [9] * sum(trial is not None for trial in trials)


def _jump(tri, l0, target):
    """Iteration 1 from w = 0: max(0, 1/2 ln(K / target)), K of flow_limit."""
    return np.maximum(0.0, 0.5 * (np.log(flow_limit(tri, l0)[0]) - np.log(target)))


class TestAsymptoticJump:
    @pytest.mark.parametrize("faces", [4, 8, 12, 16, 20])
    def test_round_trip_takes_the_jump(self, monkeypatch, kernel_calls, faces):
        # The accepted jump hands over B and the terms of H at its end, so
        # no H is assembled at w = 0 and no Newton system is solved there.
        tri, l0 = generated(faces, 11)
        w_star = np.random.default_rng(faces).uniform(0.0, 0.5, tri.n_boundaries)
        target = boundary_lengths(tri, l0, w_star)
        trials, jacobian_calls = [], []
        merit_gain, jacobian = prescribe._merit_gain, prescribe.boundary_jacobian
        monkeypatch.setattr(prescribe, "_merit_gain", lambda *args: trials.append(args[3:]) or merit_gain(*args))
        monkeypatch.setattr(prescribe, "boundary_jacobian", lambda *args: jacobian_calls.append(1) or jacobian(*args))
        kernel_calls.clear()
        result = solve_prescribed(tri, l0, target)
        assert np.max(np.abs(result.factors - w_star)) < 1e-8
        (w, step, alpha), (w_next, _, _) = trials[:2]
        assert not w.any() and alpha == 1.0
        assert np.array_equal(step, _jump(tri, l0, target)) and step.any()
        assert np.array_equal(w_next, step)
        assert jacobian_calls == []
        assert kernel_calls == [1] + [9] * len(trials)

    def test_zero_start_solves_the_newton_system_at_zero(self, monkeypatch):
        tri, l0 = generated(12, 5)
        n = tri.n_boundaries
        target = boundary_lengths(tri, l0, np.random.default_rng(12).uniform(0.0, 0.5, n))
        seen = []
        newton_step = prescribe._newton_step
        monkeypatch.setattr(prescribe, "_newton_step", lambda H, grad: seen.append((H, grad)) or newton_step(H, grad))
        solve_prescribed(tri, l0, target, start=np.zeros(n))
        H, grad = seen[0]
        assert np.array_equal(H, conformal.boundary_jacobian(tri, l0, np.zeros(n)))
        assert np.array_equal(grad, boundary_lengths(tri, l0, np.zeros(n)) - target)

    @pytest.mark.parametrize("faces", [4, 8, 12, 20])
    def test_no_jump_above_the_tail_coefficients(self, faces):
        # Targets at or above K ask for the jump 0, so the solve from the
        # default start is the solve from start = 0, bit for bit.
        tri, l0 = generated(faces, 13)
        K = flow_limit(tri, l0)[0]
        target = K * np.random.default_rng(faces).uniform(1.0, 2.0, tri.n_boundaries)
        target[0] = K[0]
        assert not _jump(tri, l0, target).any()
        default = solve_prescribed(tri, l0, target)
        from_zero = solve_prescribed(tri, l0, target, start=np.zeros(tri.n_boundaries))
        assert default.converged and from_zero.converged
        assert np.array_equal(default.factors, from_zero.factors)
        assert default.iterations == from_zero.iterations
        assert default.residual_trace == from_zero.residual_trace
        assert default.objective_trace == from_zero.objective_trace

    def test_jump_past_the_range_of_expm1_is_a_trial(self):
        # The least subnormal target asks for a jump whose slacks pass 709,
        # where expm1 overflows; the trial is tested like any other, and
        # the solve ends at the iteration cap as it does from Newton steps.
        tri, l0 = generated(4, 0)
        target = np.full(tri.n_boundaries, 5e-324)
        assert conformal._edge_slack(conformal._compiled(tri, l0), _jump(tri, l0, target)).min() > 710.0
        with pytest.raises(ConvergenceError, match="no convergence in 100 iterations"):
            solve_prescribed(tri, l0, target)


class TestNewtonStep:
    @pytest.mark.parametrize("faces", [4, 8, 12, 16, 20])
    def test_step_solves_the_newton_system(self, monkeypatch, faces):
        # numpy's and scipy's LAPACK builds round differently, so the step
        # is held to a backward-error bound and to scipy's Cholesky solve
        # up to rounding, not bit for bit.
        tri, l0 = generated(faces, 5)
        w_star = np.random.default_rng(faces).uniform(0.0, 0.5, tri.n_boundaries)
        seen = []
        newton_step = prescribe._newton_step
        monkeypatch.setattr(prescribe, "_newton_step", lambda H, grad: seen.append((H, grad)) or newton_step(H, grad))
        result = solve_prescribed(tri, l0, boundary_lengths(tri, l0, w_star), start=np.zeros(tri.n_boundaries))
        assert len(seen) == result.iterations >= 3
        eps = np.finfo(float).eps
        for H, grad in seen:
            H_before, grad_before = H.copy(), grad.copy()
            step = newton_step(H, grad)
            assert np.array_equal(H, H_before) and np.array_equal(grad, grad_before)
            backward = np.max(np.abs(-H @ step - grad))
            assert backward <= 16 * len(grad) * eps * np.linalg.norm(H, np.inf) * np.max(np.abs(step))
            reference = scipy.linalg.cho_solve(scipy.linalg.cho_factor(-H), grad)
            assert np.max(np.abs(step - reference)) <= 1e-13 * np.max(np.abs(reference))

    def test_indefinite_jacobian_is_no_ascent_step(self, monkeypatch):
        tri, l0 = generated(8, 2)
        w_star = np.random.default_rng(3).uniform(0.0, 0.5, tri.n_boundaries)
        jacobian = prescribe.boundary_jacobian

        def indefinite(*args):
            H = jacobian(*args)
            H[0, 0] = -H[0, 0]  # a positive diagonal entry: -H is not positive definite
            return H

        monkeypatch.setattr(prescribe, "boundary_jacobian", indefinite)
        start = np.zeros(tri.n_boundaries)
        with pytest.raises(ConvergenceError, match="no ascent step at iteration 0") as info:
            solve_prescribed(tri, l0, boundary_lengths(tri, l0, w_star), start=start)
        partial = info.value.partial
        assert partial.iterations == 0 and not partial.converged
        assert np.array_equal(partial.factors, start)

    def test_singular_jacobian_ends_in_convergence_error(self, monkeypatch, pants):
        # numpy's solve raises LinAlgError on an exactly singular H; the
        # solve reports it as its own failure, not as a linear-algebra one.
        tri, l0 = pants
        monkeypatch.setattr(prescribe, "boundary_jacobian", lambda *args: np.zeros((3, 3)))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.zeros((3, 3)), np.ones(3))
        with pytest.raises(ConvergenceError, match="no ascent step at iteration 0") as info:
            solve_prescribed(tri, l0, [1.0, 0.9, 1.1], start=np.zeros(3))
        assert np.array_equal(info.value.partial.factors, np.zeros(3))

    def test_nan_trial_point_is_a_value_error(self, monkeypatch, pants):
        # Read as "inside the cushion", a NaN slack would backtrack down to
        # a line-search ConvergenceError instead.
        tri, l0 = pants
        newton_step = prescribe._newton_step

        def with_nan(H, grad):
            step = newton_step(H, grad)
            step[0] = np.nan
            return step

        monkeypatch.setattr(prescribe, "_newton_step", with_nan)
        with pytest.raises(ValueError, match="finite"):
            solve_prescribed(tri, l0, [1.0, 0.9, 1.1])

    @pytest.mark.parametrize("length", [1490.0, 1500.0])
    def test_underflowed_jacobian_ends_in_convergence_error(self, length):
        # Edges this long put B and H at w = 0 at or below the subnormal
        # range (at 1500 the tail coefficients underflow to 0 too), so the
        # step is not finite: the solve stops at its start.
        tri, l0 = parse_surface(pants_text(length))
        with pytest.raises(ConvergenceError, match="no ascent step at iteration 0") as info:
            solve_prescribed(tri, l0, [1.0, 1.0, 1.0])
        partial = info.value.partial
        assert partial.iterations == 0 and not partial.converged
        assert np.array_equal(partial.factors, np.zeros(3))

    @pytest.mark.parametrize(
        "length, target",
        [(PANTS_EDGE, [1e300, 1.0, 1.0]), (PANTS_EDGE, [1.7e308, 1.0, 1.0]), (PANTS_EDGE, [1e300] * 3), (1400.0, [1e3] * 3)],
        ids=["1e300", "1.7e308", "all-1e300", "edge-1400"],
    )
    def test_slope_past_float_range_ends_in_convergence_error(self, length, target):
        # A target near 1e300, or H near 1e-300 (base edges of 1400), puts
        # the Newton slope <grad, d> past float range: the solve stops
        # there, with no overflow warning (the suite turns warnings into
        # errors).
        tri, l0 = parse_surface(pants_text(length))
        with pytest.raises(ConvergenceError, match="no ascent step at iteration"):
            solve_prescribed(tri, l0, target)

    def test_non_finite_jacobian_is_a_value_error(self, monkeypatch, pants):
        tri, l0 = pants
        jacobian = prescribe.boundary_jacobian

        def with_nan(*args):
            H = jacobian(*args)
            H[1, 2] = np.nan
            return H

        monkeypatch.setattr(prescribe, "boundary_jacobian", with_nan)
        with pytest.raises(ValueError):
            solve_prescribed(tri, l0, [1.0, 0.9, 1.1], start=np.zeros(3))


class TestJacobianFromTrialPass:
    """H at every iterate after the start comes from the accepted trial's
    kernel call; it must be boundary_jacobian's H bit for bit."""

    @staticmethod
    def _solve_recording(monkeypatch, tri, l0, target, **kwargs):
        seen, iterates, jacobian_calls = [], [], []
        newton_step, merit_gain = prescribe._newton_step, prescribe._merit_gain
        jacobian = prescribe.boundary_jacobian

        def record_step(H, grad):
            seen.append(H.copy())
            return newton_step(H, grad)

        def record_iterate(*args):
            if len(iterates) < len(seen):
                iterates.append(args[3].copy())
            return merit_gain(*args)

        monkeypatch.setattr(prescribe, "_newton_step", record_step)
        monkeypatch.setattr(prescribe, "_merit_gain", record_iterate)
        monkeypatch.setattr(prescribe, "boundary_jacobian", lambda *args: jacobian_calls.append(1) or jacobian(*args))
        result = solve_prescribed(tri, l0, target, **kwargs)
        assert len(seen) == len(iterates) == result.iterations
        assert len(jacobian_calls) == 1
        return result, seen, iterates

    @pytest.mark.parametrize("faces", [4, 8, 12, 16, 20])
    def test_round_trip_iterates(self, monkeypatch, faces):
        tri, l0 = generated(faces, 5)
        w_star = np.random.default_rng(faces).uniform(0.0, 0.5, tri.n_boundaries)
        target = boundary_lengths(tri, l0, w_star)
        result, seen, iterates = self._solve_recording(monkeypatch, tri, l0, target, start=np.zeros(tri.n_boundaries))
        assert result.iterations >= 3
        for H, w in zip(seen, iterates):
            assert np.array_equal(H, conformal.boundary_jacobian(tri, l0, w))

    @pytest.mark.parametrize("faces", [4, 8, 12])
    def test_iterates_with_far_faces(self, monkeypatch, faces):
        # Components at w ~ 60 put slacks near 120, beyond ln cosh(100),
        # on the edges joining two of them; the rest stay direct.
        tri, l0 = generated(faces, 7)
        rng = np.random.default_rng(faces)
        w_star = rng.uniform(0.0, 0.5, tri.n_boundaries)
        w_star[::2] += 60.0
        target = boundary_lengths(tri, l0, w_star)
        options = SolveOptions(grad_tol=1e-10 * float(target.max()))
        result, seen, iterates = self._solve_recording(monkeypatch, tri, l0, target, opts=options, start=w_star - 0.2)
        assert result.converged and result.iterations >= 2
        assert np.max(np.abs(result.factors - w_star)) < 1e-7
        slacks = [conformal._edge_slack(conformal._compiled(tri, l0), w) for w in iterates]
        assert all(u.max() > conformal._FAR_SLACK > u.min() for u in slacks)
        for H, w in zip(seen, iterates):
            assert np.array_equal(H, conformal.boundary_jacobian(tri, l0, w))
