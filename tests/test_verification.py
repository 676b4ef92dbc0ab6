import math
import tracemalloc

import numpy as np
import pytest

from oracles import weak_identity_residual
from specwave import (
    CauchyProblem,
    GaussLegendre,
    NonlocalProblem,
    ProblemClock,
    SpectralVector,
    project,
    solve_cauchy,
    solve_nonlocal,
)
from specwave import verification as ver
from specwave.cli import main
from specwave.solution import SeriesSolution


@pytest.fixture()
def solved(dirichlet, rng):
    clock = ProblemClock(5.0, 0.01)
    alpha = SpectralVector(rng.standard_normal(100) + 1j * rng.standard_normal(100), dirichlet)
    gamma = SpectralVector(rng.standard_normal(100) + 1j * rng.standard_normal(100), dirichlet)
    problem = NonlocalProblem(dirichlet, clock, alpha, gamma)
    return problem, solve_nonlocal(problem)


def test_initial_condition_residual_at_machine_scale(solved):
    problem, sol = solved
    assert ver.initial_condition_relative(problem, sol) <= 1e-15
    # with a = 0 the residual is exactly zero (C = -D by construction)
    zero_a = NonlocalProblem(
        problem.spectrum,
        problem.clock,
        SpectralVector(np.zeros(len(problem.alpha)), problem.spectrum),
        problem.gamma,
    )
    assert ver.initial_condition_relative(zero_a, solve_nonlocal(zero_a)) == 0.0


def scaled(sol, s):
    """The solution with every coefficient multiplied by s."""
    return SeriesSolution(sol.spectrum, sol.T, s * sol.C, s * sol.D)


def relative_residual(problem, sol):
    return ver.integral_condition_residual(problem, sol).total / (1 + problem.gamma.sobolev_norm(0))


def test_integral_condition_residual_small(solved):
    problem, sol = solved
    rel = relative_residual(problem, sol)
    assert rel < 1e-10


def test_integral_residual_detects_wrong_solution(solved, dirichlet):
    problem, sol = solved
    tampered = type(sol)(dirichlet, sol.T, sol.C * 1.01, sol.D)
    assert ver.integral_condition_residual(problem, tampered).total > 1e-3


def test_roundtrip_agreement(solved):
    problem, sol = solved
    trip = ver.roundtrip_check(problem, sol)
    assert trip.coefficient_rel < 1e-10
    assert trip.field_max < 1e-9 * (1 + trip.field_scale)


def test_real_system_residuals(solved):
    problem, sol = solved
    _, re_resid, im_resid = ver.integral_condition_residual(problem, sol)
    scale = 1 + problem.gamma.sobolev_norm(0)
    assert re_resid < 1e-8 * scale
    assert im_resid < 1e-8 * scale


def test_mode_energy_drift_tiny(solved):
    _, sol = solved
    assert float(ver.mode_energy_drift(sol).max()) < 1e-12


def test_weak_identity(solved, rng):
    _, sol = solved
    pairs = [tuple(sorted(rng.uniform(0.0, sol.T, 2))) for _ in range(10)]
    assert weak_identity_residual(sol, pairs) < 1e-10


def test_energy_estimate_margin_positive(dirichlet, rng):
    alpha = SpectralVector(rng.standard_normal(50) + 1j * rng.standard_normal(50), dirichlet)
    beta = SpectralVector(rng.standard_normal(50) + 1j * rng.standard_normal(50), dirichlet)
    problem = CauchyProblem(dirichlet, 5.0, alpha, beta)
    sol = solve_cauchy(problem)
    assert ver.energy_estimate_margin(problem, sol, sol.norm_trajectories(1001)) > 0


def test_residuals_at_reference_configuration(dirichlet):
    # a = 0, g = projected parabola, the standard demonstration setup
    clock = ProblemClock(5.0, 0.01)
    g = project(lambda x: x * (math.pi - x), dirichlet, 100)
    a = SpectralVector(np.zeros(100), dirichlet)
    problem = NonlocalProblem(dirichlet, clock, a, g)
    sol = solve_nonlocal(problem)
    assert relative_residual(problem, sol) < 1e-8
    assert ver.initial_condition_relative(problem, sol) == 0.0
    trip = ver.roundtrip_check(problem, sol)
    assert trip.coefficient_rel < 1e-10


def _parabola_problem(dirichlet, n_modes, omega):
    rng = np.random.default_rng(n_modes)
    k = np.arange(1, n_modes + 1)
    a = SpectralVector((rng.uniform(-1, 1, n_modes) + 1j * rng.uniform(-1, 1, n_modes)) / k**3, dirichlet)
    g = project(lambda x: x * (math.pi - x), dirichlet, n_modes)
    return NonlocalProblem(dirichlet, ProblemClock(5.0, omega), a, g)


def test_quadrature_checks_memory_bounded_at_large_n(dirichlet):
    # a dense N x (time nodes) moment matrix would take 4.1 GiB here
    problem = _parabola_problem(dirichlet, 3000, 0.07)
    sol = solve_nonlocal(problem)
    tracemalloc.start()
    try:
        total, re_resid, im_resid = ver.integral_condition_residual(problem, sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    scale = 1 + problem.gamma.sobolev_norm(0)
    assert total / scale < 1e-8
    assert max(re_resid, im_resid) < 1e-8 * scale


def _dense_mode_energy_drift(solution, time_points=1000):
    ts = np.linspace(0.0, solution.T, time_points)
    y, yp = solution.mode_values(ts), solution.mode_derivatives(ts)
    energy = np.abs(yp) ** 2 + solution.eigenvalues[:, None] * np.abs(y) ** 2
    top = energy.max(axis=1)
    return (top - energy.min(axis=1)) / np.where(top > 0, top, 1.0)


def _random_solution(dirichlet, n_modes):
    rng = np.random.default_rng(n_modes)
    C = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    D = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
    return SeriesSolution(dirichlet, 5.0, C, D)


@pytest.mark.parametrize("n_modes", [1, 100, 1000])
def test_streamed_mode_energy_drift_equals_dense(dirichlet, n_modes):
    sol = _random_solution(dirichlet, n_modes)
    assert np.array_equal(ver.mode_energy_drift(sol), _dense_mode_energy_drift(sol))


def test_mode_energy_drift_memory_bounded_at_large_n(dirichlet):
    # the dense N x 1000 y and y' arrays would take over 200 MiB here
    sol = _random_solution(dirichlet, 3000)
    tracemalloc.start()
    try:
        drift = ver.mode_energy_drift(sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert drift.shape == (3000,) and drift.max() < 1e-12


def test_small_scaling_flagged_at_large_n(dirichlet):
    problem = _parabola_problem(dirichlet, 1000, 0.2137)
    sol = solve_nonlocal(problem)
    scale = 1 + problem.gamma.sobolev_norm(0)
    assert relative_residual(problem, sol) < 1e-8
    tampered = scaled(sol, 1 + 1e-6)
    assert relative_residual(problem, tampered) > 1e-8
    assert max(ver.integral_condition_residual(problem, tampered)[1:]) > 1e-8 * scale


def test_real_split_is_the_complex_residual(solved):
    problem, sol = solved
    tampered = scaled(sol, 1.001)
    total, re_resid, im_resid = ver.integral_condition_residual(problem, tampered)
    assert math.hypot(re_resid, im_resid) == pytest.approx(total, rel=1e-12)


def test_one_moment_pass_per_solve(tmp_path, monkeypatch):
    calls = []
    exp_moments = GaussLegendre.exp_moments

    def counted(self, *args, **kwargs):
        calls.append(args)
        return exp_moments(self, *args, **kwargs)

    monkeypatch.setattr(GaussLegendre, "exp_moments", counted)
    code = main(["solve", "--T", "5", "--omega", "0.01", "--N", "50", "--out", str(tmp_path)])
    assert code == 0
    assert len(calls) == 1
