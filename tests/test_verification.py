import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    derivative_coefficients,
    initial_condition_relative,
    mode_energy_drift,
    weak_identity_residual,
)
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
def solved(rng):
    clock = ProblemClock(5.0, 0.01)
    alpha = SpectralVector(rng.standard_normal(100) + 1j * rng.standard_normal(100))
    gamma = SpectralVector(rng.standard_normal(100) + 1j * rng.standard_normal(100))
    problem = NonlocalProblem(clock, alpha, gamma)
    return problem, solve_nonlocal(problem)


def test_initial_condition_residual_at_machine_scale(solved):
    problem, sol = solved
    assert initial_condition_relative(problem, sol) <= 1e-15
    # with a = 0 the residual is exactly zero (C = -D by construction)
    zero_a = NonlocalProblem(
        problem.clock,
        SpectralVector(np.zeros(len(problem.alpha))),
        problem.gamma,
    )
    assert initial_condition_relative(zero_a, solve_nonlocal(zero_a)) == 0.0


def scaled(sol, s):
    """The solution with every coefficient multiplied by s."""
    return SeriesSolution(sol.T, s * sol.C, s * sol.D)


def test_integral_condition_residual_small(solved):
    problem, sol = solved
    assert ver.integral_condition_residual(problem, sol) < 1e-10


def test_integral_residual_detects_wrong_solution(solved):
    problem, sol = solved
    tampered = type(sol)(sol.T, sol.C * 1.01, sol.D)
    assert ver.integral_condition_residual(problem, tampered) > 1e-3 / (1 + problem.gamma.sobolev_norm(0))


def test_roundtrip_agreement(solved):
    # re-solving the Cauchy problem with b = du/dt(0) reproduces the solution
    problem, sol = solved
    redone = solve_cauchy(CauchyProblem(sol.T, problem.alpha, derivative_coefficients(sol)))
    scale = max(np.abs(sol.C).max(), np.abs(sol.D).max())
    assert max(np.abs(redone.C - sol.C).max(), np.abs(redone.D - sol.D).max()) / scale < 1e-10
    fields = sol.field(20, 20), redone.field(20, 20)
    assert np.abs(fields[0] - fields[1]).max() < 1e-9 * (1 + np.abs(fields[0]).max())


def test_cauchy_resolve_cannot_see_a_solve_error(solved):
    # an error in D with C = alpha - D keeps u(0) = a, and re-solving the Cauchy
    # problem with b = du/dt(0) moves C and D only by (alpha - C - D) / 2: the
    # re-solve reproduces the wrong solution, and only the integral condition reads it
    problem, sol = solved
    D = sol.D * (1 + 1e-9)
    planted = SeriesSolution(sol.T, problem.alpha.coefficients - D, D)
    redone = solve_cauchy(CauchyProblem(sol.T, problem.alpha, derivative_coefficients(planted)))
    scale = max(np.abs(planted.C).max(), np.abs(planted.D).max())
    assert max(np.abs(redone.C - planted.C).max(), np.abs(redone.D - planted.D).max()) / scale < 1e-14
    fields = planted.field(20, 20), redone.field(20, 20)
    assert np.abs(fields[0] - fields[1]).max() < 1e-14 * (1 + np.abs(fields[0]).max())
    assert initial_condition_relative(problem, planted) < 1e-15
    assert ver.integral_condition_residual(problem, sol) < 1e-12
    assert ver.integral_condition_residual(problem, planted) > 1e-10


def test_mode_energy_drift_tiny(solved):
    # the solution solves the Cauchy problem with b = du/dt(0), and each
    # mode's energy matches that data's
    problem, sol = solved
    cauchy = CauchyProblem(sol.T, problem.alpha, derivative_coefficients(sol))
    assert ver.mode_energy_data_relative(cauchy, sol) < 1e-12


def test_mode_energy_data_identity_sees_a_solve_error(rng):
    # a 1e-9 relative error in D leaves each mode's energy constant in time,
    # so the time-sampled drift cannot see it; the data identity reads it
    n_modes = 100
    ks = np.arange(1, n_modes + 1)
    problem = CauchyProblem(5.0, SpectralVector(rng.standard_normal(n_modes) / ks),
                            SpectralVector(rng.standard_normal(n_modes)))
    sol = solve_cauchy(problem)
    assert ver.mode_energy_data_relative(problem, sol) < 1e-12
    planted = SeriesSolution(sol.T, sol.C, sol.D * (1 + 1e-9))
    assert ver.mode_energy_data_relative(problem, planted) > 1e-12
    assert mode_energy_drift(planted).max() < 1e-12


def test_weak_identity(solved, rng):
    _, sol = solved
    pairs = [tuple(sorted(rng.uniform(0.0, sol.T, 2))) for _ in range(10)]
    assert weak_identity_residual(sol, pairs) < 1e-10


def test_energy_estimate_margin_positive(rng):
    alpha = SpectralVector(rng.standard_normal(50) + 1j * rng.standard_normal(50))
    beta = SpectralVector(rng.standard_normal(50) + 1j * rng.standard_normal(50))
    problem = CauchyProblem(5.0, alpha, beta)
    sol = solve_cauchy(problem)
    assert ver.energy_estimate_margin(problem, sol.norm_trajectories(1001)) > 0


def test_residuals_at_reference_configuration():
    # a = 0, g = projected parabola, the standard demonstration setup
    clock = ProblemClock(5.0, 0.01)
    g = project(lambda x: x * (math.pi - x), 100)
    a = SpectralVector(np.zeros(100))
    problem = NonlocalProblem(clock, a, g)
    sol = solve_nonlocal(problem)
    assert ver.integral_condition_residual(problem, sol) < 1e-8
    assert initial_condition_relative(problem, sol) == 0.0


def _parabola_problem(n_modes, omega):
    rng = np.random.default_rng(n_modes)
    k = np.arange(1, n_modes + 1)
    a = SpectralVector((rng.uniform(-1, 1, n_modes) + 1j * rng.uniform(-1, 1, n_modes)) / k**3)
    g = project(lambda x: x * (math.pi - x), n_modes)
    return NonlocalProblem(ProblemClock(5.0, omega), a, g)


def test_quadrature_checks_memory_bounded_at_large_n():
    # a dense N x (time nodes) moment matrix would take 4.1 GiB here
    problem = _parabola_problem(3000, 0.07)
    sol = solve_nonlocal(problem)
    tracemalloc.start()
    try:
        rel = ver.integral_condition_residual(problem, sol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert rel < 1e-8


def test_small_scaling_flagged_at_large_n():
    problem = _parabola_problem(1000, 0.2137)
    sol = solve_nonlocal(problem)
    assert ver.integral_condition_residual(problem, sol) < 1e-8
    tampered = scaled(sol, 1 + 1e-6)
    assert ver.integral_condition_residual(problem, tampered) > 1e-8


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
