import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import integrate
from specwave import (
    GaussLegendre,
    IllConditionedModeError,
    NonlocalProblem,
    ProblemClock,
    SpectralVector,
    coefficient_bound_check,
    phi,
    project,
    TabulatedSpectrum,
    solve_nonlocal,
    stability_report,
    z_diagnostic,
)
from specwave import phase
from specwave.timeavg import _solve_modes


def solved_report(problem):
    """stability_report of the solved problem on 1001 uniform times, as the CLI runs it."""
    sol = solve_nonlocal(problem)
    return stability_report(problem, sol, sol.norm_trajectories(1001))


def make_problem(dirichlet, clock, alpha, gamma):
    return NonlocalProblem(
        dirichlet, clock, SpectralVector(alpha, dirichlet), SpectralVector(gamma, dirichlet)
    )


def solve_mode(alpha, gamma, theta, clock):
    """One mode through the solver's array kernel, which takes a bare clock."""
    C, D = _solve_modes(np.array([alpha], complex), np.array([gamma], complex), [theta], clock)
    return complex(C[0]), complex(D[0])


class TestSolveNonlocalMode:
    def test_zero_data(self):
        C, D = solve_mode(0.0, 0.0, 1.0, ProblemClock(1.0, 0.5))
        assert C == 0 and D == 0

    def test_resonant_mode_uses_stable_path(self):
        # theta = omega: the system degenerates to C + D = alpha,
        # C*T + D*phi(2 omega) = gamma, solvable because phi(2 omega) != T
        clock = ProblemClock(1.0, 3.0)
        alpha, gamma = 1.0 + 0.5j, -0.2 + 0.8j
        C, D = solve_mode(alpha, gamma, 3.0, clock)
        wd = phi(6.0, 1.0)
        assert C + D == pytest.approx(alpha, abs=1e-15)
        assert C * 1.0 + D * wd == pytest.approx(gamma, abs=1e-13)

    def test_generic_mode_satisfies_both_equations(self):
        clock = ProblemClock(1.0, 0.5)
        alpha, gamma = 1.0, 0.3 + 0.1j
        C, D = solve_mode(alpha, gamma, 1.0, clock)
        assert C + D == pytest.approx(alpha, abs=1e-15)
        lhs = C * phi(-0.5, 1.0) + D * phi(1.5, 1.0)
        assert abs(lhs - gamma) < 1e-12 * (1 + abs(gamma))

    def test_solution_mode_matches_time_quadrature(self):
        # independent check: integrate e^{i omega t} y(t) numerically
        clock = ProblemClock(1.0, 0.5)
        alpha, gamma = 1.0, 0.3 + 0.1j
        C, D = solve_mode(alpha, gamma, 1.0, clock)
        rule = GaussLegendre(panels=128, order=8)
        moment = integrate(
            rule,
            lambda t: np.exp(1j * clock.omega * t)
            * (C * np.exp(-1j * t) + D * np.exp(1j * t)),
            0.0,
            clock.T,
        )
        assert moment == pytest.approx(gamma, abs=1e-12)

    def test_ill_conditioned_mode_raises(self):
        # omega = 0, theta T = 2 pi: the denominator vanishes identically
        clock = ProblemClock(2 * math.pi, 0.0)
        with pytest.raises(IllConditionedModeError) as err:
            solve_mode(1.0, 1.0, 1.0, clock)
        assert err.value.k == 1
        assert err.value.abs_d < 1e-12
        assert err.value.label == "phase-matched(phase=+omega)"
        assert "resonance" in str(err.value)

    def test_ill_conditioned_mode_reported_among_healthy_ones(self):
        # omega = 0, T = 2 pi: only theta = 1 has theta T on 2 pi Z
        spectrum = TabulatedSpectrum((0.09, 1.0, 2.89))
        theta = spectrum.frequency(np.arange(1, 4))
        clock = ProblemClock(2 * math.pi, 0.0)
        with pytest.raises(IllConditionedModeError) as err:
            _solve_modes(np.ones(3, complex), np.ones(3, complex), theta, clock)
        assert err.value.k == 2
        assert err.value.theta == 1.0
        assert err.value.label == "phase-matched(phase=+omega)"
        assert "mode k=2" in str(err.value)

    @settings(max_examples=100, deadline=None)
    @given(
        ar=st.floats(-10, 10), ai=st.floats(-10, 10),
        gr=st.floats(-10, 10), gi=st.floats(-10, 10),
        theta=st.integers(1, 200),
    )
    def test_initial_condition_exact_at_mode_scale(self, ar, ai, gr, gi, theta):
        alpha = complex(ar, ai)
        C, D = solve_mode(alpha, complex(gr, gi), float(theta), ProblemClock(5.0, 0.01))
        # (alpha - D) + D re-rounds; the floor is eps at the coefficient scale
        assert abs(C + D - alpha) <= 1e-15 * (1 + abs(C) + abs(D))


class TestNonlocalProblem:
    def test_inadmissible_clock_rejected(self, dirichlet):
        with pytest.raises(ValueError, match="inadmissible"):
            make_problem(dirichlet, ProblemClock(5.0, 0.0), [1.0], [1.0])

    def test_mismatched_data_rejected(self, dirichlet):
        with pytest.raises(ValueError):
            make_problem(dirichlet, ProblemClock(5.0, 0.01), [1.0], [1.0, 2.0])


class TestSolveNonlocal:
    def test_zero_data_gives_zero_solution(self, dirichlet):
        sol = solve_nonlocal(make_problem(dirichlet, ProblemClock(5.0, 0.01), np.zeros(5), np.zeros(5)))
        assert sol.norm_trajectories(1001).u_h1.max() == 0.0

    def test_real_data_yields_complex_solution(self, dirichlet):
        # the weighted condition makes u genuinely complex even for real data
        g = project(lambda x: x * (math.pi - x), dirichlet, 30)
        a = SpectralVector(np.zeros(30), dirichlet)
        problem = NonlocalProblem(dirichlet, ProblemClock(5.0, 0.01), a, g)
        sol = solve_nonlocal(problem)
        ts = np.linspace(0.0, 5.0, 100)
        assert np.abs(sol.mode_values(ts).imag).max() > 1e-3

    def test_reference_toy_problem_all_modes_solve(self, dirichlet):
        clock = ProblemClock(5.0, 0.01)
        g = project(lambda x: x * (math.pi - x), dirichlet, 500)
        a = SpectralVector(np.zeros(500), dirichlet)
        sol = solve_nonlocal(NonlocalProblem(dirichlet, clock, a, g))
        assert len(sol) == 500
        assert z_diagnostic(500, dirichlet, clock).z > 0.1

    def test_recovers_forward_mapped_cauchy_solution(self, dirichlet, rng):
        # manufactured data: take a Cauchy solution, compute its weighted time
        # average by quadrature, and check the averaged-condition solver
        # recovers the same modes (uniqueness + inverse consistency)
        from specwave import CauchyProblem, solve_cauchy

        clock = ProblemClock(5.0, 0.01)
        n = 30
        alpha = SpectralVector(rng.standard_normal(n), dirichlet)
        beta = SpectralVector(rng.standard_normal(n), dirichlet)
        reference = solve_cauchy(CauchyProblem(dirichlet, clock.T, alpha, beta))
        rule = GaussLegendre(panels=max(64, int(n * clock.T)), order=8)
        nodes, weights = rule.nodes_weights(0.0, clock.T)
        gamma = reference.mode_values(nodes) @ (weights * np.exp(1j * clock.omega * nodes))
        recovered = solve_nonlocal(
            NonlocalProblem(dirichlet, clock, alpha, SpectralVector(gamma, dirichlet))
        )
        scale = max(np.abs(reference.C).max(), np.abs(reference.D).max())
        assert np.abs(recovered.C - reference.C).max() < 1e-10 * scale
        assert np.abs(recovered.D - reference.D).max() < 1e-10 * scale

    def test_deterministic(self, dirichlet, rng):
        clock = ProblemClock(3.0, 0.2)
        alpha = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        gamma = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        p = make_problem(dirichlet, clock, alpha, gamma)
        s1, s2 = solve_nonlocal(p), solve_nonlocal(p)
        assert np.array_equal(s1.C, s2.C) and np.array_equal(s1.D, s2.D)

    def test_elimination_reuses_the_denominators_phi(self, dirichlet, rng, monkeypatch):
        clock = ProblemClock(3.0, 0.2)
        alpha = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        gamma = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        theta = np.arange(1.0, 41.0)
        det = phi(clock.omega + theta, clock.T) - phi(clock.omega - theta, clock.T)
        D = (gamma - phi(clock.omega - theta, clock.T) * alpha) / det
        calls = []
        monkeypatch.setattr(phase, "phi", lambda mu, T: calls.append(mu) or phi(mu, T))
        solution = solve_nonlocal(make_problem(dirichlet, clock, alpha, gamma))
        assert len(calls) == 2
        assert np.array_equal(solution.D, D) and np.array_equal(solution.C, alpha - D)

    def test_perturbation_response_bounded_by_c_obs(self, dirichlet):
        # scale-proportional perturbation of g: the sup norms respond with
        # exactly the observed stability ratio (homogeneity), within 10%
        clock = ProblemClock(5.0, 0.1)
        g = project(lambda x: x * (math.pi - x), dirichlet, 60)
        a = SpectralVector(np.zeros(60), dirichlet)
        base = NonlocalProblem(dirichlet, clock, a, g)
        sol = solve_nonlocal(base)
        norms = sol.norm_trajectories(1001)
        report = stability_report(base, sol, norms)
        delta = SpectralVector(0.1 * g.coefficients, dirichlet)
        g_perturbed = SpectralVector(g.coefficients + delta.coefficients, dirichlet)
        perturbed = NonlocalProblem(dirichlet, clock, a, g_perturbed)
        norms2 = solve_nonlocal(perturbed).norm_trajectories(1001)
        change = abs(
            (norms2.u_h1.max() + norms2.dudt_h0.max())
            - (norms.u_h1.max() + norms.dudt_h0.max())
        )
        assert change <= report.c_obs * delta.sobolev_norm(2) * 1.1


class TestCoefficientBound:
    def test_zero_data_trivially_bounded(self, dirichlet):
        p = make_problem(dirichlet, ProblemClock(5.0, 0.01), np.zeros(5), np.zeros(5))
        check = coefficient_bound_check(p, solve_nonlocal(p))
        assert check.all_ok

    def test_random_data_all_margins_nonnegative(self, dirichlet, rng):
        clock = ProblemClock(1.0, 0.5)
        alpha = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        gamma = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        p = make_problem(dirichlet, clock, alpha, gamma)
        check = coefficient_bound_check(p, solve_nonlocal(p))
        assert check.all_ok
        assert check.z_floor > 0
        assert check.c == pytest.approx(4.0 / check.z_floor)

    def test_small_divisors_break_the_bound_without_weight(self, dirichlet, rng):
        # omega = 0 diagnostic: solve mode by mode and score against the
        # healthy floor observed at omega = 0.01; near-resonant modes blow up
        T = 5.0
        clock0 = ProblemClock(T, 0.0)
        healthy_z = z_diagnostic(500, dirichlet, ProblemClock(T, 0.01)).z
        report0 = z_diagnostic(500, dirichlet, clock0)
        near_resonant = np.argsort(report0.scaled)[:3] + 1
        gamma = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        worst_ratio = 0.0
        for k in near_resonant:
            C, D = solve_mode(0.0, gamma[k - 1], float(k), clock0)
            lhs = abs(C) + abs(D)
            rhs = (4.0 / healthy_z) * (1 + k) * abs(gamma[k - 1])
            worst_ratio = max(worst_ratio, lhs / rhs)
        assert worst_ratio > 1.0


class TestStabilityReport:
    def test_zero_data_reports_zero_ratio(self, dirichlet):
        p = make_problem(dirichlet, ProblemClock(5.0, 0.01), np.zeros(5), np.zeros(5))
        report = solved_report(p)
        assert report.c_obs == 0.0
        assert report.sup_u_h1 == 0.0
        assert report.to_dict()["bound_all_ok"] is True

    def test_ratio_flat_in_truncation(self, dirichlet):
        clock = ProblemClock(5.0, 0.1)
        ratios = []
        for n in (50, 100, 200):
            a = project(lambda x: x * (math.pi - x), dirichlet, n)
            g = project(lambda x: x * (math.pi - x), dirichlet, n)
            p = NonlocalProblem(dirichlet, clock, a, g)
            ratios.append(solved_report(p).c_obs)
        assert max(ratios) < 2.0 * min(ratios)

    def test_entries_finite_and_nonnegative(self, dirichlet, rng):
        clock = ProblemClock(2.0, 0.7)
        alpha = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        gamma = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        p = make_problem(dirichlet, clock, alpha, gamma)
        report = solved_report(p)
        for name in ("norm_a_h1", "norm_g_h2", "sup_u_h1", "sup_dudt_h0", "c_obs"):
            value = getattr(report, name)
            assert np.isfinite(value) and value >= 0.0, name

    def test_ratio_grows_as_omega_shrinks(self, dirichlet):
        g = project(lambda x: x * (math.pi - x), dirichlet, 100)
        a = SpectralVector(np.zeros(100), dirichlet)
        ratios = {}
        for omega in (0.1, 0.01):
            p = NonlocalProblem(dirichlet, ProblemClock(5.0, omega), a, g)
            ratios[omega] = solved_report(p).c_obs
        assert all(np.isfinite(r) for r in ratios.values())
        assert ratios[0.01] != ratios[0.1]
