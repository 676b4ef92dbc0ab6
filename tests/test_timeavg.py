import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import integrate, mode_values
from specwave import (
    IllConditionedModeError,
    NonlocalProblem,
    ProblemClock,
    SpectralVector,
    phi,
    project,
    solve_nonlocal,
    stability_report,
    z_diagnostic,
)
from specwave import phase
from specwave.config import ExperimentConfig
from specwave.phase import LABELS
from specwave.quadrature import nodes_weights


def solved_report(problem):
    """stability_report of the solved problem on 1001 uniform times, as the CLI runs it."""
    sol = solve_nonlocal(problem)
    return stability_report(problem, sol, sol.norm_trajectories(1001))


def make_problem(clock, alpha, gamma):
    return NonlocalProblem(clock, SpectralVector(alpha), SpectralVector(gamma))


def solve_mode(alpha, gamma, k, clock):
    """(C_k, D_k) of a solve_nonlocal run whose modes below k carry zero data."""
    a, g = np.zeros(k, complex), np.zeros(k, complex)
    a[-1], g[-1] = alpha, gamma
    sol = solve_nonlocal(make_problem(clock, a, g))
    return complex(sol.C[-1]), complex(sol.D[-1])


def near_zero_clock(T):
    """omega = 1e-9 / T: 2 omega T is 2e-9 from 2 pi Z, twice the admissibility
    tolerance, so the clock is admissible and warns."""
    with pytest.warns(UserWarning, match="conditioning"):
        return ProblemClock(T, 1e-9 / T)


# 3 T = 20000 pi: beside omega = 1e-9 / T, mode 3 alone is phase-matched, with
# |d_3| (1 + 3) = 2.7e-9 below the floor 1e-12 T = 2.1e-8; modes 1, 2, 4, 5 read >= 3.6
ILL_T = 20000 * math.pi / 3


class TestSolveNonlocalMode:
    def test_zero_data(self):
        C, D = solve_mode(0.0, 0.0, 1, ProblemClock(1.0, 0.5))
        assert C == 0 and D == 0

    def test_resonant_mode_uses_stable_path(self):
        # theta = omega: the system degenerates to C + D = alpha,
        # C*T + D*phi(2 omega) = gamma, solvable because phi(2 omega) != T
        clock = ProblemClock(1.0, 3.0)
        alpha, gamma = 1.0 + 0.5j, -0.2 + 0.8j
        C, D = solve_mode(alpha, gamma, 3, clock)
        wd = phi(6.0, 1.0)
        assert C + D == pytest.approx(alpha, abs=1e-15)
        assert C * 1.0 + D * wd == pytest.approx(gamma, abs=1e-13)

    def test_generic_mode_satisfies_both_equations(self):
        clock = ProblemClock(1.0, 0.5)
        alpha, gamma = 1.0, 0.3 + 0.1j
        C, D = solve_mode(alpha, gamma, 1, clock)
        assert C + D == pytest.approx(alpha, abs=1e-15)
        lhs = C * phi(-0.5, 1.0) + D * phi(1.5, 1.0)
        assert abs(lhs - gamma) < 1e-12 * (1 + abs(gamma))

    def test_solution_mode_matches_time_quadrature(self):
        # independent check: integrate e^{i omega t} y(t) numerically
        clock = ProblemClock(1.0, 0.5)
        alpha, gamma = 1.0, 0.3 + 0.1j
        C, D = solve_mode(alpha, gamma, 1, clock)
        moment = integrate(
            128,
            lambda t: np.exp(1j * clock.omega * t)
            * (C * np.exp(-1j * t) + D * np.exp(1j * t)),
            0.0,
            clock.T,
        )
        assert moment == pytest.approx(gamma, abs=1e-12)

    def test_ill_conditioned_mode_raises(self):
        # omega ~ 0, theta T = 20000 pi: the denominator nearly vanishes
        clock = near_zero_clock(ILL_T)
        with pytest.raises(IllConditionedModeError) as err:
            solve_mode(1.0, 1.0, 3, clock)
        assert err.value.k == 3
        assert err.value.abs_d * (1 + err.value.theta) < err.value.floor
        assert err.value.label == "phase-matched(phase=+omega)"
        assert "resonance" in str(err.value)

    def test_ill_conditioned_mode_reported_among_healthy_ones(self):
        # omega ~ 0, T = 20000 pi / 3: of modes 1..5 only theta = 3 has theta T on 2 pi Z
        clock = near_zero_clock(ILL_T)
        with pytest.raises(IllConditionedModeError) as err:
            solve_nonlocal(make_problem(clock, np.ones(5, complex), np.ones(5, complex)))
        assert err.value.k == 3
        assert err.value.theta == 3.0
        assert err.value.label == "phase-matched(phase=+omega)"
        assert "mode k=3" in str(err.value)

    @settings(max_examples=100, deadline=None)
    @given(
        ar=st.floats(-10, 10), ai=st.floats(-10, 10),
        gr=st.floats(-10, 10), gi=st.floats(-10, 10),
        theta=st.integers(1, 200),
    )
    def test_initial_condition_exact_at_mode_scale(self, ar, ai, gr, gi, theta):
        alpha = complex(ar, ai)
        C, D = solve_mode(alpha, complex(gr, gi), theta, ProblemClock(5.0, 0.01))
        # (alpha - D) + D re-rounds; the floor is eps at the coefficient scale
        assert abs(C + D - alpha) <= 1e-15 * (1 + abs(C) + abs(D))


class TestNonlocalProblem:
    def test_inadmissible_clock_rejected(self):
        with pytest.raises(ValueError, match="inadmissible"):
            make_problem(ProblemClock(5.0, 0.0), [1.0], [1.0])

    def test_mismatched_data_rejected(self):
        with pytest.raises(ValueError):
            make_problem(ProblemClock(5.0, 0.01), [1.0], [1.0, 2.0])


class TestSolveNonlocal:
    def test_zero_data_gives_zero_solution(self):
        sol = solve_nonlocal(make_problem(ProblemClock(5.0, 0.01), np.zeros(5), np.zeros(5)))
        assert sol.norm_trajectories(1001)["u_h1"].max() == 0.0

    def test_real_data_yields_complex_solution(self):
        # the weighted condition makes u genuinely complex even for real data
        g = project(lambda x: x * (math.pi - x), 30)
        a = SpectralVector(np.zeros(30))
        problem = NonlocalProblem(ProblemClock(5.0, 0.01), a, g)
        sol = solve_nonlocal(problem)
        ts = np.linspace(0.0, 5.0, 100)
        assert np.abs(mode_values(sol, ts).imag).max() > 1e-3

    def test_reference_toy_problem_all_modes_solve(self):
        clock = ProblemClock(5.0, 0.01)
        g = project(lambda x: x * (math.pi - x), 500)
        a = SpectralVector(np.zeros(500))
        sol = solve_nonlocal(NonlocalProblem(clock, a, g))
        assert len(sol) == 500
        assert z_diagnostic(500, clock).z > 0.1

    def test_recovers_forward_mapped_cauchy_solution(self, rng):
        # manufactured data: take a Cauchy solution, compute its weighted time
        # average by quadrature, and check the averaged-condition solver
        # recovers the same modes (uniqueness + inverse consistency)
        from specwave import CauchyProblem, solve_cauchy

        clock = ProblemClock(5.0, 0.01)
        n = 30
        alpha = SpectralVector(rng.standard_normal(n))
        beta = SpectralVector(rng.standard_normal(n))
        reference = solve_cauchy(CauchyProblem(clock.T, alpha, beta))
        nodes, weights = nodes_weights(max(64, int(n * clock.T)), 0.0, clock.T)
        gamma = mode_values(reference, nodes) @ (weights * np.exp(1j * clock.omega * nodes))
        recovered = solve_nonlocal(
            NonlocalProblem(clock, alpha, SpectralVector(gamma))
        )
        scale = max(np.abs(reference.C).max(), np.abs(reference.D).max())
        assert np.abs(recovered.C - reference.C).max() < 1e-10 * scale
        assert np.abs(recovered.D - reference.D).max() < 1e-10 * scale

    def test_deterministic(self, rng):
        clock = ProblemClock(3.0, 0.2)
        alpha = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        gamma = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        p = make_problem(clock, alpha, gamma)
        s1, s2 = solve_nonlocal(p), solve_nonlocal(p)
        assert np.array_equal(s1.C, s2.C) and np.array_equal(s1.D, s2.D)

    def test_elimination_reuses_the_denominators_phi(self, rng, monkeypatch):
        clock = ProblemClock(3.0, 0.2)
        alpha = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        gamma = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        theta = np.arange(1.0, 41.0)
        det = phi(clock.omega + theta, clock.T) - phi(clock.omega - theta, clock.T)
        D = (gamma - phi(clock.omega - theta, clock.T) * alpha) / det
        calls = []
        monkeypatch.setattr(phase, "phi", lambda mu, T: calls.append(mu) or phi(mu, T))
        solution = solve_nonlocal(make_problem(clock, alpha, gamma))
        assert len(calls) == 2
        assert np.array_equal(solution.D, D) and np.array_equal(solution.C, alpha - D)

    def test_healthy_solve_never_classifies(self, rng, monkeypatch):
        # the labels are read only to name an ill-conditioned mode
        def refuse(*args):
            raise AssertionError("classified a healthy solve")

        monkeypatch.setattr(phase, "_classify_codes", refuse)
        problem = make_problem(ProblemClock(5.0, 0.07),
                               rng.standard_normal(200) + 0j, rng.standard_normal(200) + 0j)
        report = solved_report(problem)
        assert problem.mode_denominators.z > 0 and report["bound_all_ok"]
        monkeypatch.undo()
        assert set(problem.mode_denominators.codes.tolist()) == {LABELS.index("generic")}

    def test_perturbation_response_bounded_by_c_obs(self):
        # scale-proportional perturbation of g: the sup norms respond with
        # exactly the observed stability ratio (homogeneity), within 10%
        clock = ProblemClock(5.0, 0.1)
        g = project(lambda x: x * (math.pi - x), 60)
        a = SpectralVector(np.zeros(60))
        base = NonlocalProblem(clock, a, g)
        sol = solve_nonlocal(base)
        norms = sol.norm_trajectories(1001)
        report = stability_report(base, sol, norms)
        delta = SpectralVector(0.1 * g.coefficients)
        g_perturbed = SpectralVector(g.coefficients + delta.coefficients)
        perturbed = NonlocalProblem(clock, a, g_perturbed)
        norms2 = solve_nonlocal(perturbed).norm_trajectories(1001)
        change = abs(
            (norms2["u_h1"].max() + norms2["dudt_h0"].max())
            - (norms["u_h1"].max() + norms["dudt_h0"].max())
        )
        assert change <= report["c_obs"] * delta.sobolev_norm(2) * 1.1


class TestCoefficientBound:
    def test_zero_data_trivially_bounded(self):
        p = make_problem(ProblemClock(5.0, 0.01), np.zeros(5), np.zeros(5))
        report = solved_report(p)
        assert report["bound_all_ok"]
        assert report["bound_min_margin"] == 0.0

    def test_random_data_all_margins_nonnegative(self, rng):
        clock = ProblemClock(1.0, 0.5)
        alpha = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        gamma = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        p = make_problem(clock, alpha, gamma)
        report = solved_report(p)
        assert report["bound_all_ok"]
        assert report["bound_min_margin"] >= 0.0
        z_floor = p.mode_denominators.z
        assert z_floor > 0
        assert report["bound_constant"] == pytest.approx(4.0 / z_floor)

    def test_solve_and_bound_share_one_denominator_pass(self, monkeypatch):
        # phi(omega + theta) and phi(omega - theta) once per problem, for the
        # elimination and the bound's z_floor alike
        calls = []
        phi = phase.phi
        monkeypatch.setattr(phase, "phi", lambda mu, T: calls.append(T) or phi(mu, T))
        p = make_problem(ProblemClock(5.0, 0.3), np.ones(20), np.ones(20))
        report = solved_report(p)
        assert len(calls) == 2
        assert report["bound_constant"] == 4.0 / z_diagnostic(20, p.clock).z

    def test_small_divisors_break_the_bound_without_weight(self, rng):
        # omega ~ 0 diagnostic: solve, and score the modes that are near-resonant
        # at omega = 0 against the healthy floor observed at omega = 0.01
        T = 5.0
        healthy_z = z_diagnostic(500, ProblemClock(T, 0.01)).z
        report0 = z_diagnostic(500, ProblemClock(T, 0.0))
        near_resonant = np.argsort(report0.scaled)[:3] + 1
        gamma = rng.standard_normal(500) + 1j * rng.standard_normal(500)
        sol = solve_nonlocal(make_problem(near_zero_clock(T), np.zeros(500), gamma))
        worst_ratio = 0.0
        for k in near_resonant:
            C, D = sol.C[k - 1], sol.D[k - 1]
            lhs = abs(C) + abs(D)
            rhs = (4.0 / healthy_z) * (1 + k) * abs(gamma[k - 1])
            worst_ratio = max(worst_ratio, lhs / rhs)
        assert worst_ratio > 1.0


class TestStabilityReport:
    def test_zero_data_reports_zero_ratio(self):
        p = make_problem(ProblemClock(5.0, 0.01), np.zeros(5), np.zeros(5))
        report = solved_report(p)
        assert report["c_obs"] == 0.0
        assert report["sup_u_h1"] == 0.0
        assert report["bound_all_ok"] is True

    def test_ratio_flat_in_truncation(self):
        clock = ProblemClock(5.0, 0.1)
        ratios = []
        for n in (50, 100, 200):
            a = project(lambda x: x * (math.pi - x), n)
            g = project(lambda x: x * (math.pi - x), n)
            p = NonlocalProblem(clock, a, g)
            ratios.append(solved_report(p)["c_obs"])
        assert max(ratios) < 2.0 * min(ratios)

    def test_entries_finite_and_nonnegative(self, rng):
        clock = ProblemClock(2.0, 0.7)
        alpha = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        gamma = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        p = make_problem(clock, alpha, gamma)
        report = solved_report(p)
        for name in ("norm_a_h1", "norm_g_h2", "sup_u_h1", "sup_dudt_h0", "c_obs"):
            value = report[name]
            assert np.isfinite(value) and value >= 0.0, name

    def test_projected_parabola_has_its_closed_form_h2_norm(self):
        # ||g||_H2 of x(pi - x) on modes 1..N is sqrt(sum over odd k <= N of 32 / (pi k^2)),
        # and k^4 weights a few eps per coefficient to 5e-12 here: a projection error
        # of 1e-12 on one high mode moves it by far more than the bound
        n = 100_000
        cfg = ExperimentConfig(N=n, omega=0.07, a="parabola", g="parabola")
        report = solved_report(NonlocalProblem(cfg.clock(), *cfg.data(cfg.a, cfg.g)))
        closed = math.sqrt(math.fsum(32.0 / (math.pi * k * k) for k in range(1, n + 1, 2)))
        assert closed == pytest.approx(3.5449005183188693, rel=1e-15)
        assert report["norm_g_h2"] == pytest.approx(closed, rel=1e-9)

    def test_ratio_grows_as_omega_shrinks(self):
        g = project(lambda x: x * (math.pi - x), 100)
        a = SpectralVector(np.zeros(100))
        ratios = {}
        for omega in (0.1, 0.01):
            p = NonlocalProblem(ProblemClock(5.0, omega), a, g)
            ratios[omega] = solved_report(p)["c_obs"]
        assert all(np.isfinite(r) for r in ratios.values())
        assert ratios[0.01] != ratios[0.1]
