import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import integrate, mode_integrals, weak_identity_residual
from specwave import (
    CauchyProblem,
    SpectralVector,
    TabulatedSpectrum,
    derivative_coefficients,
    solve_cauchy,
)
from specwave import verification as ver


def make_problem(dirichlet, alpha, beta, T=5.0):
    return CauchyProblem(
        dirichlet, T, SpectralVector(alpha, dirichlet), SpectralVector(beta, dirichlet)
    )


def solve_one_mode(alpha, beta, theta):
    """(C, D) of solve_cauchy on a one-mode spectrum with frequency theta."""
    spectrum = TabulatedSpectrum((theta**2,))
    sol = solve_cauchy(make_problem(spectrum, [alpha], [beta]))
    return complex(sol.C[0]), complex(sol.D[0])


class TestSolveCauchyMode:
    def test_cosine_split(self):
        C, D = solve_one_mode(1.0, 0.0, 1.0)
        assert C == pytest.approx(0.5)
        assert D == pytest.approx(0.5)

    def test_sine_mode(self):
        C, D = solve_one_mode(0.0, 1.0, 2.0)
        assert D == pytest.approx(1.0 / 4j)
        assert C == pytest.approx(-1.0 / 4j)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            solve_one_mode(1.0, 1.0, 0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(-1e3, 1e3),
        beta=st.floats(-1e3, 1e3),
        theta=st.floats(1e-3, 1e3),
    )
    def test_real_data_gives_conjugate_pair(self, alpha, beta, theta):
        C, D = solve_one_mode(alpha, beta, theta)
        assert C == pytest.approx(D.conjugate(), rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        ar=st.floats(-10, 10), ai=st.floats(-10, 10),
        br=st.floats(-10, 10), bi=st.floats(-10, 10),
        theta=st.floats(1e-2, 1e2),
    )
    def test_mode_satisfies_both_conditions(self, ar, ai, br, bi, theta):
        alpha, beta = complex(ar, ai), complex(br, bi)
        C, D = solve_one_mode(alpha, beta, theta)
        scale = 1 + abs(alpha) + abs(beta)
        assert abs((C + D) - alpha) < 1e-13 * scale
        assert abs(1j * theta * (D - C) - beta) < 1e-13 * scale


class TestSolveCauchy:
    def test_zero_data_gives_zero_solution(self, dirichlet):
        sol = solve_cauchy(make_problem(dirichlet, np.zeros(4), np.zeros(4)))
        norms = sol.norm_trajectories(1001)
        assert norms.u_h1.max() == 0.0
        assert norms.dudt_h0.max() == 0.0

    def test_single_mode_is_separated_cosine(self, dirichlet):
        # u(x, t) = cos(t) v_1(x): separation of variables
        sol = solve_cauchy(make_problem(dirichlet, [1.0], [0.0]))
        for x in (0.4, math.pi / 2, 2.5):
            for t in (0.0, 0.7, 3.1):
                expected = math.cos(t) * math.sqrt(2 / math.pi) * math.sin(x)
                assert sol.field([x], [t])[0, 0] == pytest.approx(expected, abs=1e-14)
        assert sol.field([math.pi / 2], [0.0])[0, 0] == pytest.approx(math.sqrt(2 / math.pi), rel=1e-14)

    def test_initial_data_reproduced(self, dirichlet, rng):
        alpha = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        beta = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        sol = solve_cauchy(make_problem(dirichlet, alpha, beta))
        assert np.abs(sol.initial_coefficients().coefficients - alpha).max() < 1e-13 * np.abs(alpha).max()
        vel = derivative_coefficients(sol).coefficients
        assert np.abs(vel - beta).max() < 1e-13 * np.abs(beta).max()

    def test_energy_estimate(self, dirichlet, rng):
        # sup_t ||u||_H1 + sup_t ||u'||_H0 <= 4 (||a||_H1 + ||b||_H0)
        for _ in range(5):
            alpha = rng.standard_normal(50) + 1j * rng.standard_normal(50)
            beta = rng.standard_normal(50) + 1j * rng.standard_normal(50)
            problem = make_problem(dirichlet, alpha, beta)
            sol = solve_cauchy(problem)
            norms = sol.norm_trajectories(1001)
            lhs = norms.u_h1.max() + norms.dudt_h0.max()
            rhs = 4.0 * (problem.alpha.sobolev_norm(1) + problem.beta.sobolev_norm(0))
            assert lhs <= rhs

    def test_mismatched_lengths_rejected(self, dirichlet):
        with pytest.raises(ValueError):
            make_problem(dirichlet, np.zeros(3), np.zeros(4))

    def test_bad_horizon_rejected(self, dirichlet):
        with pytest.raises(ValueError):
            make_problem(dirichlet, [1.0], [0.0], T=-1.0)


class TestModeDynamics:
    def test_mode_ode_by_finite_differences(self, dirichlet, rng):
        alpha = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        beta = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        sol = solve_cauchy(make_problem(dirichlet, alpha, beta))
        h = 1e-4
        ts = rng.uniform(h, sol.T - h, size=100)
        y = sol.mode_values
        for k in (1, 5, 12, 25):
            i = k - 1
            y2 = (y(ts + h)[i] - 2 * y(ts)[i] + y(ts - h)[i]) / h**2
            exact = -sol.eigenvalues[i] * y(ts)[i]
            scale = sol.eigenvalues[i] * (abs(sol.C[i]) + abs(sol.D[i]))
            assert (np.abs(y2 - exact) / scale).max() < 1e-6

    def test_per_mode_energy_conserved(self, dirichlet, rng):
        alpha = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        beta = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        sol = solve_cauchy(make_problem(dirichlet, alpha, beta))
        drifts = ver.mode_energy_drift(sol)
        for k in (1, 10, 30):
            assert drifts[k - 1] < 1e-12

    def test_weak_identity_closed_form(self, dirichlet, rng):
        # y'(t) - y'(s) = -lambda int_s^t y dr with the analytic antiderivative
        alpha = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        beta = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        sol = solve_cauchy(make_problem(dirichlet, alpha, beta))
        pairs = [sorted(rng.uniform(0.0, sol.T, size=2)) for _ in range(20)]
        assert weak_identity_residual(sol, pairs) < 1e-10

    def test_antiderivative_against_quadrature(self, dirichlet):
        sol = solve_cauchy(make_problem(dirichlet, [1.0, 0.5j], [0.25, -1.0]))
        from specwave import GaussLegendre

        rule = GaussLegendre(panels=64, order=8)
        quad = integrate(rule, lambda t: sol.mode_values(t)[1], 0.3, 4.1)
        closed = mode_integrals(sol, np.array([0.3]), np.array([4.1]))[1, 0]
        assert closed == pytest.approx(quad, abs=1e-12)


class TestDerivativeCoefficients:
    def test_cosine_mode_has_zero_initial_velocity(self, dirichlet):
        sol = solve_cauchy(make_problem(dirichlet, [1.0], [0.0]))
        assert derivative_coefficients(sol).coefficients[0] == 0

    def test_sine_mode_recovers_unit_velocity(self, dirichlet):
        sol = solve_cauchy(make_problem(dirichlet, [0.0, 0.0], [0.0, 1.0]))
        vel = derivative_coefficients(sol).coefficients
        assert vel[1] == pytest.approx(1.0, rel=1e-14)

    def test_real_alpha_real_D_gives_imaginary_component(self):
        # i theta (2D - alpha) with real D and alpha is purely imaginary
        from specwave import DirichletLaplacian1D, SeriesSolution

        spectrum = DirichletLaplacian1D()
        alpha, D = 0.75, 0.3
        sol = SeriesSolution(spectrum, 1.0, C=[alpha - D], D=[D])
        component = derivative_coefficients(sol).coefficients[0]
        assert component.real == pytest.approx(0.0, abs=1e-15)
