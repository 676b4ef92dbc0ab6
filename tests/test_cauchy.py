import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    derivative_coefficients,
    field,
    integrate,
    mode_integrals,
    mode_values,
    weak_identity_residual,
)
from specwave import (
    CauchyProblem,
    SpectralVector,
    solve_cauchy,
)
from specwave import verification as ver


def make_problem(alpha, beta, T=5.0):
    return CauchyProblem(T, SpectralVector(alpha), SpectralVector(beta))


def solve_one_mode(alpha, beta, k):
    """(C, D) of mode k, theta_k = k, from solve_cauchy with data at mode k only."""
    at_k = np.arange(1, k + 1) == k
    sol = solve_cauchy(make_problem(alpha * at_k, beta * at_k))
    return complex(sol.C[k - 1]), complex(sol.D[k - 1])


class TestSolveCauchyMode:
    def test_cosine_split(self):
        C, D = solve_one_mode(1.0, 0.0, 1)
        assert C == pytest.approx(0.5)
        assert D == pytest.approx(0.5)

    def test_sine_mode(self):
        C, D = solve_one_mode(0.0, 1.0, 2)
        assert D == pytest.approx(1.0 / 4j)
        assert C == pytest.approx(-1.0 / 4j)

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(-1e3, 1e3),
        beta=st.floats(-1e3, 1e3),
        k=st.integers(1, 1000),
    )
    def test_real_data_gives_conjugate_pair(self, alpha, beta, k):
        C, D = solve_one_mode(alpha, beta, k)
        assert C == pytest.approx(D.conjugate(), rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        ar=st.floats(-10, 10), ai=st.floats(-10, 10),
        br=st.floats(-10, 10), bi=st.floats(-10, 10),
        k=st.integers(1, 100),  # the velocity errs by about eps k |alpha|
    )
    def test_mode_satisfies_both_conditions(self, ar, ai, br, bi, k):
        alpha, beta = complex(ar, ai), complex(br, bi)
        C, D = solve_one_mode(alpha, beta, k)
        scale = 1 + abs(alpha) + abs(beta)
        assert abs((C + D) - alpha) < 1e-13 * scale
        assert abs(1j * k * (D - C) - beta) < 1e-13 * scale


class TestSolveCauchy:
    def test_zero_data_gives_zero_solution(self):
        sol = solve_cauchy(make_problem(np.zeros(4), np.zeros(4)))
        norms = sol.norm_trajectories(1001)
        assert norms["u_h1"].max() == 0.0
        assert norms["dudt_h0"].max() == 0.0

    def test_single_mode_is_separated_cosine(self):
        # u(x, t) = cos(t) v_1(x): separation of variables
        sol = solve_cauchy(make_problem([1.0], [0.0]))
        for x in (0.4, math.pi / 2, 2.5):
            for t in (0.0, 0.7, 3.1):
                expected = math.cos(t) * math.sqrt(2 / math.pi) * math.sin(x)
                assert field(sol, [x], [t])[0, 0] == pytest.approx(expected, abs=1e-14)
        assert field(sol, [math.pi / 2], [0.0])[0, 0] == pytest.approx(math.sqrt(2 / math.pi), rel=1e-14)

    def test_initial_data_reproduced(self, rng):
        alpha = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        beta = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        sol = solve_cauchy(make_problem(alpha, beta))
        assert np.abs(sol.C + sol.D - alpha).max() < 1e-13 * np.abs(alpha).max()
        vel = derivative_coefficients(sol).coefficients
        assert np.abs(vel - beta).max() < 1e-13 * np.abs(beta).max()

    def test_energy_estimate(self, rng):
        # sup_t ||u||_H1 + sup_t ||u'||_H0 <= 4 (||a||_H1 + ||b||_H0)
        for _ in range(5):
            alpha = rng.standard_normal(50) + 1j * rng.standard_normal(50)
            beta = rng.standard_normal(50) + 1j * rng.standard_normal(50)
            problem = make_problem(alpha, beta)
            sol = solve_cauchy(problem)
            norms = sol.norm_trajectories(1001)
            lhs = norms["u_h1"].max() + norms["dudt_h0"].max()
            rhs = 4.0 * (problem.alpha.sobolev_norm(1) + problem.beta.sobolev_norm(0))
            assert lhs <= rhs

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            make_problem(np.zeros(3), np.zeros(4))

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            make_problem([1.0], [0.0], T=-1.0)


class TestModeDynamics:
    def test_mode_ode_by_finite_differences(self, rng):
        alpha = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        beta = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        sol = solve_cauchy(make_problem(alpha, beta))
        h = 1e-4
        ts = rng.uniform(h, sol.T - h, size=100)
        y = partial(mode_values, sol)
        for k in (1, 5, 12, 25):
            i = k - 1
            y2 = (y(ts + h)[i] - 2 * y(ts)[i] + y(ts - h)[i]) / h**2
            exact = -sol.eigenvalues[i] * y(ts)[i]
            scale = sol.eigenvalues[i] * (abs(sol.C[i]) + abs(sol.D[i]))
            assert (np.abs(y2 - exact) / scale).max() < 1e-6

    def test_per_mode_energy_conserved(self, rng):
        alpha = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        beta = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        problem = make_problem(alpha, beta)
        assert ver.mode_energy_data_relative(problem, solve_cauchy(problem)) < 1e-12

    def test_weak_identity_closed_form(self, rng):
        # y'(t) - y'(s) = -lambda int_s^t y dr with the analytic antiderivative
        alpha = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        beta = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        sol = solve_cauchy(make_problem(alpha, beta))
        pairs = [sorted(rng.uniform(0.0, sol.T, size=2)) for _ in range(20)]
        assert weak_identity_residual(sol, pairs) < 1e-10

    def test_antiderivative_against_quadrature(self):
        sol = solve_cauchy(make_problem([1.0, 0.5j], [0.25, -1.0]))
        quad = integrate(64, lambda t: mode_values(sol, t)[1], 0.3, 4.1)
        closed = mode_integrals(sol, np.array([0.3]), np.array([4.1]))[1, 0]
        assert closed == pytest.approx(quad, abs=1e-12)


class TestDerivativeCoefficients:
    def test_cosine_mode_has_zero_initial_velocity(self):
        sol = solve_cauchy(make_problem([1.0], [0.0]))
        assert derivative_coefficients(sol).coefficients[0] == 0

    def test_sine_mode_recovers_unit_velocity(self):
        sol = solve_cauchy(make_problem([0.0, 0.0], [0.0, 1.0]))
        vel = derivative_coefficients(sol).coefficients
        assert vel[1] == pytest.approx(1.0, rel=1e-14)

    def test_real_alpha_real_D_gives_imaginary_component(self):
        # i theta (2D - alpha) with real D and alpha is purely imaginary
        from specwave import SeriesSolution

        alpha, D = 0.75, 0.3
        sol = SeriesSolution(1.0, C=[alpha - D], D=[D])
        component = derivative_coefficients(sol).coefficients[0]
        assert component.real == pytest.approx(0.0, abs=1e-15)
