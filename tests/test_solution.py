import math
import tracemalloc

import numpy as np
import pytest

from oracles import norm_trajectory
from specwave import (
    CauchyProblem,
    GaussLegendre,
    NonlocalProblem,
    ProblemClock,
    SeriesSolution,
    SpectralVector,
    eigenfunction_matrix,
    project,
    solve_cauchy,
    solve_nonlocal,
)
from specwave.verification import integral_condition_residual


def single_cosine(dirichlet, T=5.0):
    return SeriesSolution(dirichlet, T, C=[0.5], D=[0.5])


def point(sol, x, t):
    """u(x, t) through the one evaluation path, `field`."""
    return sol.field([x], [t])[0, 0]


def du_dt(sol, x, t):
    """du/dt(x, t) = sum_k y_k'(t) v_k(x)."""
    return eigenfunction_matrix(sol.spectrum, len(sol), x)[:, 0] @ sol.mode_derivatives(t)


class TestEvaluate:
    def test_zero_modes(self, dirichlet):
        sol = SeriesSolution(dirichlet, 1.0, C=np.zeros(3), D=np.zeros(3))
        assert point(sol, 1.0, 0.5) == 0

    def test_single_cosine_mode(self, dirichlet):
        sol = single_cosine(dirichlet)
        got = point(sol, math.pi / 2, 0.0)
        assert got == pytest.approx(math.sqrt(2 / math.pi), rel=1e-14)
        assert point(sol, 0.8, 2.0) == pytest.approx(
            math.cos(2.0) * math.sqrt(2 / math.pi) * math.sin(0.8), rel=1e-13
        )

    def test_dirichlet_boundary_vanishes(self, dirichlet, rng):
        C = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        D = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        sol = SeriesSolution(dirichlet, 5.0, C, D)
        for t in np.linspace(0.0, 5.0, 7):
            assert abs(point(sol, 0.0, t)) < 1e-12
            assert abs(point(sol, math.pi, t)) < 1e-12

    def test_time_window_enforced(self, dirichlet):
        sol = single_cosine(dirichlet, T=2.0)
        with pytest.raises(ValueError, match="outside"):
            point(sol, 1.0, 2.5)
        with pytest.raises(ValueError, match="outside"):
            point(sol, 1.0, -0.5)

    def test_linearity(self, dirichlet, rng):
        C1 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        D1 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        C2 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        D2 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        s1 = SeriesSolution(dirichlet, 3.0, C1, D1)
        s2 = SeriesSolution(dirichlet, 3.0, C2, D2)
        both = SeriesSolution(dirichlet, 3.0, C1 + C2, D1 + D2)
        for x, t in ((0.3, 0.1), (1.7, 2.9), (2.2, 1.5)):
            assert point(both, x, t) == pytest.approx(
                point(s1, x, t) + point(s2, x, t), abs=1e-12
            )

    def test_field_matches_pointwise_evaluation(self, dirichlet, rng):
        # C = D = c/2 makes u = sum_k c_k cos(k t) sqrt(2/pi) sin(k x) in closed form
        c = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        sol = SeriesSolution(dirichlet, 2.0, c / 2, c / 2)
        xs = np.linspace(0.0, math.pi, 5)
        ts = np.linspace(0.0, 2.0, 4)
        grid = sol.field(xs, ts)
        for i, x in enumerate(xs):
            for j, t in enumerate(ts):
                expected = sum(
                    c[k - 1] * math.cos(k * t) * math.sqrt(2 / math.pi) * math.sin(k * x)
                    for k in range(1, 16)
                )
                assert grid[i, j] == pytest.approx(expected, abs=1e-12)


class TestTimeDerivative:
    def test_cosine_mode_at_rest_initially(self, dirichlet):
        sol = single_cosine(dirichlet)
        assert du_dt(sol, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_sine_mode_initial_slope(self, dirichlet):
        # y(t) = sin(2t)/2 on mode 2: derivative at 0 is 1, so du/dt = v_2(x)
        sol = SeriesSolution(dirichlet, 5.0, C=[0.0, -1 / 4j], D=[0.0, 1 / 4j])
        for x in (0.5, 1.1):
            assert du_dt(sol, x, 0.0) == pytest.approx(
                dirichlet.eigenfunction(2, x), rel=1e-13
            )

    def test_matches_central_differences(self, dirichlet, rng):
        C = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        D = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        sol = SeriesSolution(dirichlet, 5.0, C, D)
        h = 1e-5
        for _ in range(50):
            x = rng.uniform(0.0, math.pi)
            t = rng.uniform(h, 5.0 - h)
            fd = (point(sol, x, t + h) - point(sol, x, t - h)) / (2 * h)
            exact = du_dt(sol, x, t)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


class TestNormTrajectory:
    def test_zero_solution(self, dirichlet):
        sol = SeriesSolution(dirichlet, 1.0, C=np.zeros(3), D=np.zeros(3))
        ts = np.linspace(0.0, 1.0, 11)
        assert np.all(norm_trajectory(sol, 0, ts) == 0)

    def test_single_cosine_h0_is_abs_cos(self, dirichlet):
        sol = single_cosine(dirichlet)
        ts = np.linspace(0.0, 5.0, 101)
        assert np.abs(norm_trajectory(sol, 0, ts) - np.abs(np.cos(ts))).max() < 1e-13

    def test_unsupported_order_rejected(self, dirichlet):
        sol = single_cosine(dirichlet)
        with pytest.raises(ValueError, match="unsupported"):
            norm_trajectory(sol, 5, [0.0])

    def test_coefficient_norm_matches_spatial_quadrature(self, dirichlet, rng):
        # ||u(t)||_H0 from coefficients against quadrature of |u(x, t)|^2
        C = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        D = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        sol = SeriesSolution(dirichlet, 2.0, C, D)
        rule = GaussLegendre(panels=256, order=8)
        nodes, weights = rule.nodes_weights(0.0, math.pi)
        for t in (0.0, 0.9, 2.0):
            coeff_norm = float(norm_trajectory(sol, 0, [t])[0])
            values = sol.field(nodes, [t])[:, 0]
            spatial = math.sqrt(float(weights @ np.abs(values) ** 2))
            assert coeff_norm == pytest.approx(spatial, abs=1e-8)

    @pytest.mark.parametrize("n_modes,time_points", [(1, 11), (37, 1001), (1000, 1001)])
    def test_grid_norms_match_pointwise(self, dirichlet, rng, n_modes, time_points):
        C = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        D = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        sol = SeriesSolution(dirichlet, 5.0, C, D)
        ts = np.linspace(0.0, 5.0, time_points)
        shared = sol.norm_trajectories(time_points)
        assert np.array_equal(shared.ts, ts)
        for grid, pointwise in (
            (shared.u_h0, norm_trajectory(sol, 0, ts)),
            (shared.u_h1, norm_trajectory(sol, 1, ts)),
            (shared.dudt_h0, norm_trajectory(sol, 0, ts, derivative=True)),
        ):
            assert np.all(np.abs(grid - pointwise) <= 1e-13 * pointwise)

    @pytest.mark.parametrize("time_points", [2, 3, 10, 17, 1002])
    def test_grid_norms_on_point_counts_off_a_square(self, dirichlet, time_points):
        # the last group of isqrt(time_points) points is cut short, or padded past T
        sol = SeriesSolution(dirichlet, 3.0, C=[0.5, 0.25j], D=[0.5, -0.25j])
        ts = np.linspace(0.0, 3.0, time_points)
        norms = sol.norm_trajectories(time_points)
        assert np.abs(norms.u_h0 - norm_trajectory(sol, 0, ts)).max() < 1e-14
        assert np.abs(norms.dudt_h0 - norm_trajectory(sol, 0, ts, derivative=True)).max() < 1e-14

    def test_grid_norms_vanish_where_a_cosine_does(self, dirichlet):
        # no cancellation floor: |cos t| is resolved to rounding near its zeros
        sol = single_cosine(dirichlet, T=math.pi)
        norms = sol.norm_trajectories(101)
        assert np.abs(norms.u_h0 - np.abs(np.cos(norms.ts))).max() < 1e-15
        assert norms.dudt_h0[0] == 0.0

    def test_shared_trajectories_memory_bounded_at_large_n(self, dirichlet, rng):
        # the one-shot phase, value and |y|^2 arrays would take over 100 MiB here
        n_modes = 3000
        C = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        D = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        sol = SeriesSolution(dirichlet, 5.0, C, D)
        tracemalloc.start()
        try:
            norms = sol.norm_trajectories(1001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert norms.u_h0[0] == pytest.approx(np.linalg.norm(C + D), rel=1e-12)

    def test_per_mode_energy_constant_on_grid(self, dirichlet, rng):
        C = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        D = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        sol = SeriesSolution(dirichlet, 4.0, C, D)
        ts = np.linspace(0.0, 4.0, 500)
        y = sol.mode_values(ts)
        yp = sol.mode_derivatives(ts)
        energy = np.abs(yp) ** 2 + sol.eigenvalues[:, None] * np.abs(y) ** 2
        drift = (energy.max(1) - energy.min(1)) / energy.max(1)
        assert drift.max() < 1e-12


class TestRealImaginaryParts:
    def test_real_cauchy_data_has_zero_imaginary_field(self, dirichlet):
        problem = CauchyProblem(
            dirichlet,
            3.0,
            SpectralVector([1.0, -0.5, 0.25], dirichlet),
            SpectralVector([0.5, 1.0, 0.0], dirichlet),
        )
        sol = solve_cauchy(problem)
        for x, t in ((0.4, 0.0), (1.9, 1.3), (2.8, 3.0)):
            assert abs(point(sol, x, t).imag) < 1e-14

    def test_parts_reassemble_exactly(self, dirichlet, rng):
        # v = Re u and w = Im u are series solutions themselves: since the
        # eigenfunctions are real, Re y_k = (y_k + conj y_k)/2 swaps C and conj D
        C = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        D = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        sol = SeriesSolution(dirichlet, 2.0, C, D)
        v = SeriesSolution(dirichlet, 2.0, (C + D.conj()) / 2, (D + C.conj()) / 2)
        w = SeriesSolution(dirichlet, 2.0, (C - D.conj()) / 2j, (D - C.conj()) / 2j)
        for x, t in ((0.3, 0.2), (2.0, 1.7)):
            u = point(sol, x, t)
            assert point(v, x, t) == pytest.approx(u.real, abs=1e-14)
            assert point(w, x, t) == pytest.approx(u.imag, abs=1e-14)

    def test_coupled_real_conditions_hold(self, dirichlet):
        # with real a and g the split fields satisfy the two real
        # integral conditions, Im g being zero
        g = project(lambda x: x * (math.pi - x), dirichlet, 50)
        a = SpectralVector(np.zeros(50), dirichlet)
        problem = NonlocalProblem(dirichlet, ProblemClock(5.0, 0.01), a, g)
        sol = solve_nonlocal(problem)
        residual = integral_condition_residual(problem, sol)
        assert residual.re < 1e-8
        assert residual.im < 1e-8


class TestModeAccess:
    def test_mode_bounds_checked(self, dirichlet):
        # modes are 1-based, and a solution holds exactly len(sol) of them
        sol = single_cosine(dirichlet)
        with pytest.raises(IndexError):
            sol.spectrum.eigenvalue(0)
        with pytest.raises(IndexError):
            sol.mode_values(0.0)[1]

    def test_mode_initial_identities(self, dirichlet):
        sol = SeriesSolution(dirichlet, 1.0, C=[0.25 + 1j], D=[-0.5 + 0.5j])
        C, D, theta = sol.C[0], sol.D[0], sol.thetas[0]
        assert sol.mode_values(0.0)[0] == pytest.approx(C + D)
        assert sol.mode_derivatives(0.0)[0] == pytest.approx(1j * theta * (D - C))
