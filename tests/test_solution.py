import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    eigenfunction,
    eigenfunction_matrix,
    field,
    integrate,
    mode_derivatives,
    mode_energy_drift,
    mode_values,
    norm_trajectory,
)
from specwave import (
    CauchyProblem,
    NonlocalProblem,
    ProblemClock,
    SeriesSolution,
    SpectralVector,
    project,
    solve_cauchy,
    solve_nonlocal,
)
from specwave import phase, solution
from specwave.phase import _exact_phase, _uniform_phases
from specwave.quadrature import nodes_weights
from specwave.solution import _chirp_sums

EPS = np.finfo(float).eps


def log_length(n, count) -> int:
    """Bit length of the one chirp-z convolution length for n frequencies at count times."""
    return (1 << (n + count - 2).bit_length()).bit_length()


def largest_phase(monkeypatch, evaluate) -> float:
    """The largest product a*b that `evaluate()` hands to `phase._exact_phase`."""
    largest = 0.0

    def recording(a, b):
        nonlocal largest
        largest = max(largest, float(np.abs(np.multiply(a, b, dtype=float)).max(initial=0.0)))
        return _exact_phase(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(phase, "_exact_phase", recording)
        patch.setattr(solution, "_exact_phase", recording)
        evaluate()
    return largest


def mp_mode_terms(C, D, k, dt, j):
    """C_k e^{-ikt} + D_k e^{ikt} at the working precision, at t = j dt exactly."""
    import mpmath

    e = mpmath.expj(k * j * mpmath.mpf(dt))
    return mpmath.mpc(C) / e + mpmath.mpc(D) * e


def mp_norm_error(sol, norms, dt, times) -> float:
    """Largest relative error of `norms` against the 40-digit norms of `sol` at t = j dt, j in `times`."""
    import mpmath

    ks, worst = np.arange(1, len(sol) + 1), 0.0
    for j in times:
        with mpmath.workdps(40):
            back = [mp_mode_terms(C, 0, k, dt, j) for k, C in zip(ks, sol.C)]
            ahead = [mp_mode_terms(0, D, k, dt, j) for k, D in zip(ks, sol.D)]
            y = [b + d for b, d in zip(back, ahead)]
            dy = [k * (d - b) for k, b, d in zip(ks, back, ahead)]  # |y'| = k |D e - C / e|
            want = [mpmath.sqrt(mpmath.fsum(k ** (2 * q) * abs(v) ** 2 for k, v in zip(ks, vals)))
                    for vals, q in ((y, 0), (y, 1), (dy, 0))]
        for got, value in zip((norms["u_h0"], norms["u_h1"], norms["dudt_h0"]), want):
            worst = max(worst, abs(got[j] - float(value)) / float(value))
    return worst


def single_cosine(T=5.0):
    return SeriesSolution(T, C=[0.5], D=[0.5])


def point(sol, x, t):
    """u(x, t) from the dense reference `field`."""
    return field(sol, [x], [t])[0, 0]


def du_dt(sol, x, t):
    """du/dt(x, t) = sum_k y_k'(t) v_k(x)."""
    return eigenfunction_matrix(len(sol), x)[:, 0] @ mode_derivatives(sol, t)


class TestEvaluate:
    def test_zero_modes(self):
        sol = SeriesSolution(1.0, C=np.zeros(3), D=np.zeros(3))
        assert point(sol, 1.0, 0.5) == 0

    def test_single_cosine_mode(self):
        sol = single_cosine()
        got = point(sol, math.pi / 2, 0.0)
        assert got == pytest.approx(math.sqrt(2 / math.pi), rel=1e-14)
        assert point(sol, 0.8, 2.0) == pytest.approx(
            math.cos(2.0) * math.sqrt(2 / math.pi) * math.sin(0.8), rel=1e-13
        )

    def test_dirichlet_boundary_vanishes(self, rng):
        C = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        D = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        sol = SeriesSolution(5.0, C, D)
        for t in np.linspace(0.0, 5.0, 7):
            assert abs(point(sol, 0.0, t)) < 1e-12
            assert abs(point(sol, math.pi, t)) < 1e-12

    def test_linearity(self, rng):
        C1 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        D1 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        C2 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        D2 = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        s1 = SeriesSolution(3.0, C1, D1)
        s2 = SeriesSolution(3.0, C2, D2)
        both = SeriesSolution(3.0, C1 + C2, D1 + D2)
        for x, t in ((0.3, 0.1), (1.7, 2.9), (2.2, 1.5)):
            assert point(both, x, t) == pytest.approx(
                point(s1, x, t) + point(s2, x, t), abs=1e-12
            )

    def test_field_matches_pointwise_evaluation(self, rng):
        # C = D = c/2 makes u = sum_k c_k cos(k t) sqrt(2/pi) sin(k x) in closed form
        c = rng.standard_normal(15) + 1j * rng.standard_normal(15)
        sol = SeriesSolution(2.0, c / 2, c / 2)
        xs = np.linspace(0.0, math.pi, 5)
        ts = np.linspace(0.0, 2.0, 4)
        grid = sol.field(5, 4)
        for i, x in enumerate(xs):
            for j, t in enumerate(ts):
                expected = sum(
                    c[k - 1] * math.cos(k * t) * math.sqrt(2 / math.pi) * math.sin(k * x)
                    for k in range(1, 16)
                )
                assert grid[i, j] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n_modes", [1, 37, 1000])
    @pytest.mark.parametrize("time_points", [2, 3, 10, 17, 201])
    def test_field_matches_dense_reference(self, rng, n_modes, time_points):
        # the last group of isqrt(time_points) phases is cut short, or padded past T.
        # Coefficients decay like 1/k (an H^0 field): both routes round each phase
        # theta_k t to about eps theta_k T, so flat unit coefficients would put
        # them ~3e-13 of the max apart at N = 1000 through rounding alone.
        ks = np.arange(1, n_modes + 1)
        C = (rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)) / ks
        D = (rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)) / ks
        sol = SeriesSolution(5.0, C, D)
        xs = np.linspace(0.0, math.pi, 23)
        dense = field(sol, xs, np.linspace(0.0, 5.0, time_points))
        assert np.abs(sol.field(23, time_points) - dense).max() <= 1e-13 * np.abs(dense).max()

    def test_field_edge_rows_as_the_benchmark_oracle_checks_them(self, rng):
        # N > M = 2 (nx - 1): the interior rows fold modes by residue. x = 0 is
        # exactly +0; x = fl(pi) is sum_k sin(k fl(pi)) y_k (|sin| ~ k 1.2e-16),
        # checked to 1e-9 of the sum of its terms' magnitudes, as perfbench's
        # oracle does
        n_modes = 1000
        C = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        D = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        sol = SeriesSolution(5.0, C, D)
        grid = sol.field(23, 201)
        ts = np.linspace(0.0, 5.0, 201)
        terms = eigenfunction_matrix(n_modes, [math.pi]) * mode_values(sol, ts)
        assert np.abs(grid[-1] - terms.sum(axis=0)).max() <= 1e-9 * np.abs(terms).sum(axis=0).min()
        assert np.all(grid[0] == 0) and not np.signbit(grid[0].view(float)).any()

    @pytest.mark.parametrize("T,n_modes", [
        pytest.param(1e10, 100, id="T1e10-N100"),
        pytest.param(1e12, 3, id="T1e12-N3"),
        pytest.param(2.2438e10, 401, id="T2.2438e10-N401"),
    ])
    def test_field_past_the_chirp_domain_matches_dense_reference(self, rng, T, n_modes):
        # one chirp over all modes would pass 2**43 here; the tiles' phases
        # stay below. At N = 401, T = 2.2438e10 lies past 2.2383e10, where the
        # exact table of every mode, 401 qG dt, reaches 2**43: the residue
        # sums reach it only at 2.2439e10. The times j T/200 and every k t_j
        # are exact floats, so the dense reference's phases are exact too
        ks = np.arange(1, n_modes + 1)
        C = (rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)) / ks
        D = (rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)) / ks
        sol = SeriesSolution(T, C, D)
        dense = field(sol, np.linspace(0.0, math.pi, 201), np.linspace(0.0, T, 201))
        assert np.abs(sol.field(201, 201) - dense).max() <= 1e-13 * np.abs(dense).max()

    @pytest.mark.parametrize("n_modes", [1, 3, 100, 401])
    @pytest.mark.parametrize("nx,nt", [(201, 201), (20, 20)])
    def test_field_horizons_end_where_the_phases_reach_2_43(self, monkeypatch, n_modes, nx, nt):
        # every phase is dt times an integer, so the field runs until the
        # largest one it forms reaches 2**43, at T*. That edge lies at or past
        # the exact table's of every mode, theta_N qG_max dt, qG_max the
        # largest multiple of isqrt(nt) below nt. Real data (C = conj D) give
        # an exactly real field
        coefficients = np.ones(n_modes) / np.arange(1, n_modes + 1)
        group = math.isqrt(nt)
        table_horizon = 2.0**43 * (nt - 1) / (n_modes * ((nt - 1) // group * group))
        formed = largest_phase(monkeypatch, lambda: SeriesSolution(1.0, coefficients, coefficients).field(nx, nt))
        horizon = 2.0**43 / formed
        assert horizon >= 0.9999 * table_horizon
        grid = SeriesSolution(0.999 * horizon, coefficients, coefficients).field(nx, nt)
        assert np.isfinite(grid).all() and np.all(grid.imag == 0)
        with pytest.raises(ValueError, match="2\\*\\*43"):
            SeriesSolution(1.001 * horizon, coefficients, coefficients).field(nx, nt)

    @pytest.mark.parametrize("time_points", [0, -1])
    def test_no_time_points_rejected(self, time_points):
        sol = single_cosine()
        with pytest.raises(ValueError, match="time_points >= 1"):
            sol.field(5, time_points)
        with pytest.raises(ValueError, match="time_points >= 1"):
            sol.norm_trajectories(time_points)
        with pytest.raises(ValueError, match="nx >= 2"):
            sol.field(1, 3)

    def test_field_memory_bounded_at_large_n(self, rng):
        # the dense N x 201 basis and mode values would take over 200 MiB here
        n_modes = 20000
        C = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        D = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        sol = SeriesSolution(5.0, C, D)
        tracemalloc.start()
        try:
            grid = sol.field(201, 201)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert grid.shape == (201, 201)
        assert np.abs(grid[0]).max() < 1e-9 * np.abs(grid).max()


class TestChirpSums:
    @pytest.mark.parametrize("n,count", [
        (1023, 1), (1024, 1), (1025, 1),  # n + count - 1 below, on and above 1024
        (1022, 2), (1023, 2), (1024, 2),
        (23, 1001), (24, 1001), (25, 1001),
        (1, 1), (2, 1), (3, 201),  # summed directly
    ])
    def test_matches_direct_mpmath_sums(self, rng, n, count):
        mpmath = pytest.importorskip("mpmath")
        weights = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        dt, factor = 5.0 / 1000, 2
        got = _chirp_sums(weights, dt, factor, count)
        assert got.shape == (2, count)
        length = 1 << (n + count - 2).bit_length()
        for j in sorted({0, count - 1, *rng.integers(0, count, 3).tolist()}):
            with mpmath.workdps(40):
                phase = mpmath.mpf(dt) * factor * j
                for row in range(2):
                    want = mpmath.fsum(mpmath.mpc(w) * mpmath.expj(phase * k) for k, w in enumerate(weights[row]))
                    bound = 2 * length.bit_length() * EPS * np.abs(weights[row]).sum()
                    assert abs(got[row, j] - complex(want)) <= bound

    @pytest.mark.parametrize("dt", [5.0 / 1000, 1e7 / 1000, 1e10 / 1000])
    @pytest.mark.parametrize("n,count", [
        (37, 1001), (40, 1001),  # n < count: time tiles, the last cut short or not
        (601, 601), (150, 101), (2500, 101), (3001, 101),  # n = count, just past it, n >> count
        (3, 201), (5000, 7), (1000, 1), (1, 1),  # a short side below log2(n + count): the table itself
    ])
    def test_matches_the_exact_table(self, rng, n, count, dt):
        # the exact table's phases 2 (n - 1) qG dt stay below 2**43 at dt = 1e7
        weights = rng.standard_normal((2, 3, n)) + 1j * rng.standard_normal((2, 3, n))
        got = _chirp_sums(weights, dt, 2, count)
        want = np.einsum("...k,kj->...j", weights, _uniform_phases(dt, 2 * np.arange(n), count))
        bound = 2 * log_length(n, count) * EPS * np.abs(weights).sum(axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("n,count", [
        (10, 25), (7, 55), (101, 1001),  # time tiles
        (1001, 1001), (1002, 1001), (3001, 1001), (20001, 201),  # one tile, then mode tiles
    ])
    def test_forms_no_phase_past_the_exact_table_or_one_chirp(self, monkeypatch, n, count):
        # so every horizon runs at which the exact table of the frequencies k, or one chirp
        # over all max(n, count) modes and times (phases below dt max(n, count)^2 / 2), would
        group = math.isqrt(count)
        table = (n - 1) * ((count - 1) // group * group)
        formed = largest_phase(monkeypatch, lambda: _chirp_sums(np.ones((1, n), dtype=complex), 1.0, 1, count))
        assert formed <= min(table, max(n, count) ** 2 / 2)

    def test_tiles_in_two_groups_match_the_exact_table(self, rng):
        # 49 tiles of 1225 modes, in three groups of about _TILE_ELEMENTS entries
        weights = rng.standard_normal((2, 3, 60001)) + 1j * rng.standard_normal((2, 3, 60001))
        got = _chirp_sums(weights, 5.0 / 1000, 2, 17)
        want = np.einsum("...k,kj->...j", weights, _uniform_phases(5.0 / 1000, 2 * np.arange(60001), 17))
        bound = 2 * log_length(60001, 17) * EPS * np.abs(weights).sum(axis=-1, keepdims=True)
        assert np.all(np.abs(got - want) <= bound)

    def test_memory_bounded_at_a_million_modes(self, rng):
        # one convolution over all 10**6 + 1 modes would hold 119 MiB here
        weights = rng.standard_normal((2, 10**6 + 1)) + 1j * rng.standard_normal((2, 10**6 + 1))
        tracemalloc.start()
        try:
            sums = _chirp_sums(weights, 5.0 / 1000, 2, 1001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * 2**20
        # at t = 0 every phase is 0
        bound = 2 * log_length(10**6 + 1, 1001) * EPS * np.abs(weights).sum(axis=-1)
        assert np.all(np.abs(sums[:, 0] - weights.sum(axis=-1)) <= bound)


class TestTimeDerivative:
    def test_cosine_mode_at_rest_initially(self):
        sol = single_cosine()
        assert du_dt(sol, 1.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_sine_mode_initial_slope(self):
        # y(t) = sin(2t)/2 on mode 2: derivative at 0 is 1, so du/dt = v_2(x)
        sol = SeriesSolution(5.0, C=[0.0, -1 / 4j], D=[0.0, 1 / 4j])
        for x in (0.5, 1.1):
            assert du_dt(sol, x, 0.0) == pytest.approx(
                eigenfunction(2, x), rel=1e-13
            )

    def test_matches_central_differences(self, rng):
        C = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        D = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        sol = SeriesSolution(5.0, C, D)
        h = 1e-5
        for _ in range(50):
            x = rng.uniform(0.0, math.pi)
            t = rng.uniform(h, 5.0 - h)
            fd = (point(sol, x, t + h) - point(sol, x, t - h)) / (2 * h)
            exact = du_dt(sol, x, t)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


class TestNormTrajectory:
    def test_zero_solution(self):
        sol = SeriesSolution(1.0, C=np.zeros(3), D=np.zeros(3))
        ts = np.linspace(0.0, 1.0, 11)
        assert np.all(norm_trajectory(sol, 0, ts) == 0)

    def test_single_cosine_h0_is_abs_cos(self):
        sol = single_cosine()
        ts = np.linspace(0.0, 5.0, 101)
        assert np.abs(norm_trajectory(sol, 0, ts) - np.abs(np.cos(ts))).max() < 1e-13

    def test_unsupported_order_rejected(self):
        sol = single_cosine()
        with pytest.raises(ValueError, match="unsupported"):
            norm_trajectory(sol, 5, [0.0])

    def test_coefficient_norm_matches_spatial_quadrature(self, rng):
        # ||u(t)||_H0 from coefficients against quadrature of |u(x, t)|^2
        C = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        D = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        sol = SeriesSolution(2.0, C, D)
        nodes, weights = nodes_weights(256, 0.0, math.pi)
        for t in (0.0, 0.9, 2.0):
            coeff_norm = float(norm_trajectory(sol, 0, [t])[0])
            values = field(sol, nodes, [t])[:, 0]
            spatial = math.sqrt(float(weights @ np.abs(values) ** 2))
            assert coeff_norm == pytest.approx(spatial, abs=1e-8)

    @pytest.mark.parametrize("n_modes,time_points", [(1, 11), (37, 1001), (1000, 1001)])
    def test_grid_norms_match_pointwise(self, rng, n_modes, time_points):
        C = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        D = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        sol = SeriesSolution(5.0, C, D)
        ts = np.arange(time_points) * (5.0 / (time_points - 1))  # t_j = j dt, as evaluated
        shared = sol.norm_trajectories(time_points)
        assert np.array_equal(shared["t"], ts)
        for grid, pointwise in (
            (shared["u_h0"], norm_trajectory(sol, 0, ts)),
            (shared["u_h1"], norm_trajectory(sol, 1, ts)),
            (shared["dudt_h0"], norm_trajectory(sol, 0, ts, derivative=True)),
        ):
            assert np.all(np.abs(grid - pointwise) <= 1e-13 * pointwise)

    @pytest.mark.parametrize("time_points", [2, 3, 10, 17, 1002])
    def test_grid_norms_on_point_counts_off_a_square(self, time_points):
        # the last group of isqrt(time_points) points is cut short, or padded past T
        sol = SeriesSolution(3.0, C=[0.5, 0.25j], D=[0.5, -0.25j])
        ts = np.linspace(0.0, 3.0, time_points)
        norms = sol.norm_trajectories(time_points)
        assert np.abs(norms["u_h0"] - norm_trajectory(sol, 0, ts)).max() < 1e-14
        assert np.abs(norms["dudt_h0"] - norm_trajectory(sol, 0, ts, derivative=True)).max() < 1e-14

    @pytest.mark.parametrize("n_modes", [3, 100, 3000])
    def test_norm_horizons_end_where_the_doubled_phases_reach_2_43(self, monkeypatch, n_modes):
        # the norms run until the largest phase they form reaches 2**43, at T*:
        # at or past where the exact table of e^{2ikt}, 2 N qG_max dt
        # (qG_max = 992 at 1001 times), reaches it, T = 2**42 1000 / (992 N).
        # The tiles form smaller phases: T* = 1.52 times that at N = 100 and
        # 2.0 times at N = 3000
        coefficients = np.ones(n_modes) / np.arange(1, n_modes + 1) ** 2
        table_horizon = 2.0**42 * 1000 / (n_modes * 992)
        formed = largest_phase(
            monkeypatch, lambda: SeriesSolution(table_horizon, coefficients, coefficients).norm_trajectories(1001)
        )
        horizon = table_horizon * 2.0**43 / formed
        assert horizon >= 0.9999 * table_horizon
        norms = SeriesSolution(0.999 * horizon, coefficients, coefficients).norm_trajectories(1001)
        assert norms["u_h0"][0] == pytest.approx(2 * np.linalg.norm(coefficients), rel=1e-14)
        assert np.isfinite(norms["u_h1"]).all() and np.isfinite(norms["dudt_h0"]).all()
        with pytest.raises(ValueError, match="2\\*\\*43"):
            SeriesSolution(1.001 * horizon, coefficients, coefficients).norm_trajectories(1001)

    def test_grid_norms_vanish_where_a_cosine_does(self):
        # no cancellation floor: |cos t| is resolved to rounding near its zeros
        sol = single_cosine(T=math.pi)
        norms = sol.norm_trajectories(101)
        assert np.abs(norms["u_h0"] - np.abs(np.cos(norms["t"]))).max() < 1e-15
        assert norms["dudt_h0"][0] == 0.0

    def test_grid_norms_vanish_where_a_high_cosine_does(self):
        # mode 700 lies past the first block, in the chirp sum, which cancels
        # near the zeros of cos(700 t): those times are summed again mode by
        # mode. Mode 5000 of 5000 lies in the last of three tiles, and
        # cos(5000 t_j) nears 0 at every odd j when T = 1.1 pi
        mpmath = pytest.importorskip("mpmath")
        for mode, T in ((700, math.pi), (5000, 1.1 * math.pi)):
            C = np.zeros(mode)
            C[-1] = 0.5
            norms = SeriesSolution(T, C, C).norm_trajectories(1001)
            dt = T / 1000
            with mpmath.workdps(30):
                want = np.array([float(abs(mpmath.cos(mode * j * mpmath.mpf(dt)))) for j in range(1001)])
            assert np.abs(norms["u_h0"] - want).max() < 1e-15
            assert norms["dudt_h0"][0] == 0.0

    def test_grid_norms_match_mpmath_at_n_2000(self, rng):
        # the CLI's kind of data: H^2 coefficients solved at omega = 0.07. The
        # routes evaluate t_j = j dt exactly, dt = fl(T / 1000)
        pytest.importorskip("mpmath")
        n_modes, T = 2000, 5.0
        ks = np.arange(1, n_modes + 1)
        g = project(lambda x: x * (math.pi - x), n_modes)
        a = SpectralVector((rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)) / ks**3)
        sol = solve_nonlocal(NonlocalProblem(ProblemClock(T, 0.07), a, g))
        norms = sol.norm_trajectories(1001)
        assert mp_norm_error(sol, norms, T / 1000, (0, 1, 437, 1000, *rng.integers(2, 1000, 3).tolist())) <= 4e-15

    def test_grid_norms_match_mpmath_past_the_chirp_domain(self, rng):
        # at T = 1.2e9 one chirp over all 3001 modes would reach phases of
        # 1.1e13; the tiles' stay below 3.6e12. t_j = j dt exactly,
        # dt = fl(T / 1000), which is no integer here, so rounding k t_j first
        # would cost about 1e-3 of phase
        pytest.importorskip("mpmath")
        n_modes, T = 3000, 1.2e9 + 0.5
        ks = np.arange(1, n_modes + 1)
        C = (rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)) / ks**2
        D = (rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)) / ks**2
        sol = SeriesSolution(T, C, D)
        dt = T / 1000
        norms = sol.norm_trajectories(1001)
        assert mp_norm_error(sol, norms, dt, (0, 1, 1000, *rng.integers(2, 1000, 3).tolist())) <= 4e-15

    def test_block_phases_match_mpmath_with_flat_coefficients(self):
        # every phase theta_k t_j = k j dt comes reduced from the exact product:
        # within a few ulps at N = 1000, where rounding k t_j first (as
        # oracles.mode_values does) errs by up to eps k t_j / 2 ~ 3e-13
        mpmath = pytest.importorskip("mpmath")
        n_modes, T = 1000, 5.0
        dt, worst = T / 200, 0.0
        table = _uniform_phases(dt, np.arange(1, n_modes + 1), 201)
        for k in (1, 326, 327, 652, 653, 978, 979, 1000):
            for j in (1, 77, 199, 200):
                with mpmath.workdps(40):
                    want = complex(mp_mode_terms(1, 1, k, dt, j))
                worst = max(worst, abs(table[k - 1, j].conj() + table[k - 1, j] - want))
        assert worst <= 4 * EPS

    def test_shared_trajectories_memory_bounded_at_large_n(self, rng):
        # the one-shot phase, value and |y|^2 arrays would take over 100 MiB here
        n_modes = 3000
        C = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        D = rng.standard_normal(n_modes) + 1j * rng.standard_normal(n_modes)
        sol = SeriesSolution(5.0, C, D)
        tracemalloc.start()
        try:
            norms = sol.norm_trajectories(1001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert norms["u_h0"][0] == pytest.approx(np.linalg.norm(C + D), rel=1e-12)

    def test_per_mode_energy_constant_on_grid(self, rng):
        C = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        D = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        sol = SeriesSolution(4.0, C, D)
        assert mode_energy_drift(sol, 500).max() < 1e-12


class TestRealImaginaryParts:
    def test_real_cauchy_data_has_zero_imaginary_field(self):
        problem = CauchyProblem(
            3.0,
            SpectralVector([1.0, -0.5, 0.25]),
            SpectralVector([0.5, 1.0, 0.0]),
        )
        sol = solve_cauchy(problem)
        for x, t in ((0.4, 0.0), (1.9, 1.3), (2.8, 3.0)):
            assert abs(point(sol, x, t).imag) < 1e-14

    @pytest.mark.parametrize("n_modes,nx,nt", [(300, 201, 201), (300, 20, 20), (1000, 23, 17)])
    def test_real_cauchy_field_is_exactly_real(self, rng, n_modes, nx, nt):
        # real data give C = conj(D) bit for bit, and the field CSVs exact zeros
        alpha = SpectralVector(rng.standard_normal(n_modes) / np.arange(1, n_modes + 1))
        beta = SpectralVector(rng.standard_normal(n_modes))
        grid = solve_cauchy(CauchyProblem(5.0, alpha, beta)).field(nx, nt)
        assert np.all(grid.imag == 0) and not np.signbit(grid.imag).any()

    def test_parts_reassemble_exactly(self, rng):
        # v = Re u and w = Im u are series solutions themselves: since the
        # eigenfunctions are real, Re y_k = (y_k + conj y_k)/2 swaps C and conj D
        C = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        D = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        sol = SeriesSolution(2.0, C, D)
        v = SeriesSolution(2.0, (C + D.conj()) / 2, (D + C.conj()) / 2)
        w = SeriesSolution(2.0, (C - D.conj()) / 2j, (D - C.conj()) / 2j)
        for x, t in ((0.3, 0.2), (2.0, 1.7)):
            u = point(sol, x, t)
            assert point(v, x, t) == pytest.approx(u.real, abs=1e-14)
            assert point(w, x, t) == pytest.approx(u.imag, abs=1e-14)

    def test_coupled_real_conditions_hold(self):
        # the paper's real system for v = Re u and w = Im u, each mode
        # integrated on a fine rule, never through exp_moments:
        #   int_0^T [cos(wt) Re y_k - sin(wt) Im y_k] dt = Re gamma_k
        #   int_0^T [sin(wt) Re y_k + cos(wt) Im y_k] dt = Im gamma_k
        # with complex g, so that Im gamma != 0
        T, omega = 5.0, 0.01
        g = project(lambda x: x * (math.pi - x) * (1.0 + 0.5j * x), 50)
        assert np.abs(g.coefficients.imag).max() > 0.1
        problem = NonlocalProblem(ProblemClock(T, omega), SpectralVector(np.zeros(50)), g)
        sol = solve_nonlocal(problem)
        for k, gamma_k in enumerate(g.coefficients):
            def y(t, k=k):
                return mode_values(sol, t)[k]
            re = integrate(400, lambda t: np.cos(omega * t) * y(t).real - np.sin(omega * t) * y(t).imag, 0.0, T)
            im = integrate(400, lambda t: np.sin(omega * t) * y(t).real + np.cos(omega * t) * y(t).imag, 0.0, T)
            assert re == pytest.approx(gamma_k.real, abs=1e-12)
            assert im == pytest.approx(gamma_k.imag, abs=1e-12)


class TestModeAccess:
    def test_mode_bounds_checked(self):
        # modes are 1-based, and a solution holds exactly len(sol) of them
        sol = single_cosine()
        with pytest.raises(IndexError):
            eigenfunction(0, 1.0)
        with pytest.raises(IndexError):
            mode_values(sol, 0.0)[1]

    def test_mode_initial_identities(self):
        sol = SeriesSolution(1.0, C=[0.25 + 1j], D=[-0.5 + 0.5j])
        C, D, theta = sol.C[0], sol.D[0], sol.thetas[0]
        assert mode_values(sol, 0.0)[0] == pytest.approx(C + D)
        assert mode_derivatives(sol, 0.0)[0] == pytest.approx(1j * theta * (D - C))
