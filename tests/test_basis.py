import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eigenfunction, eigenfunction_matrix, integrate
from specwave import (
    CauchyProblem,
    GaussLegendre,
    NonlocalProblem,
    ProblemClock,
    SeriesSolution,
    SpectralVector,
    project,
    z_diagnostic,
)
from specwave.basis import DOMAIN, frequencies, projection_rule
from specwave import config
from specwave.config import ExperimentConfig, resolve_data

SQ2PI = math.sqrt(2.0 / math.pi)
EPS = np.finfo(float).eps


def parabola(x):
    return x * (math.pi - x)


def parabola_coefficient(k: int) -> float:
    # closed-form sine series of x(pi - x) against the normalized eigenfunctions:
    # (f, v_k) = sqrt(2/pi) * 2 (1 - (-1)^k) / k^3, verified against quadrature
    return SQ2PI * 2.0 * (1 - (-1) ** k) / k**3


class TestEigenData:
    # theta_k = k and lambda_k = theta_k^2: a unit mode k has H^2 norm k^2
    def test_third_mode(self):
        assert (frequencies(3)[-1], SpectralVector([0, 0, 1]).sobolev_norm(2)) == (3.0, 9.0)

    def test_first_mode(self):
        assert (frequencies(1)[-1], SpectralVector([1]).sobolev_norm(2)) == (1.0, 1.0)

    def test_large_mode(self):
        assert (frequencies(500)[-1], SpectralVector(np.arange(500) == 499).sobolev_norm(2)) == (500.0, 250000.0)

    def test_zero_index_rejected(self):
        with pytest.raises(IndexError):
            eigenfunction(0, 1.0)
        with pytest.raises(IndexError):
            eigenfunction(np.arange(0, 3), 1.0)
        with pytest.raises(IndexError):
            eigenfunction(1.0, 1.0)

    def test_domain_is_fixed(self):
        # v_k = sqrt(2/pi) sin(kx) is the basis on (0, pi) only: on another
        # interval it would be neither orthonormal nor zero at the right end
        assert DOMAIN == (0.0, math.pi)

    def test_every_theta_is_the_basis_frequencies(self):
        # one source of theta_k: the solution, the solve's denominators and z(m)
        theta = frequencies(40)
        assert theta.dtype == float and np.array_equal(theta, np.arange(1, 41))
        data = SpectralVector(np.ones(40))
        clock = ProblemClock(5.0, 0.3)
        assert np.array_equal(NonlocalProblem(clock, data, data).mode_denominators.thetas, theta)
        assert np.array_equal(z_diagnostic(40, clock).thetas, theta)
        assert np.array_equal(SeriesSolution(5.0, np.ones(40), np.ones(40)).thetas, theta)


class TestDirichletBasis:
    def test_boundary_values_vanish(self):
        for k in (1, 2, 7):
            assert eigenfunction(k, 0.0) == pytest.approx(0.0, abs=1e-12)
            assert abs(eigenfunction(k, math.pi)) < 1e-12

    def test_unit_normalization(self):
        rule = GaussLegendre(panels=256)
        for k in (1, 3, 10):
            nsq = integrate(rule, lambda x, k=k: eigenfunction(k, x) ** 2, 0.0, math.pi)
            assert nsq == pytest.approx(1.0, abs=1e-12)

    def test_gram_matrix_is_identity(self):
        # 2048-point quadrature of the 10x10 Gram matrix
        rule = GaussLegendre(panels=256)
        nodes, weights = rule.nodes_weights(0.0, math.pi)
        basis = eigenfunction_matrix(10, nodes)
        gram = (basis * weights) @ basis.T
        assert np.abs(gram - np.eye(10)).max() < 1e-10

    def test_eigenvalues_increase_unboundedly(self):
        lam = SeriesSolution(1.0, np.ones(199), np.ones(199)).eigenvalues
        assert np.all(np.diff(lam) >= 0)
        assert lam[-1] > lam[0]

    def test_frequency_squares_to_eigenvalue(self):
        sol = SeriesSolution(1.0, np.ones(49), np.ones(49))
        assert np.array_equal(sol.thetas**2, sol.eigenvalues)
        assert np.array_equal(sol.eigenvalues, np.arange(1, 50) ** 2)


class TestProject:
    def test_single_eigenfunction(self):
        vec = project(lambda x: eigenfunction(1, x), 3)
        assert vec.coefficients[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(vec.coefficients[1:]).max() < 1e-12

    def test_zero_function(self):
        vec = project(lambda x: np.zeros_like(x), 4)
        assert np.all(vec.coefficients == 0)

    def test_parabola_matches_closed_form(self):
        expected = np.array([parabola_coefficient(k) for k in range(1, 6)])
        vec = project(parabola, 5)
        assert np.abs(vec.coefficients - expected).max() < 1e-12
        # the closed form is quadrature-independent: a much finer rule agrees
        fine = project(parabola, 5, GaussLegendre(panels=512))
        assert np.abs(fine.coefficients - expected).max() < 1e-12

    @pytest.mark.parametrize("n", [1000, 100_000])
    def test_default_rule_resolves_high_modes(self, n):
        # a fixed 64-panel rule aliases sin(kx) above k ~ 170 and errs by up to 2.3 at
        # n = 1000; the FFT sums assume equal panels, and half-widths that differ by
        # rounding put up to 2.1e-12 on a coefficient at n = 100000
        expected = np.array([parabola_coefficient(k) for k in range(1, n + 1)])
        (from_config,) = ExperimentConfig(N=n).data("parabola")
        assert np.abs(from_config.coefficients - expected).max() <= 8 * EPS
        assert np.abs(project(parabola, n).coefficients - expected).max() <= 8 * EPS

    def test_zero_preset_is_exact_zeros_without_projection(self, monkeypatch):
        def no_projection(*args, **kwargs):
            raise AssertionError("the zero preset needs no projection")

        monkeypatch.setattr(config, "project", no_projection)
        vec = resolve_data("zero", 3000, projection_rule(3000))
        assert vec.coefficients.dtype == complex
        assert np.array_equal(vec.coefficients, np.zeros(3000, dtype=complex))
        assert not np.signbit(vec.coefficients.view(float)).any()

    def test_eigenmode_past_truncation_is_exact_zeros(self, monkeypatch):
        # the eigenmodes are orthonormal, so eigenmode:j is e_j for j <= N and zeros for
        # j > N, with nothing to project: a rule sized to N would alias a higher mode
        # (eigenmode:5000 on 16 modes read up to 0.55), and one sized to j = 1e9 would not fit
        rule = projection_rule(16)
        monkeypatch.setattr(config, "project", lambda *args: pytest.fail("nothing to project"))
        for j in (1, 16, 17, 5000, 10**9):
            vec = resolve_data(f"eigenmode:{j}", 16, rule)
            assert vec.coefficients.dtype == complex
            assert np.array_equal(vec.coefficients, np.arange(1, 17) == j), j
            assert not np.signbit(vec.coefficients.view(float)).any()

    def test_rule_floor_leaves_small_and_explicit_rules(self, monkeypatch):
        assert projection_rule(102) == GaussLegendre(panels=64)
        assert projection_rule(103).panels == 65
        rules = []
        monkeypatch.setattr(config, "resolve_data", lambda spec, n, rule: rules.append(rule))
        ExperimentConfig(N=1000, quad_panels=900).data("parabola")
        assert [rule.panels for rule in rules] == [900]

    @pytest.mark.parametrize("n_modes,panels", [(100, None), (1000, None), (3000, None), (1000, 64)])
    def test_fft_projection_matches_dense_product(self, n_modes, panels):
        # 64 panels do not resolve the modes above about 170 (the parabola's
        # coefficients come out wrong by up to 2.3), and there the FFT must alias
        # exactly as the dense product does: modes k and k + 128 share a panel sum
        rule = GaussLegendre(panels=panels) if panels else projection_rule(n_modes)
        nodes, weights = rule.nodes_weights(0.0, math.pi)
        weighted = weights * parabola(nodes)
        dense = eigenfunction_matrix(n_modes, nodes) @ weighted
        fft = project(parabola, n_modes, rule).coefficients
        assert np.abs(fft - dense).max() <= 1e-13 * np.abs(weighted).sum()
        if panels is None:
            k = np.arange(1, n_modes + 1)
            assert np.abs(fft - SQ2PI * 2 * (1 - (-1.0) ** k) / k**3).max() <= 2e-13

    def test_complex_function_projects_by_parts(self):
        f = lambda x: parabola(x) + 1j * eigenfunction(2, x)
        vec = project(f, 6)
        expected = np.array([parabola_coefficient(k) for k in range(1, 7)]) + 1j * (np.arange(1, 7) == 2)
        assert np.abs(vec.coefficients - expected).max() < 1e-12

    def test_eigenfunction_matrix_rows_are_the_modes(self):
        x = np.linspace(0.0, math.pi, 7)
        matrix = eigenfunction_matrix(5, x)
        assert matrix.shape == (5, 7)
        assert np.array_equal(matrix, np.array([eigenfunction(k, x) for k in range(1, 6)]))

    def test_memory_bounded_at_large_n(self):
        # the dense 3000 x 15000 basis would take 343 MiB, twice while it is built
        tracemalloc.start()
        try:
            vec = project(parabola, 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        k = np.arange(1, 3001)
        assert np.abs(vec.coefficients - SQ2PI * 2 * (1 - (-1.0) ** k) / k**3).max() < 1e-9

    def test_non_finite_function_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            project(lambda x: np.where(x > 1, np.inf, 1.0), 2)

    def test_bad_truncation_rejected(self):
        with pytest.raises(ValueError):
            project(parabola, 0)

    def test_parseval_upper_bound(self):
        rule = GaussLegendre(panels=128)
        l2 = math.sqrt(integrate(rule, lambda x: parabola(x) ** 2, 0.0, math.pi))
        assert l2 == pytest.approx(math.sqrt(math.pi**5 / 30.0), rel=1e-13)
        for n in (5, 20, 50):
            assert project(parabola, n).sobolev_norm(0) <= l2 + 1e-12

    def test_parseval_equality_in_span(self):
        f = lambda x: 2.0 * eigenfunction(1, x) - 0.5 * eigenfunction(3, x)
        vec = project(f, 5)
        assert vec.sobolev_norm(0) == pytest.approx(math.sqrt(4.25), rel=1e-12)


class TestSobolevNorm:
    def test_first_mode_any_order(self):
        vec = SpectralVector([1.0, 0.0, 0.0])
        assert vec.sobolev_norm(2) == pytest.approx(1.0)

    def test_second_mode_h1(self):
        vec = SpectralVector([0.0, 1.0, 0.0])
        assert vec.sobolev_norm(1) == pytest.approx(2.0)

    def test_negative_order(self):
        # specwave reads H^0, H^1 and H^2 only, so H^-1 is refused
        vec = SpectralVector([1.0, 1.0])
        with pytest.raises(ValueError, match="unsupported"):
            vec.sobolev_norm(-1)

    def test_h0_is_euclidean(self, rng):
        c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        vec = SpectralVector(c)
        assert vec.sobolev_norm(0) == pytest.approx(float(np.linalg.norm(c)), rel=1e-14)

    def test_unsupported_order_rejected(self):
        vec = SpectralVector([1.0])
        with pytest.raises(ValueError, match="unsupported"):
            vec.sobolev_norm(3)

    def test_monotone_in_q_when_eigenvalues_at_least_one(self, rng):
        c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        vec = SpectralVector(c)
        norms = [vec.sobolev_norm(q) for q in (0, 1, 2)]
        assert np.all(np.diff(norms) >= -1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        parts=st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
            min_size=1,
            max_size=8,
        ),
        scale=st.tuples(st.floats(-1e2, 1e2), st.floats(-1e2, 1e2)),
        q=st.sampled_from([0, 1, 2]),
    )
    def test_norm_scaling(self, parts, scale, q):
        c = np.array([re + 1j * im for re, im in parts])
        s = complex(*scale)
        vec = SpectralVector(c)
        lhs = SpectralVector(s * c).sobolev_norm(q)
        rhs = abs(s) * vec.sobolev_norm(q)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestSpectralVectorPlumbing:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            CauchyProblem(1.0, SpectralVector([1.0]),
                          SpectralVector([1.0, 2.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            SpectralVector([np.nan])
