import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import integrate
from specwave import (
    CauchyProblem,
    GaussLegendre,
    SpectralVector,
    TabulatedSpectrum,
    eigenfunction_matrix,
    project,
)
from specwave.basis import projection_rule
from specwave import config
from specwave.config import ExperimentConfig, resolve_data

SQ2PI = math.sqrt(2.0 / math.pi)


def parabola(x):
    return x * (math.pi - x)


def parabola_coefficient(k: int) -> float:
    # closed-form sine series of x(pi - x) against the normalized eigenfunctions:
    # (f, v_k) = sqrt(2/pi) * 2 (1 - (-1)^k) / k^3, verified against quadrature
    return SQ2PI * 2.0 * (1 - (-1) ** k) / k**3


class TestEigenData:
    def test_third_mode(self, dirichlet):
        assert (dirichlet.eigenvalue(3), dirichlet.frequency(3)) == (9.0, 3.0)

    def test_first_mode(self, dirichlet):
        assert (dirichlet.eigenvalue(1), dirichlet.frequency(1)) == (1.0, 1.0)

    def test_large_mode(self, dirichlet):
        assert (dirichlet.eigenvalue(500), dirichlet.frequency(500)) == (250000.0, 500.0)

    def test_zero_index_rejected(self, dirichlet):
        with pytest.raises(IndexError):
            dirichlet.eigenvalue(0)
        with pytest.raises(IndexError):
            dirichlet.frequency(0)

    def test_tabulated_exhaustion(self):
        spectrum = TabulatedSpectrum(eigenvalues=(1.0, 4.0))
        assert (spectrum.eigenvalue(2), spectrum.frequency(2)) == (4.0, 2.0)
        with pytest.raises(IndexError, match="exhausted"):
            spectrum.eigenvalue(3)
        with pytest.raises(IndexError, match="exhausted"):
            spectrum.frequency(3)

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            TabulatedSpectrum(eigenvalues=(4.0, 1.0))
        with pytest.raises(ValueError):
            TabulatedSpectrum(eigenvalues=(-1.0,))


class TestDirichletBasis:
    def test_boundary_values_vanish(self, dirichlet):
        for k in (1, 2, 7):
            assert dirichlet.eigenfunction(k, 0.0) == pytest.approx(0.0, abs=1e-12)
            assert abs(dirichlet.eigenfunction(k, math.pi)) < 1e-12

    def test_unit_normalization(self, dirichlet):
        rule = GaussLegendre(panels=256, order=8)
        for k in (1, 3, 10):
            nsq = integrate(rule, lambda x, k=k: dirichlet.eigenfunction(k, x) ** 2, 0.0, math.pi)
            assert nsq == pytest.approx(1.0, abs=1e-12)

    def test_gram_matrix_is_identity(self, dirichlet):
        # 2048-point quadrature of the 10x10 Gram matrix
        rule = GaussLegendre(panels=256, order=8)
        nodes, weights = rule.nodes_weights(0.0, math.pi)
        basis = eigenfunction_matrix(dirichlet, 10, nodes)
        gram = (basis * weights) @ basis.T
        assert np.abs(gram - np.eye(10)).max() < 1e-10

    def test_eigenvalues_increase_unboundedly(self, dirichlet):
        ks = np.arange(1, 200)
        lam = dirichlet.eigenvalue(ks)
        assert np.all(np.diff(lam) >= 0)
        assert lam[-1] > lam[0]

    def test_frequency_squares_to_eigenvalue(self, dirichlet):
        ks = np.arange(1, 50)
        assert np.array_equal(dirichlet.frequency(ks) ** 2, dirichlet.eigenvalue(ks))
        tab = TabulatedSpectrum(eigenvalues=(0.7, 2.0, 13.5))
        for k in (1, 2, 3):
            lam, theta = tab.eigenvalue(k), tab.frequency(k)
            assert theta**2 == pytest.approx(lam, rel=1e-15)


class TestProject:
    def test_single_eigenfunction(self, dirichlet):
        vec = project(lambda x: dirichlet.eigenfunction(1, x), dirichlet, 3)
        assert vec.coefficients[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(vec.coefficients[1:]).max() < 1e-12

    def test_zero_function(self, dirichlet):
        vec = project(lambda x: np.zeros_like(x), dirichlet, 4)
        assert np.all(vec.coefficients == 0)

    def test_parabola_matches_closed_form(self, dirichlet):
        expected = np.array([parabola_coefficient(k) for k in range(1, 6)])
        vec = project(parabola, dirichlet, 5)
        assert np.abs(vec.coefficients - expected).max() < 1e-12
        # the closed form is quadrature-independent: a much finer rule agrees
        fine = project(parabola, dirichlet, 5, GaussLegendre(panels=256, order=12))
        assert np.abs(fine.coefficients - expected).max() < 1e-12

    def test_default_rule_resolves_high_modes(self, dirichlet):
        # a fixed 64-panel rule aliases sin(kx) above k ~ 170 and errs by up to 2.3 here
        n = 1000
        expected = np.array([parabola_coefficient(k) for k in range(1, n + 1)])
        from_config = resolve_data("parabola", dirichlet, n, ExperimentConfig(N=n).build_rule())
        assert np.abs(from_config.coefficients - expected).max() <= 1e-9
        assert np.abs(project(parabola, dirichlet, n).coefficients - expected).max() <= 1e-9

    def test_zero_preset_is_exact_zeros_without_projection(self, dirichlet, monkeypatch):
        def no_projection(*args, **kwargs):
            raise AssertionError("the zero preset needs no projection")

        monkeypatch.setattr(config, "project", no_projection)
        vec = resolve_data("zero", dirichlet, 3000, projection_rule(3000))
        assert vec.coefficients.dtype == complex
        assert np.array_equal(vec.coefficients, np.zeros(3000, dtype=complex))
        assert not np.signbit(vec.coefficients.view(float)).any()

    def test_rule_floor_leaves_small_and_explicit_rules(self):
        assert ExperimentConfig(N=102).build_rule() == GaussLegendre(panels=64, order=8)
        assert ExperimentConfig(N=103).build_rule().panels == 65
        assert ExperimentConfig(N=1000, quad_panels=900).build_rule().panels == 900

    @pytest.mark.parametrize("n_modes,panels", [(100, None), (1000, None), (3000, None), (1000, 64)])
    def test_fft_projection_matches_dense_product(self, dirichlet, n_modes, panels):
        # 64 panels do not resolve the modes above about 170 (the parabola's
        # coefficients come out wrong by up to 2.3), and there the FFT must alias
        # exactly as the dense product does: modes k and k + 128 share a panel sum
        rule = GaussLegendre(panels=panels) if panels else projection_rule(n_modes)
        nodes, weights = rule.nodes_weights(0.0, math.pi)
        weighted = weights * parabola(nodes)
        dense = eigenfunction_matrix(dirichlet, n_modes, nodes) @ weighted
        fft = project(parabola, dirichlet, n_modes, rule).coefficients
        assert np.abs(fft - dense).max() <= 1e-13 * np.abs(weighted).sum()
        if panels is None:
            k = np.arange(1, n_modes + 1)
            assert np.abs(fft - SQ2PI * 2 * (1 - (-1.0) ** k) / k**3).max() <= 2e-13

    def test_complex_function_projects_by_parts(self, dirichlet):
        f = lambda x: parabola(x) + 1j * dirichlet.eigenfunction(2, x)
        vec = project(f, dirichlet, 6)
        expected = np.array([parabola_coefficient(k) for k in range(1, 7)]) + 1j * (np.arange(1, 7) == 2)
        assert np.abs(vec.coefficients - expected).max() < 1e-12

    def test_tabulated_spectrum_projects_by_dense_product(self):
        funcs = tuple(lambda x, k=k: SQ2PI * np.sin(k * np.asarray(x)) for k in (1, 2, 3))
        spectrum = TabulatedSpectrum((1.0, 4.0, 9.0), funcs, domain=(0.0, math.pi))
        vec = project(parabola, spectrum, 3)
        expected = [parabola_coefficient(k) for k in (1, 2, 3)]
        assert np.abs(vec.coefficients - expected).max() < 1e-12

    def test_eigenfunction_matrix_rows_are_the_modes(self, dirichlet):
        x = np.linspace(0.0, math.pi, 7)
        matrix = eigenfunction_matrix(dirichlet, 5, x)
        assert matrix.shape == (5, 7)
        assert np.array_equal(matrix, np.array([dirichlet.eigenfunction(k, x) for k in range(1, 6)]))

    def test_memory_bounded_at_large_n(self, dirichlet):
        # the dense 3000 x 15000 basis would take 343 MiB, twice while it is built
        tracemalloc.start()
        try:
            vec = project(parabola, dirichlet, 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        k = np.arange(1, 3001)
        assert np.abs(vec.coefficients - SQ2PI * 2 * (1 - (-1.0) ** k) / k**3).max() < 1e-9

    def test_non_finite_function_rejected(self, dirichlet):
        with pytest.raises(ValueError, match="non-finite"):
            project(lambda x: np.where(x > 1, np.inf, 1.0), dirichlet, 2)

    def test_bad_truncation_rejected(self, dirichlet):
        with pytest.raises(ValueError):
            project(parabola, dirichlet, 0)

    def test_parseval_upper_bound(self, dirichlet):
        rule = GaussLegendre(panels=128, order=8)
        l2 = math.sqrt(integrate(rule, lambda x: parabola(x) ** 2, 0.0, math.pi))
        assert l2 == pytest.approx(math.sqrt(math.pi**5 / 30.0), rel=1e-13)
        for n in (5, 20, 50):
            assert project(parabola, dirichlet, n).sobolev_norm(0) <= l2 + 1e-12

    def test_parseval_equality_in_span(self, dirichlet):
        f = lambda x: 2.0 * dirichlet.eigenfunction(1, x) - 0.5 * dirichlet.eigenfunction(3, x)
        vec = project(f, dirichlet, 5)
        assert vec.sobolev_norm(0) == pytest.approx(math.sqrt(4.25), rel=1e-12)


class TestSobolevNorm:
    def test_first_mode_any_order(self, dirichlet):
        vec = SpectralVector([1.0, 0.0, 0.0], dirichlet)
        assert vec.sobolev_norm(2) == pytest.approx(1.0)

    def test_second_mode_h1(self, dirichlet):
        vec = SpectralVector([0.0, 1.0, 0.0], dirichlet)
        assert vec.sobolev_norm(1) == pytest.approx(2.0)

    def test_negative_order(self, dirichlet):
        vec = SpectralVector([1.0, 1.0], dirichlet)
        assert vec.sobolev_norm(-1) == pytest.approx(math.sqrt(1.25))

    def test_h0_is_euclidean(self, dirichlet, rng):
        c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        vec = SpectralVector(c, dirichlet)
        assert vec.sobolev_norm(0) == pytest.approx(float(np.linalg.norm(c)), rel=1e-14)

    def test_unsupported_order_rejected(self, dirichlet):
        vec = SpectralVector([1.0], dirichlet)
        with pytest.raises(ValueError, match="unsupported"):
            vec.sobolev_norm(3)

    def test_monotone_in_q_when_eigenvalues_at_least_one(self, dirichlet, rng):
        c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        vec = SpectralVector(c, dirichlet)
        norms = [vec.sobolev_norm(q) for q in (-1, 0, 1, 2)]
        assert np.all(np.diff(norms) >= -1e-12)

    @settings(max_examples=50, deadline=None)
    @given(
        parts=st.lists(
            st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
            min_size=1,
            max_size=8,
        ),
        scale=st.tuples(st.floats(-1e2, 1e2), st.floats(-1e2, 1e2)),
        q=st.sampled_from([-1, 0, 1, 2]),
    )
    def test_norm_scaling(self, parts, scale, q):
        from specwave import DirichletLaplacian1D

        spectrum = DirichletLaplacian1D()
        c = np.array([re + 1j * im for re, im in parts])
        s = complex(*scale)
        vec = SpectralVector(c, spectrum)
        lhs = SpectralVector(s * c, spectrum).sobolev_norm(q)
        rhs = abs(s) * vec.sobolev_norm(q)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestSpectralVectorPlumbing:
    def test_mismatched_lengths_rejected(self, dirichlet):
        with pytest.raises(ValueError):
            CauchyProblem(dirichlet, 1.0, SpectralVector([1.0], dirichlet),
                          SpectralVector([1.0, 2.0], dirichlet))

    def test_non_finite_rejected(self, dirichlet):
        with pytest.raises(ValueError):
            SpectralVector([np.nan], dirichlet)
