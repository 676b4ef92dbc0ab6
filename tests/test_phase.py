import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0 spells it trapz

from oracles import denominator_via_f, integrate, resonance_numerator
from specwave import (
    GaussLegendre,
    ProblemClock,
    TabulatedSpectrum,
    phase_distance,
    phi,
    z_diagnostic,
)
from specwave.phase import CLASSIFY_TOL, LABELS, TWO_PI, _classify_codes, denominators

# regression values from this implementation; the published ones are checked
# at 2% in the acceptance suite
Z500 = {
    (5.0, 0.0): 3.6603247506536082e-09,
    (5.0, 0.01): 0.10017220548447142,
    (10.0, 0.0): 3.685921427231605e-09,
    (10.0, 0.01): 0.20010344759426493,
}


def quad_phi(mu: float, T: float, panels: int | None = None) -> complex:
    rule = GaussLegendre(panels=panels or max(64, int(abs(mu) * T) + 1), order=8)
    return integrate(rule, lambda t: np.exp(1j * mu * t), 0.0, T)


class TestPhi:
    def test_zero_frequency(self):
        assert phi(0.0, 5.0) == 5.0

    def test_full_period_vanishes(self):
        T = 3.7
        assert abs(phi(2 * math.pi / T, T)) < 1e-14

    def test_half_period(self):
        assert phi(1.0, math.pi) == pytest.approx(2j, abs=1e-14)

    def test_matches_quadrature(self, rng):
        for _ in range(20):
            mu = rng.uniform(-1e3, 1e3)
            T = rng.uniform(0.5, 10.0)
            assert phi(mu, T) == pytest.approx(quad_phi(mu, T), abs=1e-10)

    def test_continuous_through_zero(self):
        for T in (1.0, 5.0, 10.0):
            for mu in (1e-12, -1e-12):
                assert abs(phi(mu, T) - T) < 1e-9 * T

    def test_series_branch_consistent_with_formula(self):
        # both sides of the |mu T| = 1e-4 switch agree with quadrature; the
        # series side is machine-exact while the formula side carries the
        # ~eps/|mu| cancellation the switch exists to avoid
        T = 2.0
        assert phi(0.99e-4 / T, T) == pytest.approx(quad_phi(0.99e-4 / T, T), abs=1e-14)
        assert phi(1.01e-4 / T, T) == pytest.approx(quad_phi(1.01e-4 / T, T), abs=1e-11)

    def test_array_input(self):
        mus = np.array([0.0, 1.0, -1.0])
        values = phi(mus, math.pi)
        assert values.shape == (3,)
        assert values[0] == pytest.approx(math.pi)
        assert values[1] == pytest.approx(2j, abs=1e-14)
        assert values[2] == pytest.approx(values[1].conjugate(), abs=1e-14)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            phi(np.nan, 1.0)
        with pytest.raises(ValueError):
            phi(1.0, 0.0)

    def test_huge_horizon_rejected_without_overflow_warning(self, dirichlet):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mu and mu\\*T must be finite"):
                phi(np.array([0.0, 100.0]), 1e307)
            with pytest.raises(ValueError, match="mu and mu\\*T must be finite"):
                z_diagnostic(100, dirichlet, ProblemClock(1e307, 0.0))
            assert phi(np.array([0.0, 1.0]), 1e307).shape == (2,)
            assert phi(np.array([], dtype=float), 1.0).shape == (0,)

    @settings(max_examples=100, deadline=None)
    @given(mu=st.floats(-1e6, 1e6), T=st.floats(1e-3, 1e3))
    def test_magnitude_bounded_by_horizon(self, mu, T):
        # |int_0^T e^{i mu t} dt| <= T always
        assert abs(phi(mu, T)) <= T * (1 + 1e-12)


class TestProblemClock:
    def test_horizon_must_be_positive(self):
        with pytest.raises(ValueError):
            ProblemClock(0.0, 1.0)
        with pytest.raises(ValueError):
            ProblemClock(-1.0, 1.0)

    @pytest.mark.parametrize("omega", [1e308, -1e308, math.inf, math.nan])
    def test_omega_with_overflowing_phase_rejected(self, omega):
        with pytest.raises(ValueError, match="2\\*omega\\*T must be finite"):
            ProblemClock(5.0, omega)
        assert ProblemClock(5.0, 1e307).phase_margin >= 0.0

    def test_omega_zero_is_representable_but_inadmissible(self):
        clock = ProblemClock(5.0, 0.0)
        assert not clock.admissible
        assert clock.phase_margin == 0.0

    def test_admissible_clock(self):
        assert ProblemClock(5.0, 0.01).admissible

    def test_exact_resonance_inadmissible(self):
        clock = ProblemClock(2 * math.pi, 0.5)  # 2 omega T = 2 pi
        assert not clock.admissible

    def test_near_resonance_warns(self):
        T = 5.0
        omega = (2 * math.pi + 5e-4) / (2 * T)
        with pytest.warns(UserWarning, match="conditioning") as record:
            ProblemClock(T, omega)
        # the warning names the line that built the clock, not the dataclass __init__
        assert [w.filename for w in record] == [__file__]


class TestDenominator:
    def test_zero_weight_closed_form(self, dirichlet):
        # omega = 0: |d_k| = 2 (1 - cos(k T)) / k, by direct integration
        for T in (1.0, 5.0, 9.3):
            clock = ProblemClock(T, 0.0)
            for k in (1, 2, 5, 40):
                expected = 2.0 * (1 - math.cos(k * T)) / k
                d = denominators(dirichlet.frequency(k), clock)[0]
                assert abs(d) == pytest.approx(expected, abs=1e-13)

    def test_resonant_mode_solvable(self, dirichlet):
        # theta = omega: d = phi(2 omega) - T, nonzero for admissible clocks
        clock = ProblemClock(1.0, 3.0)
        d = denominators(dirichlet.frequency(3), clock)[0]
        expected = phi(6.0, 1.0) - 1.0
        assert d == pytest.approx(expected, abs=1e-14)
        assert abs(d) > 0.1

    def test_matches_trapezoid_quadrature(self, dirichlet):
        clock = ProblemClock(1.0, 0.5)
        t = np.linspace(0.0, 1.0, 100001)
        integrand = np.exp(1j * (0.5 + 1.0) * t) - np.exp(1j * (0.5 - 1.0) * t)
        assert denominators(dirichlet.frequency(1), clock)[0] == pytest.approx(
            complex(trapezoid(integrand, t)), abs=1e-10
        )

    def test_matches_symbolic_integration(self, dirichlet):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t", real=True)
        omega, T, theta = sympy.Rational(1, 2), 3, 2  # k = 2 on the reference spectrum
        exact = sympy.integrate(
            sympy.exp(sympy.I * (omega + theta) * t) - sympy.exp(sympy.I * (omega - theta) * t),
            (t, 0, T),
        )
        got = denominators(dirichlet.frequency(2), ProblemClock(3.0, 0.5))[0]
        assert got == pytest.approx(complex(exact.evalf(20)), abs=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(
        omega=st.floats(-5.0, 5.0),
        T=st.floats(0.1, 20.0),
        k=st.integers(1, 100),
    )
    def test_conjugate_weight_preserves_magnitude(self, omega, T, k):
        from specwave import DirichletLaplacian1D

        spectrum = DirichletLaplacian1D()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plus = denominators(spectrum.frequency(k), ProblemClock(T, omega))[0]
            minus = denominators(spectrum.frequency(k), ProblemClock(T, -omega))[0]
        assert abs(plus) == pytest.approx(abs(minus), rel=1e-9, abs=1e-12)


class TestDenominatorViaF:
    def test_agrees_on_generic_modes(self, dirichlet):
        clock = ProblemClock(5.0, 0.01)
        for k in (1, 7, 100, 500):
            d = denominators(dirichlet.frequency(k), clock)[0]
            dv = denominator_via_f(k, dirichlet, clock)
            assert abs(dv - d) < 1e-10 * (1 + abs(d))

    def test_numerator_vanishes_at_origin(self):
        clock = ProblemClock(5.0, 0.3)
        assert resonance_numerator(0.0, clock) == pytest.approx(0.0, abs=1e-15)

    def test_matches_quadrature(self, dirichlet):
        clock = ProblemClock(5.0, 0.01)
        expected = quad_phi(0.01 + 1.0, 5.0) - quad_phi(0.01 - 1.0, 5.0)
        assert denominator_via_f(1, dirichlet, clock) == pytest.approx(expected, abs=1e-10)

    def test_refuses_near_resonance(self, dirichlet):
        clock = ProblemClock(5.0, 1.0 - 1e-4)
        with pytest.raises(ValueError, match="degenerates"):
            denominator_via_f(1, dirichlet, clock)


class TestClassify:
    def test_exact_resonance(self, dirichlet):
        code = z_diagnostic(3, dirichlet, ProblemClock(1.0, 3.0)).codes[2]
        assert LABELS[code] == "resonant(theta=+omega)"

    def test_negative_resonance(self, dirichlet):
        code = z_diagnostic(3, dirichlet, ProblemClock(1.0, -3.0)).codes[2]
        assert LABELS[code] == "resonant(theta=-omega)"

    def test_phase_coincidence(self):
        # (theta - omega) T = 2 pi exactly
        spectrum = TabulatedSpectrum(eigenvalues=(1.5**2,))
        code = z_diagnostic(1, spectrum, ProblemClock(2 * math.pi, 0.5)).codes[0]
        assert LABELS[code] == "phase-matched(phase=+omega)"

    def test_phase_coincidence_conjugate_branch(self):
        # (theta + omega) T = 2 pi exactly
        spectrum = TabulatedSpectrum(eigenvalues=(0.75**2,))
        code = z_diagnostic(1, spectrum, ProblemClock(2 * math.pi, 0.25)).codes[0]
        assert LABELS[code] == "phase-matched(phase=-omega)"

    def test_generic_for_the_reference_clock(self, dirichlet):
        clock = ProblemClock(1.0, 0.5)
        codes = z_diagnostic(500, dirichlet, clock).codes
        assert all(LABELS[c] == "generic" for c in codes)

    def test_classes_exhaustive_and_exclusive(self, dirichlet):
        # one code per mode, each naming exactly one entry of the class table
        clock = ProblemClock(5.0, 0.37)
        report = z_diagnostic(200, dirichlet, clock)
        assert report.codes.shape == (200,) and report.codes.dtype == np.int8
        assert set(report.codes.tolist()) <= set(range(len(LABELS)))


def reference_code(theta, omega, T, tol):
    """Scalar reference: the four band tests, first hit wins, as an index into LABELS."""
    if abs(theta - omega) <= tol:
        return 0
    if abs(theta + omega) <= tol:
        return 1
    if phase_distance((theta - omega) * T) <= tol * T:
        return 2
    if phase_distance((theta + omega) * T) <= tol * T:
        return 3
    return 4


@settings(max_examples=300, deadline=None)
@given(
    omega=st.one_of(st.just(0.0), st.floats(-50.0, 50.0)),
    T=st.floats(0.1, 100.0),
    free=st.lists(st.floats(-1e3, 1e3), max_size=5),
    n=st.integers(-20, 20),
    tol=st.sampled_from([CLASSIFY_TOL, 1e-6, 0.0]),
)
def test_classify_codes_match_scalar_rule(omega, T, free, n, tol):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # near-inadmissible clocks are fine here
        clock = ProblemClock(T, omega)
    shift = TWO_PI * n / T
    # theta on each band, on a band edge, and on two bands at once: theta = omega
    # also has (theta - omega) T = 0, and at omega = 0 every band holds
    thetas = np.array([
        omega, -omega, omega + shift, -omega + shift, omega + tol, -omega - tol,
        omega + 2 * tol, omega + shift + tol, *free,
    ])
    codes = _classify_codes(thetas, clock, tol)
    assert codes.dtype == np.int8
    assert codes.tolist() == [reference_code(float(t), omega, T, tol) for t in thetas]
    assert codes[0] == 0
    # one mode alone gets the code it gets among others
    assert all(int(_classify_codes(t, clock, tol)) == c for t, c in zip(thetas, codes))


class TestZDiagnostic:
    @pytest.mark.parametrize("cell", sorted(Z500))
    def test_regression_values(self, dirichlet, cell):
        report = z_diagnostic(500, dirichlet, ProblemClock(*cell))
        assert report.z == pytest.approx(Z500[cell], rel=1e-12)

    def test_argmin_is_consistent(self, dirichlet):
        report = z_diagnostic(500, dirichlet, ProblemClock(5.0, 0.0))
        k = report.argmin_mode
        assert report.scaled[k - 1] == report.z
        assert k == 142

    def test_running_min_nonincreasing(self, dirichlet):
        report = z_diagnostic(300, dirichlet, ProblemClock(7.3, 0.02))
        zs = report.running_min()
        assert np.all(np.diff(zs) <= 0)
        assert zs[-1] == report.z

    def test_separation_floor_persists(self, dirichlet):
        # with omega != 0 the floor does not erode as more modes are added
        clock = ProblemClock(5.0, 0.01)
        z500 = z_diagnostic(500, dirichlet, clock).z
        z10k = z_diagnostic(10_000, dirichlet, clock).z
        assert z10k >= 0.5 * z500

    def test_small_m_and_validation(self, dirichlet):
        clock = ProblemClock(5.0, 0.0)
        report = z_diagnostic(1, dirichlet, clock)
        assert report.z == pytest.approx(4.0 * (1 - math.cos(5.0)), rel=1e-12)
        with pytest.raises(ValueError):
            z_diagnostic(0, dirichlet, clock)


@settings(max_examples=50, deadline=None)
@given(x=st.floats(-1e6, 1e6))
def test_phase_distance_bounds(x):
    d = float(phase_distance(x))
    assert 0.0 <= d <= math.pi + 1e-9
    assert phase_distance(x + 2 * math.pi) == pytest.approx(d, abs=1e-6)
