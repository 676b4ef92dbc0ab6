import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

trapezoid = getattr(np, "trapezoid", None) or np.trapz  # numpy < 2.0 spells it trapz

from oracles import denominator_via_f, exact_phase_13_bit, integrate, resonance_numerator
from specwave import (
    ProblemClock,
    phi,
    z_diagnostic,
)
from specwave.basis import frequencies
from specwave.phase import (
    CLASSIFY_TOL,
    EXACT_PHASE_LIMIT,
    LABELS,
    TWO_PI,
    _classify_codes,
    _exact_phase,
    phase_distance,
)

# regression values from this implementation; the published ones are checked
# at 2% in the acceptance suite. The omega = 0 values are within 4e-16 of
# 50-digit mpmath
Z500 = {
    (5.0, 0.0): 3.6603248350147463e-09,
    (5.0, 0.01): 0.10017220548447142,
    (10.0, 0.0): 3.685921512182682e-09,
    (10.0, 0.01): 0.20010344759426493,
}


def mp_denominator(theta: float, omega: float, T: float) -> complex:
    """phi(omega + theta) - phi(omega - theta) at 50 digits from the given floats."""
    import mpmath

    with mpmath.workdps(50):
        theta, omega, T = mpmath.mpf(theta), mpmath.mpf(omega), mpmath.mpf(T)

        def mp_phi(mu):
            return T if mu == 0 else (mpmath.expj(mu * T) - 1) / (1j * mu)

        return complex(mp_phi(omega + theta) - mp_phi(omega - theta))


def quad_phi(mu: float, T: float, panels: int | None = None) -> complex:
    return integrate(panels or max(64, int(abs(mu) * T) + 1), lambda t: np.exp(1j * mu * t), 0.0, T)


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

    def test_machine_exact_at_small_arguments(self):
        # the half-angle form does not cancel: at |mu T| ~ 1e-4, where the
        # quotient (exp(i mu T) - 1)/(i mu) loses about 8 digits, it stays at
        # quadrature accuracy
        T = 2.0
        for muT in (0.99e-4, 1.01e-4, -1.01e-4):
            assert phi(muT / T, T) == pytest.approx(quad_phi(muT / T, T), abs=1e-14)

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

    def test_huge_horizon_rejected_without_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mu and mu\\*T must be finite"):
                phi(np.array([0.0, 100.0]), 1e307)
            with pytest.raises(ValueError, match="mu and mu\\*T must be finite"):
                z_diagnostic(100, ProblemClock(1e307, 0.0))
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
    def test_zero_weight_closed_form(self):
        # omega = 0: |d_k| = 2 (1 - cos(k T)) / k, by direct integration
        for T in (1.0, 5.0, 9.3):
            clock = ProblemClock(T, 0.0)
            for k in (1, 2, 5, 40):
                expected = 2.0 * (1 - math.cos(k * T)) / k
                d = z_diagnostic(k, clock).values[k - 1]
                assert abs(d) == pytest.approx(expected, abs=1e-13)

    def test_resonant_mode_solvable(self):
        # theta = omega: d = phi(2 omega) - T, nonzero for admissible clocks
        clock = ProblemClock(1.0, 3.0)
        d = z_diagnostic(3, clock).values[2]
        expected = phi(6.0, 1.0) - 1.0
        assert d == pytest.approx(expected, abs=1e-14)
        assert abs(d) > 0.1

    def test_matches_trapezoid_quadrature(self):
        clock = ProblemClock(1.0, 0.5)
        t = np.linspace(0.0, 1.0, 100001)
        integrand = np.exp(1j * (0.5 + 1.0) * t) - np.exp(1j * (0.5 - 1.0) * t)
        assert z_diagnostic(1, clock).values[0] == pytest.approx(
            complex(trapezoid(integrand, t)), abs=1e-10
        )

    def test_matches_symbolic_integration(self):
        sympy = pytest.importorskip("sympy")
        t = sympy.symbols("t", real=True)
        omega, T, theta = sympy.Rational(1, 2), 3, 2  # mode k = 2, theta_2 = 2
        exact = sympy.integrate(
            sympy.exp(sympy.I * (omega + theta) * t) - sympy.exp(sympy.I * (omega - theta) * t),
            (t, 0, T),
        )
        got = z_diagnostic(2, ProblemClock(3.0, 0.5)).values[1]
        assert got == pytest.approx(complex(exact.evalf(20)), abs=1e-14)

    @settings(max_examples=50, deadline=None)
    @given(
        omega=st.floats(-5.0, 5.0),
        T=st.floats(0.1, 20.0),
        k=st.integers(1, 100),
    )
    def test_conjugate_weight_preserves_magnitude(self, omega, T, k):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            plus = z_diagnostic(k, ProblemClock(T, omega)).values[k - 1]
            minus = z_diagnostic(k, ProblemClock(T, -omega)).values[k - 1]
        assert abs(plus) == pytest.approx(abs(minus), rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("T", [5.0, 10.0])
    def test_matches_mpmath_without_weight(self, T):
        # omega = 0 cancels hardest: phi(theta) - phi(-theta) = 4i sin^2(theta T/2)/theta,
        # about 1e-11 at the near-resonant modes k = 142 (T = 5) and k = 71 (T = 10)
        pytest.importorskip("mpmath")
        ks = np.unique(np.r_[np.arange(1, 2001, 10), 71, 142])
        theta = frequencies(2000)[ks - 1]
        got = z_diagnostic(2000, ProblemClock(T, 0.0)).values[ks - 1]
        want = np.array([mp_denominator(t, 0.0, T) for t in theta])
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


class TestDenominatorViaF:
    def test_agrees_on_generic_modes(self):
        clock = ProblemClock(5.0, 0.01)
        for k in (1, 7, 100, 500):
            d = z_diagnostic(k, clock).values[k - 1]
            dv = denominator_via_f(k, clock)
            assert abs(dv - d) < 1e-10 * (1 + abs(d))

    def test_numerator_vanishes_at_origin(self):
        clock = ProblemClock(5.0, 0.3)
        assert resonance_numerator(0.0, clock) == pytest.approx(0.0, abs=1e-15)

    def test_matches_quadrature(self):
        clock = ProblemClock(5.0, 0.01)
        expected = quad_phi(0.01 + 1.0, 5.0) - quad_phi(0.01 - 1.0, 5.0)
        assert denominator_via_f(1, clock) == pytest.approx(expected, abs=1e-10)

    def test_refuses_near_resonance(self):
        clock = ProblemClock(5.0, 1.0 - 1e-4)
        with pytest.raises(ValueError, match="degenerates"):
            denominator_via_f(1, clock)


class TestClassify:
    def test_exact_resonance(self):
        code = z_diagnostic(3, ProblemClock(1.0, 3.0)).codes[2]
        assert LABELS[code] == "resonant(theta=+omega)"

    def test_negative_resonance(self):
        code = z_diagnostic(3, ProblemClock(1.0, -3.0)).codes[2]
        assert LABELS[code] == "resonant(theta=-omega)"

    def test_phase_coincidence(self):
        # (theta - omega) T = 2 pi exactly
        code = _classify_codes(np.array([1.5]), ProblemClock(2 * math.pi, 0.5), CLASSIFY_TOL)[0]
        assert LABELS[code] == "phase-matched(phase=+omega)"

    def test_phase_coincidence_conjugate_branch(self):
        # (theta + omega) T = 2 pi exactly
        code = _classify_codes(np.array([0.75]), ProblemClock(2 * math.pi, 0.25), CLASSIFY_TOL)[0]
        assert LABELS[code] == "phase-matched(phase=-omega)"

    def test_generic_for_the_reference_clock(self):
        clock = ProblemClock(1.0, 0.5)
        codes = z_diagnostic(500, clock).codes
        assert all(LABELS[c] == "generic" for c in codes)

    def test_classes_exhaustive_and_exclusive(self):
        # one code per mode, each naming exactly one entry of the class table
        clock = ProblemClock(5.0, 0.37)
        report = z_diagnostic(200, clock)
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
    def test_regression_values(self, cell):
        report = z_diagnostic(500, ProblemClock(*cell))
        assert report.z == pytest.approx(Z500[cell], rel=1e-12, abs=0)

    def test_argmin_is_consistent(self):
        report = z_diagnostic(500, ProblemClock(5.0, 0.0))
        k = report.argmin_mode
        assert report.scaled[k - 1] == report.z
        assert k == 142

    def test_running_min_nonincreasing(self):
        report = z_diagnostic(300, ProblemClock(7.3, 0.02))
        zs = report.running_min()
        assert np.all(np.diff(zs) <= 0)
        assert zs[-1] == report.z

    def test_separation_floor_persists(self):
        # with omega != 0 the floor does not erode as more modes are added
        clock = ProblemClock(5.0, 0.01)
        z500 = z_diagnostic(500, clock).z
        z10k = z_diagnostic(10_000, clock).z
        assert z10k >= 0.5 * z500

    def test_small_m_and_validation(self):
        clock = ProblemClock(5.0, 0.0)
        report = z_diagnostic(1, clock)
        assert report.z == pytest.approx(4.0 * (1 - math.cos(5.0)), rel=1e-12)
        with pytest.raises(ValueError):
            z_diagnostic(0, clock)

    @pytest.mark.parametrize("omega", [0.0, -0.5])
    def test_refuses_phases_past_exact_reduction(self, omega):
        # (|omega| + theta_8) T reaches 2**43 exactly at T = 2**43 / (8 + |omega|)
        T = EXACT_PHASE_LIMIT / (8.0 + abs(omega))
        with pytest.raises(ValueError, match="2\\*\\*43"):
            z_diagnostic(8, ProblemClock(T, omega))
        assert np.isfinite(z_diagnostic(8, ProblemClock(np.nextafter(T, 0.0), omega)).values).all()


@settings(max_examples=50, deadline=None)
@given(x=st.floats(-1e6, 1e6))
def test_phase_distance_bounds(x):
    d = float(phase_distance(x))
    assert 0.0 <= d <= math.pi + 1e-9
    assert phase_distance(x + 2 * math.pi) == pytest.approx(d, abs=1e-6)


class TestExactPhase:
    @staticmethod
    def circle_error(got, a, b):
        """|got - a b| mod 2 pi against 50-digit mpmath, for floats a and b."""
        import mpmath

        with mpmath.workdps(50):
            d = mpmath.mpf(float(got)) - mpmath.mpf(float(a)) * mpmath.mpf(float(b))
            return abs(float(d - 2 * mpmath.pi * mpmath.nint(d / (2 * mpmath.pi))))

    def test_matches_mpmath_across_the_domain(self, rng):
        pytest.importorskip("mpmath")
        # products of either sign from 1e-9 up to the limit: float by float, and a
        # float step times an integer count, as the chirp and block phases form them
        sizes = rng.choice([-1.0, 1.0], 400) * 2.0 ** rng.uniform(-30, 43, 400)
        a = 2.0 ** rng.uniform(-20, 20, 400)
        a[:200] = rng.integers(1, 1 << 40, 200).astype(float)
        b = sizes / a
        a = np.append(a, [0.025, 1e9, 5.0 / 1000, -7.3, math.pi, 0.1])
        b = np.append(b, [(1 << 40) - 1, 4397.0, 2.0 * 101_000**2, 6.0e11, 1.0, (1 << 46) - 3])
        keep = np.abs(a * b) < EXACT_PHASE_LIMIT
        got = _exact_phase(b[keep], a[keep])
        assert np.all(np.abs(got) <= math.pi + 1e-15)
        worst = max(self.circle_error(g, x, y) for g, x, y in zip(got, a[keep], b[keep]))
        assert worst <= 2 * np.finfo(float).eps

    def test_bit_identical_to_13_bit_pieces_below_2_42(self, rng):
        # splitting the leading piece 0x1.921p+2 in two leaves every partial sum
        # as it was, so products below 2**42 reduce exactly as before, near
        # multiples of 2 pi (where the pieces cancel most) included
        n = 50_000
        sizes = rng.choice([-1.0, 1.0], n) * 2.0 ** rng.uniform(-30, 42, n)
        a = 2.0 ** rng.uniform(-20, 20, n)
        a[: n // 2] = rng.integers(1, 1 << 40, n // 2).astype(float)
        q = rng.integers(1, int(2.0**42 / TWO_PI), n).astype(float)
        near = q * TWO_PI + rng.uniform(-1e-3, 1e-3, n)
        a = np.concatenate([a, 2.0 ** rng.integers(-10, 10, n).astype(float)])
        b = np.concatenate([sizes, near]) / a
        keep = np.abs(a * b) < 2.0**42
        assert keep.sum() > 0.99 * a.size
        got, want = _exact_phase(a[keep], b[keep]), exact_phase_13_bit(a[keep], b[keep])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_rounding_the_product_first_would_lose_digits(self):
        # fl(a b) is off by up to half an ulp of 4.4e11, 3e-5; the exact phase is not
        a, b = 0.1, float((1 << 42) - 3)
        assert self.circle_error(math.remainder(a * b, TWO_PI), a, b) > 1e-6
        assert self.circle_error(_exact_phase(a, b), a, b) <= 2 * np.finfo(float).eps

    @pytest.mark.parametrize("a,b", [
        (1.0, EXACT_PHASE_LIMIT), (-2.0, 2.0**42), (2.0**997, 2.0**-997), (math.nan, 1.0), (math.inf, 0.5),
    ])
    def test_refuses_beyond_the_domain(self, a, b):
        with pytest.raises(ValueError, match="exact reduction"):
            _exact_phase(np.array([1.0, a]), b)
