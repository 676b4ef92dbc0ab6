import math
import tracemalloc

import numpy as np
import pytest

from oracles import integrate
from specwave import GaussLegendre, project
from specwave.quadrature import _NODES, _WEIGHTS


def test_polynomials_integrated_exactly():
    # 8-node Gauss is exact through degree 15 on each panel
    rule = GaussLegendre(panels=4)
    for p in range(16):
        value = integrate(rule, lambda x: x**p, 0.0, 2.0)
        assert value == pytest.approx(2.0 ** (p + 1) / (p + 1), rel=1e-13)


def test_reference_rule_is_leggauss_written_out():
    x, w = _NODES, _WEIGHTS
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    # exact on [-1, 1] for every monomial through degree 15, to the rounding of
    # leggauss's weights: up to 58 ulps off the true rule's, they leave 1.2e-15 on x^4
    for p in range(16):
        assert abs(w @ x**p - (2.0 / (p + 1) if p % 2 == 0 else 0.0)) <= 6 * np.finfo(float).eps
    want_x, want_w = np.polynomial.legendre.leggauss(8)
    assert np.all(np.abs(x - want_x) <= np.spacing(np.abs(want_x)))
    assert np.all(np.abs(w - want_w) <= np.spacing(want_w))


def test_sine_closed_form():
    assert integrate(GaussLegendre(), np.sin, 0.0, np.pi) == pytest.approx(2.0, rel=1e-13)


def test_complex_integrand():
    value = integrate(GaussLegendre(), lambda t: np.exp(1j * t), 0.0, np.pi)
    assert value == pytest.approx(2j, abs=1e-13)


def test_nodes_and_weights_structure():
    rule = GaussLegendre(panels=8)
    nodes, weights = rule.nodes_weights(-1.0, 3.0)
    assert nodes.size == weights.size == rule.panels * rule.order == 64
    assert np.all(weights > 0)
    assert weights.sum() == pytest.approx(4.0, rel=1e-14)
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > -1.0 and nodes[-1] < 3.0


def test_non_finite_samples_rejected():
    # project evaluates its integrand once, on all the nodes, and checks it there
    with pytest.raises(ValueError, match="non-finite"):
        project(lambda x: np.full_like(x, np.nan), 4, GaussLegendre(panels=2))


def test_degenerate_rule_rejected():
    with pytest.raises(ValueError):
        GaussLegendre(panels=0)
    with pytest.raises(TypeError):
        GaussLegendre(order=8)  # one 8-node reference rule: not a parameter


def _dense_exp_moments(rule, mu, a, b):
    nodes, weights = rule.nodes_weights(a, b)
    return np.exp(1j * np.multiply.outer(mu, nodes)) @ weights


def test_exp_moments_match_dense_sum():
    # the rule verification sizes for N = 1000, T = 5, omega = 0.01
    T, omega, theta_n = 5.0, 0.01, 1000.0
    rule = GaussLegendre(panels=1251)
    special = [0.0, 1e-12, -3e-7, 2.5e-3, 0.37,
               theta_n + omega, theta_n - omega, -theta_n + omega, -theta_n - omega]
    rng = np.random.default_rng(7)
    mu = np.concatenate([special, rng.uniform(-theta_n - 1, theta_n + 1, 1000)])
    cases = [
        (rule, mu, 0.0, T),
        # 70 panels, a count that is not a square, on an offset interval
        (GaussLegendre(panels=70),
         np.array([0.0, 0.1, 0.5, -0.5, 1.1, 3.7, -3.7, -7.3, 7.3, -19.0, 40.0, -40.0]), 0.25, 5.0),
        # the projection rule for N = 100000: the FFT sums down its panels need one
        # half-width, and differences of rounded edges would spread it by 4.8e-12
        (GaussLegendre(panels=62_500), np.array([0.0, 1.0, -2.0, 317.5, 62_500.0, -99_000.0]), 0.0, math.pi),
    ]
    for case_rule, freqs, a, b in cases:
        got = case_rule.exp_moments(freqs, a, b)
        want = _dense_exp_moments(case_rule, freqs, a, b)
        _, weights = case_rule.nodes_weights(a, b)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(weights).sum()
        panels = weights.reshape(case_rule.panels, case_rule.order)
        assert np.array_equal(panels, np.broadcast_to(panels[0], panels.shape))
        assert abs(weights.sum() - (b - a)) <= 4 * np.spacing(b - a)
    # any shape of frequencies is kept
    got = rule.exp_moments(mu, 0.0, T)
    assert np.array_equal(rule.exp_moments(mu[:6].reshape(2, 3), 0.0, T), got[:6].reshape(2, 3))


@pytest.mark.parametrize("mu", [0.0, 0.5, -3.7, 40.0])
def test_exp_moments_against_mpmath(mu):
    mpmath = pytest.importorskip("mpmath")
    a, b = 0.25, 5.0
    with mpmath.workdps(30):
        exact = complex(mpmath.quad(lambda t: mpmath.expj(mu * t), [a, b]))
    for rule in [GaussLegendre(), GaussLegendre(panels=70)]:
        got = rule.exp_moments(np.array([mu]), a, b)[0]
        assert abs(got - exact) <= 1e-13 * (b - a)


def test_exp_moments_rounding_at_scale():
    # the rule verification sizes for N = 100000, T = 5, omega = 0.07: against
    # the same rule's sum at 40 digits, its midpoint series in the other form
    # e^{i mu h} (e^{2i mu h P} - 1) / (e^{2i mu h} - 1)
    mpmath = pytest.importorskip("mpmath")
    T, omega, P = 5.0, 0.07, 125_001
    rule = GaussLegendre(panels=P)
    k = np.random.default_rng(3).integers(1, 100_001, 24).astype(float)
    mu = np.concatenate([omega - k, omega + k, [omega - 100_000, omega + 100_000]])
    got = rule.exp_moments(mu, 0.0, T)
    x, w = np.polynomial.legendre.leggauss(8)
    with mpmath.workdps(40):
        h = mpmath.mpf(T) / (2 * P)
        for m, value in zip(mu, got):
            m = mpmath.mpf(m)
            series = mpmath.expj(m * h) * (mpmath.expj(2 * m * h * P) - 1) / (mpmath.expj(2 * m * h) - 1)
            local = mpmath.fsum(h * mpmath.mpf(wi) * mpmath.expj(m * h * mpmath.mpf(xi))
                                for xi, wi in zip(x, w))
            assert abs(complex(series * local) - value) <= 4e-15


def test_exp_moments_reject_unresolved_frequencies():
    # |mu| h = 80.1 * 4.75 / 140 = 2.72 on 70 panels over [0.25, 5]
    rule = GaussLegendre(panels=70)
    rule.exp_moments(np.array([-73.0, 73.0]), 0.25, 5.0)  # 2.48: inside
    with pytest.raises(ValueError, match="raise panels"):
        rule.exp_moments(np.array([0.0, 80.1]), 0.25, 5.0)
    with pytest.raises(ValueError, match="raise panels"):
        GaussLegendre().exp_moments(np.array([[1.0], [-1e3]]), 0.0, 5.0)


def test_exp_moments_memory_independent_of_the_panels():
    # the time rule of `solve --T 1e12 --omega 0.3 --N 3`: all panel edges would
    # take 6 TiB; the closed form reads no midpoint at all
    rule = GaussLegendre(panels=825_000_000_000)
    tracemalloc.start()
    try:
        value = rule.exp_moments(np.array([0.0]), 0.0, 1e12)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(1e12, rel=1e-12)
    assert peak < 64 * 2**20
