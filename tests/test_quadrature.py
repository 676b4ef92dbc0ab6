import math
import tracemalloc

import numpy as np
import pytest

from oracles import integrate
from specwave import GaussLegendre, quadrature


def test_polynomials_integrated_exactly():
    # order-6 Gauss is exact through degree 11 on each panel
    rule = GaussLegendre(panels=4, order=6)
    for p in range(12):
        value = integrate(rule, lambda x: x**p, 0.0, 2.0)
        assert value == pytest.approx(2.0 ** (p + 1) / (p + 1), rel=1e-13)


def test_sine_closed_form():
    assert integrate(GaussLegendre(), np.sin, 0.0, np.pi) == pytest.approx(2.0, rel=1e-13)


def test_complex_integrand():
    value = integrate(GaussLegendre(), lambda t: np.exp(1j * t), 0.0, np.pi)
    assert value == pytest.approx(2j, abs=1e-13)


def test_nodes_and_weights_structure():
    rule = GaussLegendre(panels=16, order=4)
    nodes, weights = rule.nodes_weights(-1.0, 3.0)
    assert nodes.size == weights.size == rule.panels * rule.order == 64
    assert np.all(weights > 0)
    assert weights.sum() == pytest.approx(4.0, rel=1e-14)
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > -1.0 and nodes[-1] < 3.0


def test_scalar_integrand_fallback():
    rule = GaussLegendre(panels=2, order=5)
    value = integrate(rule, lambda x: math.cos(float(x)), 0.0, 1.0)
    assert value == pytest.approx(math.sin(1.0), rel=1e-12)


def test_non_finite_samples_rejected():
    rule = GaussLegendre(panels=2, order=2)
    with pytest.raises(ValueError, match="non-finite"):
        integrate(rule, lambda x: np.full_like(x, np.nan), 0.0, 1.0)


def test_degenerate_rule_rejected():
    with pytest.raises(ValueError):
        GaussLegendre(panels=0)
    with pytest.raises(ValueError):
        GaussLegendre(order=0)


def _dense_exp_moments(rule, mu, a, b):
    nodes, weights = rule.nodes_weights(a, b)
    return np.exp(1j * np.multiply.outer(mu, nodes)) @ weights


def test_exp_moments_match_dense_sum():
    # the rule verification sizes for N = 1000, T = 5, omega = 0.01
    T, omega, theta_n = 5.0, 0.01, 1000.0
    rule = GaussLegendre(panels=1251, order=8)
    step = quadrature._BLOCK_ELEMENTS // rule.panels
    special = [0.0, 1e-12, -3e-7, 2.5e-3, 0.37,
               theta_n + omega, theta_n - omega, -theta_n + omega, -theta_n - omega]
    rng = np.random.default_rng(7)
    mu = np.concatenate([special, rng.uniform(-theta_n - 1, theta_n + 1, 2 * step + 5 - len(special))])
    assert mu.size % step != 0 and mu.size > 2 * step
    got = rule.exp_moments(mu, 0.0, T)
    want = _dense_exp_moments(rule, mu, 0.0, T)
    _, weights = rule.nodes_weights(0.0, T)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(weights).sum()
    # any shape of frequencies is kept
    assert np.array_equal(rule.exp_moments(mu[:6].reshape(2, 3), 0.0, T), got[:6].reshape(2, 3))


@pytest.mark.parametrize("mu", [0.0, 0.5, -3.7, 40.0])
def test_exp_moments_against_mpmath(mu):
    mpmath = pytest.importorskip("mpmath")
    a, b = 0.25, 5.0
    with mpmath.workdps(30):
        exact = complex(mpmath.quad(lambda t: mpmath.expj(mu * t), [a, b]))
    got = GaussLegendre().exp_moments(np.array([mu]), a, b)[0]
    assert abs(got - exact) <= 1e-13 * (b - a)


@pytest.mark.parametrize("mu", [0.0, 0.5, -3.7, 40.0])
def test_exp_moments_remainder_group(monkeypatch, mu):
    # 70 panels form 8 groups of isqrt(70) = 8 and a remainder group of 6
    rule = GaussLegendre(panels=70, order=8)
    assert rule.panels % math.isqrt(rule.panels) != 0
    a, b = 0.25, 5.0
    # several blocks, the last one partial
    monkeypatch.setattr(quadrature, "_BLOCK_ELEMENTS", 3 * (9 + 8 + 8))
    freqs = np.array([mu, -mu, 2 * mu + 0.1, 0.0, 7.3, -19.0, 40.0])
    got = rule.exp_moments(freqs, a, b)
    _, weights = rule.nodes_weights(a, b)
    want = _dense_exp_moments(rule, freqs, a, b)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(weights).sum()
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        exact = complex(mpmath.quad(lambda t: mpmath.expj(mu * t), [a, b]))
    assert abs(got[0] - exact) <= 1e-13 * (b - a)


def test_exp_moments_memory_follows_the_square_root_of_the_panels():
    # the time rule of `solve --T 1e12 --omega 0.3 --N 3`: all panel edges would
    # take 6 TiB, the 2 isqrt(panels) midpoints read take 14 MiB
    rule = GaussLegendre(panels=825_000_000_000, order=8)
    tracemalloc.start()
    try:
        value = rule.exp_moments(np.array([0.0]), 0.0, 1e12)[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(1e12, rel=1e-12)
    assert peak < 64 * 2**20
