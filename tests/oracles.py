"""Reference computations the tests check specwave against; no subcommand runs them.

- `integrate(rule, f, a, b)`: a Gauss-Legendre rule applied to a callable, from
  the rule's own nodes and weights. Used by `test_quadrature`, `test_basis`,
  `test_phase`, `test_timeavg` and `test_cauchy`.
- `resonance_numerator` and `denominator_via_f`: the closed form
  d_k = 2 f(theta_k) / (i (omega^2 - theta_k^2)), a cross-check of
  `phase.denominators` that never calls phi. Used by `test_phase` and
  acceptance criterion 8.
- `norm_trajectory(solution, q, ts)`: the pointwise H^q norm of u (or du/dt)
  from one e^{i theta_k t} per mode and time, the reference for the factored
  `SeriesSolution.norm_trajectories`. Used by `test_solution`.
- `mode_integrals` and `weak_identity_residual`: closed-form antiderivatives
  of each mode, checking the integrated oscillator equation
  y'(t) - y'(s) = -lambda int_s^t y dr. Used by `test_cauchy`,
  `test_verification` and acceptance criterion 5.
"""

import numpy as np

from specwave.basis import SOBOLEV_ORDERS
from specwave.quadrature import sample

# denominator_via_f degenerates within this distance of theta = +/- omega
F_FORM_MIN_GAP = 1e-3


def integrate(rule, f, a: float, b: float):
    """int_a^b f by `rule`: its weights against f sampled on its nodes."""
    nodes, weights = rule.nodes_weights(a, b)
    return weights @ sample(f, nodes)


def resonance_numerator(x, clock):
    """f(x) = exp(i*omega*T) * (i*omega*sin(xT) - x*cos(xT)) + x.

    The zeros of f among the mode frequencies are exactly the zeros of the
    denominator, which is why f drives the generic-mode closed form.
    """
    x = np.asarray(x, dtype=float)
    w = np.exp(1j * clock.omega * clock.T)
    return w * (1j * clock.omega * np.sin(x * clock.T) - x * np.cos(x * clock.T)) + x


def denominator_via_f(k, spectrum, clock):
    """Closed form d_k = 2 f(theta_k) / (i (omega^2 - theta_k^2)) for generic modes.

    Refuses within F_FORM_MIN_GAP of the resonance points theta_k = +/- omega,
    where the division degenerates.
    """
    theta = np.asarray(spectrum.frequency(k), dtype=float)
    gap = np.minimum(np.abs(theta - clock.omega), np.abs(theta + clock.omega))
    if np.any(gap <= F_FORM_MIN_GAP):
        raise ValueError(
            f"theta within {F_FORM_MIN_GAP:g} of +/-omega: closed form degenerates, use denominators()"
        )
    value = 2.0 * resonance_numerator(theta, clock) / (1j * (clock.omega**2 - theta**2))
    if np.asarray(k).ndim == 0:
        return complex(value)
    return value


def norm_trajectory(solution, q: int, ts, derivative: bool = False) -> np.ndarray:
    """H^q norm of u (or du/dt) at each time in `ts`, from coefficients alone."""
    if q not in SOBOLEV_ORDERS:
        raise ValueError(f"unsupported Sobolev order q={q}; expected one of {SOBOLEV_ORDERS}")
    ts = np.asarray(ts, dtype=float)
    y = solution.mode_derivatives(ts) if derivative else solution.mode_values(ts)
    return np.sqrt(solution.eigenvalues**q @ np.abs(y) ** 2)


def mode_integrals(solution, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """int_s^t y_k(r) dr in closed form for every mode and pair; shape (N, len(s))."""
    w = 1j * solution.thetas[:, None]
    es, et = np.exp(w * s), np.exp(w * t)
    C, D = solution.C[:, None], solution.D[:, None]
    return C * (np.conj(et) - np.conj(es)) / (-w) + D * (et - es) / w


def weak_identity_residual(solution, pairs) -> float:
    """max over modes and (s, t) pairs of |y'(t) - y'(s) + lambda int_s^t y dr|."""
    s, t = np.asarray(pairs, dtype=float).reshape(-1, 2).T
    lhs = solution.mode_derivatives(t) - solution.mode_derivatives(s)
    rhs = -solution.eigenvalues[:, None] * mode_integrals(solution, s, t)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))
