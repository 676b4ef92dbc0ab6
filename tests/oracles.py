"""Reference computations the tests check specwave against; no subcommand runs them.

- `integrate(panels, f, a, b)`: the Gauss-Legendre rule of `panels` panels applied
  to a callable, from the rule's own nodes and weights. Used by `test_quadrature`, `test_basis`,
  `test_phase`, `test_timeavg` and `test_cauchy`.
- `eigenfunction(k, x)`: v_k(x) = sqrt(2/pi) sin(kx), one row per mode.
  Used by `test_basis` and `test_solution`.
- `eigenfunction_matrix(n_modes, x)`: the dense mode x point basis
  v_k(x_j), the reference for the FFT projection (`test_basis`) and for
  `field` below.
- `resonance_numerator` and `denominator_via_f`: the closed form
  d_k = 2 f(k) / (i (omega^2 - k^2)) at theta_k = k, a cross-check of
  `phase.z_diagnostic` that never calls phi. Used by `test_phase` and
  acceptance criterion 8.
- `mode_values(solution, t)`, `mode_derivatives(solution, t)` and
  `field(solution, xs, ts)`: y_k(t), y_k'(t) and u(x, t) at any times in
  [0, T], from one e^{i theta_k t} per mode and time; the dense reference for
  the factored phase tables of `SeriesSolution`. Used throughout.
- `mode_energy_drift(solution)`: each mode's relative spread of
  |y'|^2 + lambda |y|^2 over 1000 uniform times, from `mode_values` and
  `mode_derivatives`; a time-sampled energy check, which a solve error in C
  or D cannot move, unlike `verification.mode_energy_data_relative`. Used by
  `test_verification` and `test_solution`.
- `norm_trajectory(solution, q, ts)`: the pointwise H^q norm of u (or du/dt)
  from `mode_values`/`mode_derivatives`, the reference for
  `SeriesSolution.norm_trajectories`. Used by `test_solution`.
- `exact_phase_13_bit(a, b)`: the exact phase reduction as it stood with
  2 pi in four 13-bit pieces, exact for products below 2^42; the frozen
  reference that `phase._exact_phase` must match bit for bit there. Used by
  `test_phase`.
- `initial_condition_relative(problem, solution)`: u(0) = a in coefficients,
  per mode at the coefficient scale. `solve_nonlocal` builds C = alpha - D,
  so this restates the solve; no subcommand gates it. Used by
  `test_verification` and acceptance criterion 4.
- `derivative_coefficients(solution)`: the coefficients of du/dt(0), the
  velocity datum of the Cauchy problem that a solution of the averaged problem
  also solves. Used by `test_cauchy`, `test_verification` and acceptance
  criteria 3 and 5.
- `mode_integrals` and `weak_identity_residual`: closed-form antiderivatives
  of each mode, checking the integrated oscillator equation
  y'(t) - y'(s) = -lambda int_s^t y dr. Used by `test_cauchy`,
  `test_verification` and acceptance criterion 5.
"""

import math

import numpy as np

from specwave.basis import SOBOLEV_ORDERS, SpectralVector
from specwave.quadrature import nodes_weights

# denominator_via_f degenerates within this distance of theta = +/- omega
F_FORM_MIN_GAP = 1e-3


def integrate(panels: int, f, a: float, b: float):
    """int_a^b f by the composite Gauss-Legendre rule of `panels` panels: its weights
    against f called once on its nodes (a constant broadcasts); shares no code with
    `basis.project`."""
    nodes, weights = nodes_weights(panels, a, b)
    return weights @ np.broadcast_to(f(nodes), nodes.shape)


def eigenfunction(k, x):
    """v_k(x) = sqrt(2/pi) sin(kx) at points x; for a 1-d array of modes, one row per mode.

    k is an int or an integer array of 1-based modes; anything else raises
    IndexError. The sqrt(2/pi) factor makes the eigenfunctions orthonormal in
    L2(0, pi).
    """
    k = np.asarray(k)
    if not np.issubdtype(k.dtype, np.integer):
        raise IndexError(f"mode index must be an integer, got dtype {k.dtype}")
    if k.size and int(k.min()) < 1:
        raise IndexError("mode indices start at 1")
    return math.sqrt(2.0 / math.pi) * np.sin(np.multiply.outer(k, np.asarray(x, dtype=float)))


def eigenfunction_matrix(n_modes: int, x) -> np.ndarray:
    """Matrix V with V[k-1, j] = v_k(x_j) for k = 1..n_modes."""
    return eigenfunction(np.arange(1, n_modes + 1), np.atleast_1d(np.asarray(x, dtype=float)))


def resonance_numerator(x, clock):
    """f(x) = exp(i*omega*T) * (i*omega*sin(xT) - x*cos(xT)) + x.

    The zeros of f among the mode frequencies are exactly the zeros of the
    denominator, which is why f drives the generic-mode closed form.
    """
    x = np.asarray(x, dtype=float)
    w = np.exp(1j * clock.omega * clock.T)
    return w * (1j * clock.omega * np.sin(x * clock.T) - x * np.cos(x * clock.T)) + x


def denominator_via_f(k, clock):
    """Closed form d_k = 2 f(theta_k) / (i (omega^2 - theta_k^2)) for generic modes k,
    theta_k = k.

    Refuses within F_FORM_MIN_GAP of the resonance points theta_k = +/- omega,
    where the division degenerates.
    """
    theta = np.asarray(k, dtype=float)
    gap = np.minimum(np.abs(theta - clock.omega), np.abs(theta + clock.omega))
    if np.any(gap <= F_FORM_MIN_GAP):
        raise ValueError(
            f"theta within {F_FORM_MIN_GAP:g} of +/-omega: closed form degenerates, use z_diagnostic()"
        )
    value = 2.0 * resonance_numerator(theta, clock) / (1j * (clock.omega**2 - theta**2))
    if np.asarray(k).ndim == 0:
        return complex(value)
    return value


def exact_phase_13_bit(a, b) -> np.ndarray:
    """a*b reduced mod 2 pi by Dekker's two-product and Cody-Waite with 2 pi in
    four 13-bit pieces and a tail, for |a*b| < 2**42; no domain check."""
    def split(x):
        c = 134217729.0 * x
        high = c - (c - x)
        return high, x - high

    pieces = [float.fromhex(h) for h in ("0x1.921p+2", "0x1.f6ap-11", "0x1.11p-24", "0x1.68cp-37")]
    tail = float.fromhex("0x1.1a62633145c07p-52")
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    p = a * b
    (a_high, a_low), (b_high, b_low) = split(a), split(b)
    e = ((a_high * b_high - p) + a_high * b_low + a_low * b_high) + a_low * b_low
    q = np.rint(p / (2.0 * np.pi))
    r = p
    for piece in pieces:
        r = r - q * piece
    return r + (e - q * tail)


def _modes(solution, t):
    """e^{i theta_k t} for all modes, shape (N,) + shape(t), and theta, C and D
    shaped to broadcast against it."""
    t = np.asarray(t, dtype=float)
    shape = (len(solution),) + (1,) * t.ndim
    ph = np.exp(1j * np.multiply.outer(solution.thetas, t))
    return ph, *(v.reshape(shape) for v in (solution.thetas, solution.C, solution.D))


def mode_values(solution, t) -> np.ndarray:
    """y_k(t) = C_k e^{-i theta_k t} + D_k e^{i theta_k t} for all modes; shape (N,) + shape(t)."""
    ph, _, C, D = _modes(solution, t)
    return C * np.conj(ph) + D * ph


def mode_derivatives(solution, t) -> np.ndarray:
    """y_k'(t) for all modes; shape (N,) + shape(t)."""
    ph, theta, C, D = _modes(solution, t)
    return (1j * theta) * (D * ph - C * np.conj(ph))


def mode_energy_drift(solution, time_points: int = 1000) -> np.ndarray:
    """Per-mode (max - min) / max of |y'|^2 + lambda |y|^2 over `time_points` uniform
    times in [0, T]; 0 for a mode with zero energy."""
    ts = np.linspace(0.0, solution.T, time_points)
    y, yp = mode_values(solution, ts), mode_derivatives(solution, ts)
    energy = np.abs(yp) ** 2 + solution.eigenvalues[:, None] * np.abs(y) ** 2
    top = energy.max(axis=1)
    return (top - energy.min(axis=1)) / np.where(top > 0, top, 1.0)


def field(solution, xs, ts) -> np.ndarray:
    """u sampled on a space-time grid; shape (len(xs), len(ts))."""
    basis = eigenfunction_matrix(len(solution), xs)
    return basis.T @ mode_values(solution, ts)


def norm_trajectory(solution, q: int, ts, derivative: bool = False) -> np.ndarray:
    """H^q norm of u (or du/dt) at each time in `ts`, from coefficients alone."""
    if q not in SOBOLEV_ORDERS:
        raise ValueError(f"unsupported Sobolev order q={q}; expected one of {SOBOLEV_ORDERS}")
    ts = np.asarray(ts, dtype=float)
    y = mode_derivatives(solution, ts) if derivative else mode_values(solution, ts)
    return np.sqrt(solution.eigenvalues**q @ np.abs(y) ** 2)


def initial_condition_relative(problem, solution) -> float:
    """max_k |(C_k + D_k) - alpha_k| / (1 + |C_k| + |D_k|).

    Scaled per mode: when |D_k| dwarfs |alpha_k| the best any binary64 solve
    can promise is agreement at the coefficient scale (~eps |D_k|), not at the
    scale of alpha itself.
    """
    diff = np.abs(solution.C + solution.D - problem.alpha.coefficients)
    scale = 1.0 + np.abs(solution.C) + np.abs(solution.D)
    return float(np.max(diff / scale))


def derivative_coefficients(solution) -> SpectralVector:
    """Coefficient vector of du/dt(0): component k is i theta_k (D_k - C_k)."""
    return SpectralVector(1j * solution.thetas * (solution.D - solution.C))


def mode_integrals(solution, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """int_s^t y_k(r) dr in closed form for every mode and pair; shape (N, len(s))."""
    w = 1j * solution.thetas[:, None]
    es, et = np.exp(w * s), np.exp(w * t)
    C, D = solution.C[:, None], solution.D[:, None]
    return C * (np.conj(et) - np.conj(es)) / (-w) + D * (et - es) / w


def weak_identity_residual(solution, pairs) -> float:
    """max over modes and (s, t) pairs of |y'(t) - y'(s) + lambda int_s^t y dr|."""
    s, t = np.asarray(pairs, dtype=float).reshape(-1, 2).T
    lhs = mode_derivatives(solution, t) - mode_derivatives(solution, s)
    rhs = -solution.eigenvalues[:, None] * mode_integrals(solution, s, t)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))
