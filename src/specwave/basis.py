"""The Dirichlet Laplacian on (0, pi), projection onto its eigenbasis, and
coefficient-space Sobolev norms.

Solutions are expanded over the orthonormal eigenfunctions v_k(x) =
sqrt(2/pi) sin(kx) of the second derivative on DOMAIN with zero boundary
values, eigenvalues -k^2, so lambda_k = theta_k^2 with theta_k = k. It is the
one operator specwave solves on: `frequencies` is the one place that states
theta_k = k, and the FFT projection here and the chirp-z evaluation in
`solution` both rest on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import _NODES, GaussLegendre

DOMAIN = (0.0, math.pi)

SOBOLEV_ORDERS = (0, 1, 2)


def frequencies(n_modes: int) -> np.ndarray:
    """theta_k = k for the modes k = 1..n_modes; lambda_k = theta_k^2."""
    return np.arange(1, n_modes + 1).astype(float)


@dataclass(frozen=True, eq=False)
class SpectralVector:
    """Finite complex coefficient vector against the eigenbasis, modes 1..len."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", c)

    def __len__(self) -> int:
        return self.coefficients.size

    def sobolev_norm(self, q: int) -> float:
        """(sum_k lambda_k^q |c_k|^2)^(1/2) for q in {0, 1, 2}, the orders specwave reads."""
        if q not in SOBOLEV_ORDERS:
            raise ValueError(f"unsupported Sobolev order q={q}; expected one of {SOBOLEV_ORDERS}")
        lam = frequencies(len(self)) ** 2
        return float(np.sqrt(np.sum(lam**q * np.abs(self.coefficients) ** 2)))

    def _check_compatible(self, other: "SpectralVector"):
        if len(self) != len(other):
            raise ValueError("spectral vectors must share the truncation order")


def projection_rule(n_modes: int, panels: int = 64) -> GaussLegendre:
    """Projection rule for modes 1..n_modes: at least ceil(5 n_modes / 8) panels of 8 nodes.

    With 8 nodes a panel that puts ten nodes in each period of sin(n_modes x)
    on (0, pi); a fixed panel count aliases the high modes (64 panels return
    the parabola's coefficients wrong by up to 2.3 at n_modes = 1000).
    """
    return GaussLegendre(panels=max(panels, -(-5 * n_modes // 8)))


def _sine_sums(weighted: np.ndarray, rule: GaussLegendre, n_modes: int) -> np.ndarray:
    """sum_j v_k(x_j) weighted_j for k = 1..n_modes over `rule`'s nodes on DOMAIN,
    by one inverse FFT over the panels.

    A node is x = m_0 + 2hp + h r_j (first panel midpoint m_0 = a + h,
    half-width h = pi / (2P), reference node r_j), so with W[p, j] the
    weighted samples of panel p,
        sum_{p,j} W[p, j] e^{ikx} = e^{ik m_0} sum_j e^{ikh r_j} sum_p W[p, j] e^{2 pi i kp / 2P},
    and the inner sum is row k mod 2P of an inverse FFT of length 2P down
    the panels. The coefficient is sqrt(2/pi) times the imaginary part.
    Reading row k mod 2P aliases exactly as the dense sum over the nodes
    does on a rule with too few panels. Costs O(P log P + n_modes * order).
    """
    if np.iscomplexobj(weighted):
        return _sine_sums(weighted.real, rule, n_modes) + 1j * _sine_sums(weighted.imag, rule, n_modes)
    a, b = DOMAIN
    period = 2 * rule.panels
    half = 0.5 * (b - a) / rule.panels
    ks = np.arange(1, n_modes + 1)
    panel_sums = np.fft.ifft(weighted.reshape(rule.panels, rule.order), n=period, axis=0)
    rows = panel_sums[ks % period] * period
    local = np.exp(1j * np.multiply.outer(ks, half * _NODES))
    sums = np.exp(1j * ks * (a + half)) * np.einsum("kj,kj->k", rows, local)
    return math.sqrt(2.0 / math.pi) * sums.imag


def project(f, n_modes: int, rule: GaussLegendre | None = None) -> SpectralVector:
    """Coefficients (f, v_k) for k = 1..n_modes by quadrature over DOMAIN.

    Without a rule, `projection_rule(n_modes)` sizes one to the modes. f is
    called once, on all the nodes (a constant broadcasts), and a non-finite
    sample is a ValueError; the sums over the nodes are `_sine_sums`, one FFT.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    rule = rule or projection_rule(n_modes)
    nodes, weights = rule.nodes_weights(*DOMAIN)
    samples = f(nodes)
    if not np.all(np.isfinite(samples)):
        raise ValueError("integrand produced non-finite samples")
    return SpectralVector(_sine_sums(weights * samples, rule, n_modes))
