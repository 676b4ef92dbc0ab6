"""Eigenbasis of the spatial operator and coefficient-space Sobolev norms.

Solutions are expanded over an orthonormal eigenbasis {v_k} of a self-adjoint
operator with eigenvalues -lambda_k, lambda_k > 0 nondecreasing and unbounded.
Spectra are supplied analytically (Dirichlet Laplacian) or as tabulated lists;
there is no numerical eigensolver here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import GaussLegendre, _reference_rule, sample

SOBOLEV_ORDERS = (-1, 0, 1, 2)


def _as_modes(k):
    """Validate a mode index (or array of indices); modes are 1-based."""
    arr = np.asarray(k)
    if not np.issubdtype(arr.dtype, np.integer):
        raise IndexError(f"mode index must be an integer, got dtype {arr.dtype}")
    if arr.size and int(arr.min()) < 1:
        raise IndexError("mode indices start at 1")
    return arr


class Spectrum:
    """Eigensystem contract: mode k >= 1 maps to (lambda_k, theta_k, v_k).

    Subclasses provide `eigenvalue` and `eigenfunction`; both accept ints or
    integer arrays for k. `domain` is the spatial interval (a, b).
    """

    domain: tuple[float, float] = (0.0, 1.0)

    def eigenvalue(self, k):
        raise NotImplementedError

    def frequency(self, k):
        """theta_k = sqrt(lambda_k), the temporal frequency of mode k."""
        return np.sqrt(self.eigenvalue(k))

    def eigenfunction(self, k, x):
        """v_k evaluated at points x; unit norm in L2 over the domain.

        For a 1-d array of modes the result has one row per mode.
        """
        raise NotImplementedError

    def coefficients(self, weighted: np.ndarray, rule: GaussLegendre, n_modes: int) -> np.ndarray:
        """sum_j v_k(x_j) weighted_j for k = 1..n_modes over `rule`'s nodes on the domain.

        The dense product with the mode x node basis; spectra with structure
        override it with a faster route to the same sums.
        """
        nodes, _ = rule.nodes_weights(*self.domain)
        return eigenfunction_matrix(self, n_modes, nodes) @ weighted


@dataclass(frozen=True)
class DirichletLaplacian1D(Spectrum):
    """Second derivative on (0, pi) with zero boundary values.

    lambda_k = k^2 and v_k(x) = sqrt(2/pi) sin(kx); the sqrt(2/pi) factor
    makes the eigenfunctions orthonormal in L2(0, pi).
    """

    domain: tuple[float, float] = (0.0, math.pi)

    def eigenvalue(self, k):
        k = _as_modes(k)
        return np.square(k.astype(float))[()]

    def frequency(self, k):
        return _as_modes(k).astype(float)[()]

    def eigenfunction(self, k, x):
        k = _as_modes(k)
        return math.sqrt(2.0 / math.pi) * np.sin(np.multiply.outer(k, np.asarray(x, dtype=float)))

    def coefficients(self, weighted: np.ndarray, rule: GaussLegendre, n_modes: int) -> np.ndarray:
        """The dense product's sums by one inverse FFT over the panels.

        A node is x = m_0 + 2hp + h r_j (first panel midpoint m_0 = a + h,
        half-width h = pi / (2P), reference node r_j), so with W[p, j] the
        weighted samples of panel p,
            sum_{p,j} W[p, j] e^{ikx} = e^{ik m_0} sum_j e^{ikh r_j} sum_p W[p, j] e^{2 pi i kp / 2P},
        and the inner sum is row k mod 2P of an inverse FFT of length 2P down
        the panels. The coefficient is sqrt(2/pi) times the imaginary part.
        Reading row k mod 2P aliases exactly as the dense product does on a
        rule with too few panels. Costs O(P log P + n_modes * order).
        """
        if np.iscomplexobj(weighted):
            return (self.coefficients(weighted.real, rule, n_modes)
                    + 1j * self.coefficients(weighted.imag, rule, n_modes))
        a, b = self.domain
        period = 2 * rule.panels
        half = 0.5 * (b - a) / rule.panels
        x, _ = _reference_rule(rule.order)
        ks = np.arange(1, n_modes + 1)
        panel_sums = np.fft.ifft(weighted.reshape(rule.panels, rule.order), n=period, axis=0)
        rows = panel_sums[ks % period] * period
        local = np.exp(1j * np.multiply.outer(ks, half * x))
        sums = np.exp(1j * ks * (a + half)) * np.einsum("kj,kj->k", rows, local)
        return math.sqrt(2.0 / math.pi) * sums.imag


@dataclass(frozen=True)
class TabulatedSpectrum(Spectrum):
    """Finite spectrum given as an explicit eigenvalue list.

    Eigenfunction callables are optional; operations that never touch the
    spatial profile (frequencies, denominators, norms) work without them.
    """

    eigenvalues: tuple[float, ...]
    eigenfunctions: tuple | None = None
    domain: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.size == 0 or np.any(lam <= 0):
            raise ValueError("eigenvalues must be positive")
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be nondecreasing")
        if self.eigenfunctions is not None and len(self.eigenfunctions) != lam.size:
            raise ValueError("eigenfunctions must match eigenvalues in length")

    def eigenvalue(self, k):
        k = _as_modes(k)
        if k.size and int(k.max()) > len(self.eigenvalues):
            raise IndexError(
                f"spectrum exhausted: only {len(self.eigenvalues)} tabulated modes"
            )
        return np.asarray(self.eigenvalues, dtype=float)[k - 1]

    def eigenfunction(self, k, x):
        if self.eigenfunctions is None:
            raise LookupError("no eigenfunctions tabulated for this spectrum")
        k = _as_modes(k)
        if k.ndim > 0:
            return np.asarray([self.eigenfunctions[i - 1](x) for i in k])
        if int(k) > len(self.eigenfunctions):
            raise IndexError("spectrum exhausted")
        return self.eigenfunctions[int(k) - 1](x)


def eigenfunction_matrix(spectrum: Spectrum, n_modes: int, x: np.ndarray) -> np.ndarray:
    """Matrix V with V[k-1, j] = v_k(x_j) for k = 1..n_modes."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.asarray(spectrum.eigenfunction(np.arange(1, n_modes + 1), x))


@dataclass(frozen=True, eq=False)
class SpectralVector:
    """Finite complex coefficient vector against a spectrum's eigenbasis."""

    coefficients: np.ndarray
    spectrum: Spectrum

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", c)

    def __len__(self) -> int:
        return self.coefficients.size

    def eigenvalues(self) -> np.ndarray:
        ks = np.arange(1, len(self) + 1)
        return np.asarray(self.spectrum.eigenvalue(ks), dtype=float)

    def frequencies(self) -> np.ndarray:
        ks = np.arange(1, len(self) + 1)
        return np.asarray(self.spectrum.frequency(ks), dtype=float)

    def sobolev_norm(self, q: int) -> float:
        """(sum_k lambda_k^q |c_k|^2)^(1/2) for q in {-1, 0, 1, 2}."""
        if q not in SOBOLEV_ORDERS:
            raise ValueError(f"unsupported Sobolev order q={q}; expected one of {SOBOLEV_ORDERS}")
        lam = self.eigenvalues()
        return float(np.sqrt(np.sum(lam**q * np.abs(self.coefficients) ** 2)))

    def _check_compatible(self, other: "SpectralVector"):
        if len(self) != len(other) or not (
            self.spectrum is other.spectrum or self.spectrum == other.spectrum
        ):
            raise ValueError("spectral vectors must share spectrum and truncation order")

    def __add__(self, other: "SpectralVector") -> "SpectralVector":
        self._check_compatible(other)
        return SpectralVector(self.coefficients + other.coefficients, self.spectrum)

    def __sub__(self, other: "SpectralVector") -> "SpectralVector":
        self._check_compatible(other)
        return SpectralVector(self.coefficients - other.coefficients, self.spectrum)

    def __mul__(self, scalar) -> "SpectralVector":
        return SpectralVector(self.coefficients * complex(scalar), self.spectrum)

    __rmul__ = __mul__


def projection_rule(n_modes: int, panels: int = 64) -> GaussLegendre:
    """Projection rule for modes 1..n_modes: at least ceil(5 n_modes / 8) panels of 8 nodes.

    With 8 nodes a panel that puts ten nodes in each period of sin(n_modes x)
    on (0, pi); a fixed panel count aliases the high modes (64 panels return
    the parabola's coefficients wrong by up to 2.3 at n_modes = 1000).
    """
    return GaussLegendre(panels=max(panels, -(-5 * n_modes // 8)), order=8)


def project(f, spectrum: Spectrum, n_modes: int, rule: GaussLegendre | None = None) -> SpectralVector:
    """Coefficients (f, v_k) for k = 1..n_modes by quadrature over the domain.

    Without a rule, `projection_rule(n_modes)` sizes one to the modes. The sums
    over the nodes are the spectrum's `coefficients`.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    rule = rule or projection_rule(n_modes)
    nodes, weights = rule.nodes_weights(*spectrum.domain)
    return SpectralVector(spectrum.coefficients(weights * sample(f, nodes), rule, n_modes), spectrum)
