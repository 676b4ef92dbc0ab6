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

from .phase import EXACT_PHASE_LIMIT, _exact_phase, _time_step, _uniform_phases
from .quadrature import GaussLegendre, _reference_rule, sample

SOBOLEV_ORDERS = (-1, 0, 1, 2)

# complex phases a blocked evaluation holds at once: 2**16 x 16 B = 1 MiB
_BLOCK_ELEMENTS = 1 << 16

# bound on the relative error of a squared norm that the chirp expansion may
# keep: 2**-45 (2.8e-14), so a norm stays within about 1.4e-14 of its value
_NORM_REL = 2.0**-45


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


def _block_squares(solution, blocks, count: int) -> np.ndarray:
    """||u||_H0^2, ||u||_H1^2 and ||u'||_H0^2 at `count` times, summed over the
    mode `blocks` of `solution._mode_blocks`."""
    squares = np.zeros((3, count))
    for modes, back, ahead in blocks:
        y2 = _abs2(back + ahead)
        lam = solution.eigenvalues[modes]
        squares[0] += y2.sum(axis=0)
        squares[1] += np.einsum("k,kj->j", lam, y2)
        squares[2] += np.einsum("k,kj->j", lam, _abs2(ahead - back))
    return squares


def _chirp_fits(dt: float, factor: int, n: int, count: int) -> bool:
    """Whether `_chirp_sums` of this size keeps every phase inside `phase._exact_phase`'s domain."""
    return dt * factor * max(n, count) ** 2 / 2 < EXACT_PHASE_LIMIT


def _chirp_sums(weights: np.ndarray, dt: float, factor: int, count: int) -> np.ndarray:
    """sum_k weights[..., k] e^{i factor k j dt} for j < count; shape weights.shape[:-1] + (count,).

    Bluestein's chirp-z: with kj = (k^2 + j^2 - (j - k)^2) / 2 the sum is
    c_j times the convolution of weights_k c_k with conj(c_m), c_m = e^{i b m^2},
    b = factor dt / 2: one FFT convolution of power-of-two length at least
    n + count - 1 for every row, O((n + count) log(n + count)). Fewer than
    log2(length) terms are summed directly against their count x n phases.
    Every phase is exact (`phase._exact_phase` of dt and an integer), so the
    error is the summation's, about eps sum_k |weights_k| times a small
    multiple of log2 of the length.
    """
    n = weights.shape[-1]
    size = 1 << (n + count - 2).bit_length()
    if n < size.bit_length():
        table = np.exp(1j * _exact_phase(dt, factor * np.multiply.outer(np.arange(n), np.arange(count))))
        return np.einsum("...k,kj->...j", weights, table)
    m = np.arange(max(n, count), dtype=float)
    chirp = np.exp(1j * _exact_phase(dt, 0.5 * factor * m * m))
    kernel = np.zeros(size, dtype=complex)
    kernel[:count] = chirp[:count].conj()
    kernel[size - n + 1:] = chirp[n - 1:0:-1].conj()
    convolved = np.fft.ifft(np.fft.fft(weights * chirp[:n], size) * np.fft.fft(kernel))
    return convolved[..., :count] * chirp[:count]


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

    def field(self, solution, nx: int, time_points: int) -> np.ndarray:
        """u of `solution` on `nx` uniform points of the domain x its `time_points`
        uniform times; shape (nx, time_points).

        Sums the mode blocks of `solution._mode_blocks`: the block's real
        eigenfunctions multiply y_k as interleaved (re, im) columns, half the
        flops of a complex product. Costs O(N nx time_points); spectra with
        structure override it.
        """
        xs = np.linspace(*self.domain, nx)
        ks = np.arange(1, len(solution) + 1)
        grid = np.zeros((nx, 2 * time_points))
        for modes, back, ahead in solution._mode_blocks(time_points):
            grid += np.asarray(self.eigenfunction(ks[modes], xs)).T @ (back + ahead).view(float)
        return grid.view(complex)

    def norm_squares(self, solution, time_points: int) -> np.ndarray:
        """||u||_H0^2, ||u||_H1^2 and ||u'||_H0^2 of `solution` on its `time_points`
        uniform times; shape (3, time_points).

        Sums the mode blocks of `solution._mode_blocks` in O(N time_points);
        spectra with structure override it.
        """
        return _block_squares(solution, solution._mode_blocks(time_points), time_points)


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

    def field(self, solution, nx: int, time_points: int) -> np.ndarray:
        """The block sums by residues of k mod M = 2 (nx - 1), chirp sums and one real FFT.

        At x_m = m pi / (nx - 1), sin(k x_m) = Im e^{2 pi i km / M} depends on k
        only through r = k mod M. So rows m < nx - 1 are -sqrt(2/pi) Im of the
        `rfft` over r of the residue sums R_r(t) = sum_{k = r mod M} y_k(t),
        taken down their (re, im) columns. With k = r + lM,
            R_r(t_j) = conj(e^{i r t_j} S_r(conj C)) + e^{i r t_j} S_r(D),
            S_r(w)(t_j) = sum_l w_{r + lM} e^{i lM t_j},
        2M chirp sums over l. The last row sits at x = fl(pi), where
        sin(k fl(pi)) is about k 1.2e-16, not 0: it is sum_k sin(k fl(pi)) y_k,
        one more chirp sum over k. Costs O(N log N + M time_points log) and no
        matrix product. Falls back to the blocks when a chirp phase would
        reach EXACT_PHASE_LIMIT: on the default 201 x 201 grid, past T ~ 1e8.
        """
        n_modes = len(solution)
        dt = _time_step(solution.T, time_points)
        period = 2 * (nx - 1)
        depth = n_modes // period + 1
        if not (_chirp_fits(dt, period, depth, time_points) and _chirp_fits(dt, 1, n_modes + 1, time_points)):
            return super().field(solution, nx, time_points)
        residues = min(period, n_modes + 1)
        weights = np.zeros((2, depth * period), dtype=complex)  # mode k at column k
        weights[0, 1:n_modes + 1] = solution.C.conj()
        weights[1, 1:n_modes + 1] = solution.D
        back, ahead = _chirp_sums(
            weights.reshape(2, depth, period)[:, :, :residues].transpose(0, 2, 1), dt, period, time_points
        )
        turn = _uniform_phases(dt, np.arange(residues), time_points)
        # turn first in both products, so a real solution (C = conj D) folds to
        # exactly real sums; in place, since fresh pages cost more than the flops
        folded = np.multiply(turn, back, out=np.empty((residues, time_points), dtype=complex))
        np.conjugate(folded, out=folded)
        folded += np.multiply(turn, ahead, out=ahead)
        spectrum = np.fft.rfft(folded.view(float), n=period, axis=0)[:-1]
        grid = np.empty((nx, time_points), dtype=complex)
        rows = grid[:-1].view(float)
        # 0 - Im, not -Im: the x = 0 row stays +0, as a sum of sin(0) y_k is
        np.subtract(0.0, spectrum.imag, out=rows)
        rows *= math.sqrt(2.0 / math.pi)
        weights[:, 1:n_modes + 1] *= np.sin(np.arange(1, n_modes + 1) * self.domain[1])
        back, ahead = _chirp_sums(weights[:, :n_modes + 1], dt, 1, time_points)
        grid[-1] = math.sqrt(2.0 / math.pi) * (np.conj(back) + ahead)
        return grid

    def norm_squares(self, solution, time_points: int) -> np.ndarray:
        """The block sums: the first mode block as it is, the rest by one chirp sum.

        |C e^{-ikt} + D e^{ikt}|^2 = |C|^2 + |D|^2 + 2 Re conj(C) D e^{2ikt}, and
        |y'|^2 is k^2 times the same with the last sign flipped. So over modes
        k > H, with s_q = sum_k k^{2q} (|C_k|^2 + |D_k|^2) and W_q(t) the chirp
        sum of w_k = k^{2q} conj(C_k) D_k at frequency 2k, the squares are
        s_0 + 2 Re W_0, s_1 + 2 Re W_1 and s_1 - 2 Re W_1: O((N + time_points)
        log) for all times. The first block of `solution._mode_blocks` (its
        H modes) is summed term by term, so decaying data leave little to
        cancel. The rest errs by at most about eps (s_q + 2 log2(length)
        sum_k |w_k|); every time where that bound exceeds _NORM_REL of a square
        is summed again from all modes. Falls back to the blocks when a chirp
        phase would reach EXACT_PHASE_LIMIT: at 1001 times, past T ~ 4e9 for
        N = 1000 and T ~ 4e5 for N = 100000.
        """
        n_modes = len(solution)
        dt = _time_step(solution.T, time_points)
        if not _chirp_fits(dt, 2, n_modes + 1, time_points):
            return super().norm_squares(solution, time_points)
        head = next(solution._mode_blocks(time_points))
        squares = _block_squares(solution, [head], time_points)
        tail = slice(head[0].stop, None)
        lam = solution.eigenvalues[tail]
        both = _abs2(solution.C[tail]) + _abs2(solution.D[tail])
        diagonal = np.array([both.sum(), np.dot(lam, both)])
        weights = np.zeros((2, n_modes + 1), dtype=complex)  # mode k at column k
        weights[0, tail.start + 1:] = solution.C[tail].conj() * solution.D[tail]
        weights[1, tail.start + 1:] = lam * weights[0, tail.start + 1:]
        waves = 2.0 * _chirp_sums(weights, dt, 2, time_points).real
        squares += np.stack([diagonal[0] + waves[0], diagonal[1] + waves[1], diagonal[1] - waves[1]])
        log_length = (n_modes + time_points).bit_length()
        bound = np.finfo(float).eps * (diagonal + 2 * log_length * np.abs(weights).sum(axis=1))
        redo = np.flatnonzero((bound[[0, 1, 1], None] > _NORM_REL * squares).any(axis=0))
        # theta_k = k, so the phases of the redone times are a table uniform in k
        step = max(1, _BLOCK_ELEMENTS // n_modes)
        for start in range(0, redo.size, step):
            rows = redo[start:start + step]
            ph = _uniform_phases(dt, rows, n_modes + 1)[:, 1:].T
            block = (slice(None), solution.C[:, None] * ph.conj(), solution.D[:, None] * ph)
            squares[:, rows] = _block_squares(solution, [block], rows.size)
        return squares


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
