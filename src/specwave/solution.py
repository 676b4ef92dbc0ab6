"""Truncated eigenfunction-expansion solutions u(t) = sum_k y_k(t) v_k."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import SpectralVector

# complex phases a blocked evaluation holds at once: 2**16 x 16 B = 1 MiB
_BLOCK_ELEMENTS = 1 << 16


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


@dataclass(frozen=True, eq=False)
class NormTrajectories:
    """Norms of a solution on one time grid: the columns of norms.csv."""

    ts: np.ndarray
    u_h0: np.ndarray
    u_h1: np.ndarray
    dudt_h0: np.ndarray


@dataclass(frozen=True, eq=False)
class SeriesSolution:
    """u(x, t) = sum_{k=1..N} (C_k e^{-i theta_k t} + D_k e^{i theta_k t}) v_k(x).

    Immutable after assembly; every evaluation reads the mode blocks of
    `_mode_blocks`, on uniform times in [0, T], and is safe to run concurrently.
    """

    spectrum: object
    T: float
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        C = np.atleast_1d(np.asarray(self.C, dtype=complex))
        D = np.atleast_1d(np.asarray(self.D, dtype=complex))
        if C.shape != D.shape or C.ndim != 1 or C.size == 0:
            raise ValueError("C and D must be matching nonempty 1-d coefficient arrays")
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError("T must be positive")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    def __len__(self) -> int:
        return self.C.size

    @cached_property
    def thetas(self) -> np.ndarray:
        ks = np.arange(1, len(self) + 1)
        return np.asarray(self.spectrum.frequency(ks), dtype=float)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return self.thetas**2

    def _mode_blocks(self, time_points: int):
        """Yield (modes, C_k e^{-i theta_k t_j}, D_k e^{i theta_k t_j}) block by block.

        The times are t_j = j dt, `time_points` of them uniform in [0, T], and
        `modes` is the slice of the block's modes. With G = isqrt(time_points)
        and j = qG + r the phase factors as e^{i theta t_j} = e^{i theta qG dt}
        e^{i theta r dt}: about 2 N sqrt(time_points) exponentials and one complex
        product per entry of the N x time_points table instead of one exponential
        each. A block holds about _BLOCK_ELEMENTS entries, so no N x time_points
        buffer is ever held; y_k = back + ahead and y_k' = i theta_k (ahead - back).
        """
        ts = np.linspace(0.0, self.T, time_points)
        group = math.isqrt(time_points)
        starts, offsets = ts[::group], ts[:group]
        step = max(1, _BLOCK_ELEMENTS // (starts.size * group))
        for start in range(0, len(self), step):
            modes = slice(start, start + step)
            theta = self.thetas[modes, None]
            ph = np.exp(1j * theta * starts)[:, :, None] * np.exp(1j * theta * offsets)[:, None, :]
            ph = ph.reshape(theta.size, -1)[:, :time_points]
            yield modes, self.C[modes, None] * np.conj(ph), self.D[modes, None] * ph

    def field(self, xs, time_points: int) -> np.ndarray:
        """u on xs x (`time_points` uniform times in [0, T]); shape (len(xs), time_points).

        The real eigenfunctions of each mode block multiply y_k as interleaved
        (re, im) columns: half the flops of a complex product.
        """
        ks = np.arange(1, len(self) + 1)
        grid = np.zeros((np.size(xs), 2 * time_points))
        for modes, back, ahead in self._mode_blocks(time_points):
            grid += np.asarray(self.spectrum.eigenfunction(ks[modes], xs)).T @ (back + ahead).view(float)
        return grid.view(complex)

    def initial_coefficients(self) -> SpectralVector:
        """Coefficients of u(0), i.e. C + D."""
        return SpectralVector(self.C + self.D, self.spectrum)

    def norm_trajectories(self, time_points: int) -> NormTrajectories:
        """||u||_H0, ||u||_H1 and ||du/dt||_H0 on `time_points` uniform times in [0, T].

        Every squared norm is summed over the blocks of `_mode_blocks`.
        """
        squares = np.zeros((3, time_points))
        for modes, back, ahead in self._mode_blocks(time_points):
            y2 = _abs2(back + ahead)
            lam = self.eigenvalues[modes]
            squares[0] += y2.sum(axis=0)
            squares[1] += lam @ y2
            squares[2] += lam @ _abs2(ahead - back)
        u_h0, u_h1, dudt_h0 = np.sqrt(squares)
        return NormTrajectories(np.linspace(0.0, self.T, time_points), u_h0, u_h1, dudt_h0)
