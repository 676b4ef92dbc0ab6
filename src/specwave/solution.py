"""Truncated eigenfunction-expansion solutions u(t) = sum_k y_k(t) v_k."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import SpectralVector, eigenfunction_matrix

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

    Immutable after assembly; evaluation at distinct points is safe to run
    concurrently.
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

    def _check_time(self, t: np.ndarray):
        slack = 1e-9 * max(1.0, self.T)
        if np.any(t < -slack) or np.any(t > self.T + slack):
            raise ValueError(f"t outside the solution window [0, {self.T}]")

    def _phases(self, t) -> np.ndarray:
        """e^{i theta_k t} for all modes; shape (N,) + shape(t)."""
        t = np.asarray(t, dtype=float)
        self._check_time(t)
        return np.exp(1j * np.multiply.outer(self.thetas, t))

    def _values(self, ph: np.ndarray) -> np.ndarray:
        shape = (len(self),) + (1,) * (ph.ndim - 1)
        return self.C.reshape(shape) * np.conj(ph) + self.D.reshape(shape) * ph

    def _derivatives(self, ph: np.ndarray) -> np.ndarray:
        shape = (len(self),) + (1,) * (ph.ndim - 1)
        return (1j * self.thetas.reshape(shape)) * (
            self.D.reshape(shape) * ph - self.C.reshape(shape) * np.conj(ph)
        )

    def mode_values(self, t) -> np.ndarray:
        """y_k(t) for all modes; shape (N,) + shape(t)."""
        return self._values(self._phases(t))

    def mode_derivatives(self, t) -> np.ndarray:
        """y_k'(t) for all modes."""
        return self._derivatives(self._phases(t))

    def field(self, xs, ts) -> np.ndarray:
        """u sampled on a space-time grid; shape (len(xs), len(ts))."""
        basis = eigenfunction_matrix(self.spectrum, len(self), xs)
        return basis.T @ self.mode_values(np.asarray(ts, dtype=float))

    def initial_coefficients(self) -> SpectralVector:
        """Coefficients of u(0), i.e. C + D."""
        return SpectralVector(self.C + self.D, self.spectrum)

    def norm_trajectories(self, time_points: int) -> NormTrajectories:
        """||u||_H0, ||u||_H1 and ||du/dt||_H0 on `time_points` uniform times in [0, T].

        The grid is t_j = j dt, so with G = isqrt(time_points) and j = qG + r the
        phase factors as e^{i theta t_j} = e^{i theta qG dt} e^{i theta r dt}: about
        2 N sqrt(time_points) exponentials and one complex product per entry of
        the N x time_points table instead of one exponential each. Modes are
        taken in blocks of about _BLOCK_ELEMENTS entries and every squared norm
        is summed block by block, so no N x time_points buffer is held.
        """
        ts = np.linspace(0.0, self.T, time_points)
        group = math.isqrt(time_points)
        starts, offsets = ts[::group], ts[:group]
        squares = np.zeros((3, time_points))
        step = max(1, _BLOCK_ELEMENTS // (starts.size * group))
        for start in range(0, len(self), step):
            modes = slice(start, start + step)
            theta = self.thetas[modes, None]
            ph = np.exp(1j * theta * starts)[:, :, None] * np.exp(1j * theta * offsets)[:, None, :]
            ph = ph.reshape(theta.size, -1)[:, :time_points]
            back, ahead = self.C[modes, None] * np.conj(ph), self.D[modes, None] * ph
            y2 = _abs2(back + ahead)
            lam = self.eigenvalues[modes]
            squares[0] += y2.sum(axis=0)
            squares[1] += lam @ y2
            squares[2] += lam @ _abs2(ahead - back)
        u_h0, u_h1, dudt_h0 = np.sqrt(squares)
        return NormTrajectories(ts, u_h0, u_h1, dudt_h0)
