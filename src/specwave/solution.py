"""Truncated eigenfunction-expansion solutions u(t) = sum_k y_k(t) v_k."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import _BLOCK_ELEMENTS, SpectralVector
from .phase import _time_step, _uniform_phases


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

    Immutable after assembly and safe to evaluate concurrently. `field` and
    `norm_trajectories` are the spectrum's hooks, on uniform times in [0, T];
    their default, and `verification.mode_energy_drift`, read `_mode_blocks`.
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

        The times are t_j = j dt, `time_points` of them uniform in [0, T]
        (dt = `phase._time_step(T, time_points)`), and `modes` is the slice of
        the block's modes. The phases come factored from
        `phase._uniform_phases`: about 2 N sqrt(time_points) exact phases and one
        complex product per entry of the N x time_points table, each within
        about an ulp of pi of theta_k t_j when theta_k is an integer. A block
        holds about _BLOCK_ELEMENTS entries, so no N x time_points buffer is ever
        held; y_k = back + ahead and y_k' = i theta_k (ahead - back).
        """
        dt = _time_step(self.T, time_points)
        step = max(1, _BLOCK_ELEMENTS // time_points)
        for start in range(0, len(self), step):
            modes = slice(start, start + step)
            ph = _uniform_phases(dt, self.thetas[modes], time_points)
            yield modes, self.C[modes, None] * np.conj(ph), self.D[modes, None] * ph

    def field(self, nx: int, time_points: int) -> np.ndarray:
        """u on `nx` uniform points of the domain x `time_points` uniform times in
        [0, T]; shape (nx, time_points). The spectrum's `field` hook sums it."""
        if nx < 2 or time_points < 1:
            raise ValueError("the field grid needs nx >= 2 points and time_points >= 1")
        return self.spectrum.field(self, nx, time_points)

    def initial_coefficients(self) -> SpectralVector:
        """Coefficients of u(0), i.e. C + D."""
        return SpectralVector(self.C + self.D, self.spectrum)

    def norm_trajectories(self, time_points: int) -> NormTrajectories:
        """||u||_H0, ||u||_H1 and ||du/dt||_H0 on `time_points` uniform times in [0, T].

        The squares are the spectrum's `norm_squares` hook.
        """
        u_h0, u_h1, dudt_h0 = np.sqrt(self.spectrum.norm_squares(self, time_points))
        return NormTrajectories(np.linspace(0.0, self.T, time_points), u_h0, u_h1, dudt_h0)
