"""Classical initial-value solver: u(0) = a, du/dt(0) = b, mode by mode.

Any solution of the averaged problem also solves the Cauchy problem with
b = du/dt(0); the tests re-solve it to check that statement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import SpectralVector, frequencies
from .solution import SeriesSolution


@dataclass(frozen=True, eq=False)
class CauchyProblem:
    """Wave-equation data (a, b) in the eigenbasis, solved on [0, T].

    alpha holds the coefficients of the position datum a (H^1), beta those of
    the velocity datum b (H^0). Only the horizon matters here; no weight
    frequency is involved.
    """

    T: float
    alpha: SpectralVector
    beta: SpectralVector

    def __post_init__(self):
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError("T must be positive")
        self.alpha._check_compatible(self.beta)


def solve_cauchy(problem: CauchyProblem) -> SeriesSolution:
    """Assemble all modes; u(0) = a and du/dt(0) = b hold at coefficient level.

    Mode k has C + D = alpha_k and i theta (D - C) = beta_k, so
    D = (beta + i theta alpha) / (2 i theta), C = (-beta + i theta alpha) / (2 i theta);
    real (alpha, beta) give C = conj(D), i.e. a real oscillation.
    """
    theta = frequencies(len(problem.alpha))
    a = problem.alpha.coefficients
    b = problem.beta.coefficients
    denom = 2j * theta
    D = (b + 1j * theta * a) / denom
    C = (-b + 1j * theta * a) / denom
    return SeriesSolution(problem.T, C, D)

