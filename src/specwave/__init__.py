"""Spectral solver for linear wave equations u_tt = Au with a weighted
time-average condition int_0^T exp(i*omega*t) u(t) dt = g in place of the
Cauchy velocity datum, plus the small-denominator diagnostics that show why
omega != 0 keeps the per-mode solves well conditioned."""

from .basis import SpectralVector, project
from .cauchy import CauchyProblem, solve_cauchy
from .phase import (
    DenominatorReport,
    ProblemClock,
    phi,
    z_diagnostic,
)
from .quadrature import GaussLegendre
from .solution import SeriesSolution
from .timeavg import (
    IllConditionedModeError,
    NonlocalProblem,
    StabilityReport,
    solve_nonlocal,
    stability_report,
)

__version__ = "0.1.0"

__all__ = [
    "CauchyProblem",
    "DenominatorReport",
    "GaussLegendre",
    "IllConditionedModeError",
    "NonlocalProblem",
    "ProblemClock",
    "SeriesSolution",
    "SpectralVector",
    "StabilityReport",
    "phi",
    "project",
    "solve_cauchy",
    "solve_nonlocal",
    "stability_report",
    "z_diagnostic",
]
