"""Spectral solver for linear wave equations u_tt = Au with a weighted
time-average condition int_0^T exp(i*omega*t) u(t) dt = g in place of the
Cauchy velocity datum, plus the small-denominator diagnostics that show why
omega != 0 keeps the per-mode solves well conditioned."""

from .basis import (
    DirichletLaplacian1D,
    Spectrum,
    SpectralVector,
    TabulatedSpectrum,
    eigenfunction_matrix,
    project,
)
from .cauchy import CauchyProblem, derivative_coefficients, solve_cauchy
from .phase import (
    DenominatorReport,
    ProblemClock,
    phase_distance,
    phi,
    z_diagnostic,
)
from .quadrature import GaussLegendre
from .solution import SeriesSolution
from .timeavg import (
    BoundCheck,
    IllConditionedModeError,
    NonlocalProblem,
    StabilityReport,
    coefficient_bound_check,
    solve_nonlocal,
    stability_report,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "CauchyProblem",
    "DenominatorReport",
    "DirichletLaplacian1D",
    "GaussLegendre",
    "IllConditionedModeError",
    "NonlocalProblem",
    "ProblemClock",
    "SeriesSolution",
    "SpectralVector",
    "Spectrum",
    "StabilityReport",
    "TabulatedSpectrum",
    "coefficient_bound_check",
    "derivative_coefficients",
    "eigenfunction_matrix",
    "phase_distance",
    "phi",
    "project",
    "solve_cauchy",
    "solve_nonlocal",
    "stability_report",
    "z_diagnostic",
]
