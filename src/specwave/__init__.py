"""Spectral solver for linear wave equations u_tt = Au with a weighted
time-average condition int_0^T exp(i*omega*t) u(t) dt = g in place of the
Cauchy velocity datum, plus the small-denominator diagnostics that show why
omega != 0 keeps the per-mode solves well conditioned."""

import os
import sys


def _import_numpy_with_one_blas_thread():
    """Load NumPy with one OpenBLAS thread, then restore OPENBLAS_NUM_THREADS.

    specwave's only BLAS calls are two small products, so a second OpenBLAS
    thread would only busy-wait after NumPy loads, burning CPU in every run.
    Child processes and later libraries still see what the user set, and a
    host that imported NumPy before specwave keeps its own thread count.
    """
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


if "numpy" not in sys.modules:
    _import_numpy_with_one_blas_thread()

from .basis import SpectralVector, project
from .cauchy import CauchyProblem, solve_cauchy
from .phase import (
    DenominatorReport,
    ProblemClock,
    phi,
    z_diagnostic,
)
from .solution import SeriesSolution
from .timeavg import (
    IllConditionedModeError,
    NonlocalProblem,
    solve_nonlocal,
    stability_report,
)

__version__ = "0.1.0"

__all__ = [
    "CauchyProblem",
    "DenominatorReport",
    "IllConditionedModeError",
    "NonlocalProblem",
    "ProblemClock",
    "SeriesSolution",
    "SpectralVector",
    "phi",
    "project",
    "solve_cauchy",
    "solve_nonlocal",
    "stability_report",
    "z_diagnostic",
]
