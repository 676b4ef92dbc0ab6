"""Independent checks of assembled solutions: residuals, round trips, conservation.

The checks the CLI runs: the initial condition in coefficients, the
time-average condition by Gauss-Legendre time quadrature (never phi), a Cauchy
re-solve from du/dt(0), per-mode energy drift and the energy estimate. Each goes
through a route different from the one that produced the solution, so a green
check is evidence rather than tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cauchy import CauchyProblem, derivative_coefficients, solve_cauchy
from .quadrature import GaussLegendre
from .solution import _BLOCK_ELEMENTS, NormTrajectories, SeriesSolution
from .timeavg import NonlocalProblem


def initial_condition_relative(problem, solution: SeriesSolution) -> float:
    """max_k |(C_k + D_k) - alpha_k| / (1 + |C_k| + |D_k|).

    Scaled per mode: when |D_k| dwarfs |alpha_k| the best any binary64 solve
    can promise is agreement at the coefficient scale (~eps |D_k|), not at the
    scale of alpha itself.
    """
    diff = np.abs(solution.initial_coefficients().coefficients - problem.alpha.coefficients)
    scale = 1.0 + np.abs(solution.C) + np.abs(solution.D)
    return float(np.max(diff / scale))


def _time_rule(problem: NonlocalProblem) -> GaussLegendre:
    # resolve the fastest oscillation exp(i (omega + theta_N) t) comfortably
    top = float(problem.alpha.frequencies()[-1]) + abs(problem.clock.omega)
    panels = max(64, int(np.ceil(top * problem.clock.T / 4.0)))
    return GaussLegendre(panels=panels, order=8)


class IntegralResidual(NamedTuple):
    """H^0 norms of (quadrature of int_0^T e^{i omega t} u dt) - g and of its parts."""

    total: float
    re: float
    im: float


def integral_condition_residual(problem: NonlocalProblem, solution: SeriesSolution) -> IntegralResidual:
    """Residual of the time-average condition, whole and as the coupled real system.

    Per mode, with y_k = C_k e^{-i theta_k t} + D_k e^{i theta_k t}, the moment
    int_0^T e^{i omega t} y_k dt is C_k S(omega - theta_k) + D_k S(omega + theta_k),
    where S(mu) is the Gauss-Legendre sum of e^{i mu t} over [0, T]; never phi,
    which built the solution. This costs O(N * panels) time and O(N + panels)
    memory. For v = Re u, w = Im u the complex condition splits into two
    coupled real integral conditions:
        int_0^T [cos(wt) v - sin(wt) w] dt = Re g
        int_0^T [sin(wt) v + cos(wt) w] dt = Im g
    Since e^{i omega t} u = [cos(wt) v - sin(wt) w] + i [sin(wt) v + cos(wt) w],
    they are algebraically the real and imaginary parts of the complex one, so
    all three norms read one moment vector (the eigenfunctions are real, so
    Re/Im pass through the expansion).
    """
    clock = problem.clock
    theta = solution.thetas
    minus, plus = _time_rule(problem).exp_moments(
        clock.omega + np.stack([-theta, theta]), 0.0, clock.T
    )
    resid = solution.C * minus + solution.D * plus - problem.gamma.coefficients
    return IntegralResidual(
        float(np.sqrt(np.sum(np.abs(resid) ** 2))),
        float(np.sqrt(np.sum(resid.real**2))),
        float(np.sqrt(np.sum(resid.imag**2))),
    )


@dataclass(frozen=True)
class RoundTrip:
    """Agreement between a solution and its Cauchy re-solve with b = du/dt(0)."""

    coefficient_rel: float
    field_max: float
    field_scale: float


def roundtrip_check(problem: NonlocalProblem, solution: SeriesSolution) -> RoundTrip:
    """Extract b = du/dt(0), re-solve as a Cauchy problem, compare in coefficients
    and on a 20 x 20 space-time field grid."""
    b = derivative_coefficients(solution)
    redone = solve_cauchy(CauchyProblem(problem.spectrum, problem.clock.T, problem.alpha, b))
    scale = max(np.abs(solution.C).max(), np.abs(solution.D).max(), 1e-300)
    coeff = max(
        np.abs(redone.C - solution.C).max(), np.abs(redone.D - solution.D).max()
    ) / scale
    a, bb = problem.spectrum.domain
    xs = np.linspace(a, bb, 20)
    ts = np.linspace(0.0, problem.clock.T, 20)
    f1 = solution.field(xs, ts)
    f2 = redone.field(xs, ts)
    fscale = float(np.abs(f1).max())
    return RoundTrip(float(coeff), float(np.abs(f1 - f2).max()), fscale)


def mode_energy_drift(solution: SeriesSolution) -> np.ndarray:
    """Per-mode relative drift of |y'|^2 + lambda |y|^2 over 1000 uniform times in [0, T].

    Streamed over time-column blocks of at most _BLOCK_ELEMENTS phases with a
    running per-mode max and min, so memory stays O(N) beyond one block; the
    extrema, and so the result, equal the one-shot N x 1000 formula.
    """
    ts = np.linspace(0.0, solution.T, 1000)
    step = max(1, _BLOCK_ELEMENTS // len(solution))
    top = np.full(len(solution), -np.inf)
    low = np.full(len(solution), np.inf)
    for start in range(0, ts.size, step):
        block = ts[start:start + step]
        y = solution.mode_values(block)
        yp = solution.mode_derivatives(block)
        energy = np.abs(yp) ** 2 + solution.eigenvalues[:, None] * np.abs(y) ** 2
        np.maximum(top, energy.max(axis=1), out=top)
        np.minimum(low, energy.min(axis=1), out=low)
    return (top - low) / np.where(top > 0, top, 1.0)


def energy_estimate_margin(problem: CauchyProblem, solution: SeriesSolution,
                           norms: NormTrajectories) -> float:
    """Margin of sup_t ||u||_H1 + sup_t ||u'||_H0 <= 4 (||a||_H1 + ||b||_H0).

    The sups are the maxima of `norms`, the solution's trajectories
    (`norm_trajectories`).
    """
    lhs = float(norms.u_h1.max()) + float(norms.dudt_h0.max())
    rhs = 4.0 * (problem.alpha.sobolev_norm(1) + problem.beta.sobolev_norm(0))
    return rhs - lhs
