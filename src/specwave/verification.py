"""Checks of assembled solutions: residuals and conservation.

The checks the CLI runs: the time-average condition by Gauss-Legendre time
quadrature (never phi), each mode's energy against the Cauchy data and the
energy estimate. Each goes through a route different from the one that
produced the solution, so a green check is evidence rather than tautology;
u(0) = a has none, since `solve_nonlocal` builds it in as C_k = alpha_k - D_k.
"""

from __future__ import annotations

import numpy as np

from .cauchy import CauchyProblem
from .quadrature import GaussLegendre
from .solution import SeriesSolution
from .timeavg import NonlocalProblem


def integral_condition_residual(problem: NonlocalProblem, solution: SeriesSolution) -> float:
    """||(quadrature of int_0^T e^{i omega t} u dt) - g||_H0 / (1 + ||g||_H0).

    Per mode, with y_k = C_k e^{-i theta_k t} + D_k e^{i theta_k t}, the moment
    int_0^T e^{i omega t} y_k dt is C_k S(omega - theta_k) + D_k S(omega + theta_k),
    where S(mu) is the Gauss-Legendre sum of e^{i mu t} over [0, T]; never phi,
    which built the solution. S is summed in closed form over the equal panels,
    so this costs O(N) time and memory whatever the panel count. The paper's two
    coupled real conditions on v = Re u and w = Im u are the real and imaginary
    parts of this one (e^{i omega t} u = [cos(wt) v - sin(wt) w] + i [sin(wt) v +
    cos(wt) w], and the eigenfunctions are real), so neither part's norm can
    exceed this norm of the whole.
    """
    clock = problem.clock
    theta = solution.thetas
    # T/4 panels per unit of the fastest frequency |omega| + theta_N keep every
    # |mu| h <= 2, inside exp_moments' domain, and resolve each oscillation
    panels = max(64, int(np.ceil((float(theta[-1]) + abs(clock.omega)) * clock.T / 4.0)))
    minus, plus = GaussLegendre(panels=panels).exp_moments(
        clock.omega + np.stack([-theta, theta]), 0.0, clock.T
    )
    resid = solution.C * minus + solution.D * plus - problem.gamma.coefficients
    return float(np.sqrt(np.sum(np.abs(resid) ** 2))) / (1.0 + problem.gamma.sobolev_norm(0))


def mode_energy_data_relative(problem: CauchyProblem, solution: SeriesSolution) -> float:
    """max_k |lambda |alpha_k|^2 + |beta_k|^2 - 2 lambda (|C_k|^2 + |D_k|^2)| / (lambda |alpha_k|^2 + |beta_k|^2).

    Mode k's energy |y'|^2 + lambda |y|^2 is 2 lambda (|C_k|^2 + |D_k|^2) at
    every t, and the data fix it: C + D = alpha and i theta (D - C) = beta give
    lambda |alpha|^2 + |beta|^2 = lambda (|C + D|^2 + |D - C|^2), the same sum.
    So the identity reads the solve's error in C and D, at O(N) cost; a mode
    with zero energy reads 0.
    """
    lam = solution.eigenvalues
    data = lam * np.abs(problem.alpha.coefficients) ** 2 + np.abs(problem.beta.coefficients) ** 2
    modes = 2.0 * lam * (np.abs(solution.C) ** 2 + np.abs(solution.D) ** 2)
    return float(np.max(np.abs(data - modes) / np.where(data > 0, data, 1.0)))


def energy_estimate_margin(problem: CauchyProblem, norms: dict) -> float:
    """Margin of sup_t ||u||_H1 + sup_t ||u'||_H0 <= 4 (||a||_H1 + ||b||_H0).

    The sups are the maxima of the "u_h1" and "dudt_h0" columns of `norms`,
    the solution's trajectories (`norm_trajectories`).
    """
    lhs = float(norms["u_h1"].max()) + float(norms["dudt_h0"].max())
    rhs = 4.0 * (problem.alpha.sobolev_norm(1) + problem.beta.sobolev_norm(0))
    return rhs - lhs
