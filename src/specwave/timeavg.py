"""Solver for the wave equation with a weighted time-average condition.

The Cauchy velocity datum is replaced by int_0^T exp(i*omega*t) u(t) dt = g.
Each mode k solves the 2x2 linear system

    C_k + D_k = alpha_k
    C_k phi(omega - theta_k, T) + D_k phi(omega + theta_k, T) = gamma_k

whose determinant is the denominator d_k. The admissibility hypothesis
exp(2i*omega*T) != 1 keeps every |d_k| (1 + theta_k) above a positive floor;
with omega = 0 that floor collapses at near-resonant modes (small divisors),
which is exactly what the diagnostics in `phase` measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import SpectralVector
from .phase import LABELS, DenominatorReport, ProblemClock, z_diagnostic
from .solution import SeriesSolution

# modes with |d_k| (1 + theta_k) below this floor amplify data noise past ~1e12
CONDITION_FLOOR_SCALE = 1e-12


def condition_floor(T: float) -> float:
    return CONDITION_FLOOR_SCALE * max(1.0, T)


class IllConditionedModeError(ArithmeticError):
    """The worst mode of a DenominatorReport: its scaled magnitude is below the floor."""

    def __init__(self, dens: DenominatorReport, floor: float):
        self.k = k = dens.argmin_mode
        self.theta = float(dens.thetas[k - 1])
        self.abs_d = float(np.abs(dens.values[k - 1]))
        self.label = LABELS[int(dens.codes[k - 1])]
        self.floor = floor
        super().__init__(
            f"mode k={k}: |d| = {self.abs_d:.3e}, class {self.label}, "
            f"scaled magnitude below floor {floor:.3e}; "
            "omega is too close to resonance for a stable solve"
        )


@dataclass(frozen=True, eq=False)
class NonlocalProblem:
    """Data (a, g) for the time-averaged problem over an admissible clock.

    alpha holds the coefficients of a (H^1 datum), gamma those of g (H^2
    datum). Truncation keeps every norm finite, so regularity of g shows up
    only through convergence in N, not as a hard precondition.
    """

    clock: ProblemClock
    alpha: SpectralVector
    gamma: SpectralVector

    def __post_init__(self):
        if not self.clock.admissible:
            raise ValueError(
                f"inadmissible clock (T={self.clock.T}, omega={self.clock.omega}): "
                "exp(2i*omega*T) = 1 within tolerance; the averaged problem is not "
                "uniquely solvable there (omega = 0 is allowed only for diagnostics)"
            )
        self.alpha._check_compatible(self.gamma)

    @cached_property
    def mode_denominators(self) -> DenominatorReport:
        """`z_diagnostic` of every mode, computed once for the solve and the coefficient bound."""
        return z_diagnostic(len(self.alpha), self.clock)


def solve_nonlocal(problem: NonlocalProblem) -> SeriesSolution:
    """Assemble all modes by elimination with the problem's `mode_denominators`.

    C is recovered as alpha_k - D, so u(0) = a holds in coefficients to rounding
    at the mode scale (error below eps (|C| + |D|), exactly zero where alpha_k = 0);
    the time-average condition holds mode-exactly and is re-checked by
    independent quadrature in `verification`. Raises IllConditionedModeError for
    the worst mode when any |d_k| (1 + theta_k) falls below the conditioning
    floor of T; the stable phi needs no special case at theta = +/-omega.
    """
    dens = problem.mode_denominators
    floor = condition_floor(problem.clock.T)
    if dens.z < floor:
        raise IllConditionedModeError(dens, floor)
    alpha = problem.alpha.coefficients
    D = (problem.gamma.coefficients - dens.phi_minus * alpha) / dens.values
    return SeriesSolution(problem.clock.T, alpha - D, D)


def stability_report(problem: NonlocalProblem, solution: SeriesSolution, norms: dict) -> dict:
    """The object stability.json prints: the observed size of the solution against the size
    of the data, and the per-mode coefficient bound, on the time grid of `norms`.

    c_obs = (sup_t ||u||_H1 + sup_t ||du/dt||_H0) / (||a||_H1 + ||g||_H2),
    reported as 0 for zero data. A well-posed configuration keeps c_obs
    bounded independently of the truncation order. The sup norms are the
    maxima of the "u_h1" and "dudt_h0" columns of `norms` (`norm_trajectories`).
    The bound is |C_k| + |D_k| <= c (|alpha_k| + (1 + theta_k) |gamma_k|) with
    c = 4 / z (bound_constant), z the least |d_k| (1 + theta_k) over the solved
    modes; bound_min_margin is its least margin rhs - lhs and bound_all_ok
    whether every mode keeps it. With a healthy z every margin is nonnegative,
    while omega ~ 0 drives near-resonant modes far past the bound.
    """
    sup_u = float(norms["u_h1"].max())
    sup_du = float(norms["dudt_h0"].max())
    na = problem.alpha.sobolev_norm(1)
    ng = problem.gamma.sobolev_norm(2)
    data = na + ng
    c = 4.0 / problem.mode_denominators.z
    rhs = c * (np.abs(problem.alpha.coefficients) + (1.0 + solution.thetas) * np.abs(problem.gamma.coefficients))
    margin = rhs - (np.abs(solution.C) + np.abs(solution.D))
    return {
        "norm_a_h1": na,
        "norm_g_h2": ng,
        "sup_u_h1": sup_u,
        "sup_dudt_h0": sup_du,
        "c_obs": (sup_u + sup_du) / data if data > 0 else 0.0,
        "n_modes": len(solution),
        "bound_constant": c,
        "bound_min_margin": float(margin.min()),
        "bound_all_ok": bool((margin >= 0.0).all()),
    }
