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

from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .basis import SpectralVector
from .phase import CLASSIFY_TOL, LABELS, ProblemClock, _classify_codes, denominators
from .solution import NormTrajectories, SeriesSolution

# modes with |d_k| (1 + theta_k) below this floor amplify data noise past ~1e12
CONDITION_FLOOR_SCALE = 1e-12


def condition_floor(T: float) -> float:
    return CONDITION_FLOOR_SCALE * max(1.0, T)


class IllConditionedModeError(ArithmeticError):
    """A mode's scaled denominator fell below the conditioning floor."""

    def __init__(self, k: int, theta: float, abs_d: float, label: str, floor: float):
        self.k = k
        self.theta = theta
        self.abs_d = abs_d
        self.label = label
        self.floor = floor
        super().__init__(
            f"mode k={k}: |d| = {abs_d:.3e}, class {label}, "
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

    spectrum: object
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
        if not (self.spectrum is self.alpha.spectrum or self.spectrum == self.alpha.spectrum):
            raise ValueError("data vectors must live on the problem spectrum")

    @cached_property
    def mode_denominators(self):
        """`denominators` of every mode: d, |d| (1 + theta) and phi(omega - theta).

        Computed once; the solve and the coefficient bound both read it.
        """
        return denominators(self.alpha.frequencies(), self.clock)


def _solve_modes(alpha, gamma, theta, clock: ProblemClock, dens):
    """(C, D) for every mode's 2x2 system by elimination; arrays over k = 1..len(theta).

    C is recovered as alpha_k - D, so the initial condition holds to rounding
    at the coefficient scale (error below eps (|C| + |D|), and exactly zero
    whenever alpha_k = 0). Raises IllConditionedModeError for the worst mode
    when any |d_k| (1 + theta_k) falls below the conditioning floor. The stable
    phi makes this path correct through the resonance theta = +/-omega without
    special-casing. Takes a bare clock, so the diagnostics can solve at omega = 0;
    `dens` is denominators(theta, clock).
    """
    theta = np.asarray(theta, dtype=float)
    det, scaled, phi_minus = dens
    floor = condition_floor(clock.T)
    if np.any(scaled < floor):
        i = int(np.argmin(scaled))
        raise IllConditionedModeError(
            i + 1, float(theta[i]), float(np.abs(det[i])),
            LABELS[int(_classify_codes(theta[i], clock, CLASSIFY_TOL))], floor,
        )
    D = (gamma - phi_minus * alpha) / det
    C = alpha - D
    return C, D


def solve_nonlocal(problem: NonlocalProblem) -> SeriesSolution:
    """Assemble all modes of the time-averaged problem.

    u(0) = a holds in coefficients to rounding at the mode scale (C_k is
    alpha_k - D_k by construction); the time-average condition holds
    mode-exactly and is re-checked by independent quadrature in `verification`.
    """
    C, D = _solve_modes(
        problem.alpha.coefficients, problem.gamma.coefficients,
        problem.alpha.frequencies(), problem.clock, problem.mode_denominators,
    )
    return SeriesSolution(problem.spectrum, problem.clock.T, C, D)


@dataclass(frozen=True, eq=False)
class BoundCheck:
    """Per-mode check of |C|+|D| <= c (|alpha| + (1+theta)|gamma|), c = 4/z_floor."""

    c: float
    z_floor: float
    lhs: np.ndarray
    rhs: np.ndarray

    @property
    def margin(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def ok(self) -> np.ndarray:
        return self.margin >= 0.0

    @property
    def all_ok(self) -> bool:
        return bool(self.ok.all())


def coefficient_bound_check(problem: NonlocalProblem, solution: SeriesSolution) -> BoundCheck:
    """Check the per-mode coefficient bound with the observed separation floor.

    z_floor is the minimum of |d_k| (1 + theta_k) over the solved modes; with a
    healthy floor every margin is positive, while omega ~ 0 drives near-resonant
    modes far past the bound.
    """
    theta = solution.thetas
    z_floor = float(problem.mode_denominators[1].min())
    c = 4.0 / z_floor
    lhs = np.abs(solution.C) + np.abs(solution.D)
    rhs = c * (np.abs(problem.alpha.coefficients) + (1.0 + theta) * np.abs(problem.gamma.coefficients))
    return BoundCheck(c, z_floor, lhs, rhs)


@dataclass(frozen=True)
class StabilityReport:
    """Observed size of the solution against the size of the data."""

    norm_a_h1: float
    norm_g_h2: float
    sup_u_h1: float
    sup_dudt_h0: float
    c_obs: float
    n_modes: int
    bound_constant: float
    bound_min_margin: float
    bound_all_ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


def stability_report(
    problem: NonlocalProblem, solution: SeriesSolution, norms: NormTrajectories
) -> StabilityReport:
    """Norm quadruple and observed stability ratio on the time grid of `norms`.

    c_obs = (sup_t ||u||_H1 + sup_t ||du/dt||_H0) / (||a||_H1 + ||g||_H2),
    reported as 0 for zero data. A well-posed configuration keeps c_obs
    bounded independently of the truncation order. The sup norms are the
    maxima of `norms`, the solution's trajectories (`norm_trajectories`).
    """
    sup_u = float(norms.u_h1.max())
    sup_du = float(norms.dudt_h0.max())
    na = problem.alpha.sobolev_norm(1)
    ng = problem.gamma.sobolev_norm(2)
    data = na + ng
    bound = coefficient_bound_check(problem, solution)
    return StabilityReport(
        norm_a_h1=na,
        norm_g_h2=ng,
        sup_u_h1=sup_u,
        sup_dudt_h0=sup_du,
        c_obs=(sup_u + sup_du) / data if data > 0 else 0.0,
        n_modes=len(solution),
        bound_constant=bound.c,
        bound_min_margin=float(bound.margin.min()),
        bound_all_ok=bound.all_ok,
    )
