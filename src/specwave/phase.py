"""Oscillatory phase integrals, per-mode denominators, and the separation diagnostic.

Everything rests on phi(mu, T) = int_0^T exp(i mu t) dt, evaluated with a
small-argument series so values stay accurate through mu = 0. The per-mode
solvability denominator is d_k = phi(omega + theta_k, T) - phi(omega - theta_k, T);
its scaled magnitude |d_k| (1 + theta_k) must stay away from zero for the
time-averaged problem to be well conditioned, and z(m) = min over k <= m of that
quantity is the computable separation diagnostic.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi

# below this |mu*T| the closed form loses ~8 digits to cancellation
PHI_SERIES_THRESHOLD = 1e-4

# clocks with dist(2*omega*T, 2*pi*Z) at or below this are rejected by the solver;
# conditioning degrades like the reciprocal of the distance, so warn early
ADMISSIBILITY_TOL = 1e-9
ADMISSIBILITY_WARN = 1e-3

# half-width of the resonance / phase-coincidence bands of the mode classification
CLASSIFY_TOL = 1e-9

# denominator_via_f degenerates within this distance of theta = +/- omega
F_FORM_MIN_GAP = 1e-3


def phase_distance(x):
    """Distance from x to the nearest multiple of 2*pi."""
    r = np.mod(x, TWO_PI)
    return np.minimum(r, TWO_PI - r)


@dataclass(frozen=True)
class ProblemClock:
    """Time horizon T plus the frequency omega of the exp(i*omega*t) weight."""

    T: float
    omega: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"horizon T must be positive and finite, got {self.T!r}")
        if not math.isfinite(2.0 * self.omega * self.T):
            # (omega +/- theta) T would overflow in phi
            raise ValueError(f"2*omega*T must be finite, got omega={self.omega!r} at T={self.T!r}")
        margin = self.phase_margin
        if ADMISSIBILITY_TOL < margin <= ADMISSIBILITY_WARN:
            warnings.warn(
                f"2*omega*T is within {margin:.3e} of a multiple of 2*pi; "
                "mode conditioning degrades like the reciprocal of this distance",
                stacklevel=3,  # past the dataclass __init__, to the line that built the clock
            )

    @property
    def phase_margin(self) -> float:
        """dist(2*omega*T, 2*pi*Z); zero exactly when exp(2i*omega*T) = 1."""
        return float(phase_distance(2.0 * self.omega * self.T))

    @property
    def admissible(self) -> bool:
        """Whether exp(2i*omega*T) != 1 holds with a safe numerical margin.

        omega = 0 is representable (the diagnostics need it) but never admissible.
        """
        return self.phase_margin > ADMISSIBILITY_TOL


def phi(mu, T: float):
    """int_0^T exp(i*mu*t) dt = (exp(i*mu*T) - 1)/(i*mu), continued through mu = 0.

    For |mu*T| below PHI_SERIES_THRESHOLD the quotient is replaced by the series
    T*(1 + z/2 + z^2/6 + z^3/24 + z^4/120), z = i*mu*T, whose truncation error
    there is under 1e-22*T; the direct formula would lose ~8 digits to
    cancellation. Accepts a scalar or array mu; a non-finite mu*T raises ValueError.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"T must be positive and finite, got {T!r}")
    mu_in = np.asarray(mu, dtype=float)
    m = np.atleast_1d(mu_in)
    if not math.isfinite(float(np.abs(m).max(initial=0.0)) * T):  # floats: no overflow warning
        raise ValueError(f"mu and mu*T must be finite, got T={T!r}")
    z = 1j * m * T
    out = np.empty(m.shape, dtype=complex)
    small = np.abs(m) * T < PHI_SERIES_THRESHOLD
    big = ~small
    out[big] = (np.exp(z[big]) - 1.0) / (1j * m[big])
    zs = z[small]
    out[small] = T * (1.0 + zs * (0.5 + zs * (1.0 / 6 + zs * (1.0 / 24 + zs / 120))))
    if mu_in.ndim == 0:
        return complex(out[0])
    return out.reshape(mu_in.shape)


def denominators(theta, clock: ProblemClock):
    """d = phi(omega + theta) - phi(omega - theta), its scaled magnitude |d| (1 + theta),
    and phi(omega - theta).

    The one place the per-mode determinant is computed; every solver and
    diagnostic reads it from here, and the solver eliminates with the
    phi(omega - theta) returned. Accepts a scalar or array theta.
    """
    theta = np.asarray(theta, dtype=float)
    phi_minus = phi(clock.omega - theta, clock.T)
    d = phi(clock.omega + theta, clock.T) - phi_minus
    return d, np.abs(d) * (1.0 + theta), phi_minus


def resonance_numerator(x, clock: ProblemClock):
    """f(x) = exp(i*omega*T) * (i*omega*sin(xT) - x*cos(xT)) + x.

    The zeros of f among the mode frequencies are exactly the zeros of the
    denominator, which is why f drives the generic-mode closed form.
    """
    x = np.asarray(x, dtype=float)
    w = np.exp(1j * clock.omega * clock.T)
    return w * (1j * clock.omega * np.sin(x * clock.T) - x * np.cos(x * clock.T)) + x


def denominator_via_f(k, spectrum, clock: ProblemClock, min_gap: float = F_FORM_MIN_GAP):
    """Closed form d_k = 2 f(theta_k) / (i (omega^2 - theta_k^2)) for generic modes.

    Independent cross-check of `denominators`; refuses within `min_gap` of the
    resonance points theta_k = +/- omega, where the division degenerates and
    the stable phi-based route must be used instead.
    """
    theta = np.asarray(spectrum.frequency(k), dtype=float)
    gap = np.minimum(np.abs(theta - clock.omega), np.abs(theta + clock.omega))
    if np.any(gap <= min_gap):
        raise ValueError(
            f"theta within {min_gap:g} of +/-omega: closed form degenerates, use denominators()"
        )
    value = 2.0 * resonance_numerator(theta, clock) / (1j * (clock.omega**2 - theta**2))
    if np.asarray(k).ndim == 0:
        return complex(value)
    return value


class ModeClass(Enum):
    LAMBDA0 = "resonant"
    LAMBDA1 = "phase-matched"
    LAMBDA2 = "generic"


@dataclass(frozen=True)
class Classification:
    """Partition label for one mode plus the matched sub-case."""

    mode_class: ModeClass
    subcase: str

    @property
    def label(self) -> str:
        if self.subcase == "generic":
            return self.mode_class.value
        return f"{self.mode_class.value}({self.subcase})"


CLASSES = (
    Classification(ModeClass.LAMBDA0, "theta=+omega"),
    Classification(ModeClass.LAMBDA0, "theta=-omega"),
    Classification(ModeClass.LAMBDA1, "phase=+omega"),
    Classification(ModeClass.LAMBDA1, "phase=-omega"),
    Classification(ModeClass.LAMBDA2, "generic"),
)
LABELS = tuple(c.label for c in CLASSES)


def _classify_codes(theta, clock: ProblemClock, tol: float) -> np.ndarray:
    """Index into CLASSES of each theta: the first of its bands that holds.

    Resonant: theta = +/-omega within tol. Phase-matched: exp(i*theta*T)
    equals exp(+/-i*omega*T) within tol (phase distance). Everything else is
    generic. The bands exist only to absorb floating point; near-misses
    outside them are handled stably by phi.
    """
    gaps = (theta - clock.omega, theta + clock.omega)
    bands = [np.abs(g) <= tol for g in gaps] + [phase_distance(g * clock.T) <= tol * clock.T for g in gaps]
    return np.select(bands, range(len(bands)), default=len(bands)).astype(np.int8)


@dataclass(frozen=True, eq=False)
class DenominatorReport:
    """Per-mode denominators with scaled magnitudes, codes into CLASSES, and the z diagnostic."""

    modes: np.ndarray
    thetas: np.ndarray
    values: np.ndarray
    scaled: np.ndarray
    codes: np.ndarray

    @property
    def z(self) -> float:
        """min over the stored prefix of |d_k| (1 + theta_k)."""
        return float(self.scaled.min())

    @property
    def argmin_mode(self) -> int:
        return int(self.modes[int(np.argmin(self.scaled))])

    def running_min(self) -> np.ndarray:
        """z(m) for every prefix m = 1..len(modes); nonincreasing."""
        return np.minimum.accumulate(self.scaled)


def z_diagnostic(m: int, spectrum, clock: ProblemClock) -> DenominatorReport:
    """Evaluate d_k for k = 1..m and aggregate the separation diagnostic z(m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    ks = np.arange(1, m + 1)
    theta = np.asarray(spectrum.frequency(ks), dtype=float)
    d, scaled, _ = denominators(theta, clock)
    return DenominatorReport(ks, theta, d, scaled, _classify_codes(theta, clock, CLASSIFY_TOL))
