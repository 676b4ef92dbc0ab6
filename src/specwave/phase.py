"""Oscillatory phase integrals, per-mode denominators, and the separation diagnostic.

Everything rests on phi(mu, T) = int_0^T exp(i mu t) dt, evaluated in the
half-angle form T exp(i mu T/2) sin(mu T/2)/(mu T/2), which has no cancellation
anywhere, mu = 0 included. The per-mode solvability denominator is
d_k = phi(omega + theta_k, T) - phi(omega - theta_k, T); its scaled magnitude
|d_k| (1 + theta_k) must stay away from zero for the time-averaged problem to
be well conditioned, and z(m) = min over k <= m of that quantity is the
computable separation diagnostic. `z_diagnostic` returns all of it in one
`DenominatorReport`, which the solver and every diagnostic read.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import frequencies

TWO_PI = 2.0 * math.pi

# 2*pi as five pieces of at most 12 bits and a full-precision tail (2*pi - sum
# is 6e-33): q * piece is exact for |q| < 2**41, which holds for every
# |phase| < 2**43. The first two pieces sum to 0x1.921p+2, so every partial
# sum, and every phase below 2**42, reduces as with that one 13-bit piece
_TWO_PI_PIECES = tuple(float.fromhex(h) for h in (
    "0x1.92p+2", "0x1p-10", "0x1.f6ap-11", "0x1.11p-24", "0x1.68cp-37", "0x1.1a62633145c07p-52",
))
EXACT_PHASE_LIMIT = 2.0**43

# clocks with dist(2*omega*T, 2*pi*Z) at or below this are rejected by the solver;
# conditioning degrades like the reciprocal of the distance, so warn early
ADMISSIBILITY_TOL = 1e-9
ADMISSIBILITY_WARN = 1e-3

# half-width of the resonance / phase-coincidence bands of the mode classification
CLASSIFY_TOL = 1e-9


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
    """int_0^T exp(i*mu*t) dt = T exp(i*mu*T/2) sin(mu*T/2)/(mu*T/2), the ratio 1 at mu = 0.

    Every factor is accurate to a few ulps, so the value is too, through mu = 0
    and for phi(x) - phi(-x) alike. Accepts a scalar or array mu; a non-finite
    mu*T raises ValueError.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"T must be positive and finite, got {T!r}")
    m = np.asarray(mu, dtype=float)
    if not math.isfinite(float(np.abs(m).max(initial=0.0)) * T):  # floats: no overflow warning
        raise ValueError(f"mu and mu*T must be finite, got T={T!r}")
    half = 0.5 * T * m
    ratio = np.divide(np.sin(half), half, out=np.ones_like(half), where=half != 0.0)
    out = T * np.exp(1j * half) * ratio
    return complex(out) if m.ndim == 0 else out


def _split(x):
    """Veltkamp's split of x into a 26-bit high part and the rest; products of
    two high or low parts are exact."""
    c = 134217729.0 * x  # 2**27 + 1
    high = c - (c - x)
    return high, x - high


def _exact_phase(a, b) -> np.ndarray:
    """The exact product a*b of two floats (or arrays), reduced mod 2*pi to [-pi, pi].

    Dekker's two-product writes a*b = p + e exactly. Cody-Waite subtracts
    q = round(p / 2 pi) times each piece of _TWO_PI_PIECES; the first five
    subtractions are exact, so the result is within about one ulp of pi of the
    true a*b - 2 pi q, however large a*b is. Domain: |a*b| < EXACT_PHASE_LIMIT
    (2**43) and |a|, |b| < 2**996; anything else, a non-finite value included,
    raises ValueError.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    p = a * b
    if not (np.abs(p).max(initial=0.0) < EXACT_PHASE_LIMIT
            and max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0)) < 2.0**996):
        raise ValueError(
            f"phase beyond exact reduction: a product a*b reaches {float(np.abs(p).max(initial=0.0)):.3e}, "
            "but phases must stay below 2**43 (~8.8e12)"
        )
    a_high, a_low = _split(a)
    b_high, b_low = _split(b)
    e = ((a_high * b_high - p) + a_high * b_low + a_low * b_high) + a_low * b_low
    q = np.rint(p / TWO_PI)
    r = p
    for piece in _TWO_PI_PIECES[:-1]:
        r = r - q * piece
    return r + (e - q * _TWO_PI_PIECES[-1])


def _time_step(T: float, count: int) -> float:
    """dt = T / (count - 1) of the `count` uniform times t_j = j dt in [0, T] that every
    evaluation uses and prints; the last can be an ulp off T (np.linspace's is T)."""
    if count < 1:
        raise ValueError(f"evaluation needs time_points >= 1, got {count}")
    return T / (count - 1) if count > 1 else 0.0


def _uniform_phases(dt: float, theta: np.ndarray, count: int) -> np.ndarray:
    """e^{i theta_k j dt} for j < count; shape (len(theta), count).

    With G = isqrt(count) and j = qG + r the table is e^{i theta qG dt} e^{i theta r dt}:
    about 2 len(theta) sqrt(count) exact phases and one complex product per
    entry. Each phase is reduced from dt * (theta_k j'), which is exact for
    integer theta; otherwise theta_k j' rounds once, as theta_k t does.
    """
    group = math.isqrt(count)
    theta = np.asarray(theta, dtype=float)[:, None]
    table = (np.exp(1j * _exact_phase(dt, theta * np.arange(0, count, group)))[:, :, None]
             * np.exp(1j * _exact_phase(dt, theta * np.arange(group)))[:, None, :])
    return table.reshape(theta.size, -1)[:, :count]


# the label of each code that `_classify_codes` returns
LABELS = (
    "resonant(theta=+omega)",
    "resonant(theta=-omega)",
    "phase-matched(phase=+omega)",
    "phase-matched(phase=-omega)",
    "generic",
)


def _classify_codes(theta, clock: ProblemClock, tol: float) -> np.ndarray:
    """Index into LABELS of each theta: the first of its bands that holds.

    Resonant: theta = +/-omega within tol. Phase-matched: the phase distance
    of (theta -/+ omega) T is at most tol * T, a band of half-width tol in
    frequency, not in phase. It widens with T and covers the whole circle once
    tol * T >= pi (T >= 3.1e9 at CLASSIFY_TOL): at omega = 0.3 and N = 2000,
    128 modes are phase-matched at T = 1e8 and all of them at T = 1e10.
    Everything else is generic. The bands exist only to absorb floating
    point; near-misses outside them are handled stably by phi.
    """
    gaps = (theta - clock.omega, theta + clock.omega)
    bands = [np.abs(g) <= tol for g in gaps] + [phase_distance(g * clock.T) <= tol * clock.T for g in gaps]
    return np.select(bands, range(len(bands)), default=len(bands)).astype(np.int8)


@dataclass(frozen=True, eq=False)
class DenominatorReport:
    """Modes k = 1..len(thetas) on `clock`: d_k, |d_k| (1 + theta_k),
    phi(omega - theta_k), codes into LABELS, and the z diagnostic."""

    thetas: np.ndarray
    values: np.ndarray
    scaled: np.ndarray
    phi_minus: np.ndarray
    clock: ProblemClock

    @cached_property
    def codes(self) -> np.ndarray:
        """Index into LABELS of each mode's class; classified when first read,
        since a solve reads a label only when it raises."""
        return _classify_codes(self.thetas, self.clock, CLASSIFY_TOL)

    @property
    def z(self) -> float:
        """min over the stored prefix of |d_k| (1 + theta_k)."""
        return float(self.scaled.min())

    @property
    def argmin_mode(self) -> int:
        return int(np.argmin(self.scaled)) + 1

    def running_min(self) -> np.ndarray:
        """z(m) for every prefix m = 1..len(thetas); nonincreasing."""
        return np.minimum.accumulate(self.scaled)


def z_diagnostic(m: int, clock: ProblemClock) -> DenominatorReport:
    """The report of d_k = phi(omega + theta_k) - phi(omega - theta_k) and z(m), k = 1..m.

    The one place the per-mode determinant is computed; the solver eliminates
    with its phi_minus, and every diagnostic reads it from here.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    theta = frequencies(m)
    phi_minus = phi(clock.omega - theta, clock.T)
    d = phi(clock.omega + theta, clock.T) - phi_minus
    return DenominatorReport(theta, d, np.abs(d) * (1.0 + theta), phi_minus, clock)
