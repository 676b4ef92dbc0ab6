"""Experiment configuration, named data presets, and the run manifest."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .basis import DOMAIN, SpectralVector, project, projection_rule
from .phase import ProblemClock
from .quadrature import GaussLegendre


class ConfigError(ValueError):
    """Invalid experiment configuration; names the offending field."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


# largest `coeffs:` modulus: the condition floor keeps 1/|d_k| <= 1e12 (1 + theta_k), so |C_k|, |D_k| <=
# 2e112 (1 + theta_k), whose squares times theta_k^4 sum below 1e308 at any N; 1e200's squares overflow.
COEFF_LIMIT = 1e100


def resolve_data(spec_text: str, n_modes: int, rule: GaussLegendre | None = None) -> SpectralVector:
    """Turn a data specification string into a coefficient vector on modes 1..n_modes.

    An explicit list 'coeffs:1,0,0.5-0.5j', moduli at most COEFF_LIMIT, is padded with
    zeros up to the truncation order. 'zero' is exact zeros, and 'eigenmode:j' the exact
    unit vector e_j: v_j is orthonormal to each kept mode, so it is zeros for j past
    n_modes (a rule sized to n_modes would alias it). Only 'parabola' is projected by
    quadrature, under `rule`.
    """
    if spec_text == "parabola":
        # x(pi - x) on DOMAIN: smooth, vanishes at both ends, coefficients decay ~ k^-3
        a, b = DOMAIN
        return project(lambda x: (x - a) * (b - x), n_modes, rule)
    coeffs = np.zeros(n_modes, dtype=complex)
    if spec_text.startswith("coeffs:"):
        body = spec_text[len("coeffs:"):].strip()
        try:
            given = [complex(part.strip().replace("i", "j")) for part in body.split(",") if part.strip()]
        except ValueError:
            raise ConfigError("data", f"unparseable coefficient list {body!r}") from None
        if len(given) > n_modes:
            raise ConfigError("data", f"{len(given)} coefficients given but truncation is {n_modes}")
        if any(abs(c) > COEFF_LIMIT for c in given):
            raise ConfigError("data", f"coefficient moduli above {COEFF_LIMIT:g} would overflow the norms")
        coeffs[: len(given)] = given
    elif spec_text.startswith("eigenmode:"):
        try:
            j = int(spec_text.split(":", 1)[1])
        except ValueError:
            raise ConfigError("data", f"bad eigenmode preset {spec_text!r}") from None
        if j < 1:
            raise ConfigError("data", f"eigenmode preset {spec_text!r}: modes start at 1")
        if j <= n_modes:
            coeffs[j - 1] = 1.0
    elif spec_text != "zero":
        raise ConfigError("data", f"unknown preset {spec_text!r}; use zero, parabola, eigenmode:<k>, or coeffs:<list>")
    return SpectralVector(coeffs)


# a key's type is its default's; None is no value of any of them
_TYPES = {int: (Integral, "an integer"), float: (Real, "a real number"), str: (str, "a string")}


def _typed(key: str, value, default):
    """`value` converted to its key's type, else a ConfigError naming the key.
    Bools are not numbers; omega may also be a list of numbers."""
    kind = type(default)
    accepted, name = _TYPES[kind]

    def one(item):
        if isinstance(item, bool) or not isinstance(item, accepted):
            raise ConfigError(key, f"expected {name}, got {item!r}")
        try:
            return kind(item)
        except OverflowError:
            raise ConfigError(key, f"{item!r} is out of range") from None

    if key == "omega" and isinstance(value, (list, tuple)):
        return tuple(map(one, value))
    return one(value)


@dataclass
class ExperimentConfig:
    """One experiment run: clock (omega a number, or a list for sweep), truncation,
    data, grids. The output directory is no part of it: `--out` alone sets that."""

    T: float = 5.0
    omega: float | tuple[float, ...] = 0.01
    N: int = 100
    a: str = "zero"
    b: str = "zero"  # velocity datum, cauchy only
    g: str = "parabola"
    f: str = "parabola"  # the function expanded, project only
    nx: int = 201
    nt: int = 201
    quad_panels: int = 64

    def validate(self, omega_list: bool = False) -> "ExperimentConfig":
        """This config checked, a one-element omega list read as its number. With
        `omega_list` (sweep) omega must be a nonempty list, else one number. The
        clock is checked where it is built: `ProblemClock` rejects a non-finite
        2*omega*T, and `NonlocalProblem` an inadmissible clock."""
        if not self.T > 0:
            raise ConfigError("T", "must be positive")
        if self.N < 1:
            raise ConfigError("N", "must be >= 1")
        if self.nx < 2 or self.nt < 2:
            raise ConfigError("grid", "nx and nt must be >= 2")
        if self.quad_panels < 1:
            raise ConfigError("quad_panels", "must be >= 1")
        listed, cfg = isinstance(self.omega, tuple), self
        if omega_list and not (listed and self.omega):
            raise ConfigError("omega", "sweep needs a nonempty omega list")
        if listed and not omega_list:
            if len(self.omega) != 1:
                raise ConfigError("omega", "a list is only meaningful for the sweep command")
            cfg = replace(self, omega=self.omega[0])
        return cfg

    def data(self, *specs: str) -> tuple[SpectralVector, ...]:
        """`resolve_data` of each spec on N modes under one projection rule; a spec
        given twice resolves (and projects) once. Errors come in the order given."""
        rule = projection_rule(self.N, self.quad_panels)
        resolved = {spec: resolve_data(spec, self.N, rule) for spec in dict.fromkeys(specs)}
        return tuple(resolved[spec] for spec in specs)

    def clock(self) -> ProblemClock:
        return ProblemClock(self.T, self.omega)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:  # unreadable, or not JSON
            raise ConfigError("<file>", f"{path}: not a readable JSON file ({exc})") from None
        if not isinstance(raw, dict):
            raise ConfigError("<file>", f"{path}: expected a JSON object")
        return cls().merged(**raw)

    def merged(self, **overrides) -> "ExperimentConfig":
        """New config with the overrides applied, each checked against its key's
        type; unknown keys are errors, and so is None for every key."""
        defaults = {f.name: f.default for f in fields(self)}
        values = asdict(self)
        for key, val in overrides.items():
            if key not in defaults:
                raise ConfigError(key, "unknown configuration key")
            values[key] = _typed(key, val, defaults[key])
        return ExperimentConfig(**values)


@dataclass
class RunManifest:
    """What a run did: config echo, version, timings, exit code and error, artifacts,
    check outcomes."""

    command: str
    config: dict
    version: str
    started_utc: str = field(default_factory=lambda: datetime.now(timezone.utc).isoformat())
    wall_seconds: float = 0.0
    exit_code: int = 0
    error: str | None = None
    files: list = field(default_factory=list)
    checks: list = field(default_factory=list)

    def add_check(self, name: str, value: float, tolerance: float) -> bool:
        passed = bool(value <= tolerance)
        self.checks.append(
            {"name": name, "value": float(value), "tolerance": float(tolerance), "pass": passed}
        )
        return passed

    @property
    def all_passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def write(self, path: Path):
        if str(path.name) not in self.files:
            self.files.append(str(path.name))
        path.write_text(json.dumps(asdict(self), indent=2) + "\n")
