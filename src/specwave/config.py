"""Experiment configuration, named data presets, and the run manifest."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .basis import DirichletLaplacian1D, SpectralVector, Spectrum, project, projection_rule
from .phase import ProblemClock
from .quadrature import GaussLegendre

KINDS = ("cauchy", "nonlocal", "denominators", "sweep")

SPECTRA = {
    "dirichlet-1d": DirichletLaplacian1D,
}


class ConfigError(ValueError):
    """Invalid experiment configuration; names the offending field."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


def preset_function(name: str, spectrum: Spectrum):
    """Named analytic data functions on the spectrum's spatial domain."""
    a, b = spectrum.domain
    if name == "parabola":
        # (x - a)(b - x): smooth, vanishes at both ends, coefficients decay ~ k^-3
        return lambda x: (np.asarray(x, dtype=float) - a) * (b - np.asarray(x, dtype=float))
    if name.startswith("eigenmode:"):
        try:
            j = int(name.split(":", 1)[1])
        except ValueError:
            raise ConfigError("data", f"bad eigenmode preset {name!r}") from None
        return lambda x: spectrum.eigenfunction(j, x)
    raise ConfigError("data", f"unknown preset {name!r}; use zero, parabola, eigenmode:<k>, or coeffs:<list>")


def resolve_data(spec_text: str, spectrum: Spectrum, n_modes: int,
                 rule: GaussLegendre | None = None) -> SpectralVector:
    """Turn a data specification string into a coefficient vector.

    Either 'zero' (exact zeros, nothing to project), a preset name
    ('parabola', 'eigenmode:3') projected by quadrature, or an explicit list
    'coeffs:1,0,0.5-0.5j' padded with zeros up to the truncation order.
    """
    if spec_text == "zero":
        return SpectralVector(np.zeros(n_modes, dtype=complex), spectrum)
    if spec_text.startswith("coeffs:"):
        body = spec_text[len("coeffs:"):].strip()
        try:
            given = [complex(part.strip().replace("i", "j")) for part in body.split(",") if part.strip()]
        except ValueError:
            raise ConfigError("data", f"unparseable coefficient list {body!r}") from None
        if len(given) > n_modes:
            raise ConfigError("data", f"{len(given)} coefficients given but truncation is {n_modes}")
        coeffs = np.zeros(n_modes, dtype=complex)
        coeffs[: len(given)] = given
        return SpectralVector(coeffs, spectrum)
    return project(preset_function(spec_text, spectrum), spectrum, n_modes, rule)


@dataclass
class ExperimentConfig:
    """One experiment run: problem kind, clock, truncation, data, grids, output."""

    kind: str = "nonlocal"
    T: float = 5.0
    omega: float = 0.01
    omegas: tuple[float, ...] = ()  # sweep only
    N: int = 100
    spectrum: str = "dirichlet-1d"
    a: str = "zero"
    b: str = "zero"  # velocity datum, cauchy only
    g: str = "parabola"
    nx: int = 201
    nt: int = 201
    time_points: int = 1001
    out: str = "."
    tol: float = 1e-8
    quad_panels: int = 64
    quad_order: int = 8

    def validate(self):
        if self.kind not in KINDS:
            raise ConfigError("kind", f"{self.kind!r} not one of {KINDS}")
        if not self.T > 0:
            raise ConfigError("T", "must be positive")
        if self.N < 1:
            raise ConfigError("N", "must be >= 1")
        if self.spectrum not in SPECTRA:
            raise ConfigError("spectrum", f"{self.spectrum!r} not one of {tuple(SPECTRA)}")
        if self.nx < 2 or self.nt < 2 or self.time_points < 2:
            raise ConfigError("grid", "nx, nt, and time_points must be >= 2")
        if not self.tol > 0:
            raise ConfigError("tol", "must be positive")
        if self.kind == "sweep" and not self.omegas:
            raise ConfigError("omega", "sweep needs a nonempty omega list")
        if self.kind == "nonlocal" and not self.clock().admissible:
            raise ConfigError(
                "omega",
                f"(T={self.T}, omega={self.omega}) is inadmissible: exp(2i*omega*T) = 1 "
                "within tolerance (use kind=denominators to study this regime)",
            )
        return self

    def build_spectrum(self) -> Spectrum:
        return SPECTRA[self.spectrum]()

    def build_rule(self) -> GaussLegendre:
        return projection_rule(self.N, self.quad_panels, self.quad_order)

    def clock(self, omega: float | None = None) -> ProblemClock:
        return ProblemClock(self.T, self.omega if omega is None else omega)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["omegas"] = list(self.omegas)
        return d

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"{path}: not valid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise ConfigError("<file>", f"{path}: expected a JSON object")
        return cls().merged(**raw)

    def merged(self, **overrides) -> "ExperimentConfig":
        """New config with non-None overrides applied; unknown keys are errors."""
        known = {f.name for f in fields(self)}
        values = asdict(self)
        for key, val in overrides.items():
            if key not in known:
                raise ConfigError(key, "unknown configuration key")
            if val is None:
                continue
            if key == "omega" and isinstance(val, (list, tuple)):
                values["omegas"] = tuple(float(v) for v in val)
            elif key == "omegas":
                values["omegas"] = tuple(float(v) for v in val)
            else:
                values[key] = val
        values["omegas"] = tuple(values.get("omegas") or ())
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
