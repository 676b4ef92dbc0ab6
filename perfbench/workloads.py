"""Seeded inputs for the benchmark workloads.

A workload is a pool of rounds; a round is a list of CLI invocations that the
benchmark runs one after another, one at a time. The timed loop cycles through
the pool until the run's time is used up, always finishing a round, so every
run sees the same mix of commands. Only the seed decides the inputs: the
weight frequencies, the random coefficient data and the points the oracle
samples. specwave receives nothing but the generated command lines and config
files.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass

WORKLOADS = ("solve-large", "small-runs", "omega-study")

T = 5.0
POOL_ROUNDS = 8

# omega is drawn log-uniformly from this range; every draw keeps
# dist(2*omega*T, 2*pi*Z) at least OMEGA_MARGIN, fifty times the margin below
# which specwave.ProblemClock warns about degrading conditioning
OMEGA_RANGE = (0.01, 0.5)
OMEGA_MARGIN = 0.05

# grid of the field CSVs (specwave's default nx x nt) and of norms.csv
FIELD_GRID = (201, 201)
NORM_POINTS = 1001

# oracle sample sizes per invocation
SAMPLE_MODES = 24
SAMPLE_FIELD_POINTS = 32
SAMPLE_NORM_ROWS = 8


@dataclass(frozen=True)
class Invocation:
    """One specwave command line plus what the oracle needs to check it.

    `args` follow the subcommand; the runner appends --config and --out.
    `config` is written to config.json when not None. `spec` holds the exact
    inputs (coefficients as [re, im] pairs) and the seed-chosen samples.
    """

    command: str
    args: tuple
    config: dict | None
    spec: dict

    def argv(self, config_path: str | None, out_dir: str) -> list:
        argv = [self.command, *self.args]
        if config_path is not None:
            argv += ["--config", config_path]
        return argv + ["--out", out_dir]


def projection_panels(n_modes: int) -> int:
    """Gauss-Legendre panels (8 nodes each) that put 10 nodes in each period of
    sin(N x) on (0, pi).

    specwave projects presets with 64 panels unless told otherwise. That rule
    aliases sin(k x) for k above about 170 (at N = 1000 it returns the parabola's
    g_k wrong by up to 2.3), and 8 nodes per period still errs by 3e-10, so a
    run at N = 1000 is only correct when the config sizes the rule to N.
    """
    return max(64, -(-5 * n_modes // 8))


def _coeffs_text(values) -> str:
    # repr round-trips, so specwave parses exactly the floats the oracle uses
    return "coeffs:" + ",".join(
        f"{c.real!r}{'-' if math.copysign(1.0, c.imag) < 0 else '+'}{abs(c.imag)!r}j" for c in values
    )


def _draw_coeffs(rng: random.Random, n: int) -> list:
    """Random complex coefficients decaying like k^-3 (smooth, H^2 data)."""
    return [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / k**3 for k in range(1, n + 1)]


def _draw_omega(rng: random.Random) -> float:
    lo, hi = OMEGA_RANGE
    while True:
        omega = math.exp(rng.uniform(math.log(lo), math.log(hi)))
        r = math.fmod(2.0 * omega * T, 2.0 * math.pi)
        if min(r, 2.0 * math.pi - r) >= OMEGA_MARGIN:
            return omega


def _pairs(values) -> list:
    return [[c.real, c.imag] for c in values]


def _samples(rng: random.Random, n_modes: int, field: bool) -> dict:
    samples = {"modes": sorted(rng.sample(range(1, n_modes + 1), min(SAMPLE_MODES, n_modes)))}
    if field:
        nx, nt = FIELD_GRID
        samples["field_points"] = [[rng.randrange(nx), rng.randrange(nt)] for _ in range(SAMPLE_FIELD_POINTS)]
        samples["norm_rows"] = sorted(rng.sample(range(NORM_POINTS), SAMPLE_NORM_ROWS))
    return samples


def _solve(rng: random.Random, n_modes: int) -> Invocation:
    omega = _draw_omega(rng)
    a = _draw_coeffs(rng, n_modes)
    return Invocation(
        "solve",
        ("--T", repr(T), "--N", str(n_modes), "--omega", repr(omega), "--g", "parabola"),
        {"a": _coeffs_text(a), "quad_panels": projection_panels(n_modes)},
        {"N": n_modes, "T": T, "omega": omega, "a": _pairs(a), "g": "parabola",
         **_samples(rng, n_modes, field=True)},
    )


def _cauchy(rng: random.Random, n_modes: int) -> Invocation:
    a = _draw_coeffs(rng, n_modes)
    b = _draw_coeffs(rng, n_modes)
    return Invocation(
        "cauchy",
        ("--T", repr(T), "--N", str(n_modes)),
        {"a": _coeffs_text(a), "b": _coeffs_text(b)},
        {"N": n_modes, "T": T, "a": _pairs(a), "b": _pairs(b), **_samples(rng, n_modes, field=True)},
    )


def _project(n_modes: int) -> Invocation:
    return Invocation(
        "project",
        ("--N", str(n_modes), "--f", "parabola"),
        {"quad_panels": projection_panels(n_modes)},
        {"N": n_modes, "f": "parabola"},
    )


def _denominators(rng: random.Random, n_modes: int, omega: float) -> Invocation:
    return Invocation(
        "denominators",
        ("--T", repr(T), "--N", str(n_modes), "--omega", repr(omega)),
        None,
        {"N": n_modes, "T": T, "omega": omega, **_samples(rng, n_modes, field=False)},
    )


def _sweep(rng: random.Random, n_modes: int, count: int) -> Invocation:
    omegas = sorted((_draw_omega(rng) for _ in range(count)), reverse=True)
    a = _draw_coeffs(rng, n_modes)
    return Invocation(
        "sweep",
        ("--T", repr(T), "--N", str(n_modes), "--omega", ",".join(repr(w) for w in omegas),
         "--g", "parabola"),
        {"a": _coeffs_text(a), "quad_panels": projection_panels(n_modes)},
        {"N": n_modes, "T": T, "omegas": omegas, "a": _pairs(a), "g": "parabola",
         **_samples(rng, n_modes, field=False)},
    )


def _paper_table() -> Invocation:
    return Invocation("paper-table", (), None, {"N": 500})


def _round(workload: str, rng: random.Random) -> list:
    if workload == "solve-large":
        return [_solve(rng, 1000)]
    if workload == "small-runs":
        return [_solve(rng, 100), _cauchy(rng, 100), _project(100)]
    if workload == "omega-study":
        return [
            _denominators(rng, 100_000, 0.0),
            _denominators(rng, 100_000, _draw_omega(rng)),
            _sweep(rng, 1000, 4),
            _paper_table(),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def build(workload: str, seed: int) -> list:
    """The workload's pool of rounds for this seed; the same seed gives the same inputs."""
    rng = random.Random(f"specwave-bench:{workload}:{seed}")
    return [_round(workload, rng) for _ in range(POOL_ROUNDS)]


def digest(rounds) -> str:
    """sha256 of the generated inputs, for the run record."""
    text = json.dumps([[asdict(inv) for inv in r] for r in rounds], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
