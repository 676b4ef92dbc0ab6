"""Command-line front end: experiment runs with CSV/JSON artifacts.

Subcommands: denominators, solve, cauchy, sweep, paper-table, project. Each run
writes its artifacts plus a manifest.json into the output directory (flag
--out, else config, else $SPECWAVE_OUT, else the working directory). Exit code
0 means every verification stayed within tolerance.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, verification
from .cauchy import CauchyProblem, solve_cauchy
from .config import ConfigError, ExperimentConfig, RunManifest, resolve_data
from .phase import ProblemClock, z_diagnostic
from .timeavg import (
    IllConditionedModeError,
    NonlocalProblem,
    solve_nonlocal,
    stability_report,
)

ENV_OUT = "SPECWAVE_OUT"

# reference diagnostics: z(500) for the four (T, omega) cells, 2% tolerance
REFERENCE_Z500 = (
    (5.0, 0.0, 3.66e-9),
    (5.0, 0.01, 0.1001),
    (10.0, 0.0, 3.68e-9),
    (10.0, 0.01, 0.1998),
)
REFERENCE_RTOL = 0.02


# rows formatted and written at once: bounds the row strings held in memory
_BLOCK_ROWS = 4096


def write_csv(path: Path, header: str, columns) -> str:
    """Write a CSV of equal-length columns under `header`; returns the file name.

    A column is a NumPy array or a list of labels. Float arrays are written as
    %.12e and every other column as str(), through one %-format row string;
    the rows are formatted and written in blocks of _BLOCK_ROWS.
    """
    line = ",".join(
        "%.12e" if isinstance(c, np.ndarray) and c.dtype.kind == "f" else "%s" for c in columns
    ) + "\n"
    with path.open("w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = [c[start:start + _BLOCK_ROWS] for c in columns]
            rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in block))
            fh.write("".join(map(line.__mod__, rows)))
    return path.name


def write_field_csv(path: Path, xs, ts, grid) -> str:
    header = "x," + ",".join("t=%.12e" % t for t in ts)
    return write_csv(path, header, [xs, *grid.T])


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out if cfg.out != "." else os.environ.get(ENV_OUT, cfg.out))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(command: str, cfg: ExperimentConfig) -> RunManifest:
    return RunManifest(command=command, config=cfg.to_dict(), version=__version__)


def cmd_denominators(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    manifest = _manifest("denominators", cfg)
    t0 = time.perf_counter()
    report = z_diagnostic(cfg.N, cfg.build_spectrum(), cfg.clock())
    d = report.values
    manifest.files.append(write_csv(
        out / "denominators.csv",
        "k,theta,re_d,im_d,abs_d,scaled,class",
        [
            report.modes, report.thetas, d.real, d.imag,
            # hypot, as the scalar abs() of each element; np.abs differs in the last bit
            np.hypot(d.real, d.imag), report.scaled, [c.label for c in report.classes],
        ],
    ))
    manifest.files.append(write_csv(
        out / "z.csv", "m,z", [report.modes, report.running_min()]
    ))
    print(f"z({cfg.N}) = {report.z:.3e}")
    manifest.wall_seconds = time.perf_counter() - t0
    manifest.write(out / "manifest.json")
    return 0


def _write_solution_artifacts(out: Path, manifest, cfg: ExperimentConfig, solution):
    """Field CSVs and norms.csv; returns the norm trajectories for the reports."""
    xs = np.linspace(*solution.spectrum.domain, cfg.nx)
    ts = np.linspace(0.0, cfg.T, cfg.nt)
    grid = solution.field(xs, ts)
    manifest.files.append(write_field_csv(out / "field_re.csv", xs, ts, grid.real))
    manifest.files.append(write_field_csv(out / "field_im.csv", xs, ts, grid.imag))
    norms = solution.norm_trajectories(np.linspace(0.0, cfg.T, cfg.time_points))
    manifest.files.append(write_csv(
        out / "norms.csv",
        "t,u_h0,u_h1,dudt_h0",
        [norms.ts, norms.u_h0, norms.u_h1, norms.dudt_h0],
    ))
    return norms


def cmd_solve(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    manifest = _manifest("solve", cfg)
    t0 = time.perf_counter()
    spectrum = cfg.build_spectrum()
    rule = cfg.build_rule()
    problem = NonlocalProblem(
        spectrum,
        cfg.clock(),
        resolve_data(cfg.a, spectrum, cfg.N, rule),
        resolve_data(cfg.g, spectrum, cfg.N, rule),
    )
    solution = solve_nonlocal(problem)
    norms = _write_solution_artifacts(out, manifest, cfg, solution)

    report = stability_report(problem, solution, norms=norms)
    (out / "stability.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    manifest.files.append("stability.json")

    init_res = verification.initial_condition_relative(problem, solution)
    integral = verification.integral_condition_residual(problem, solution)
    trip = verification.roundtrip_check(problem, solution)
    g_scale = 1.0 + problem.gamma.sobolev_norm(0)
    manifest.add_check("initial_condition_rel", init_res, 1e-14)
    manifest.add_check("integral_condition_rel", integral.total / g_scale, cfg.tol)
    manifest.add_check("roundtrip_coefficient_rel", trip.coefficient_rel, 1e-10)
    manifest.add_check("roundtrip_field_max", trip.field_max, 1e-9 * (1.0 + trip.field_scale))
    manifest.add_check("real_system_re", integral.re, cfg.tol * g_scale)
    manifest.add_check("real_system_im", integral.im, cfg.tol * g_scale)
    (out / "verification.json").write_text(json.dumps(manifest.checks, indent=2) + "\n")
    manifest.files.append("verification.json")

    manifest.wall_seconds = time.perf_counter() - t0
    manifest.write(out / "manifest.json")
    return 0 if manifest.all_passed else 1


def cmd_cauchy(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    manifest = _manifest("cauchy", cfg)
    t0 = time.perf_counter()
    spectrum = cfg.build_spectrum()
    rule = cfg.build_rule()
    problem = CauchyProblem(
        spectrum,
        cfg.T,
        resolve_data(cfg.a, spectrum, cfg.N, rule),
        resolve_data(cfg.b, spectrum, cfg.N, rule),
    )
    solution = solve_cauchy(problem)
    norms = _write_solution_artifacts(out, manifest, cfg, solution)

    drift = float(verification.mode_energy_drift(solution).max())
    margin = verification.energy_estimate_margin(problem, solution)
    energy = {
        "norm_a_h1": problem.alpha.sobolev_norm(1),
        "norm_b_h0": problem.beta.sobolev_norm(0),
        "sup_u_h1": float(norms.u_h1.max()),
        "sup_dudt_h0": float(norms.dudt_h0.max()),
        "estimate_margin": margin,
        "max_mode_energy_drift": drift,
    }
    (out / "energy.json").write_text(json.dumps(energy, indent=2) + "\n")
    manifest.files.append("energy.json")
    manifest.add_check("mode_energy_drift", drift, 1e-12)
    manifest.add_check("energy_estimate_violation", max(0.0, -margin), 0.0)
    (out / "verification.json").write_text(json.dumps(manifest.checks, indent=2) + "\n")
    manifest.files.append("verification.json")

    manifest.wall_seconds = time.perf_counter() - t0
    manifest.write(out / "manifest.json")
    return 0 if manifest.all_passed else 1


def cmd_sweep(cfg: ExperimentConfig) -> int:
    out = _outdir(cfg)
    manifest = _manifest("sweep", cfg)
    t0 = time.perf_counter()
    spectrum = cfg.build_spectrum()
    rule = cfg.build_rule()
    alpha = resolve_data(cfg.a, spectrum, cfg.N, rule)
    gamma = resolve_data(cfg.g, spectrum, cfg.N, rule)
    rows = []
    failures = 0
    for omega in cfg.omegas:
        clock = ProblemClock(cfg.T, omega)
        z_n = z_diagnostic(cfg.N, spectrum, clock).z
        if not clock.admissible:
            rows.append([omega, z_n, float("nan"), float("nan"), "inadmissible"])
            failures += 1
            continue
        problem = NonlocalProblem(spectrum, clock, alpha, gamma)
        try:
            solution = solve_nonlocal(problem)
        except IllConditionedModeError as exc:
            rows.append([omega, z_n, float("nan"), float("nan"), f"ill-conditioned k={exc.k}"])
            failures += 1
            continue
        report = stability_report(problem, solution, cfg.time_points)
        max_coeff = float((np.abs(solution.C) + np.abs(solution.D)).max())
        rows.append([omega, z_n, report.c_obs, max_coeff, "ok"])
    manifest.files.append(write_csv(
        out / "sweep.csv", "omega,z_N,c_obs,max_mode_coeff,status", [np.array(column) for column in zip(*rows)]
    ))
    manifest.add_check("failed_rows", float(failures), 0.0)
    manifest.wall_seconds = time.perf_counter() - t0
    manifest.write(out / "manifest.json")
    return 0 if failures == 0 else 1


def cmd_paper_table(cfg: ExperimentConfig) -> int:
    spectrum = cfg.build_spectrum()
    all_ok = True
    t0 = time.perf_counter()
    print("     T   omega      measured      expected   rel.err  status")
    for T, omega, expected in REFERENCE_Z500:
        measured = z_diagnostic(500, spectrum, ProblemClock(T, omega)).z
        rel = abs(measured - expected) / expected
        ok = rel <= REFERENCE_RTOL
        all_ok &= ok
        print(
            f"  {T:4.1f}  {omega:6.3f}  {measured:12.4e}  {expected:12.4e}  "
            f"{100 * rel:6.2f}%  {'PASS' if ok else 'FAIL'}"
        )
    print(f"table reproduced in {time.perf_counter() - t0:.3f} s")
    return 0 if all_ok else 1


def cmd_project(cfg: ExperimentConfig, preset: str) -> int:
    out = _outdir(cfg)
    manifest = _manifest("project", cfg)
    t0 = time.perf_counter()
    spectrum = cfg.build_spectrum()
    vec = resolve_data(preset, spectrum, cfg.N, cfg.build_rule())
    c = vec.coefficients
    manifest.files.append(write_csv(
        out / "coefficients.csv",
        "k,re_c,im_c,abs_c",
        [np.arange(1, len(c) + 1), c.real, c.imag, np.hypot(c.real, c.imag)],
    ))
    print(f"projected {preset!r} onto {cfg.N} modes; H0 norm = {vec.sobolev_norm(0):.6e}")
    manifest.wall_seconds = time.perf_counter() - t0
    manifest.write(out / "manifest.json")
    return 0


def _parse_omega(text: str):
    parts = [p for p in text.split(",") if p.strip()]
    values = [float(p) for p in parts]
    return values if len(values) > 1 else values[0]


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nx, nt = text.lower().split("x")
        return int(nx), int(nt)
    except ValueError:
        raise ConfigError("grid", f"expected '<nx>x<nt>', got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specwave",
        description="Spectral wave-equation experiments with a weighted time-average condition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        sp.add_argument("--out", type=str, default=None, help="output directory")
        sp.add_argument("--N", type=int, default=None, help="truncation order")
        sp.add_argument("--T", type=float, default=None, help="time horizon")
        sp.add_argument("--omega", type=str, default=None, help="weight frequency (or comma list)")
        sp.add_argument("--tol", type=float, default=None, help="verification tolerance")
        sp.add_argument("--grid", type=str, default=None, help="field grid as <nx>x<nt>")
        return sp

    common(sub.add_parser("denominators", help="per-mode denominators and the z diagnostic"))
    sp = common(sub.add_parser("solve", help="solve the time-averaged problem and verify"))
    sp.add_argument("--a", type=str, default=None, help="position datum preset")
    sp.add_argument("--g", type=str, default=None, help="time-average datum preset")
    sp = common(sub.add_parser("cauchy", help="solve the initial-value problem"))
    sp.add_argument("--a", type=str, default=None, help="position datum preset")
    sp.add_argument("--b", type=str, default=None, help="velocity datum preset")
    sp = common(sub.add_parser("sweep", help="z and stability across an omega list"))
    sp.add_argument("--a", type=str, default=None, help="position datum preset")
    sp.add_argument("--g", type=str, default=None, help="time-average datum preset")
    common(sub.add_parser("paper-table", help="reproduce the published z(500) table"))
    sp = common(sub.add_parser("project", help="project a preset onto the eigenbasis"))
    sp.add_argument("--f", type=str, default="parabola", help="function preset to project")
    return parser


# subcommand -> (config kind, handler); the handlers name the module functions
# at call time, so a function patched on this module (tests, profilers) is used
COMMANDS = {
    "denominators": ("denominators", lambda cfg, args: cmd_denominators(cfg)),
    "solve": ("nonlocal", lambda cfg, args: cmd_solve(cfg)),
    "cauchy": ("cauchy", lambda cfg, args: cmd_cauchy(cfg)),
    "sweep": ("sweep", lambda cfg, args: cmd_sweep(cfg)),
    "paper-table": ("denominators", lambda cfg, args: cmd_paper_table(cfg)),
    "project": ("denominators", lambda cfg, args: cmd_project(cfg, args.f)),
}


def _config_from_args(args, kind: str) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    cfg = cfg.merged(kind=kind)
    overrides = {}
    for key in ("out", "N", "T", "tol"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "omega", None) is not None:
        parsed = _parse_omega(args.omega)
        if kind == "sweep" and not isinstance(parsed, list):
            parsed = [parsed]
        if isinstance(parsed, list) and kind != "sweep":
            raise ConfigError("omega", "a list is only meaningful for the sweep command")
        overrides["omega"] = parsed
    if getattr(args, "grid", None) is not None:
        overrides["nx"], overrides["nt"] = _parse_grid(args.grid)
    for key in ("a", "b", "g"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return cfg.merged(**overrides).validate()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    kind, handler = COMMANDS[args.command]
    try:
        return handler(_config_from_args(args, kind), args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IllConditionedModeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write artifacts: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
