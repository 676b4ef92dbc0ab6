"""Command-line front end: experiment runs with CSV/JSON artifacts.

Subcommands, each declared once in COMMANDS: denominators, solve, cauchy,
sweep, paper-table, project. A handler only computes, writes its artifacts and
adds manifest checks; `main` owns the run lifecycle: the output directory (flag
--out, else config, else $SPECWAVE_OUT, else the working directory), the
manifest, its wall time and manifest.json, which every subcommand writes, also
when the run fails after making its output directory (with `exit_code` and
`error`). Exit code 0 iff every manifest check passed; 1 for a failed check, an
ill-conditioned mode, an unwritable output or an allocation the machine
refuses; 2 for a config error, an inadmissible omega or an overflowing phase,
2*omega*T or (omega +/- theta_k)*T.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, verification
from .basis import DirichletLaplacian1D
from .cauchy import CauchyProblem, solve_cauchy
from .config import ConfigError, ExperimentConfig, RunManifest, resolve_data
from .phase import LABELS, ProblemClock, z_diagnostic
from .timeavg import (
    IllConditionedModeError,
    NonlocalProblem,
    solve_nonlocal,
    stability_report,
)

ENV_OUT = "SPECWAVE_OUT"

# the one spectrum the command line solves on
SPECTRUM = DirichletLaplacian1D()

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


def write_json(path: Path, obj) -> str:
    """Write `obj` as indented JSON; returns the file name."""
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path.name


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out if cfg.out is not None else os.environ.get(ENV_OUT, "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_denominators(cfg: ExperimentConfig, args, out: Path, manifest: RunManifest):
    report = z_diagnostic(cfg.N, SPECTRUM, cfg.clock())
    d = report.values
    manifest.files.append(write_csv(
        out / "denominators.csv",
        "k,theta,re_d,im_d,abs_d,scaled,class",
        [
            report.modes, report.thetas, d.real, d.imag,
            # hypot, as the scalar abs() of each element; np.abs differs in the last bit
            np.hypot(d.real, d.imag), report.scaled, [LABELS[c] for c in report.codes.tolist()],
        ],
    ))
    manifest.files.append(write_csv(
        out / "z.csv", "m,z", [report.modes, report.running_min()]
    ))
    print(f"z({cfg.N}) = {report.z:.3e}")


def _write_solution_artifacts(out: Path, manifest, cfg: ExperimentConfig, solution):
    """Field CSVs and norms.csv; returns the norm trajectories for the reports."""
    xs = np.linspace(*solution.spectrum.domain, cfg.nx)
    ts = np.linspace(0.0, cfg.T, cfg.nt)
    grid = solution.field(xs, ts)
    manifest.files.append(write_field_csv(out / "field_re.csv", xs, ts, grid.real))
    manifest.files.append(write_field_csv(out / "field_im.csv", xs, ts, grid.imag))
    norms = solution.norm_trajectories(cfg.time_points)
    manifest.files.append(write_csv(
        out / "norms.csv",
        "t,u_h0,u_h1,dudt_h0",
        [norms.ts, norms.u_h0, norms.u_h1, norms.dudt_h0],
    ))
    return norms


def cmd_solve(cfg: ExperimentConfig, args, out: Path, manifest: RunManifest):
    rule = cfg.build_rule()
    problem = NonlocalProblem(
        SPECTRUM,
        cfg.clock(),
        resolve_data(cfg.a, SPECTRUM, cfg.N, rule),
        resolve_data(cfg.g, SPECTRUM, cfg.N, rule),
    )
    solution = solve_nonlocal(problem)
    norms = _write_solution_artifacts(out, manifest, cfg, solution)

    report = stability_report(problem, solution, norms)
    manifest.files.append(write_json(out / "stability.json", report.to_dict()))

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
    manifest.files.append(write_json(out / "verification.json", manifest.checks))


def cmd_cauchy(cfg: ExperimentConfig, args, out: Path, manifest: RunManifest):
    rule = cfg.build_rule()
    problem = CauchyProblem(
        SPECTRUM,
        cfg.T,
        resolve_data(cfg.a, SPECTRUM, cfg.N, rule),
        resolve_data(cfg.b, SPECTRUM, cfg.N, rule),
    )
    solution = solve_cauchy(problem)
    norms = _write_solution_artifacts(out, manifest, cfg, solution)

    drift = float(verification.mode_energy_drift(solution).max())
    margin = verification.energy_estimate_margin(problem, solution, norms)
    energy = {
        "norm_a_h1": problem.alpha.sobolev_norm(1),
        "norm_b_h0": problem.beta.sobolev_norm(0),
        "sup_u_h1": float(norms.u_h1.max()),
        "sup_dudt_h0": float(norms.dudt_h0.max()),
        "estimate_margin": margin,
        "max_mode_energy_drift": drift,
    }
    manifest.files.append(write_json(out / "energy.json", energy))
    manifest.add_check("mode_energy_drift", drift, 1e-12)
    manifest.add_check("energy_estimate_violation", max(0.0, -margin), 0.0)
    manifest.files.append(write_json(out / "verification.json", manifest.checks))


def cmd_sweep(cfg: ExperimentConfig, args, out: Path, manifest: RunManifest):
    rule = cfg.build_rule()
    alpha = resolve_data(cfg.a, SPECTRUM, cfg.N, rule)
    gamma = resolve_data(cfg.g, SPECTRUM, cfg.N, rule)
    rows = []
    for omega in cfg.omega:
        clock = ProblemClock(cfg.T, omega)
        z_n = z_diagnostic(cfg.N, SPECTRUM, clock).z
        if not clock.admissible:
            rows.append([omega, z_n, float("nan"), float("nan"), "inadmissible"])
            continue
        problem = NonlocalProblem(SPECTRUM, clock, alpha, gamma)
        try:
            solution = solve_nonlocal(problem)
        except IllConditionedModeError as exc:
            rows.append([omega, z_n, float("nan"), float("nan"), f"ill-conditioned k={exc.k}"])
            continue
        report = stability_report(problem, solution, solution.norm_trajectories(cfg.time_points))
        max_coeff = float((np.abs(solution.C) + np.abs(solution.D)).max())
        rows.append([omega, z_n, report.c_obs, max_coeff, "ok"])
    manifest.files.append(write_csv(
        out / "sweep.csv", "omega,z_N,c_obs,max_mode_coeff,status", [np.array(column) for column in zip(*rows)]
    ))
    manifest.add_check("failed_rows", float(sum(row[-1] != "ok" for row in rows)), 0.0)


def cmd_paper_table(cfg: ExperimentConfig, args, out: Path, manifest: RunManifest):
    t0 = time.perf_counter()
    print("     T   omega      measured      expected   rel.err  status")
    for T, omega, expected in REFERENCE_Z500:
        measured = z_diagnostic(500, SPECTRUM, ProblemClock(T, omega)).z
        rel = abs(measured - expected) / expected
        ok = manifest.add_check(f"z500_T{T:g}_omega{omega:g}_rel", rel, REFERENCE_RTOL)
        print(
            f"  {T:4.1f}  {omega:6.3f}  {measured:12.4e}  {expected:12.4e}  "
            f"{100 * rel:6.2f}%  {'PASS' if ok else 'FAIL'}"
        )
    print(f"table reproduced in {time.perf_counter() - t0:.3f} s")


def cmd_project(cfg: ExperimentConfig, args, out: Path, manifest: RunManifest):
    vec = resolve_data(args.f, SPECTRUM, cfg.N, cfg.build_rule())
    c = vec.coefficients
    manifest.files.append(write_csv(
        out / "coefficients.csv",
        "k,re_c,im_c,abs_c",
        [np.arange(1, len(c) + 1), c.real, c.imag, np.hypot(c.real, c.imag)],
    ))
    print(f"projected {args.f!r} onto {cfg.N} modes; H0 norm = {vec.sobolev_norm(0):.6e}")


def _parse_omega(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        values = ()
    if not values:
        raise ConfigError("omega", f"expected a number or a comma list of numbers, got {text!r}")
    return values


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nx, nt = text.lower().split("x")
        return int(nx), int(nt)
    except ValueError:
        raise ConfigError("grid", f"expected '<nx>x<nt>', got {text!r}") from None


class Command(NamedTuple):
    """One subcommand: help line, data flags, handler, and whether omega is a list."""

    help: str
    flags: tuple[str, ...]
    run: Callable
    omega_list: bool = False


# data flag -> (help, default)
DATA_FLAGS = {
    "a": ("position datum preset", None),
    "b": ("velocity datum preset", None),
    "g": ("time-average datum preset", None),
    "f": ("function preset to project", "parabola"),
}

# the handlers name the module functions at call time, so a function patched
# on this module (tests, profilers) is used
COMMANDS = {
    "denominators": Command("per-mode denominators and the z diagnostic", (),
                            lambda *run: cmd_denominators(*run)),
    "solve": Command("solve the time-averaged problem and verify", ("a", "g"),
                     lambda *run: cmd_solve(*run)),
    "cauchy": Command("solve the initial-value problem", ("a", "b"),
                      lambda *run: cmd_cauchy(*run)),
    "sweep": Command("z and stability across an omega list", ("a", "g"),
                     lambda *run: cmd_sweep(*run), omega_list=True),
    "paper-table": Command("reproduce the published z(500) table", (),
                           lambda *run: cmd_paper_table(*run)),
    "project": Command("project a preset onto the eigenbasis", ("f",),
                       lambda *run: cmd_project(*run)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specwave",
        description="Spectral wave-equation experiments with a weighted time-average condition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        sp.add_argument("--out", type=str, default=None, help="output directory")
        sp.add_argument("--N", type=int, default=None, help="truncation order")
        sp.add_argument("--T", type=float, default=None, help="time horizon")
        sp.add_argument("--omega", type=str, default=None, help="weight frequency (or comma list)")
        sp.add_argument("--tol", type=float, default=None, help="verification tolerance")
        sp.add_argument("--grid", type=str, default=None, help="field grid as <nx>x<nt>")
        for flag in command.flags:
            text, default = DATA_FLAGS[flag]
            sp.add_argument(f"--{flag}", type=str, default=default, help=text)
    return parser


def _config_from_args(args, command: Command) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    overrides = {key: getattr(args, key, None) for key in ("out", "N", "T", "tol", "a", "b", "g")}
    if args.omega is not None:
        overrides["omega"] = _parse_omega(args.omega)
    if args.grid is not None:
        overrides["nx"], overrides["nt"] = _parse_grid(args.grid)
    return cfg.merged(**overrides).validate(command.omega_list)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    manifest = error = None
    try:
        cfg = _config_from_args(args, command)
        out = _outdir(cfg)
        manifest = RunManifest(command=args.command, config=asdict(cfg), version=__version__)
        t0 = time.perf_counter()
        command.run(cfg, args, out, manifest)
        code = 0 if manifest.all_passed else 1
    except IllConditionedModeError as exc:
        error, code = str(exc), 1
    except OSError as exc:
        error, code = f"cannot write artifacts: {exc}", 1
    except MemoryError as exc:
        error, code = f"out of memory: {str(exc) or 'allocation refused'}", 1
    except ValueError as exc:  # ConfigError among them
        error, code = str(exc), 2
    if manifest is not None:
        # a run that got as far as its output directory explains itself there,
        # failed or not
        manifest.wall_seconds = time.perf_counter() - t0
        manifest.exit_code, manifest.error = code, error
        try:
            manifest.write(out / "manifest.json")
        except OSError as exc:
            if error is None:
                error, code = f"cannot write artifacts: {exc}", 1
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
