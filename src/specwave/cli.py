"""Command-line front end: experiment runs with CSV/JSON artifacts.

Subcommands, each declared once in COMMANDS: denominators, solve, cauchy,
sweep, paper-table, project. Each runs as `cmd_<name>(cfg, out, manifest)`,
looked up on this module at call time (so a patched handler runs); it reads
only the ExperimentConfig, so a manifest's `config` block reruns its run. A
handler computes, writes its artifacts and adds manifest checks; `main` owns
the run lifecycle: the output directory (flag --out, else the working
directory), the manifest, its wall time and manifest.json, which every
subcommand writes, also when the run fails after making its output directory
(with `exit_code` and `error`). Exit code 0 iff
every manifest check passed; 1 for a failed check, an ill-conditioned mode, an
unwritable output or an allocation the machine refuses; 2 for a config error,
an inadmissible omega, an overflowing phase, 2*omega*T or (omega +/- theta_k)*T,
or an evaluation phase beyond exact reduction (2**43; the norms' phases
2 theta_k t reach it where theta_N t passes about 2**42).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, _csv, verification
from .basis import DOMAIN
from .cauchy import CauchyProblem, solve_cauchy
from .config import ConfigError, ExperimentConfig, RunManifest
from .phase import LABELS, ProblemClock, _time_step, z_diagnostic
from .timeavg import (
    IllConditionedModeError,
    NonlocalProblem,
    solve_nonlocal,
    stability_report,
)

# reference diagnostics: z(500) for the four (T, omega) cells, 0.5% tolerance
REFERENCE_Z500 = (
    (5.0, 0.0, 3.66e-9),
    (5.0, 0.01, 0.1001),
    (10.0, 0.0, 3.68e-9),
    (10.0, 0.01, 0.1998),
)
REFERENCE_RTOL = 0.005

# bound on solve's integral-condition residual, relative to 1 + ||g||_H0
INTEGRAL_TOL = 1e-8

# uniform times in [0, T] of norms.csv and of the sup norms in sweep's c_obs
NORM_TIMES = 1001


# rows formatted and written at once: bounds the cell bytes held in memory
_BLOCK_ROWS = 4096


def write_csv(path: Path, header: str, columns) -> str:
    """Write a CSV of equal-length NumPy columns under `header`; returns the file name.

    Float arrays are written as %.12e, integer arrays (row numbers) as str() and bytes arrays
    (the labels) as their text, byte for byte as Python formats each cell. The
    rows are formatted in NumPy (`_csv.lines`) and written in blocks of _BLOCK_ROWS.
    """
    with path.open("wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            fh.write(_csv.lines([c[start:start + _BLOCK_ROWS] for c in columns]))
    return path.name


def write_field_csv(path: Path, xs, ts, grid) -> str:
    header = "x," + ",".join("t=%.12e" % t for t in ts)
    return write_csv(path, header, [xs, *grid.T])


def write_json(path: Path, obj) -> str:
    """Write `obj` as indented JSON; returns the file name."""
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path.name


def cmd_denominators(cfg: ExperimentConfig, out: Path, manifest: RunManifest):
    report = z_diagnostic(cfg.N, cfg.clock())
    d = report.values
    manifest.files.append(write_csv(
        out / "denominators.csv",
        "k,theta,re_d,im_d,abs_d,scaled,class",
        [
            np.arange(1, cfg.N + 1), report.thetas, d.real, d.imag,
            # hypot, as the scalar abs() of each element; np.abs differs in the last bit
            np.hypot(d.real, d.imag), report.scaled, np.array(LABELS, dtype="S")[report.codes],
        ],
    ))
    manifest.files.append(write_csv(
        out / "z.csv", "m,z", [np.arange(1, cfg.N + 1), report.running_min()]
    ))
    print(f"z({cfg.N}) = {report.z:.3e}")


def _write_solution_artifacts(out: Path, manifest, cfg: ExperimentConfig, solution):
    """Field CSVs and norms.csv; returns the norm trajectories for the reports. Both run before
    any write; on the default grid the norms' phases pass EXACT_PHASE_LIMIT first."""
    norms = solution.norm_trajectories(NORM_TIMES)
    xs = np.linspace(*DOMAIN, cfg.nx)
    ts = np.arange(cfg.nt) * _time_step(cfg.T, cfg.nt)
    grid = solution.field(cfg.nx, cfg.nt)
    manifest.files.append(write_field_csv(out / "field_re.csv", xs, ts, grid.real))
    manifest.files.append(write_field_csv(out / "field_im.csv", xs, ts, grid.imag))
    manifest.files.append(write_csv(
        out / "norms.csv",
        "t,u_h0,u_h1,dudt_h0",
        [norms.ts, norms.u_h0, norms.u_h1, norms.dudt_h0],
    ))
    return norms


def cmd_solve(cfg: ExperimentConfig, out: Path, manifest: RunManifest):
    problem = NonlocalProblem(cfg.clock(), *cfg.data(cfg.a, cfg.g))
    solution = solve_nonlocal(problem)
    norms = _write_solution_artifacts(out, manifest, cfg, solution)

    report = stability_report(problem, solution, norms)
    manifest.files.append(write_json(out / "stability.json", asdict(report)))

    integral_rel = verification.integral_condition_residual(problem, solution)
    manifest.add_check("integral_condition_rel", integral_rel, INTEGRAL_TOL)
    manifest.files.append(write_json(out / "verification.json", manifest.checks))


def cmd_cauchy(cfg: ExperimentConfig, out: Path, manifest: RunManifest):
    problem = CauchyProblem(cfg.T, *cfg.data(cfg.a, cfg.b))
    solution = solve_cauchy(problem)
    norms = _write_solution_artifacts(out, manifest, cfg, solution)

    energy_rel = verification.mode_energy_data_relative(problem, solution)
    margin = verification.energy_estimate_margin(problem, norms)
    energy = {
        "norm_a_h1": problem.alpha.sobolev_norm(1),
        "norm_b_h0": problem.beta.sobolev_norm(0),
        "sup_u_h1": float(norms.u_h1.max()),
        "sup_dudt_h0": float(norms.dudt_h0.max()),
        "estimate_margin": margin,
        "mode_energy_data_rel": energy_rel,
    }
    manifest.files.append(write_json(out / "energy.json", energy))
    manifest.add_check("mode_energy_data_rel", energy_rel, 1e-12)
    manifest.add_check("energy_estimate_violation", max(0.0, -margin), 0.0)
    manifest.files.append(write_json(out / "verification.json", manifest.checks))


def cmd_sweep(cfg: ExperimentConfig, out: Path, manifest: RunManifest):
    alpha, gamma = cfg.data(cfg.a, cfg.g)
    rows = []
    for omega in cfg.omega:
        clock = ProblemClock(cfg.T, omega)
        if not clock.admissible:
            z_n = z_diagnostic(cfg.N, clock).z
            rows.append([omega, z_n, float("nan"), float("nan"), b"inadmissible"])
            continue
        problem = NonlocalProblem(clock, alpha, gamma)
        z_n = problem.mode_denominators.z
        try:
            solution = solve_nonlocal(problem)
        except IllConditionedModeError as exc:
            rows.append([omega, z_n, float("nan"), float("nan"), b"ill-conditioned k=%d" % exc.k])
            continue
        report = stability_report(problem, solution, solution.norm_trajectories(NORM_TIMES))
        max_coeff = float((np.abs(solution.C) + np.abs(solution.D)).max())
        rows.append([omega, z_n, report.c_obs, max_coeff, b"ok"])
    manifest.files.append(write_csv(
        out / "sweep.csv", "omega,z_N,c_obs,max_mode_coeff,status", [np.array(column) for column in zip(*rows)]
    ))
    manifest.add_check("failed_rows", float(sum(row[-1] != b"ok" for row in rows)), 0.0)


def cmd_paper_table(cfg: ExperimentConfig, out: Path, manifest: RunManifest):
    print("     T   omega      measured      expected   rel.err  status")
    for T, omega, expected in REFERENCE_Z500:
        measured = z_diagnostic(500, ProblemClock(T, omega)).z
        rel = abs(measured - expected) / expected
        ok = manifest.add_check(f"z500_T{T:g}_omega{omega:g}_rel", rel, REFERENCE_RTOL)
        print(
            f"  {T:4.1f}  {omega:6.3f}  {measured:12.4e}  {expected:12.4e}  "
            f"{100 * rel:6.2f}%  {'PASS' if ok else 'FAIL'}"
        )


def cmd_project(cfg: ExperimentConfig, out: Path, manifest: RunManifest):
    (vec,) = cfg.data(cfg.f)
    c = vec.coefficients
    manifest.files.append(write_csv(
        out / "coefficients.csv",
        "k,re_c,im_c,abs_c",
        [np.arange(1, len(c) + 1), c.real, c.imag, np.hypot(c.real, c.imag)],
    ))
    print(f"projected {cfg.f!r} onto {cfg.N} modes; H0 norm = {vec.sobolev_norm(0):.6e}")


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
    """One subcommand, run by `cmd_<name>`: help line, data flags, whether omega is a list."""

    help: str
    flags: tuple[str, ...]
    omega_list: bool = False


# data flag -> help; each is an ExperimentConfig key, with its default there
DATA_FLAGS = {"a": "position datum preset", "b": "velocity datum preset",
              "g": "time-average datum preset", "f": "function preset to project"}

COMMANDS = {
    "denominators": Command("per-mode denominators and the z diagnostic", ()),
    "solve": Command("solve the time-averaged problem and verify", ("a", "g")),
    "cauchy": Command("solve the initial-value problem", ("a", "b")),
    "sweep": Command("z and stability across an omega list", ("a", "g"), omega_list=True),
    "paper-table": Command("reproduce the published z(500) table", ()),
    "project": Command("project a preset onto the eigenbasis", ("f",)),
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
        sp.add_argument("--out", type=str, default=None, help="output directory (default: the working directory)")
        sp.add_argument("--N", type=int, default=None, help="truncation order")
        sp.add_argument("--T", type=float, default=None, help="time horizon")
        sp.add_argument("--omega", type=str, default=None, help="weight frequency (or comma list)")
        sp.add_argument("--grid", type=str, default=None, help="field grid as <nx>x<nt>")
        for flag in command.flags:
            sp.add_argument(f"--{flag}", type=str, default=None, help=DATA_FLAGS[flag])
    return parser


def _config_from_args(args, command: Command) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    overrides = {key: getattr(args, key) for key in ("N", "T", *command.flags)}
    if args.omega is not None:
        overrides["omega"] = _parse_omega(args.omega)
    if args.grid is not None:
        overrides["nx"], overrides["nt"] = _parse_grid(args.grid)
    given = {key: value for key, value in overrides.items() if value is not None}  # flags set
    return cfg.merged(**given).validate(command.omega_list)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    manifest = error = None
    try:
        cfg = _config_from_args(args, command)
        out = Path(args.out or ".")
        out.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest(command=args.command, config=asdict(cfg), version=__version__)
        t0 = time.perf_counter()
        globals()["cmd_" + args.command.replace("-", "_")](cfg, out, manifest)
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
        # a run that got as far as its output directory explains itself there, failed or not
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


def run() -> int:
    """main() for a process that exits next: the `specwave` script and both `-m` entry points."""
    code = main()
    gc.freeze()  # every file is closed: the exit collection skips NumPy's import-time heap
    return code


if __name__ == "__main__":
    sys.exit(run())
