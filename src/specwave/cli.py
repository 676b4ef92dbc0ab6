"""Command-line front end: experiment runs with CSV/JSON artifacts.

Subcommands, each declared once in COMMANDS with the config keys its handler reads:
denominators, solve, cauchy, sweep, paper-table, project. Each takes --config, --out and each
FLAGS entry whose every key it reads, refuses a config file key it never reads, and runs as
`cmd_<name>(cfg, manifest)`, looked up on this module at call time (so a patched handler
runs). Its manifest's `config` block echoes just its keys, so it reruns the run. A handler
computes, adds manifest checks and returns its artifacts by file name (a .csv's
`(header, columns)`, a .json's object). `main` owns the run lifecycle: the output directory
(flag --out, else the working directory), the manifest, and one loop that writes and lists the
artifacts, then manifest.json, also when the run fails after making its output directory (with
`exit_code` and `error`); a run whose computation fails writes no other file. Exit code 0 iff
every manifest check passed; 1 for a failed check, an ill-conditioned mode, an unwritable
output or an allocation the machine refuses; 2 for a config error, an inadmissible omega, an
overflowing phase, 2*omega*T or (omega +/- theta_k)*T, or a phase beyond exact reduction
(2**43): the denominators' (|omega| + theta_N) T, or the norms' 2 theta_k t (past theta_N T ~ 2**42).
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
from .phase import LABELS, ProblemClock, z_diagnostic
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


def write_json(path: Path, obj) -> str:
    """Write `obj` as indented JSON; returns the file name."""
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path.name


def cmd_denominators(cfg: ExperimentConfig, manifest: RunManifest) -> dict:
    report = z_diagnostic(cfg.N, cfg.clock())
    d, k, labels = report.values, np.arange(1, cfg.N + 1), np.array(LABELS, dtype="S")[report.codes]
    # hypot, as the scalar abs() of each element; np.abs differs in the last bit
    columns = [k, report.thetas, d.real, d.imag, np.hypot(d.real, d.imag), report.scaled, labels]
    print(f"z({cfg.N}) = {report.z:.3e}")
    return {"denominators.csv": ("k,theta,re_d,im_d,abs_d,scaled,class", columns),
            "z.csv": ("m,z", [k, report.running_min()])}


def _field_header(ts) -> str:
    return "x," + ",".join("t=%.12e" % t for t in ts)


def _solution_files(cfg: ExperimentConfig, solution):
    """field_re.csv, field_im.csv and norms.csv of `solution`, and its norm trajectories for
    the reports. On the default grid the norms' phases pass EXACT_PHASE_LIMIT first."""
    norms = solution.norm_trajectories(NORM_TIMES)
    xs = np.linspace(*DOMAIN, cfg.nx)
    header = _field_header(solution.times(cfg.nt))
    grid = solution.field(cfg.nx, cfg.nt)
    return {
        "field_re.csv": (header, [xs, *grid.real.T]),
        "field_im.csv": (header, [xs, *grid.imag.T]),
        "norms.csv": (",".join(norms), list(norms.values())),
    }, norms


def cmd_solve(cfg: ExperimentConfig, manifest: RunManifest) -> dict:
    problem = NonlocalProblem(cfg.clock(), *cfg.data(cfg.a, cfg.g))
    solution = solve_nonlocal(problem)
    files, norms = _solution_files(cfg, solution)
    files["stability.json"] = stability_report(problem, solution, norms)

    integral_rel = verification.integral_condition_residual(problem, solution)
    manifest.add_check("integral_condition_rel", integral_rel, INTEGRAL_TOL)
    return {**files, "verification.json": manifest.checks}


def cmd_cauchy(cfg: ExperimentConfig, manifest: RunManifest) -> dict:
    problem = CauchyProblem(cfg.T, *cfg.data(cfg.a, cfg.b))
    solution = solve_cauchy(problem)
    files, norms = _solution_files(cfg, solution)

    energy_rel = verification.mode_energy_data_relative(problem, solution)
    margin = verification.energy_estimate_margin(problem, norms)
    files["energy.json"] = {
        "norm_a_h1": problem.alpha.sobolev_norm(1),
        "norm_b_h0": problem.beta.sobolev_norm(0),
        "sup_u_h1": float(norms["u_h1"].max()),
        "sup_dudt_h0": float(norms["dudt_h0"].max()),
        "estimate_margin": margin,
        "mode_energy_data_rel": energy_rel,
    }
    manifest.add_check("mode_energy_data_rel", energy_rel, 1e-12)
    manifest.add_check("energy_estimate_violation", max(0.0, -margin), 0.0)
    return {**files, "verification.json": manifest.checks}


def cmd_sweep(cfg: ExperimentConfig, manifest: RunManifest) -> dict:
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
        rows.append([omega, z_n, report["c_obs"], max_coeff, b"ok"])
    manifest.add_check("failed_rows", float(sum(row[-1] != b"ok" for row in rows)), 0.0)
    return {"sweep.csv": ("omega,z_N,c_obs,max_mode_coeff,status", [np.array(c) for c in zip(*rows)])}


def cmd_paper_table(cfg: ExperimentConfig, manifest: RunManifest) -> dict:
    print("     T   omega      measured      expected   rel.err  status")
    for T, omega, expected in REFERENCE_Z500:
        measured = z_diagnostic(500, ProblemClock(T, omega)).z
        rel = abs(measured - expected) / expected
        ok = manifest.add_check(f"z500_T{T:g}_omega{omega:g}_rel", rel, REFERENCE_RTOL)
        print(
            f"  {T:4.1f}  {omega:6.3f}  {measured:12.4e}  {expected:12.4e}  "
            f"{100 * rel:6.2f}%  {'PASS' if ok else 'FAIL'}"
        )
    return {}


def cmd_project(cfg: ExperimentConfig, manifest: RunManifest) -> dict:
    (vec,) = cfg.data(cfg.f)
    c = vec.coefficients
    print(f"projected {cfg.f!r} onto {cfg.N} modes; H0 norm = {vec.sobolev_norm(0):.6e}")
    columns = [np.arange(1, len(c) + 1), c.real, c.imag, np.hypot(c.real, c.imag)]
    return {"coefficients.csv": ("k,re_c,im_c,abs_c", columns)}


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
    """One subcommand, run by `cmd_<name>`: help line, every config key its handler reads, whether omega is a list."""

    help: str
    keys: tuple[str, ...]
    omega_list: bool = False


# flag -> (argparse type, help); each sets its config key, --omega by _parse_omega, --grid nx, nt by _parse_grid
FLAGS = {"N": (int, "truncation order"), "T": (float, "time horizon"),
         "omega": (str, "weight frequency (or comma list)"), "grid": (str, "field grid as <nx>x<nt>"),
         "a": (str, "position datum preset"), "b": (str, "velocity datum preset"),
         "g": (str, "time-average datum preset"), "f": (str, "function preset to project")}

COMMANDS = {
    "denominators": Command("per-mode denominators and the z diagnostic", ("N", "T", "omega")),
    "solve": Command("solve the time-averaged problem and verify",
                     ("N", "T", "omega", "nx", "nt", "a", "g", "quad_panels")),
    "cauchy": Command("solve the initial-value problem", ("N", "T", "nx", "nt", "a", "b", "quad_panels")),
    "sweep": Command("z and stability across an omega list", ("N", "T", "omega", "a", "g", "quad_panels"),
                     omega_list=True),
    "paper-table": Command("reproduce the published z(500) table", ()),
    "project": Command("project a preset onto the eigenbasis", ("N", "f", "quad_panels")),
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
        for flag, (kind, text) in FLAGS.items():
            if {"grid": {"nx", "nt"}}.get(flag, {flag}) <= set(command.keys):  # a flag whose every key it reads
                sp.add_argument(f"--{flag}", type=kind, default=None, help=text)
    return parser


def _config_from_args(args, command: Command) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config, args.command, command.keys) if args.config else ExperimentConfig()
    given = {flag: value for flag, value in vars(args).items() if flag in FLAGS and value is not None}
    if "omega" in given:
        given["omega"] = _parse_omega(given["omega"])
    if "grid" in given:
        given["nx"], given["nt"] = _parse_grid(given.pop("grid"))
    return cfg.merged(**given).validate(command.omega_list)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    manifest = error = None
    try:
        cfg = _config_from_args(args, command)
        out = Path(args.out or ".")
        out.mkdir(parents=True, exist_ok=True)
        echo = {key: value for key, value in asdict(cfg).items() if key in command.keys}
        manifest = RunManifest(command=args.command, config=echo, version=__version__)
        t0 = time.perf_counter()
        files = globals()["cmd_" + args.command.replace("-", "_")](cfg, manifest)
        for name, payload in files.items():  # the one place artifacts are written and listed
            csv = name.endswith(".csv")
            manifest.files.append(write_csv(out / name, *payload) if csv else write_json(out / name, payload))
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
        manifest.files.append("manifest.json")
        try:
            write_json(out / "manifest.json", asdict(manifest))
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
