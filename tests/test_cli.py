import argparse
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from specwave import (
    CauchyProblem,
    NonlocalProblem,
    cli,
    config,
    phase,
    project,
    solve_cauchy,
    solve_nonlocal,
    stability_report,
    verification,
)
from specwave.solution import SeriesSolution
from specwave.cli import main
from specwave.config import ConfigError, ExperimentConfig
from specwave.phase import ProblemClock, z_diagnostic

SRC = Path(__file__).resolve().parents[1] / "src"


def read_manifest(out):
    return json.loads((out / "manifest.json").read_text())


def rowwise_csv(header, rows):
    """Reference: the CSV text of `rows`, formatted one cell at a time."""
    def fmt(value):
        if isinstance(value, (float, np.floating)):
            return f"{value:.12e}"
        if isinstance(value, bytes):
            return value.decode()
        return str(value)

    return "\n".join([header, *(",".join(fmt(cell) for cell in row) for row in rows)]) + "\n"


class TestWriteCsv:
    def test_matches_rowwise_formatting(self, tmp_path):
        floats = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 2.5e-310,
                           np.finfo(float).tiny, 1e300, -1e300, 1.0 / 3.0, -2.0])
        python_floats = [float(v) for v in floats[::-1]]
        ints = np.arange(1, floats.size + 1)  # integer columns are row numbers
        labels = np.array([b"label%d" % i if i % 3 else b"generic" for i in range(floats.size)])
        header = "f,pf,i,label"
        columns = [floats, np.array(python_floats), ints, labels]
        name = cli.write_csv(tmp_path / "cells.csv", header, columns)
        assert name == "cells.csv"
        want = rowwise_csv(header, zip(floats, python_floats, ints, labels))
        assert (tmp_path / "cells.csv").read_text() == want
        # a negative integer is no row number, and the writer refuses it
        with pytest.raises(ValueError, match="row numbers"):
            cli.write_csv(tmp_path / "negative.csv", header, [*columns[:2], np.arange(-3, floats.size - 3), labels])
        # a cell's slot starts after the words of the cells before it, in any column order;
        # labels of 3, 4, 5 and 8 bytes own 1, 1, 2 and 2 words
        for width in (3, 4, 5, 8):
            short = np.array([b"abcdefgh"[:width], b"z"] * 6)
            for order in itertools.permutations([floats, ints, short]):
                cli.write_csv(tmp_path / "order.csv", "a,b,c", order)
                assert (tmp_path / "order.csv").read_text() == rowwise_csv("a,b,c", zip(*order)), width

    def test_rows_beyond_one_block(self, tmp_path, rng):
        n = 2 * cli._BLOCK_ROWS + 3
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        # a row number owns the words the largest in its block needs: 9,999 -> 10,000 and
        # 99,999,999 -> 100,000,000 cross a word inside the first block and at its end
        for first in (1, 9996, 10000 - cli._BLOCK_ROWS, 99999996, 10**8 - cli._BLOCK_ROWS):
            modes = np.arange(first, first + n)
            cli.write_csv(tmp_path / "long.csv", "k,v", [modes, values])
            want = rowwise_csv("k,v", ([int(k), v] for k, v in zip(modes, values)))
            assert (tmp_path / "long.csv").read_text() == want, first

    def test_header_only_when_no_rows(self, tmp_path):
        cli.write_csv(tmp_path / "empty.csv", "a,b", [np.array([]), np.array([], dtype="S")])
        assert (tmp_path / "empty.csv").read_text() == "a,b\n"

    def test_field_csv_matches_rowwise_formatting(self, tmp_path, rng):
        cfg = ExperimentConfig(T=5.0, nx=7, nt=4)
        C, D = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        solution = SeriesSolution(cfg.T, C, D)
        files, _ = cli._solution_files(cfg, solution)
        xs, ts = np.linspace(0.0, math.pi, 7), np.arange(4) * (5.0 / 3)
        header = "x," + ",".join(f"t={t:.12e}" for t in ts)
        grid = solution.field(7, 4)
        for name, part in [("field_re.csv", grid.real), ("field_im.csv", grid.imag)]:
            cli.write_csv(tmp_path / name, *files[name])
            want = rowwise_csv(header, ([x, *part[i]] for i, x in enumerate(xs)))
            assert (tmp_path / name).read_text() == want, name

    @staticmethod
    def written_columns(monkeypatch, tmp_path, argv):
        """{file name: (header, columns)} of every CSV that `main(argv)` writes."""
        written = {}
        write_csv = cli.write_csv

        def capture(path, header, columns):
            written[path.name] = (header, columns)
            return write_csv(path, header, columns)

        monkeypatch.setattr(cli, "write_csv", capture)
        main([*argv, "--out", str(tmp_path)])
        monkeypatch.undo()
        return written

    @pytest.mark.parametrize("argv", [
        ["denominators", "--N", "100000", "--omega", "0"],
        ["denominators", "--N", "100000", "--omega", "0.137"],
        ["solve", "--N", "1000"],
        ["cauchy", "--N", "100"],
        ["sweep", "--omega", "0.3,0,0.1"],  # the inadmissible omega = 0 row holds nan cells
    ], ids=" ".join)
    def test_cli_files_match_rowwise_formatting(self, tmp_path, monkeypatch, capsys, argv):
        written = self.written_columns(monkeypatch, tmp_path, argv)
        assert written
        for name, (header, columns) in written.items():
            assert (tmp_path / name).read_text() == rowwise_csv(header, zip(*columns)), name

    def test_memory_bounded_at_100000_rows(self, tmp_path, monkeypatch, capsys):
        # blocks of _BLOCK_ROWS rows are formatted and written one at a time
        written = self.written_columns(monkeypatch, tmp_path, ["denominators", "--N", "100000"])
        header, columns = written["denominators.csv"]
        tracemalloc.start()
        try:
            cli.write_csv(tmp_path / "again.csv", header, columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "denominators.csv").read_bytes()
        assert peak < 16 * 2**20


class TestDenominators:
    def test_reference_cell_stdout_and_files(self, tmp_path, capsys):
        code = main(["denominators", "--T", "5", "--omega", "0", "--N", "500",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "z(500) = 3.660e-09" in out
        lines = (tmp_path / "denominators.csv").read_text().splitlines()
        assert lines[0] == "k,theta,re_d,im_d,abs_d,scaled,class"
        assert len(lines) == 501
        zlines = (tmp_path / "z.csv").read_text().splitlines()
        assert zlines[0] == "m,z"
        manifest = read_manifest(tmp_path)
        assert set(manifest["files"]) == {"denominators.csv", "z.csv", "manifest.json"}

    def test_single_mode_value(self, tmp_path, capsys):
        code = main(["denominators", "--T", "5", "--omega", "0", "--N", "1",
                     "--out", str(tmp_path)])
        assert code == 0
        expected = 4.0 * (1 - math.cos(5.0))  # 2(1 - cos T)/k * (1 + k) at k = 1
        printed = capsys.readouterr().out
        assert f"z(1) = {expected:.3e}" in printed

    def test_abs_column_is_scalar_abs(self, tmp_path, monkeypatch, capsys):
        # np.abs of the complex array differs from the scalar abs in the last
        # bit for about a third of these modes; the column must equal abs()
        written = {}
        write_csv = cli.write_csv

        def capture(path, header, columns):
            written[path.name] = dict(zip(header.split(","), columns))
            return write_csv(path, header, columns)

        monkeypatch.setattr(cli, "write_csv", capture)
        assert main(["denominators", "--omega", "0.137", "--N", "100000",
                     "--out", str(tmp_path)]) == 0
        table = written["denominators.csv"]
        d = np.asarray(table["re_d"]) + 1j * np.asarray(table["im_d"])
        want = np.array([abs(complex(v)) for v in d])
        assert np.array_equal(np.asarray(table["abs_d"]), want)

    @pytest.mark.parametrize("omega,labels", [
        ("1", ["resonant(theta=+omega)", "phase-matched(phase=-omega)", "generic",
               "phase-matched(phase=+omega)", "phase-matched(phase=-omega)", "generic"]),
        ("-1", ["resonant(theta=-omega)", "phase-matched(phase=+omega)", "generic",
                "phase-matched(phase=-omega)", "phase-matched(phase=+omega)", "generic"]),
    ])
    def test_class_column_pins_every_label(self, tmp_path, capsys, omega, labels):
        # T = 2 pi / 3 with theta_k = k: (k -/+ omega) T lands on 2 pi Z for
        # every third k, so the two clocks between them yield all five labels
        code = main(["denominators", "--T", repr(2 * math.pi / 3), "--omega", omega, "--N", "6",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "denominators.csv").read_text().splitlines()[1:]
        assert [row.rsplit(",", 1)[1] for row in rows] == labels

    def test_running_min_column_nonincreasing(self, tmp_path, capsys):
        main(["denominators", "--T", "10", "--omega", "0.01", "--N", "200",
              "--out", str(tmp_path)])
        rows = (tmp_path / "z.csv").read_text().splitlines()[1:]
        zs = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all(np.diff(zs) <= 0)


class TestSolve:
    def test_reference_run_passes_checks(self, tmp_path):
        code = main(["solve", "--T", "5", "--omega", "0.01", "--N", "100",
                     "--a", "zero", "--g", "parabola", "--out", str(tmp_path)])
        assert code == 0
        for name in ("field_re.csv", "field_im.csv", "norms.csv",
                     "stability.json", "verification.json", "manifest.json"):
            assert (tmp_path / name).exists(), name
        checks = json.loads((tmp_path / "verification.json").read_text())
        assert all(c["pass"] for c in checks)
        stability = json.loads((tmp_path / "stability.json").read_text())
        assert stability["bound_all_ok"] is True
        assert stability["c_obs"] > 0

    def test_zero_data_produces_zero_fields(self, tmp_path):
        code = main(["solve", "--T", "5", "--omega", "0.01", "--N", "20",
                     "--a", "zero", "--g", "zero", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "norms.csv").read_text().splitlines()[1:]
        values = np.array([[float(v) for v in r.split(",")] for r in rows])
        assert np.all(values[:, 1:] == 0.0)

    def test_inadmissible_omega_rejected(self, tmp_path, capsys):
        code = main(["solve", "--T", "5", "--omega", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "inadmissible" in capsys.readouterr().err
        assert (tmp_path / "manifest.json").exists()
        manifest = read_manifest(tmp_path)
        assert manifest["exit_code"] == 2
        assert "inadmissible" in manifest["error"]

    def test_near_inadmissible_clock_warns_once(self, tmp_path):
        # 2 omega T is 1.0e-4 from 2 pi: the solve runs, and its one clock warns
        with pytest.warns(UserWarning, match="conditioning") as record:
            code = main(["solve", "--T", "5", "--omega", "0.6283285", "--N", "20",
                         "--out", str(tmp_path)])
        assert code == 0
        assert len(record) == 1

    def test_manifest_holds_the_integral_check(self, tmp_path):
        # u(0) = a holds by construction (C = alpha - D), so the one gate is the integral condition
        assert main(["solve", "--N", "50", "--out", str(tmp_path)]) == 0
        checks = read_manifest(tmp_path)["checks"]
        assert [c["name"] for c in checks] == ["integral_condition_rel"]
        assert json.loads((tmp_path / "verification.json").read_text()) == checks

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: at T = 1e12 the phases mu T rounded in phi and exp_moments leave "
        "integral_condition_rel near 1.2e-5 against 1e-8 (the FOUND line on solve --T 1e12 "
        "--omega 0.3 --N 3 in CHANGES.md)"
    ))
    def test_every_check_passes_at_t_1e12(self, tmp_path):
        main(["solve", "--T", "1e12", "--omega", "0.3", "--N", "3", "--out", str(tmp_path)])
        checks = read_manifest(tmp_path)["checks"]
        assert checks and all(c["pass"] for c in checks)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 7: integral_condition_rel divides by 1 + ||g||_H0 while its rounding "
        "scales with sum(|C_k| + |D_k|): initial data of modulus 1e8 read 1.4e-8 against 1e-8, "
        "though D is within 2.3e-16 of a 40-digit mpmath solve, and unit a and g on 100000 "
        "modes beside an inadmissible clock (2 omega T 1.0e-4 from 2 pi) read 2.9e-8 (the "
        "FOUND lines on --a coeffs:1e8,1e8 and on --omega 0.6283285 in CHANGES.md)"
    ))
    @pytest.mark.parametrize("argv", [
        pytest.param(["--N", "5", "--omega", "0.3", "--a", "coeffs:1e8,1e8"], id="modulus-1e8"),
        pytest.param(["--N", "100000", "--omega", "0.6283285", "--grid", "2x2",
                      "--a", "coeffs:" + ",".join(["1"] * 100000),
                      "--g", "coeffs:" + ",".join(["1"] * 100000)], id="unit-modes-near-inadmissible",
                     marks=pytest.mark.filterwarnings("ignore:2\\*omega\\*T is within:UserWarning")),
    ])
    def test_every_check_passes_with_large_initial_data(self, tmp_path, argv):
        main(["solve", *argv, "--out", str(tmp_path)])
        checks = read_manifest(tmp_path)["checks"]
        assert checks and all(c["pass"] for c in checks)

    def test_field_grid_dimensions(self, tmp_path):
        main(["solve", "--T", "5", "--omega", "0.1", "--N", "10",
              "--grid", "31x17", "--out", str(tmp_path)])
        lines = (tmp_path / "field_re.csv").read_text().splitlines()
        assert len(lines) == 32  # header + nx rows
        assert len(lines[0].split(",")) == 18  # x column + nt times

    def test_determinism(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        argv = ["solve", "--T", "5", "--omega", "0.01", "--N", "50",
                "--a", "zero", "--g", "parabola"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        for name in ("field_re.csv", "field_im.csv", "norms.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


    @pytest.mark.parametrize("command,report", [("solve", "stability.json"), ("cauchy", "energy.json")])
    def test_reported_sup_norms_are_norms_csv_maxima(self, tmp_path, command, report):
        argv = [command, "--T", "5", "--N", "60", "--a", "parabola", "--out", str(tmp_path)]
        assert main(argv + (["--omega", "0.3"] if command == "solve" else ["--b", "parabola"])) == 0
        rows = (tmp_path / "norms.csv").read_text().splitlines()[1:]
        columns = np.array([[float(v) for v in r.split(",")] for r in rows])
        assert columns.shape == (1001, 4)
        values = json.loads((tmp_path / report).read_text())
        # the CSV keeps 13 significant digits, the JSON the full double
        assert float(f"{values['sup_u_h1']:.12e}") == columns[:, 2].max()
        assert float(f"{values['sup_dudt_h0']:.12e}") == columns[:, 3].max()

    @pytest.mark.parametrize("command", ["solve", "cauchy"])
    def test_printed_records_keep_their_schema(self, tmp_path, command):
        # stability.json prints stability_report's dict and norms.csv's header is
        # norm_trajectories' keys, each in order; energy.json is cmd_cauchy's own dict
        argv = [command, "--T", "5", "--N", "30", "--a", "parabola", "--out", str(tmp_path)]
        assert main(argv + (["--omega", "0.3"] if command == "solve" else ["--b", "parabola"])) == 0
        data = project(lambda x: x * (math.pi - x), 30)
        if command == "solve":
            problem = NonlocalProblem(ProblemClock(5.0, 0.3), data, data)
            solution = solve_nonlocal(problem)
        else:
            solution = solve_cauchy(CauchyProblem(5.0, data, data))
        norms = solution.norm_trajectories(cli.NORM_TIMES)
        header = (tmp_path / "norms.csv").read_text().split("\n", 1)[0]
        assert header == ",".join(norms) == "t,u_h0,u_h1,dudt_h0"
        if command == "solve":
            keys = list(json.loads((tmp_path / "stability.json").read_text()))
            assert keys == list(stability_report(problem, solution, norms)) == [
                "norm_a_h1", "norm_g_h2", "sup_u_h1", "sup_dudt_h0", "c_obs",
                "n_modes", "bound_constant", "bound_min_margin", "bound_all_ok",
            ]
        else:
            assert list(json.loads((tmp_path / "energy.json").read_text())) == [
                "norm_a_h1", "norm_b_h0", "sup_u_h1", "sup_dudt_h0",
                "estimate_margin", "mode_energy_data_rel",
            ]


class TestCauchy:
    def test_first_eigenfunction_evolves_as_cosine(self, tmp_path):
        code = main(["cauchy", "--T", "5", "--N", "8", "--a", "eigenmode:1",
                     "--b", "zero", "--grid", "5x5", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "field_re.csv").read_text().splitlines()
        ts = [float(c.split("=")[1]) for c in lines[0].split(",")[1:]]
        for row in lines[1:]:
            cells = [float(v) for v in row.split(",")]
            x, values = cells[0], cells[1:]
            for t, v in zip(ts, values):
                expected = math.cos(t) * math.sqrt(2 / math.pi) * math.sin(x)
                assert v == pytest.approx(expected, abs=1e-10)

    def test_printed_times_are_the_evaluated_times(self, tmp_path, monkeypatch):
        # every route evaluates u at t_j = j dt, dt = T / (n - 1), and the field
        # header and norms.csv print those times: at T = 0.9 the last is 200 dt,
        # an ulp past T, where np.linspace would give T itself
        written = {}
        field_header, write_csv = cli._field_header, cli.write_csv

        def header(ts):
            written["field"] = ts
            return field_header(ts)

        def csv(path, header, columns):
            written[path.name] = columns[0]
            return write_csv(path, header, columns)

        monkeypatch.setattr(cli, "_field_header", header)
        monkeypatch.setattr(cli, "write_csv", csv)
        code = main(["cauchy", "--T", "0.9", "--N", "4", "--a", "eigenmode:1", "--grid", "3x201",
                     "--out", str(tmp_path)])
        assert code == 0
        assert np.array_equal(written["field"], np.arange(201) * (0.9 / 200))
        assert written["field"][-1] == 0.9000000000000001
        assert np.array_equal(written["norms.csv"], np.arange(1001) * (0.9 / 1000))

    def test_energy_checks_recorded(self, tmp_path):
        code = main(["cauchy", "--T", "5", "--N", "50", "--a", "parabola",
                     "--b", "parabola", "--out", str(tmp_path)])
        assert code == 0
        checks = {c["name"]: c for c in json.loads((tmp_path / "verification.json").read_text())}
        assert checks["mode_energy_data_rel"]["pass"]
        assert checks["energy_estimate_violation"]["pass"]
        energy = json.loads((tmp_path / "energy.json").read_text())
        assert energy["estimate_margin"] > 0
        assert energy["sup_u_h1"] > 0

    def test_one_preset_for_both_data_projects_once(self, tmp_path, monkeypatch):
        specs, problems = [], []
        resolve_data, solve_cauchy = config.resolve_data, cli.solve_cauchy
        monkeypatch.setattr(config, "resolve_data", lambda spec, *rest: specs.append(spec) or resolve_data(spec, *rest))
        monkeypatch.setattr(cli, "solve_cauchy", lambda problem: problems.append(problem) or solve_cauchy(problem))
        code = main(["cauchy", "--N", "50", "--a", "parabola", "--b", "parabola", "--out", str(tmp_path)])
        assert code == 0
        assert specs == ["parabola"]
        (problem,) = problems
        assert np.array_equal(problem.alpha.coefficients, problem.beta.coefficients)


class TestSweep:
    def test_decreasing_omega_decreases_z(self, tmp_path):
        code = main(["sweep", "--T", "5", "--omega", "0.3,0.1,0.03,0.01",
                     "--N", "100", "--a", "zero", "--g", "parabola",
                     "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        zs = [float(r.split(",")[1]) for r in rows]
        cobs = [float(r.split(",")[2]) for r in rows]
        assert all(np.isfinite(cobs))
        assert zs == sorted(zs, reverse=True)

    def test_inadmissible_row_flagged_but_run_continues(self, tmp_path):
        bad = math.pi / 5.0  # 2 omega T = 2 pi
        code = main(["sweep", "--T", "5", "--omega", f"0.3,{bad}",
                     "--N", "50", "--out", str(tmp_path)])
        assert code == 1
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert rows[0].endswith("ok")
        assert rows[1].endswith("inadmissible")

    def test_ill_conditioned_row_flagged_but_run_continues(self, tmp_path):
        # 3 T = 20000 pi: beside omega = 1e-9 / T, |d_3| (1 + 3) = 2.7e-9 is below
        # the floor 1e-12 T; the clock is admissible, so the row solves and fails
        T = 20000 * math.pi / 3
        with pytest.warns(UserWarning, match="conditioning"):
            code = main(["sweep", "--T", repr(T), "--omega", f"0.31,{1e-9 / T!r}",
                         "--N", "5", "--out", str(tmp_path)])
        assert code == 1
        rows = [r.split(",") for r in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert rows[0][-1] == "ok"
        assert rows[1][2:] == ["nan", "nan", "ill-conditioned k=3"]
        checks = read_manifest(tmp_path)["checks"]
        assert [(c["name"], c["value"]) for c in checks] == [("failed_rows", 1.0)]

    @pytest.mark.parametrize("omegas,phi_calls", [("0.3,0.1", 4), ("0.3,0,0.1", 6)])
    def test_one_denominator_pass_per_omega(self, tmp_path, monkeypatch, omegas, phi_calls):
        # phi(omega + theta) and phi(omega - theta) once per omega: an admissible
        # row reads z_N from the solve's denominators, an inadmissible one from
        # z_diagnostic
        calls = []
        phi = phase.phi
        monkeypatch.setattr(phase, "phi", lambda mu, T: calls.append(T) or phi(mu, T))
        main(["sweep", "--omega", omegas, "--N", "1000", "--out", str(tmp_path)])
        assert len(calls) == phi_calls
        zs = [r.split(",")[1] for r in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        for omega, z in zip(omegas.split(","), zs):
            assert z == "%.12e" % z_diagnostic(1000, ProblemClock(5.0, float(omega))).z

    def test_empty_omega_list_is_config_error(self, tmp_path, capsys):
        # every command that reads omega refuses an empty list, before making a directory
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"omega": []}))
        for command in ("sweep", "solve", "denominators"):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err == "error: config field 'omega': expected at least one number\n"
            assert not out.exists()


class TestPaperTable:
    def test_all_cells_pass(self, tmp_path, capsys):
        assert main(["paper-table", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        # the header and one row per cell, nothing that varies from run to run
        assert len(out.splitlines()) == 5
        assert out.count("PASS") == 4
        assert "FAIL" not in out
        checks = read_manifest(tmp_path)["checks"]
        assert [c["name"] for c in checks] == [
            "z500_T5_omega0_rel", "z500_T5_omega0.01_rel",
            "z500_T10_omega0_rel", "z500_T10_omega0.01_rel",
        ]
        assert all(c["pass"] and c["tolerance"] == cli.REFERENCE_RTOL for c in checks)


class TestProject:
    def test_parabola_coefficients(self, tmp_path):
        code = main(["project", "--f", "parabola", "--N", "6", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "coefficients.csv").read_text().splitlines()
        assert rows[0] == "k,re_c,im_c,abs_c"
        c1 = float(rows[1].split(",")[1])
        assert c1 == pytest.approx(4.0 * math.sqrt(2 / math.pi), rel=1e-12)
        c2 = float(rows[2].split(",")[1])
        assert abs(c2) < 1e-14

    @pytest.mark.parametrize("command", ["project", "cauchy"])
    def test_eigenmode_past_truncation_is_zero(self, tmp_path, command):
        # orthogonal to every kept mode: zero coefficients, so a zero field
        flag = "--f" if command == "project" else "--a"
        assert main([command, flag, "eigenmode:5000", "--N", "16", "--out", str(tmp_path)]) == 0
        name = "coefficients.csv" if command == "project" else "norms.csv"
        rows = (tmp_path / name).read_text().splitlines()[1:]
        assert len(rows) == (16 if command == "project" else 1001)
        assert all(float(cell) == 0.0 for row in rows for cell in row.split(",")[1:])

    def test_unknown_preset_rejected(self, tmp_path, capsys):
        code = main(["project", "--f", "whatever", "--out", str(tmp_path)])
        assert code == 2
        assert "preset" in capsys.readouterr().err

    def test_f_flag_beats_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"N": 4, "f": "eigenmode:2"}))

        def unit_mode(*flags):
            out = tmp_path / "-".join(("out", *flags))
            assert main(["project", "--config", str(cfg), *flags, "--out", str(out)]) == 0
            rows = (out / "coefficients.csv").read_text().splitlines()[1:]
            return [row.split(",")[0] for row in rows if float(row.split(",")[3]) == 1.0]

        assert unit_mode() == ["2"]
        assert unit_mode("--f", "eigenmode:3") == ["3"]
        assert "projected 'eigenmode:3' onto 4 modes" in capsys.readouterr().out


class TestConfigPlumbing:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"T": 5.0, "omega": 0.01, "N": 300}))
        code = main(["denominators", "--config", str(cfg), "--N", "40",
                     "--out", str(tmp_path)])
        assert code == 0
        assert "z(40)" in capsys.readouterr().out

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"frequencies": [1, 2]}))
        code = main(["denominators", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "frequencies" in capsys.readouterr().err

    def test_omega_list_in_config_feeds_sweep(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"T": 5.0, "omega": [0.3, 0.1], "N": 30}))
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        # --out alone names the output directory: $SPECWAVE_OUT is read by nothing
        monkeypatch.setenv("SPECWAVE_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        code = main(["denominators", "--T", "5", "--omega", "0.1", "--N", "5"])
        assert code == 0
        assert (tmp_path / "z.csv").exists()
        assert not (tmp_path / "envout").exists()

    def test_omega_list_rejected_outside_sweep(self, tmp_path, capsys):
        code = main(["solve", "--omega", "0.1,0.2", "--out", str(tmp_path)])
        assert code == 2
        assert "sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("kind", "sweep"), ("omegas", [0.3, 0.1]),
                                           ("spectrum", "dirichlet-1d"), ("quad_order", 8),
                                           ("time_points", 1001), ("tol", 1e-8), ("out", 1)])
    def test_removed_config_keys_are_unknown(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: config field '{key}': unknown configuration key\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,key,value", [
        ("denominators", "nx", 1), ("denominators", "a", "parabola"), ("solve", "b", "eigenmode:2"),
        ("solve", "f", "zero"), ("cauchy", "omega", 0.3), ("cauchy", "omega", [0.3, 0.1]),
        ("cauchy", "g", "zero"), ("sweep", "nx", 5), ("sweep", "b", None), ("paper-table", "N", 7),
        ("paper-table", "quad_panels", 64), ("project", "T", 5.0), ("project", "omega", "x"),
    ])
    def test_key_the_run_never_reads_is_refused(self, tmp_path, capsys, command, key, value):
        # a sibling subcommand's key is refused before its type check and before any directory
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: config field '{key}': the {command} subcommand never reads it\n"
        assert not (tmp_path / "out").exists()

    def test_coefficient_moduli_above_the_limit_rejected(self):
        assert config.resolve_data("coeffs:1e100,-1e100j", 3).coefficients[1] == -1e100j
        for spec in ("coeffs:0,1.0000001e100", "coeffs:8e99+8e99j", "coeffs:1e200"):
            with pytest.raises(ConfigError, match="above 1e\\+100"):
                config.resolve_data(spec, 3)

    @pytest.mark.parametrize("argv", [["solve", "--N", "3", "--a", "coeffs:nan"],
                                      ["solve", "--N", "3", "--g", "coeffs:1,nan+1j"],
                                      ["project", "--f", "coeffs:nanj"]])
    def test_nan_coefficient_is_a_data_error(self, tmp_path, capsys, argv):
        # nan passes the modulus check, since no comparison with nan holds
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: config field 'data': coefficients must be finite\n"
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_inf_coefficient_is_unparseable(self):
        # 'i' reads as 'j', so inf never parses as a number
        with pytest.raises(ConfigError, match="'data': unparseable coefficient list 'inf'"):
            config.resolve_data("coeffs:inf", 3)

    @pytest.mark.parametrize("value,code", [("1e200", 2), ("1e100", 0)])
    def test_huge_coefficients_keep_the_manifest_contract(self, tmp_path, value, code):
        # with RuntimeWarnings as errors, as CI runs it: squares of 1e200 overflow the norms,
        # so such data is a config error with a manifest, never a traceback or an inf cell
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "error::RuntimeWarning"}
        argv = ["solve", "--N", "5", "--a", f"coeffs:{value}", "--g", f"coeffs:{value}"]
        done = subprocess.run([sys.executable, "-m", "specwave", *argv, "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        manifest = read_manifest(tmp_path)
        assert manifest["exit_code"] == code
        if code:
            assert "above 1e+100" in manifest["error"]
            assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
        else:
            assert manifest["checks"] and all(c["pass"] for c in manifest["checks"])
            for path in tmp_path.iterdir():
                assert not re.search(r"\b(inf|nan|Infinity|NaN)\b", path.read_text()), path.name

    @pytest.mark.parametrize("key,value", [
        ("N", "10"), ("T", "5"), ("nx", 3.5), ("N", True), ("T", [5.0]), ("omega", "0.1"),
        ("omega", [0.1, "0.2"]), ("omega", [[0.1]]), ("a", 3), ("quad_panels", 64.0),
        ("T", 10**400), ("T", float("inf")), ("omega", [0.3, float("nan")]),
    ])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        command = "sweep" if key in cli.COMMANDS["sweep"].keys else "solve"  # each reads the key it types
        code = main([command, "--config", str(cfg), "--omega", "0.3", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: config field '{key}': ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("panels", [0, -7])
    def test_nonpositive_quad_panels_rejected(self, tmp_path, capsys, panels):
        with pytest.raises(ConfigError, match="'quad_panels': must be >= 1"):
            ExperimentConfig().merged(quad_panels=panels).validate()
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"quad_panels": panels}))
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "error: config field 'quad_panels': must be >= 1\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-8"])
    def test_tol_must_be_positive_and_finite(self, tmp_path, capsys, tol):
        # the gates' bounds are fixed (cli.INTEGRAL_TOL): no --tol value, however bad, is taken
        with pytest.raises(SystemExit) as exc:
            main(["solve", f"--tol={tol}", "--N", "5", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --tol={tol}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,name", [
        ("N", "an integer"), ("T", "a real number"), ("omega", "a real number"),
        ("nx", "an integer"), ("quad_panels", "an integer"), ("a", "a string"), ("f", "a string"),
    ])
    def test_null_config_value_is_config_error(self, tmp_path, capsys, key, name):
        # null is no "default": a file that names a key gives it a value
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: None}))
        command = "project" if key in cli.COMMANDS["project"].keys else "solve"  # each reads the key it types
        code = main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == f"error: config field '{key}': expected {name}, got None\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [None, "x"])
    def test_out_key_is_unknown(self, tmp_path, monkeypatch, capsys, value):
        # the output directory is no config key: null or a path, `out` is refused before any directory
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"N": 4, "out": value}))
        assert main(["project", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: config field 'out': unknown configuration key\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_config_values_are_converted_to_their_key_type(self):
        cfg = ExperimentConfig().merged(T=5, omega=[1, 0.5], N=np.int64(7), nx=np.int32(9))
        assert (cfg.T, cfg.omega, cfg.N, cfg.nx) == (5.0, (1.0, 0.5), 7, 9)
        assert [type(v) for v in (cfg.T, cfg.omega[0], cfg.N, cfg.nx)] == [float, float, int, int]

    def test_one_element_omega_list_is_its_number(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"omega": [0.3]}))
        assert main(["solve", "--config", str(cfg), "--N", "8", "--grid", "5x5",
                     "--out", str(tmp_path)]) == 0
        assert read_manifest(tmp_path)["config"]["omega"] == 0.3

    def test_sweep_reads_a_number_as_a_list_of_one(self, tmp_path):
        # a config file's number, the --omega flag's and the default each sweep one
        # frequency, and the manifest echoes a list that reruns the run
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"omega": 0.3, "N": 8}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "file")]) == 0
        assert main(["sweep", "--omega", "0.3", "--N", "8", "--out", str(tmp_path / "flag")]) == 0
        for run in ("file", "flag"):
            assert read_manifest(tmp_path / run)["config"]["omega"] == [0.3]
        sweep_csv = (tmp_path / "flag" / "sweep.csv").read_bytes()
        assert (tmp_path / "file" / "sweep.csv").read_bytes() == sweep_csv
        assert len(sweep_csv.splitlines()) == 2
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(read_manifest(tmp_path / "flag")["config"]))
        assert main(["sweep", "--config", str(echo), "--out", str(tmp_path / "rerun")]) == 0
        assert (tmp_path / "rerun" / "sweep.csv").read_bytes() == sweep_csv
        assert main(["sweep", "--N", "8", "--out", str(tmp_path / "default")]) == 0
        assert read_manifest(tmp_path / "default")["config"]["omega"] == [0.01]

    @pytest.mark.parametrize("given,field", [
        (["--grid", "5"], "grid"), (["--grid", "ax5"], "grid"), (["--grid", "1x5"], "nx"), ({"nt": 1}, "nt"),
    ])
    def test_bad_grid_names_its_field(self, tmp_path, capsys, given, field):
        # a grid error names the flag or the config key at fault, and no run starts
        if isinstance(given, dict):
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps(given))
            given = ["--config", str(cfg)]
        out = tmp_path / "out"
        assert main(["solve", "--N", "5", *given, "--out", str(out)]) == 2
        assert f"error: config field '{field}': " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [",", " , ", "", "abc", "0.1,x"])
    def test_bad_omega_flag_is_config_error(self, tmp_path, capsys, text):
        code = main(["sweep", "--omega", text, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: config field 'omega': expected a number or a comma list of numbers, got {text!r}\n"

    @pytest.mark.parametrize("name", ["missing.json", ".", "binary.json", "broken.json"])
    def test_unreadable_config_file_is_config_error(self, tmp_path, capsys, name):
        path = tmp_path / name
        (tmp_path / "binary.json").write_bytes(b"\xff\xfe{")
        (tmp_path / "broken.json").write_text('{"N": 10,')
        code = main(["denominators", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config field '<file>': {path}: not a readable JSON file (")
        assert not (tmp_path / "out").exists()

    def test_out_flag_beats_env_var_even_for_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPECWAVE_OUT", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert main(["denominators", "--N", "5", "--out", "."]) == 0
        assert (tmp_path / "z.csv").exists()
        assert not (tmp_path / "envout").exists()
        # the config block describes the experiment alone: it names no directory
        assert "out" not in read_manifest(tmp_path)["config"]

    def test_manifest_config_reruns_in_the_working_directory(self, tmp_path, monkeypatch):
        # the config block names no directory, so a rerun without --out leaves the original alone
        orig = tmp_path / "orig"
        assert main(["project", "--f", "eigenmode:3", "--N", "8", "--out", str(orig)]) == 0
        cfg = tmp_path / "rerun.json"
        cfg.write_text(json.dumps(read_manifest(orig)["config"]))
        before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in orig.iterdir()}
        monkeypatch.chdir(tmp_path)
        assert main(["project", "--config", str(cfg)]) == 0
        assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in orig.iterdir()} == before
        assert (tmp_path / "coefficients.csv").read_bytes() == before["coefficients.csv"][0]

    def test_omega_with_overflowing_phase_exits_2(self, tmp_path, capsys):
        code = main(["denominators", "--omega", "1e308", "--out", str(tmp_path)])
        assert code == 2
        assert "2*omega*T must be finite" in capsys.readouterr().err
        assert not (tmp_path / "denominators.csv").exists()
        assert read_manifest(tmp_path)["exit_code"] == 2

    def test_huge_horizon_exits_2(self, tmp_path, capsys):
        # (omega + theta_k) T overflows although 2 omega T does not
        code = main(["denominators", "--T", "1e307", "--N", "100", "--omega", "0",
                     "--out", str(tmp_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert "mu and mu*T must be finite" in captured.err
        assert "z(100)" not in captured.out
        assert not (tmp_path / "denominators.csv").exists()
        assert read_manifest(tmp_path)["exit_code"] == 2

    def test_non_finite_flag_is_config_error(self, tmp_path, capsys):
        # inf and nan are no JSON numbers: the manifest could not echo them, so no run starts
        code = main(["denominators", "--T", "inf", "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == "error: config field 'T': expected a finite real number, got inf\n"
        assert not (tmp_path / "out").exists()

    def test_unwritable_output_dir(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go\n")
        code = main(["denominators", "--T", "5", "--omega", "0.1", "--N", "5",
                     "--out", str(blocker / "sub")])
        assert code == 1
        assert "cannot write" in capsys.readouterr().err


class TestRunLifecycle:
    ARGV = {
        "denominators": ["--N", "20"],
        "solve": ["--N", "10", "--grid", "5x5"],
        "cauchy": ["--N", "10", "--grid", "5x5", "--a", "parabola"],
        "sweep": ["--N", "10", "--omega", "0.3,0.1"],
        "paper-table": [],
        "project": ["--N", "8"],
    }

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_manifest_lists_exactly_the_run_files(self, command, tmp_path, capsys):
        assert main([command, *self.ARGV[command], "--out", str(tmp_path)]) == 0
        manifest = read_manifest(tmp_path)
        assert manifest["command"] == command
        assert sorted(manifest["files"]) == sorted(p.name for p in tmp_path.iterdir())
        assert manifest["wall_seconds"] > 0
        assert manifest["exit_code"] == 0 and manifest["error"] is None
        assert all(c["pass"] for c in manifest["checks"])

    RERUN_ARGV = {
        "denominators": ["--N", "20", "--omega", "0.137"],
        "solve": ["--N", "10", "--grid", "11x7", "--a", "eigenmode:2"],
        "cauchy": ["--N", "10", "--grid", "5x5", "--a", "parabola", "--b", "eigenmode:3"],
        "sweep": ["--N", "10", "--omega", "0.3,0.1", "--T", "7"],
        "paper-table": [],
        "project": ["--N", "8", "--f", "eigenmode:3"],
    }

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_manifest_config_reruns_the_run(self, command, tmp_path, capsys):
        first, again = tmp_path / "first", tmp_path / "again"
        assert main([command, *self.RERUN_ARGV[command], "--out", str(first)]) == 0
        stdout = capsys.readouterr().out
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(read_manifest(first)["config"]))
        assert main([command, "--config", str(cfg), "--out", str(again)]) == 0
        assert capsys.readouterr().out == stdout
        files = sorted(read_manifest(first)["files"])
        assert sorted(read_manifest(again)["files"]) == files
        for name in files:
            if name != "manifest.json":
                assert (again / name).read_bytes() == (first / name).read_bytes(), name

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_manifest_config_echoes_exactly_the_keys_the_run_reads(self, command, tmp_path, capsys):
        assert main([command, *self.RERUN_ARGV[command], "--out", str(tmp_path)]) == 0
        # paper-table's block is {}: it reads no key
        assert set(read_manifest(tmp_path)["config"]) == set(cli.COMMANDS[command].keys)

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_each_handler_reads_exactly_its_keys(self, command, tmp_path, monkeypatch, capsys):
        # COMMANDS' key table is what each run reads, not a list kept beside it
        read, keys = set(), set(ExperimentConfig.__dataclass_fields__)

        class Recording(ExperimentConfig):
            def __getattribute__(self, name):
                if name in keys:
                    read.add(name)
                return super().__getattribute__(name)

        name = "cmd_" + command.replace("-", "_")
        handler = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda cfg, manifest: handler(Recording(**vars(cfg)), manifest))
        assert main([command, *self.RERUN_ARGV[command], "--out", str(tmp_path)]) == 0
        assert read == set(cli.COMMANDS[command].keys)

    # every flag each handler reads, besides --config and --out
    FLAGS = {
        "denominators": {"--N", "--T", "--omega"},
        "solve": {"--N", "--T", "--omega", "--grid", "--a", "--g"},
        "cauchy": {"--N", "--T", "--grid", "--a", "--b"},
        "sweep": {"--N", "--T", "--omega", "--a", "--g"},
        "paper-table": set(),
        "project": {"--N", "--f"},
    }

    def test_each_command_takes_exactly_the_flags_it_reads(self):
        (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        taken = {name: {option for action in sub._actions for option in action.option_strings} - {"-h", "--help"}
                 for name, sub in subparsers.choices.items()}
        assert taken == {name: {"--config", "--out", *flags} for name, flags in self.FLAGS.items()}

    @pytest.mark.parametrize("command,flag,value", [
        ("paper-table", "--N", "7"), ("paper-table", "--T", "5"), ("paper-table", "--omega", "0.3"),
        ("paper-table", "--grid", "5x5"), ("project", "--T", "5"), ("project", "--omega", "0.3"),
        ("project", "--grid", "5x5"), ("cauchy", "--omega", "0.3"), ("denominators", "--grid", "5x5"),
        ("sweep", "--grid", "5x5"),
    ])
    def test_flag_no_handler_reads_is_unrecognized(self, tmp_path, capsys, command, flag, value):
        # a flag the run would ignore is refused, as argparse refuses any unknown flag
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_every_command_has_its_handler(self):
        handlers = {name for name, value in vars(cli).items() if name.startswith("cmd_")}
        assert handlers == {"cmd_" + name.replace("-", "_") for name in cli.COMMANDS}
        assert all(callable(getattr(cli, name)) for name in handlers)

    def test_handler_error_still_writes_manifest(self, tmp_path, capsys):
        code = main(["project", "--f", "whatever", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        manifest = read_manifest(tmp_path)
        assert manifest["exit_code"] == 2
        assert "unknown preset 'whatever'" in manifest["error"]
        assert err == f"error: {manifest['error']}\n"
        assert manifest["files"] == ["manifest.json"]

    @pytest.mark.parametrize("preset", ["eigenmode:0", "eigenmode:-2"])
    def test_eigenmode_below_one_writes_manifest(self, tmp_path, capsys, preset):
        code = main(["project", "--f", preset, "--out", str(tmp_path)])
        assert code == 2
        manifest = read_manifest(tmp_path)
        assert manifest["exit_code"] == 2
        assert manifest["error"] == f"config field 'data': eigenmode preset {preset!r}: modes start at 1"
        assert capsys.readouterr().err == f"error: {manifest['error']}\n"
        assert manifest["files"] == ["manifest.json"]

    def test_write_error_still_writes_manifest(self, tmp_path, monkeypatch, capsys):
        def unwritable(path, header, columns):
            raise OSError(f"{path.name}: disk full")

        monkeypatch.setattr(cli, "write_csv", unwritable)
        assert main(["denominators", "--N", "5", "--out", str(tmp_path)]) == 1
        manifest = read_manifest(tmp_path)
        assert manifest["exit_code"] == 1
        assert manifest["error"] == "cannot write artifacts: denominators.csv: disk full"
        assert "error: cannot write artifacts" in capsys.readouterr().err

    def test_failed_computation_writes_only_the_manifest(self, tmp_path, monkeypatch, capsys):
        # the field, norms and stability report are computed, but main writes nothing until the
        # handler returns: a run that fails in its last check leaves no partial artifacts
        def oversized(problem, solution):
            raise MemoryError("Unable to allocate 6.00 TiB")

        monkeypatch.setattr(verification, "integral_condition_residual", oversized)
        assert main(["solve", "--N", "5", "--out", str(tmp_path)]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
        manifest = read_manifest(tmp_path)
        assert manifest["files"] == ["manifest.json"]
        assert manifest["error"] == "out of memory: Unable to allocate 6.00 TiB"

    def test_handler_returns_its_artifacts_and_writes_none(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        manifest = config.RunManifest(command="denominators", config={}, version="")
        files = cli.cmd_denominators(ExperimentConfig(N=20), manifest)
        assert list(files) == ["denominators.csv", "z.csv"]
        assert [header for header, _ in files.values()] == ["k,theta,re_d,im_d,abs_d,scaled,class", "m,z"]
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().out.startswith("z(20) = ")

    def test_huge_horizon_solve_runs_in_bounded_memory(self, tmp_path, capsys):
        # the verification time rule has 8.25e11 panels here; its quadrature
        # reads only O(sqrt(panels)) midpoints, so the run finishes with a manifest
        tracemalloc.start()
        try:
            code = main(["solve", "--T", "1e12", "--omega", "0.3", "--N", "3", "--out", str(tmp_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert read_manifest(tmp_path)["exit_code"] == code
        assert peak < 256 * 2**20

    def test_phases_past_exact_reduction_exit_2(self, tmp_path, capsys):
        # the norms' phases 2 theta_3 t reach 8.9e12, past 2**43: the evaluation
        # refuses rather than write phases with no correct digit
        code = main(["solve", "--T", "1.5e12", "--omega", "0.3", "--N", "3", "--out", str(tmp_path)])
        assert code == 2
        assert "exact reduction" in read_manifest(tmp_path)["error"]
        assert read_manifest(tmp_path)["files"] == ["manifest.json"]
        assert "error: phase beyond exact reduction" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["denominators", "solve", "sweep"])
    def test_denominator_phases_past_exact_reduction_exit_2(self, tmp_path, capsys, command):
        # (|omega| + theta_5) T = 5.3e13 is past 2**43: d_1 would print 13 digits, 3.6e-5 off
        code = main([command, "--T", "1e13", "--omega", "0.3", "--N", "5", "--out", str(tmp_path)])
        assert code == 2
        manifest = read_manifest(tmp_path)
        assert "2**43" in manifest["error"]
        assert manifest["files"] == ["manifest.json"]
        assert capsys.readouterr().err == f"error: {manifest['error']}\n"

    def test_norms_refuse_before_the_field_at_n_1001(self, tmp_path, capsys):
        # at N = 1001 the norms' largest phase is their tail chirp's m^2 dt,
        # m <= 1001: 2**43 at T = 8.778e9. The field's phases reach it only
        # at T = 1.12e10, so at T = 8.81e9 the field alone would run, and
        # the norms refuse before any field is written
        code = main(["cauchy", "--T", "8.81e9", "--N", "1001", "--a", "parabola", "--out", str(tmp_path)])
        assert code == 2
        assert read_manifest(tmp_path)["files"] == ["manifest.json"]
        assert "error: phase beyond exact reduction" in capsys.readouterr().err
        coefficients = np.ones(1001) / np.arange(1, 1002)
        solution = SeriesSolution(8.81e9, coefficients, coefficients)
        assert np.isfinite(solution.field(201, 201)).all()
        with pytest.raises(ValueError, match="2\\*\\*43"):
            solution.norm_trajectories(cli.NORM_TIMES)

    def test_out_of_memory_exits_1_and_still_writes_manifest(self, tmp_path, monkeypatch, capsys):
        def oversized(*run):
            raise MemoryError("Unable to allocate 6.00 TiB")

        monkeypatch.setattr(cli, "cmd_solve", oversized)
        assert main(["solve", "--N", "5", "--out", str(tmp_path)]) == 1
        manifest = read_manifest(tmp_path)
        assert manifest["exit_code"] == 1
        assert manifest["error"] == "out of memory: Unable to allocate 6.00 TiB"
        assert capsys.readouterr().err == f"error: {manifest['error']}\n"

    def test_ill_conditioned_solve_exits_1_with_the_mode_and_its_class(self, tmp_path, capsys):
        # 3 T = 20000 pi, so beside omega = 1e-9 / T mode 3 falls below the floor 1e-12 T
        with pytest.warns(UserWarning, match="multiple of 2\\*pi"):
            code = main(["solve", "--T", "20943.951023931953", "--omega", "4.774648292756861e-14", "--N", "3",
                         "--out", str(tmp_path)])
        assert code == 1
        manifest = read_manifest(tmp_path)
        assert manifest["exit_code"] == 1
        assert "mode k=3" in manifest["error"]
        assert "class phase-matched(phase=+omega)" in manifest["error"]
        assert manifest["files"] == ["manifest.json"]
        assert capsys.readouterr().err == f"error: {manifest['error']}\n"

    def test_failed_check_exits_1_and_still_writes_manifest(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "INTEGRAL_TOL", 1e-30)
        code = main(["solve", "--N", "20", "--out", str(tmp_path)])
        assert code == 1
        failed = [c["name"] for c in read_manifest(tmp_path)["checks"] if not c["pass"]]
        assert "integral_condition_rel" in failed
        checks = json.loads((tmp_path / "verification.json").read_text())
        assert [c["name"] for c in checks if not c["pass"]] == failed

    def test_cauchy_computes_norm_trajectories_once(self, tmp_path, monkeypatch):
        calls = []
        norm_trajectories = SeriesSolution.norm_trajectories

        def counted(self, time_points):
            calls.append(time_points)
            return norm_trajectories(self, time_points)

        monkeypatch.setattr(SeriesSolution, "norm_trajectories", counted)
        code = main(["cauchy", "--N", "30", "--a", "parabola", "--out", str(tmp_path)])
        assert code == 0
        assert calls == [1001]

    def test_solve_computes_the_field_once(self, tmp_path, monkeypatch):
        calls = []
        field = SeriesSolution.field

        def counted(self, nx, time_points):
            calls.append((nx, time_points))
            return field(self, nx, time_points)

        monkeypatch.setattr(SeriesSolution, "field", counted)
        code = main(["solve", "--N", "30", "--a", "parabola", "--out", str(tmp_path)])
        assert code == 0
        assert calls == [(201, 201)]
