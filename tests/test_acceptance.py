"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with `pytest -s tests/test_acceptance.py`)."""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import denominator_via_f, weak_identity_residual
from specwave import (
    DirichletLaplacian1D,
    GaussLegendre,
    NonlocalProblem,
    ProblemClock,
    SpectralVector,
    coefficient_bound_check,
    phase_distance,
    phi,
    project,
    solve_nonlocal,
    stability_report,
    z_diagnostic,
)
from specwave import verification as ver
from specwave.cli import main
from specwave.phase import LABELS, denominators


@contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except Exception:
        print(f"criterion {n} ({label}): FAIL")
        raise
    print(f"criterion {n} ({label}): PASS")


@pytest.fixture(scope="session")
def spectrum():
    return DirichletLaplacian1D()


@pytest.fixture(scope="session")
def random_instances(spectrum):
    """20 random admissible problems: N=100, omega in [0.01, 1], T in [1, 10]."""
    rng = np.random.default_rng(414213562)
    instances = []
    while len(instances) < 20:
        omega = rng.uniform(0.01, 1.0)
        T = rng.uniform(1.0, 10.0)
        if phase_distance(2 * omega * T) <= 1e-3:
            continue  # inadmissible or too close for comfort
        clock = ProblemClock(T, omega)
        alpha = SpectralVector(rng.standard_normal(100) + 1j * rng.standard_normal(100), spectrum)
        gamma = SpectralVector(rng.standard_normal(100) + 1j * rng.standard_normal(100), spectrum)
        problem = NonlocalProblem(spectrum, clock, alpha, gamma)
        instances.append((problem, solve_nonlocal(problem)))
    return instances


def test_criterion_1_reference_table(tmp_path, capsys):
    with criterion(1, "published z(500) table within 2%, under 1 s"):
        start = time.perf_counter()
        code = main(["paper-table", "--out", str(tmp_path)])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.count("PASS") == 4 and "FAIL" not in out
        checks = json.loads((tmp_path / "manifest.json").read_text())["checks"]
        assert len(checks) == 4 and all(c["pass"] for c in checks)
        assert elapsed < 1.0


def test_criterion_2_small_divisor_contrast(spectrum):
    with criterion(2, "omega=0 collapses z by >= 4 decades, omega=0.01 by < 1"):
        T = 5.0
        z10_bare = z_diagnostic(10, spectrum, ProblemClock(T, 0.0)).z
        z500_bare = z_diagnostic(500, spectrum, ProblemClock(T, 0.0)).z
        z10_weighted = z_diagnostic(10, spectrum, ProblemClock(T, 0.01)).z
        z500_weighted = z_diagnostic(500, spectrum, ProblemClock(T, 0.01)).z
        assert z10_bare / z500_bare >= 1e4
        assert z10_weighted / z500_weighted < 10.0


def test_criterion_3_roundtrip_oracle(random_instances):
    with criterion(3, "Cauchy round trip: coefficients 1e-10, fields 1e-9, 20 instances"):
        for problem, solution in random_instances:
            trip = ver.roundtrip_check(problem, solution)
            assert trip.coefficient_rel < 1e-10
            assert trip.field_max < 1e-9 * (1.0 + trip.field_scale)


def test_criterion_4_condition_residuals(random_instances):
    with criterion(4, "integral condition < 1e-8 (1 + ||g||), u(0) = a to 1e-14"):
        for problem, solution in random_instances:
            rel = ver.integral_condition_residual(problem, solution).total / (
                1.0 + problem.gamma.sobolev_norm(0)
            )
            assert rel < 1e-8
            # coefficientwise at the mode scale: eps |D_k| is the binary64 floor
            assert ver.initial_condition_relative(problem, solution) <= 1e-14


def test_criterion_5_mode_correctness(spectrum):
    with criterion(5, "mode ODE by finite differences, energy drift, weak identity"):
        rng = np.random.default_rng(7)
        clock = ProblemClock(5.0, 0.05)
        # finite differences at h = 1e-4 resolve frequencies up to theta ~ 30
        n = 25
        alpha = SpectralVector(rng.standard_normal(n) + 1j * rng.standard_normal(n), spectrum)
        gamma = SpectralVector(rng.standard_normal(n) + 1j * rng.standard_normal(n), spectrum)
        solution = solve_nonlocal(NonlocalProblem(spectrum, clock, alpha, gamma))
        h = 1e-4
        ts = rng.uniform(h, clock.T - h, size=100)
        y = solution.mode_values
        lam = solution.eigenvalues[:, None]
        fd = (y(ts + h) - 2 * y(ts) + y(ts - h)) / h**2
        exact = -lam * y(ts)
        # relative to the ODE scale theta^2 (|C|+|D|); pointwise |y''(t)|
        # passes through zero and cannot anchor a relative error
        scale = lam * (np.abs(solution.C) + np.abs(solution.D))[:, None]
        assert (np.abs(fd - exact) / scale).max() < 1e-6
        assert float(ver.mode_energy_drift(solution).max()) < 1e-12
        pairs = [tuple(sorted(rng.uniform(0.0, clock.T, 2))) for _ in range(10)]
        assert weak_identity_residual(solution, pairs) < 1e-10


def test_criterion_6_coefficient_bound(random_instances):
    with criterion(6, "|C|+|D| <= (4/z(N)) (|alpha| + (1+theta)|gamma|) everywhere"):
        for problem, solution in random_instances:
            check = coefficient_bound_check(problem, solution)
            assert check.all_ok


def test_criterion_7_stability_flat_in_truncation(spectrum):
    with criterion(7, "c_obs varies < 2x over N in {50, 100, 200, 400}"):
        import math

        clock = ProblemClock(5.0, 0.1)
        data = lambda x: x * (math.pi - x)
        ratios = []
        for n in (50, 100, 200, 400):
            a = project(data, spectrum, n)
            g = project(data, spectrum, n)
            problem = NonlocalProblem(spectrum, clock, a, g)
            solution = solve_nonlocal(problem)
            ratios.append(stability_report(problem, solution, solution.norm_trajectories(1001)).c_obs)
        assert max(ratios) < 2.0 * min(ratios)


def test_criterion_8_stable_phase_integral(spectrum):
    with criterion(8, "phi vs 1e5-node quadrature 1e-9; closed forms agree 1e-9"):
        rng = np.random.default_rng(27182818)
        rule = GaussLegendre(panels=12500, order=8)  # 1e5 nodes
        mus = np.concatenate([rng.uniform(-1e3, 1e3, 97), [0.0, 1e-12, -1e-12]])
        for mu in mus:
            T = rng.uniform(0.5, 10.0)
            nodes, weights = rule.nodes_weights(0.0, T)
            quad = weights @ np.exp(1j * mu * nodes)
            assert abs(phi(float(mu), T) - quad) < 1e-9
        for _ in range(5):
            omega = rng.uniform(0.01, 1.0)
            T = rng.uniform(1.0, 10.0)
            if phase_distance(2 * omega * T) <= 1e-3:
                continue
            clock = ProblemClock(T, omega)
            report = z_diagnostic(500, spectrum, clock)
            t = report.thetas
            generic = (
                np.array([LABELS[c] == "generic" for c in report.codes])
                & (np.minimum(abs(t - omega), abs(t + omega)) > 1e-3)
            )
            ks = report.modes[generic]
            d = denominators(spectrum.frequency(ks), clock)[0]
            dv = denominator_via_f(ks, spectrum, clock)
            assert np.all(np.abs(dv - d) <= 1e-9 * np.abs(d))


def test_criterion_9_c_obs_independent_of_truncation(tmp_path):
    with criterion(9, "sweep c_obs at N = 100, 1000 within 5e-3, 1e-3 of N = 10000"):
        c_obs = {}
        for n in (100, 1000, 10000):
            out = tmp_path / str(n)
            assert main(["sweep", "--N", str(n), "--omega", "0.3,0.01", "--g", "parabola",
                         "--out", str(out)]) == 0
            rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1, usecols=(0, 2))
            c_obs[n] = dict(rows.tolist())
        for omega in (0.3, 0.01):
            limit = c_obs[10000][omega]
            assert abs(c_obs[100][omega] - limit) <= 5e-3 * limit
            assert abs(c_obs[1000][omega] - limit) <= 1e-3 * limit
