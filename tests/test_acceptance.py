"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line (visible with `pytest -s tests/test_acceptance.py`)."""

import json
import math
import time
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest

from oracles import (
    denominator_via_f,
    derivative_coefficients,
    initial_condition_relative,
    mode_values,
    weak_identity_residual,
)
from specwave import (
    CauchyProblem,
    GaussLegendre,
    NonlocalProblem,
    ProblemClock,
    SpectralVector,
    phi,
    project,
    solve_cauchy,
    solve_nonlocal,
    stability_report,
    z_diagnostic,
)
from specwave import verification as ver
from specwave.cli import main
from specwave.phase import LABELS, phase_distance


@contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except Exception:
        print(f"criterion {n} ({label}): FAIL")
        raise
    print(f"criterion {n} ({label}): PASS")


@pytest.fixture(scope="session")
def random_instances():
    """20 random admissible problems: N=100, omega in [0.01, 1], T in [1, 10]."""
    rng = np.random.default_rng(414213562)
    instances = []
    while len(instances) < 20:
        omega = rng.uniform(0.01, 1.0)
        T = rng.uniform(1.0, 10.0)
        if phase_distance(2 * omega * T) <= 1e-3:
            continue  # inadmissible or too close for comfort
        clock = ProblemClock(T, omega)
        alpha = SpectralVector(rng.standard_normal(100) + 1j * rng.standard_normal(100))
        gamma = SpectralVector(rng.standard_normal(100) + 1j * rng.standard_normal(100))
        problem = NonlocalProblem(clock, alpha, gamma)
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


def test_criterion_2_small_divisor_contrast():
    with criterion(2, "omega=0 collapses z by >= 4 decades, omega=0.01 by < 1"):
        T = 5.0
        z10_bare = z_diagnostic(10, ProblemClock(T, 0.0)).z
        z500_bare = z_diagnostic(500, ProblemClock(T, 0.0)).z
        z10_weighted = z_diagnostic(10, ProblemClock(T, 0.01)).z
        z500_weighted = z_diagnostic(500, ProblemClock(T, 0.01)).z
        assert z10_bare / z500_bare >= 1e4
        assert z10_weighted / z500_weighted < 10.0


def test_criterion_3_roundtrip_oracle(random_instances):
    with criterion(3, "solves the Cauchy problem with b = du/dt(0): coefficients 1e-10, fields 1e-9, 20 instances"):
        eps = np.finfo(float).eps
        for problem, solution in random_instances:
            beta = derivative_coefficients(solution)
            redone = solve_cauchy(CauchyProblem(problem.clock.T, problem.alpha, beta))
            C, D, alpha = solution.C, solution.D, problem.alpha.coefficients
            # the re-solve moves both coefficients by half the initial-condition residual
            half = (alpha - C - D) / 2
            ulps = 4 * eps * (np.abs(C) + np.abs(D) + np.abs(alpha))
            assert np.all(np.abs(redone.C - C - half) <= ulps)
            assert np.all(np.abs(redone.D - D - half) <= ulps)
            scale = max(np.abs(C).max(), np.abs(D).max())
            assert max(np.abs(redone.C - C).max(), np.abs(redone.D - D).max()) / scale < 1e-10
            fields = solution.field(20, 20), redone.field(20, 20)
            assert np.abs(fields[0] - fields[1]).max() < 1e-9 * (1.0 + np.abs(fields[0]).max())


def test_criterion_4_condition_residuals(random_instances):
    with criterion(4, "integral condition < 1e-8 (1 + ||g||), u(0) = a to 1e-14"):
        for problem, solution in random_instances:
            assert ver.integral_condition_residual(problem, solution) < 1e-8
            # coefficientwise at the mode scale: eps |D_k| is the binary64 floor
            assert initial_condition_relative(problem, solution) <= 1e-14


def test_criterion_5_mode_correctness():
    with criterion(5, "mode ODE by finite differences, energy from the data, weak identity"):
        rng = np.random.default_rng(7)
        clock = ProblemClock(5.0, 0.05)
        # finite differences at h = 1e-4 resolve frequencies up to theta ~ 30
        n = 25
        alpha = SpectralVector(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        gamma = SpectralVector(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        solution = solve_nonlocal(NonlocalProblem(clock, alpha, gamma))
        h = 1e-4
        ts = rng.uniform(h, clock.T - h, size=100)
        y = partial(mode_values, solution)
        lam = solution.eigenvalues[:, None]
        fd = (y(ts + h) - 2 * y(ts) + y(ts - h)) / h**2
        exact = -lam * y(ts)
        # relative to the ODE scale theta^2 (|C|+|D|); pointwise |y''(t)|
        # passes through zero and cannot anchor a relative error
        scale = lam * (np.abs(solution.C) + np.abs(solution.D))[:, None]
        assert (np.abs(fd - exact) / scale).max() < 1e-6
        cauchy = CauchyProblem(clock.T, alpha, derivative_coefficients(solution))
        assert ver.mode_energy_data_relative(cauchy, solution) < 1e-12
        pairs = [tuple(sorted(rng.uniform(0.0, clock.T, 2))) for _ in range(10)]
        assert weak_identity_residual(solution, pairs) < 1e-10


def test_criterion_6_coefficient_bound(random_instances):
    with criterion(6, "|C|+|D| <= (4/z(N)) (|alpha| + (1+theta)|gamma|) everywhere"):
        for problem, solution in random_instances:
            report = stability_report(problem, solution, solution.norm_trajectories(1001))
            assert report.bound_all_ok and report.bound_min_margin >= 0.0


def test_criterion_7_stability_flat_in_truncation():
    with criterion(7, "c_obs varies < 2x over N in {50, 100, 200, 400}"):
        import math

        clock = ProblemClock(5.0, 0.1)
        data = lambda x: x * (math.pi - x)
        ratios = []
        for n in (50, 100, 200, 400):
            a = project(data, n)
            g = project(data, n)
            problem = NonlocalProblem(clock, a, g)
            solution = solve_nonlocal(problem)
            ratios.append(stability_report(problem, solution, solution.norm_trajectories(1001)).c_obs)
        assert max(ratios) < 2.0 * min(ratios)


def test_criterion_8_stable_phase_integral():
    with criterion(8, "phi vs 1e5-node quadrature 1e-9; closed forms agree 1e-9"):
        rng = np.random.default_rng(27182818)
        rule = GaussLegendre(panels=12500)  # 1e5 nodes
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
            report = z_diagnostic(500, clock)
            t = report.thetas
            generic = (
                np.array([LABELS[c] == "generic" for c in report.codes])
                & (np.minimum(abs(t - omega), abs(t + omega)) > 1e-3)
            )
            ks = np.flatnonzero(generic) + 1
            d = report.values[ks - 1]
            dv = denominator_via_f(ks, clock)
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


def test_criterion_10_uniqueness_margin():
    with criterion(10, "z(1e5) within (0, 2e-5] above 2|sin wT|; at T = 5, w = 0.62 mode 27 sets z"):
        # for large theta, |d_k| theta_k -> 2 |e^{i w T} cos(theta_k T) - 1|, whose
        # infimum over cos(theta_k T) in [-1, 1] is 2 |sin wT| (at cos = cos wT):
        # the separation the uniqueness of the averaged problem rests on
        for T, omega in ((5.0, 0.3), (5.0, 0.01), (10.0, 0.01), (7.3, 0.137)):
            margin = 2.0 * abs(math.sin(omega * T))
            gap = (z_diagnostic(10**5, ProblemClock(T, omega)).z - margin) / margin
            assert 0.0 < gap <= 2e-5
        # a low mode dips below the asymptotic margin, so z stops at k = 27
        clock = ProblemClock(5.0, 0.62)
        far, near = z_diagnostic(10**5, clock), z_diagnostic(10**3, clock)
        assert far.z == near.z and far.argmin_mode == 27
        assert far.z == pytest.approx(0.082319, abs=1e-6)
        assert far.z < 2.0 * abs(math.sin(0.62 * 5.0))


def test_criterion_11_stability_against_one_over_z():
    with criterion(11, "c_obs z(N) <= 3 at w = 0.3, 0.01, 0.001; c_obs grows more slowly than 1/z"):
        # a = 0, g = parabola, T = 5: at N = 1000, c_obs z reads 2.868, 0.785 and 0.369, and
        # from w = 0.01 to 0.001 c_obs grows x4.70 (about w^-0.67) where 1/z grows x10.0
        for n in (100, 1000):
            alpha, gamma = SpectralVector(np.zeros(n, complex)), project(lambda x: x * (math.pi - x), n)
            c_obs, z = {}, {}
            for omega in (0.3, 0.01, 0.001):
                clock = ProblemClock(5.0, omega)
                problem = NonlocalProblem(clock, alpha, gamma)
                solution = solve_nonlocal(problem)
                c_obs[omega] = stability_report(problem, solution, solution.norm_trajectories(1001)).c_obs
                z[omega] = z_diagnostic(n, clock).z
                assert c_obs[omega] * z[omega] <= 3.0
            assert math.log10(c_obs[0.001] / c_obs[0.01]) <= 0.7
            assert math.log10(z[0.01] / z[0.001]) >= 0.98


def test_criterion_12_regularity_threshold():
    with criterion(12, "sup_t ||u||_H1 bounded in N iff g in H2: gamma_k = k^-p, threshold p = 2.5"):
        # a = 0: u_k ~ k gamma_k, since |d_k| ~ 1/k, so ||u||_H1^2 ~ sum k^(4 - 2p), which grows
        # as N^(5 - 2p) below p = 2.5 and has a tail of order N^(5 - 2p) above it
        clock = ProblemClock(5.0, 0.3)
        for p in (2.0, 2.25, 2.75, 3.0):
            sup = []
            for n in (10**3, 10**4, 10**5):
                k = np.arange(1, n + 1, dtype=float)
                problem = NonlocalProblem(clock, SpectralVector(np.zeros(n, complex)), SpectralVector(k**-p + 0j))
                sup.append(float(solve_nonlocal(problem).norm_trajectories(1001).u_h1.max()))
            if p < 2.5:
                # grows by 10^(2.5 - p) per decade: p = 2 read 3.1620 and 3.1622
                for low, high in zip(sup, sup[1:]):
                    assert abs(high / low / 10 ** (2.5 - p) - 1.0) <= 0.02
            else:
                # settles: the increments shrink by about 10^(2p - 5) per decade, so the sum of
                # them converges; p = 3 read 0.805202, 0.805423 and 0.805446
                steps = np.diff(sup)
                assert np.all(steps > 0.0) and steps[1] <= steps[0] / (0.5 * 10 ** (2 * p - 5))
