"""Independent output oracle for specwave invocations.

It never imports specwave. From the generated inputs alone it recomputes the
per-mode denominators d_k (in closed form with NumPy for every mode, and with
mpmath at MP_DIGITS digits on a seed-chosen sample of modes), the solution
coefficients C_k, D_k, and from them sampled field values, norm trajectories
and diagnostics. `check` compares those with one invocation's artifacts and
stdout and returns the mismatches; an empty list is a pass.

The tolerances follow an error model instead of a byte compare, so a more
accurate specwave (for example a cancellation-free denominator) still passes:

- CSV values carry 13 significant digits: relative rounding CSV_REL.
- d_k = phi(omega + theta, T) - phi(omega - theta, T) evaluated in binary64
  errs by up to DENOM_SLACK * sum over mu = omega +/- theta of
  (2 eps + e(mu)) / max(|mu|, 1/T): exp(i mu T) - 1 loses eps of its unit
  terms, and e(mu) = eps |mu| T is the phase lost to rounding omega +/- theta
  (0 when omega = 0 and theta*T is exact). At omega = 0 the first term is the
  cancellation that leaves the smallest d_k with about 1e-8 relative error.
  The oracle's own closed form must be ORACLE_MARGIN times more accurate.
- A smooth preset projected by a rule that resolves the top mode is good to
  PROJ_ABS per coefficient (5e-14 measured at N = 1000); its effect is carried
  through each quantity's sensitivity to the data.
- Sums over modes in binary64 are good to SUM_REL of the sum of the
  magnitudes of their terms.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

EPS = float(np.finfo(float).eps)
CSV_REL = 1e-12
DENOM_SLACK = 16.0
ORACLE_MARGIN = 4.0
PROJ_ABS = 2e-13
SUM_REL = 1e-9
MP_DIGITS = 40

# specwave prints z(N) with 4 and paper-table values with 5 significant
# digits, and the H0 norm of a projection with 7
STDOUT_Z_REL = 1e-3
TABLE_Z_REL = 2e-4
H0_REL = 2e-6

# the published z(500) table; the reproduced values sit within 0.16 % of it
PUBLISHED_Z500 = ((5.0, 0.0, 3.66e-9), (5.0, 0.01, 0.1001), (10.0, 0.0, 3.68e-9), (10.0, 0.01, 0.1998))
PUBLISHED_REL = 0.005

# half-width of specwave's resonance / phase-matching bands; labels are only
# checked on modes at least CLASS_MARGIN band-widths away from every edge
CLASSIFY_TOL = 1e-9
CLASS_MARGIN = 100.0

NORM_TIMES = 1001  # specwave's default time_points for stability reports

V_SCALE = math.sqrt(2.0 / math.pi)  # v_k(x) = sqrt(2/pi) sin(k x) on (0, pi)
DOMAIN = (0.0, math.pi)


class Problems(list):
    """Mismatches found while checking one invocation."""

    def close(self, what: str, got, want, tol):
        got, want, tol = (np.asarray(v) for v in (got, want, tol))
        bad = ~(np.abs(got - want) <= tol)
        if np.any(bad):
            i = int(np.argmax(bad.ravel())) if bad.ndim else 0
            g, w, t = (np.broadcast_to(v, bad.shape).ravel()[i] for v in (got, want, tol))
            self.append(f"{what}: {int(bad.sum())} mismatch(es), first got {g!r} want {w!r} tol {t:.3e}")

    def expect(self, what: str, ok: bool):
        if not ok:
            self.append(what)


# --- denominators ---------------------------------------------------------

def phi(mu, T: float):
    """int_0^T exp(i mu t) dt = T exp(i mu T / 2) sinc(mu T / 2), no cancellation."""
    mu = np.asarray(mu, dtype=float)
    return T * np.exp(0.5j * mu * T) * np.sinc(mu * T / (2.0 * math.pi))


def denominators(theta, omega: float, T: float):
    """d_k in a cancellation-free closed form.

    phi(w + th) - phi(w - th) = N / (i (w^2 - th^2)) with
    N = 2 th (1 - e^{iwT}) + e^{iwT} (2 i w sin(th T) + 4 th sin^2(th T / 2)).
    """
    theta = np.asarray(theta, dtype=float)
    if np.any(np.abs(theta - abs(omega)) < 1e-3):
        raise ValueError("oracle closed form needs theta away from |omega|")
    e = np.exp(1j * omega * T)
    one_minus_e = -2j * math.sin(0.5 * omega * T) * np.exp(0.5j * omega * T)
    h = np.sin(0.5 * theta * T)
    num = 2.0 * theta * one_minus_e + e * (2j * omega * np.sin(theta * T) + 4.0 * theta * h * h)
    return num / (1j * (omega - theta) * (omega + theta))


def _phi_mp(mu, T):
    return T if mu == 0 else (mpmath.expj(mu * T) - 1) / mpmath.mpc(0, mu)


def denominator_mp(theta: float, omega: float, T: float) -> complex:
    """d_k from the defining integrals at MP_DIGITS digits."""
    with mpmath.workdps(MP_DIGITS):
        th, w, tt = mpmath.mpf(theta), mpmath.mpf(omega), mpmath.mpf(T)
        return complex(_phi_mp(w + th, tt) - _phi_mp(w - th, tt))


def _phase_exact(theta, omega: float, T: float) -> bool:
    """Whether omega = 0 and every theta*T is exact in binary64."""
    if omega != 0.0 or not np.all(theta == np.round(theta)):
        return False
    p, q = Fraction(T).as_integer_ratio()
    return int(theta.max()) * abs(p) < 2**53


def denominator_tolerance(theta, omega: float, T: float):
    """Model error of a binary64 phi(omega + theta) - phi(omega - theta); see module doc."""
    theta = np.asarray(theta, dtype=float)
    exact = _phase_exact(theta, omega, T)
    tol = np.zeros_like(theta)
    for mu in (omega + theta, omega - theta):
        phase = 0.0 if exact else EPS * np.abs(mu) * T
        tol += (2.0 * EPS + phase) / np.maximum(np.abs(mu), 1.0 / T)
    return DENOM_SLACK * tol


def _phase_distance(x):
    r = np.mod(x, 2.0 * math.pi)
    return np.minimum(r, 2.0 * math.pi - r)


def class_labels(theta, omega: float, T: float):
    """Expected class label per mode, or None inside a band's uncertain margin."""
    theta = np.asarray(theta, dtype=float)
    tests = (
        ("resonant(theta=+omega)", np.abs(theta - omega), CLASSIFY_TOL),
        ("resonant(theta=-omega)", np.abs(theta + omega), CLASSIFY_TOL),
        ("phase-matched(phase=+omega)", _phase_distance((theta - omega) * T), CLASSIFY_TOL * T),
        ("phase-matched(phase=-omega)", _phase_distance((theta + omega) * T), CLASSIFY_TOL * T),
    )
    labels = np.full(theta.shape, "generic", dtype=object)
    decided = np.zeros(theta.shape, dtype=bool)
    for label, dist, tol in tests:
        inside = ~decided & (dist <= tol / CLASS_MARGIN)
        unsure = ~decided & ~inside & (dist <= tol * CLASS_MARGIN)
        labels[inside] = label
        labels[unsure] = None
        decided |= inside | unsure
    return labels


def _check_sampled_denominators(problems: Problems, modes, d_got, omega: float, T: float):
    """mpmath recomputation of d_k on sampled modes, against specwave and the closed form."""
    theta = np.asarray(modes, dtype=float)
    d_mp = np.array([denominator_mp(float(t), omega, T) for t in theta])
    tol = denominator_tolerance(theta, omega, T)
    problems.close("d_k vs mpmath", d_got, d_mp, tol + CSV_REL * (np.abs(d_got.real) + np.abs(d_got.imag)))
    problems.close("oracle closed form vs mpmath", denominators(theta, omega, T), d_mp, tol / ORACLE_MARGIN)


def z_value(n_modes: int, omega: float, T: float):
    """(z(N), its tolerance) from the closed form, with the argmin checked by mpmath."""
    theta = np.arange(1, n_modes + 1, dtype=float)
    scaled = np.abs(denominators(theta, omega, T)) * (1.0 + theta)
    tol = denominator_tolerance(theta, omega, T) * (1.0 + theta)
    i = int(np.argmin(scaled))
    exact = abs(denominator_mp(theta[i], omega, T)) * (1.0 + theta[i])
    if abs(exact - scaled[i]) > tol[i] / ORACLE_MARGIN:
        raise ArithmeticError(f"oracle closed form disagrees with mpmath at mode {i + 1}")
    return float(scaled.min()), float(tol.max())


# --- coefficients and evaluation ------------------------------------------

def _vector(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float).reshape(-1, 2)
    return a[:, 0] + 1j * a[:, 1]


def parabola_coefficients(n_modes: int) -> np.ndarray:
    """(x (pi - x), v_k) = sqrt(2/pi) 4 / k^3 for odd k, 0 for even k."""
    k = np.arange(1, n_modes + 1)
    return np.where(k % 2 == 1, V_SCALE * 4.0 / k.astype(float) ** 3, 0.0).astype(complex)


def _data(spec: dict, key: str, n_modes: int):
    """(coefficients, projected) for one datum of the spec."""
    value = spec.get(key, "zero")
    if value == "zero":
        return np.zeros(n_modes, dtype=complex), False
    if value == "parabola":
        return parabola_coefficients(n_modes), True
    return _vector(value), False


def _norm_with_tolerance(w2, y, dy):
    """sqrt(sum_k w2_k y_k^2) over axis 0, and its tolerance when each y_k may be
    off by dy_k: to second order the norm moves by at most
    (sum w2 y dy + sum w2 dy^2 / 2) / norm."""
    if y.ndim > w2.ndim:
        w2, dy = w2[:, None], dy[:, None]
    value = np.sqrt(np.sum(w2 * y**2, axis=0))
    shift = (np.sum(w2 * y * dy, axis=0) + 0.5 * np.sum(w2 * dy**2, axis=0)) / np.maximum(value, 1e-300)
    return value, SUM_REL * value + shift


class Modes:
    """y_k(t) = C_k e^{-i theta_k t} + D_k e^{i theta_k t}, with the sensitivity
    s_k of (C_k, D_k) to an error in projected data (0 for exact data)."""

    def __init__(self, C, D, sens):
        self.C, self.D, self.sens = C, D, sens
        self.theta = np.arange(1, C.size + 1, dtype=float)

    def values(self, t, derivative=False):
        ph = np.exp(1j * np.multiply.outer(self.theta, np.atleast_1d(t)))
        C, D = self.C[:, None], self.D[:, None]
        if derivative:
            return 1j * self.theta[:, None] * (D * ph - C * np.conj(ph))
        return C * np.conj(ph) + D * ph

    def norms(self, q: int, t, derivative=False):
        """(H^q norms of u or du/dt at times t, their model tolerance)."""
        y = np.abs(self.values(t, derivative))
        dy = PROJ_ABS * self.sens * (self.theta if derivative else 1.0)
        return _norm_with_tolerance(self.theta ** (2 * q), y, dy)


def timeavg_modes(spec: dict, omega: float) -> tuple[Modes, np.ndarray, np.ndarray]:
    n, T = spec["N"], spec["T"]
    alpha, _ = _data(spec, "a", n)
    gamma, projected = _data(spec, "g", n)
    theta = np.arange(1, n + 1, dtype=float)
    p, q = phi(omega - theta, T), phi(omega + theta, T)
    d = denominators(theta, omega, T)
    sens = 2.0 / np.abs(d) if projected else np.zeros(n)
    return Modes((q * alpha - gamma) / d, (gamma - p * alpha) / d, sens), alpha, gamma


def _check_sampled_coefficients(problems: Problems, modes: Modes, sample, alpha, gamma, omega: float, T: float):
    """(C_k, D_k) from the 2x2 system at MP_DIGITS digits on sampled modes."""
    idx = np.asarray(sample) - 1
    want_C, want_D = [], []
    with mpmath.workdps(MP_DIGITS):
        w, tt = mpmath.mpf(omega), mpmath.mpf(T)
        for i in idx:
            th = mpmath.mpf(int(i) + 1)
            p, q = _phi_mp(w - th, tt), _phi_mp(w + th, tt)
            a, g = mpmath.mpc(alpha[i]), mpmath.mpc(gamma[i])
            want_C.append(complex((q * a - g) / (q - p)))
            want_D.append(complex((g - p * a) / (q - p)))
    scale = SUM_REL * (np.abs(want_C) + np.abs(want_D))
    problems.close("C_k vs mpmath", modes.C[idx], want_C, scale)
    problems.close("D_k vs mpmath", modes.D[idx], want_D, scale)


def cauchy_modes(spec: dict) -> Modes:
    n = spec["N"]
    alpha, pa = _data(spec, "a", n)
    beta, pb = _data(spec, "b", n)
    theta = np.arange(1, n + 1, dtype=float)
    D = (beta + 1j * theta * alpha) / (2j * theta)
    C = (1j * theta * alpha - beta) / (2j * theta)
    sens = (1.0 if pa else 0.0) + (1.0 / theta if pb else 0.0)
    return Modes(C, D, np.broadcast_to(sens, theta.shape).astype(float))


def _sobolev(coeffs, q: int, projected: bool) -> tuple[float, float]:
    theta = np.arange(1, coeffs.size + 1, dtype=float)
    dy = np.full(theta.shape, PROJ_ABS if projected else 0.0)
    value, tol = _norm_with_tolerance(theta ** (2 * q), np.abs(coeffs), dy)
    return float(value), float(tol)


def _c_obs(modes: Modes, alpha, gamma, spec: dict, parts: dict | None = None) -> tuple[float, float]:
    """specwave's observed stability ratio on its 1001-point time grid, with tolerance."""
    ts = np.linspace(0.0, spec["T"], NORM_TIMES)
    values = {
        "sup_u_h1": tuple(float(v.max()) for v in modes.norms(1, ts)),
        "sup_dudt_h0": tuple(float(v.max()) for v in modes.norms(0, ts, derivative=True)),
        "norm_a_h1": _sobolev(alpha, 1, False),
        "norm_g_h2": _sobolev(gamma, 2, spec.get("g") == "parabola"),
    }
    if parts is not None:
        parts.update(values)
    (su, su_tol), (sd, sd_tol), (na, na_tol), (ng, ng_tol) = values.values()
    c_obs = (su + sd) / (na + ng)
    return c_obs, c_obs * ((su_tol + sd_tol) / (su + sd) + (na_tol + ng_tol) / (na + ng) + SUM_REL)


# --- artifact readers -----------------------------------------------------

def _read_csv(path: Path, columns: int | None = None) -> tuple[list, np.ndarray]:
    """Header and the numeric body (its first `columns` columns, default all)."""
    with path.open() as fh:
        header = fh.readline().strip().split(",")
    usecols = None if columns is None else range(columns)
    return header, np.loadtxt(path, delimiter=",", skiprows=1, usecols=usecols, ndmin=2)


def _read_field(path: Path):
    header, body = _read_csv(path)
    ts = np.array([float(h[2:]) for h in header[1:]])
    return body[:, 0], ts, body[:, 1:]


def _manifest(problems: Problems, out: Path, files):
    try:
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"manifest.json unreadable: {exc}")
        return
    failed = [c["name"] for c in manifest.get("checks", []) if not c.get("pass")]
    problems.expect(f"manifest checks failed: {failed}", not failed)
    missing = sorted(set(files) - set(manifest.get("files", [])))
    problems.expect(f"manifest misses files {missing}", not missing)


# --- per-command checks ---------------------------------------------------

def _check_solution(problems: Problems, out: Path, spec: dict, modes: Modes):
    T = spec["T"]
    xs, ts, re = _read_field(out / "field_re.csv")
    _, ts_im, im = _read_field(out / "field_im.csv")
    nx, nt = re.shape
    want_x = np.linspace(*DOMAIN, nx)
    want_t = np.linspace(0.0, T, nt)
    problems.close("field x grid", xs, want_x, CSV_REL * np.abs(want_x))
    problems.close("field t grid", ts, want_t, CSV_REL * np.abs(want_t))
    problems.close("field_im t grid", ts_im, want_t, CSV_REL * np.abs(want_t))
    pts = np.asarray(spec["field_points"])
    x, t = want_x[pts[:, 0]], want_t[pts[:, 1]]
    v = V_SCALE * np.sin(np.multiply.outer(modes.theta, x))  # (N, P)
    ph = np.exp(1j * modes.theta[:, None] * t)
    terms = (modes.C[:, None] * np.conj(ph) + modes.D[:, None] * ph) * v
    want = terms.sum(axis=0)
    got = re[pts[:, 0], pts[:, 1]] + 1j * im[pts[:, 0], pts[:, 1]]
    tol = (SUM_REL * np.abs(terms).sum(axis=0) + PROJ_ABS * (modes.sens @ np.abs(v))
           + CSV_REL * (np.abs(got.real) + np.abs(got.imag)))
    problems.close("sampled field values", got, want, tol)

    header, norms = _read_csv(out / "norms.csv")
    problems.expect(f"norms.csv header {header}", header == ["t", "u_h0", "u_h1", "dudt_h0"])
    rows = np.asarray(spec["norm_rows"])
    t_all = np.linspace(0.0, T, norms.shape[0])
    problems.close("norms.csv t", norms[rows, 0], t_all[rows], CSV_REL * t_all[rows])
    for col, (q, deriv) in zip((1, 2, 3), ((0, False), (1, False), (0, True))):
        value, tol = modes.norms(q, t_all[rows], deriv)
        problems.close(f"norms.csv column {header[col]}", norms[rows, col], value, tol + CSV_REL * value)


def _check_solve(problems: Problems, out: Path, spec: dict, stdout: str):
    modes, alpha, gamma = timeavg_modes(spec, spec["omega"])
    _check_solution(problems, out, spec, modes)
    _check_sampled_coefficients(problems, modes, spec["modes"], alpha, gamma, spec["omega"], spec["T"])
    report = json.loads((out / "stability.json").read_text())
    parts = {}
    c_obs, c_tol = _c_obs(modes, alpha, gamma, spec, parts)
    for key, (value, tol) in parts.items():
        problems.close(f"stability.json {key}", report.get(key, math.nan), value, tol)
    problems.close("stability.json c_obs", report.get("c_obs", math.nan), c_obs, c_tol + CSV_REL * c_obs)
    _manifest(problems, out, ["field_re.csv", "field_im.csv", "norms.csv", "stability.json", "verification.json"])


def _check_cauchy(problems: Problems, out: Path, spec: dict, stdout: str):
    _check_solution(problems, out, spec, cauchy_modes(spec))
    _manifest(problems, out, ["field_re.csv", "field_im.csv", "norms.csv", "energy.json", "verification.json"])


def _check_project(problems: Problems, out: Path, spec: dict, stdout: str):
    n = spec["N"]
    header, rows = _read_csv(out / "coefficients.csv")
    want = parabola_coefficients(n)
    problems.expect(f"coefficients.csv has {rows.shape[0]} rows, want {n}", rows.shape[0] == n)
    if rows.shape[0] == n:
        problems.close("coefficients.csv k", rows[:, 0], np.arange(1, n + 1), 0.0)
        got = rows[:, 1] + 1j * rows[:, 2]
        problems.close("projected coefficients", got, want, PROJ_ABS + CSV_REL * np.abs(got))
    h0 = float(np.sqrt(np.sum(np.abs(want) ** 2)))
    printed = _number_after(stdout, "H0 norm =")
    problems.close("printed H0 norm", printed, h0, H0_REL * h0)
    _manifest(problems, out, ["coefficients.csv"])


def _check_denominators(problems: Problems, out: Path, spec: dict, stdout: str):
    n, T, omega = spec["N"], spec["T"], spec["omega"]
    header, rows = _read_csv(out / "denominators.csv", 6)
    problems.expect(f"denominators.csv header {header}",
                    header == ["k", "theta", "re_d", "im_d", "abs_d", "scaled", "class"])
    if rows.shape[0] != n:
        problems.append(f"denominators.csv has {rows.shape[0]} rows, want {n}")
        return
    theta = np.arange(1, n + 1, dtype=float)
    problems.close("denominators.csv k", rows[:, 0], theta, 0.0)
    problems.close("denominators.csv theta", rows[:, 1], theta, CSV_REL * theta)
    d = denominators(theta, omega, T)
    got = rows[:, 2] + 1j * rows[:, 3]
    tol = denominator_tolerance(theta, omega, T)
    csv = CSV_REL * (np.abs(got.real) + np.abs(got.imag))
    problems.close("d_k vs closed form", got, d, tol + csv)
    problems.close("|d_k|", rows[:, 4], np.abs(d), tol + csv)
    problems.close("scaled |d_k| (1 + theta)", rows[:, 5], np.abs(d) * (1 + theta), (tol + csv) * (1 + theta))
    sample = np.asarray(spec["modes"])
    argmin = int(np.argmin(rows[:, 5])) + 1
    sample = np.unique(np.append(sample, [argmin, n]))
    _check_sampled_denominators(problems, sample, got[sample - 1], omega, T)

    labels = _last_column(out / "denominators.csv")
    want = class_labels(theta, omega, T)
    known = np.array([w is not None for w in want])
    bad = [i + 1 for i in np.flatnonzero(known) if labels[i] != want[i]]
    problems.expect(f"class labels differ at modes {bad[:5]}", not bad and len(labels) == n)

    _, zrows = _read_csv(out / "z.csv")
    running = np.minimum.accumulate(rows[:, 5])
    problems.expect("z.csv m column", zrows.shape[0] == n and np.array_equal(zrows[:, 0], theta))
    if zrows.shape[0] == n:
        problems.close("z.csv running minimum", zrows[:, 1], running, CSV_REL * running)
    z, z_tol = float(np.min(np.abs(d) * (1 + theta))), float(np.max((tol + csv) * (1 + theta)))
    problems.close("printed z(N)", _number_after(stdout, f"z({n}) ="), z, STDOUT_Z_REL * z + z_tol)
    _manifest(problems, out, ["denominators.csv", "z.csv"])


def _check_sweep(problems: Problems, out: Path, spec: dict, stdout: str):
    header, rows = _read_csv(out / "sweep.csv", 4)
    problems.expect(f"sweep.csv header {header}", header == ["omega", "z_N", "c_obs", "max_mode_coeff", "status"])
    status = _last_column(out / "sweep.csv")
    problems.expect(f"sweep statuses {status}", status == ["ok"] * len(spec["omegas"]))
    if rows.shape[0] != len(spec["omegas"]):
        problems.append(f"sweep.csv has {rows.shape[0]} rows, want {len(spec['omegas'])}")
        return
    for row, omega in zip(rows, spec["omegas"]):
        problems.close("sweep omega", row[0], omega, CSV_REL * omega)
        z, z_tol = z_value(spec["N"], omega, spec["T"])
        problems.close(f"sweep z_N at omega={omega}", row[1], z, z_tol + CSV_REL * z)
        modes, alpha, gamma = timeavg_modes(spec, omega)
        _check_sampled_coefficients(problems, modes, spec["modes"], alpha, gamma, omega, spec["T"])
        c_obs, c_tol = _c_obs(modes, alpha, gamma, spec)
        problems.close(f"sweep c_obs at omega={omega}", row[2], c_obs, c_tol + CSV_REL * c_obs)
        coeff = np.abs(modes.C) + np.abs(modes.D)
        top = float(coeff.max())
        problems.close(f"sweep max_mode_coeff at omega={omega}", row[3], top,
                       SUM_REL * top + 2 * PROJ_ABS * float(modes.sens.max()) + CSV_REL * top)
    _manifest(problems, out, ["sweep.csv"])


def _check_paper_table(problems: Problems, out: Path, spec: dict, stdout: str):
    rows = [line.split() for line in stdout.splitlines()]
    rows = [r for r in rows if len(r) == 6 and r[-1] in ("PASS", "FAIL")]
    problems.expect(f"paper-table printed {len(rows)} rows, want {len(PUBLISHED_Z500)}",
                    len(rows) == len(PUBLISHED_Z500))
    for row, (T, omega, published) in zip(rows, PUBLISHED_Z500):
        problems.expect(f"paper-table row {row} reports FAIL", row[-1] == "PASS")
        problems.expect(f"paper-table row {row} is not T={T} omega={omega}",
                        float(row[0]) == T and float(row[1]) == omega)
        measured = float(row[2])
        z, z_tol = z_value(spec["N"], omega, T)
        problems.close(f"paper-table z(500) at T={T} omega={omega}", measured, z, TABLE_Z_REL * z + z_tol)
        problems.close(f"published z(500) at T={T} omega={omega}", measured, published, PUBLISHED_REL * published)


def _number_after(text: str, marker: str) -> float:
    i = text.find(marker)
    if i < 0:
        return math.nan
    word = text[i + len(marker):].split()
    return float(word[0]) if word else math.nan


def _last_column(path: Path) -> list:
    with path.open() as fh:
        fh.readline()
        return [line.rstrip("\n").rsplit(",", 1)[-1] for line in fh]


CHECKS = {
    "solve": _check_solve,
    "cauchy": _check_cauchy,
    "project": _check_project,
    "denominators": _check_denominators,
    "sweep": _check_sweep,
    "paper-table": _check_paper_table,
}


def check(command: str, spec: dict, out: Path, stdout: str, exit_code: int) -> list:
    """Mismatches between one invocation's outputs and the oracle (empty list = pass)."""
    problems = Problems()
    problems.expect(f"exit code {exit_code}", exit_code == 0)
    try:
        CHECKS[command](problems, Path(out), spec, stdout)
    except (OSError, ValueError, KeyError, IndexError, ArithmeticError) as exc:
        problems.append(f"{command} outputs unreadable or inconsistent: {type(exc).__name__}: {exc}")
    return list(problems)
