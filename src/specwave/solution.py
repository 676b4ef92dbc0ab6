"""Truncated eigenfunction-expansion solutions u(t) = sum_k y_k(t) v_k, and their evaluation.

theta_k = k (`basis.frequencies`), so field and norms are tiled chirp-z sums (`_chirp_sums`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import DOMAIN, frequencies
from .phase import _exact_phase, _time_step, _uniform_phases

# complex phases a blocked evaluation holds at once: 2**16 x 16 B = 1 MiB
_BLOCK_ELEMENTS = 1 << 16
_TILE_ELEMENTS = 1 << 18  # per array of a group of chirp tiles: 4 MiB

# bound on the relative error of a squared norm that the chirp expansion may
# keep: 2**-45 (2.8e-14), so a norm stays within about 1.4e-14 of its value
_NORM_REL = 2.0**-45


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real**2 + z.imag**2


def _block_squares(lam: np.ndarray, back: np.ndarray, ahead: np.ndarray) -> np.ndarray:
    """||u||_H0^2, ||u||_H1^2 and ||u'||_H0^2 of one block of modes, eigenvalues
    `lam`, from its terms back = C_k e^{-i theta_k t_j} and ahead = D_k e^{i theta_k t_j}
    (shape (modes, times)): y_k = back + ahead and y_k' = i theta_k (ahead - back)."""
    y2, dy2 = _abs2(back + ahead), _abs2(ahead - back)
    return np.stack([y2.sum(axis=0), np.einsum("k,kj->j", lam, y2), np.einsum("k,kj->j", lam, dy2)])


def _chirp_sums(weights: np.ndarray, dt: float, factor: int, count: int) -> np.ndarray:
    """sum_k weights[..., k] e^{i factor k j dt} for j < count; shape weights.shape[:-1] + (count,).

    Bluestein's chirp-z on tiles: with kj = (k^2 + j^2 - (j - k)^2) / 2 a tile's sum is c_j
    times the FFT convolution of weights_k c_k with conj(c_m), c_m = e^{i factor dt m^2 / 2}.
    Tiles span the short side of n x count and equal spans of the long one, so short that no
    c_m passes the largest phase of the exact table of factor k (`phase._uniform_phases`).
    Mode tiles k = s + m are turned by e^{i factor s j dt}, time tiles j = s + r (n < count)
    turn the weights by e^{i factor k s dt}: entries of that table. So every horizon runs at
    which the table, or one untiled chirp, would, and only n and count choose the route:
    O((n + count) log(n + count)), in groups of about _TILE_ELEMENTS entries per array. A short
    side below log2(n + count) meets the table directly. The error, the summation's, is about
    eps sum_k |weights_k| log2(n + count).
    """
    n = weights.shape[-1]
    short, long = sorted((n, count))
    if short < (n + count).bit_length():
        return np.einsum("...k,kj->...j", weights, _uniform_phases(dt, factor * np.arange(n), count))
    # c_m's phase m^2/2 stays below the table's (n - 1) qG >= (n - 1) (count - isqrt(count))
    reach = math.isqrt(2 * (n - 1) * (count - math.isqrt(count))) + 1
    tiles = -(-long // reach)
    width = -(-long // tiles)  # equal tiles: the last start, and so its turn, stays small
    modes, times = (width, count) if n >= count else (n, width)
    chirp = np.exp(1j * _exact_phase(dt, 0.5 * factor * np.arange(max(modes, times), dtype=float) ** 2))
    size = 1 << (modes + times - 2).bit_length()
    kernel = np.fft.fft(np.r_[chirp[:times], np.zeros(size - modes - times + 1), chirp[modes - 1:0:-1]].conj())
    rows = weights.shape[:-1]
    sums = np.empty(rows + (tiles, times), dtype=complex)
    step = max(1, _TILE_ELEMENTS // (size * math.prod(rows)))
    for first in range(0, tiles, step):
        starts = np.arange(first, min(first + step, tiles)) * width
        if n >= count:
            block = np.zeros(rows + (starts.size, width), dtype=complex)
            block.reshape(rows + (-1,))[..., :n - starts[0]] = weights[..., starts[0]:starts[-1] + width]
            block *= chirp[:width]
            turn = _uniform_phases(dt, factor * starts, count) * chirp[:count]
        else:
            low, freqs = starts % math.isqrt(count), factor * np.arange(n)
            block = np.exp(1j * _exact_phase(dt, np.multiply.outer(starts - low, freqs)))
            block *= np.exp(1j * _exact_phase(dt, np.multiply.outer(low, freqs))) * chirp[:n]
            block = np.multiply(weights[..., None, :], block, order="C")
            turn = chirp[:width]
        block = np.fft.fft(block, size)
        block *= kernel
        np.multiply(np.fft.ifft(block)[..., :times], turn, out=sums[..., first:first + starts.size, :])
    # time tiles abut; mode tiles add up by numpy's pairwise sum along a contiguous axis
    return sums.reshape(rows + (-1,))[..., :count] if n < count else sums.swapaxes(-1, -2).copy().sum(-1)


@dataclass(frozen=True, eq=False)
class SeriesSolution:
    """u(x, t) = sum_{k=1..N} (C_k e^{-i theta_k t} + D_k e^{i theta_k t}) v_k(x).

    Immutable after assembly and safe to evaluate concurrently. `field` and `norm_trajectories`
    evaluate it on uniform times in [0, T] by tiled chirp-z sums over the integer frequencies;
    the norms' first block of modes is summed term by term over a `phase._uniform_phases` table.
    """

    T: float
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        C = np.atleast_1d(np.asarray(self.C, dtype=complex))
        D = np.atleast_1d(np.asarray(self.D, dtype=complex))
        if C.shape != D.shape or C.ndim != 1 or C.size == 0:
            raise ValueError("C and D must be matching nonempty 1-d coefficient arrays")
        if not (np.isfinite(self.T) and self.T > 0):
            raise ValueError("T must be positive")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

    def __len__(self) -> int:
        return self.C.size

    @cached_property
    def thetas(self) -> np.ndarray:
        return frequencies(len(self))

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return self.thetas**2

    def field(self, nx: int, time_points: int) -> np.ndarray:
        """u on the `nx` uniform points x_m = m pi / (nx - 1) of the domain x
        `time_points` uniform times in [0, T]; shape (nx, time_points).

        By residues of k mod M = 2 (nx - 1), chirp sums and one real FFT:
        sin(k x_m) = Im e^{2 pi i km / M} depends on k only through r = k mod M.
        So rows m < nx - 1 are -sqrt(2/pi) Im of the `rfft` over r of the
        residue sums R_r(t) = sum_{k = r mod M} y_k(t), taken down their
        (re, im) columns. With k = r + lM,
            R_r(t_j) = conj(e^{i r t_j} S_r(conj C)) + e^{i r t_j} S_r(D),
            S_r(w)(t_j) = sum_l w_{r + lM} e^{i lM t_j},
        2M chirp sums over l. The last row sits at x = fl(pi), where sin(k fl(pi)) is about
        k 1.2e-16, not 0: it is sum_k sin(k fl(pi)) y_k, one more chirp sum over k. Costs
        O((N + M time_points) log) and no matrix product. Every frequency of the three sums
        (M l, r and k) is at most N, so every horizon runs whose mode phases theta_N qG dt
        stay below 2**43 (T < 9.0e9 at N = 1000 on the default grid; the tiles run on to 1.12e10).
        """
        if nx < 2:
            raise ValueError(f"the field grid needs nx >= 2 points, got {nx}")
        dt = _time_step(self.T, time_points)
        n_modes = len(self)
        period = 2 * (nx - 1)
        depth = n_modes // period + 1
        residues = min(period, n_modes + 1)
        weights = np.zeros((2, depth * period), dtype=complex)  # mode k at column k
        weights[0, 1:n_modes + 1] = self.C.conj()
        weights[1, 1:n_modes + 1] = self.D
        by_residue = weights.reshape(2, depth, period)[:, :, :residues].transpose(0, 2, 1)
        back, ahead = _chirp_sums(by_residue, dt, period, time_points)
        turn = _uniform_phases(dt, np.arange(residues), time_points)
        # turn first in both products, so a real solution (C = conj D) folds to
        # exactly real sums; in place, since fresh pages cost more than the flops
        folded = np.multiply(turn, back, out=np.empty((residues, time_points), dtype=complex))
        np.conjugate(folded, out=folded)
        folded += np.multiply(turn, ahead, out=ahead)
        transform = np.fft.rfft(folded.view(float), n=period, axis=0)[:-1]
        grid = np.empty((nx, time_points), dtype=complex)
        rows = grid[:-1].view(float)
        # 0 - Im, not -Im: the x = 0 row stays +0, as a sum of sin(0) y_k is
        np.subtract(0.0, transform.imag, out=rows)
        rows *= math.sqrt(2.0 / math.pi)
        weights[:, 1:n_modes + 1] *= np.sin(self.thetas * DOMAIN[1])
        back, ahead = _chirp_sums(weights[:, :n_modes + 1], dt, 1, time_points)
        grid[-1] = math.sqrt(2.0 / math.pi) * (np.conj(back) + ahead)
        return grid

    def _norm_squares(self, time_points: int) -> np.ndarray:
        """||u||_H0^2, ||u||_H1^2 and ||u'||_H0^2 on `time_points` uniform times in
        [0, T]; shape (3, time_points).

        |C e^{-ikt} + D e^{ikt}|^2 = |C|^2 + |D|^2 + 2 Re conj(C) D e^{2ikt}, and |y'|^2 is
        k^2 times the same with the last sign flipped. So over modes k > H, with
        s_q = sum_k k^{2q} (|C_k|^2 + |D_k|^2) and W_q(t) the chirp sum of
        w_k = k^{2q} conj(C_k) D_k at frequency 2k, the squares are s_0 + 2 Re W_0,
        s_1 + 2 Re W_1 and s_1 - 2 Re W_1: O((N + time_points) log) for all times. The first
        H = _BLOCK_ELEMENTS // time_points modes are summed term by term over their
        `phase._uniform_phases` table, so decaying data leave little to cancel. The rest errs
        by about eps (s_q + 2 log2(length) sum_k |w_k|), length = N + time_points, as the tiled
        chirp sum rounds about log2(length) times per weight; every time where that exceeds
        _NORM_REL of a square is summed again from all modes. The norms run wherever
        theta_N qG dt < 2**42 (T < 4.4e9 at N = 1000 and 1001 times); the tiles run on, to
        8.8e9 at N = 1001.
        """
        dt = _time_step(self.T, time_points)
        n_modes = len(self)
        head = slice(0, max(1, _BLOCK_ELEMENTS // time_points))
        ph = _uniform_phases(dt, self.thetas[head], time_points)
        squares = _block_squares(self.eigenvalues[head], self.C[head, None] * ph.conj(), self.D[head, None] * ph)
        tail = slice(head.stop, None)
        lam = self.eigenvalues[tail]
        both = _abs2(self.C[tail]) + _abs2(self.D[tail])
        diagonal = np.array([both.sum(), np.dot(lam, both)])
        weights = np.zeros((2, n_modes + 1), dtype=complex)  # mode k at column k
        weights[0, tail.start + 1:] = self.C[tail].conj() * self.D[tail]
        weights[1, tail.start + 1:] = lam * weights[0, tail.start + 1:]
        waves = 2.0 * _chirp_sums(weights, dt, 2, time_points).real
        squares += np.stack([diagonal[0] + waves[0], diagonal[1] + waves[1], diagonal[1] - waves[1]])
        log_length = (n_modes + time_points).bit_length()
        bound = np.finfo(float).eps * (diagonal + 2 * log_length * np.abs(weights).sum(axis=1))
        redo = np.flatnonzero((bound[[0, 1, 1], None] > _NORM_REL * squares).any(axis=0))
        # theta_k = k, so the phases of the redone times are a table uniform in k
        step = max(1, _BLOCK_ELEMENTS // n_modes)
        for start in range(0, redo.size, step):
            rows = redo[start:start + step]
            ph = _uniform_phases(dt, rows, n_modes + 1)[:, 1:].T
            squares[:, rows] = _block_squares(self.eigenvalues, self.C[:, None] * ph.conj(), self.D[:, None] * ph)
        return squares

    def times(self, count: int) -> np.ndarray:
        """The `count` uniform times t_j = j dt in [0, T] (`phase._time_step`) at which
        `field` and `norm_trajectories` evaluate."""
        return np.arange(count) * _time_step(self.T, count)

    def norm_trajectories(self, time_points: int) -> dict:
        """The columns of norms.csv by header name: "t", the `times(time_points)`, and
        "u_h0", "u_h1" and "dudt_h0", the norms ||u||_H0, ||u||_H1 and ||du/dt||_H0 there."""
        u_h0, u_h1, dudt_h0 = np.sqrt(self._norm_squares(time_points))
        return {"t": self.times(time_points), "u_h0": u_h0, "u_h1": u_h1, "dudt_h0": dudt_h0}
