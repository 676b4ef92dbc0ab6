"""Composite Gauss-Legendre quadrature on an interval."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# complex exponentials `exp_moments` holds at once: 2**18 x 16 B = 4 MiB
_BLOCK_ELEMENTS = 1 << 18


@lru_cache(maxsize=64)
def _reference_rule(order: int):
    return np.polynomial.legendre.leggauss(order)


def sample(f, nodes: np.ndarray) -> np.ndarray:
    """Evaluate f on the nodes, tolerating non-vectorized callables."""
    try:
        values = np.asarray(f(nodes))
    except (TypeError, ValueError):
        values = np.asarray([f(x) for x in nodes])
    else:
        if values.shape != nodes.shape:
            values = np.asarray([f(x) for x in nodes])
    if not np.all(np.isfinite(values)):
        raise ValueError("integrand produced non-finite samples")
    return values


@dataclass(frozen=True)
class GaussLegendre:
    """Composite Gauss-Legendre rule: `panels` equal panels, `order` nodes each.

    The default 64x8 rule resolves smooth, slowly oscillating integrands to
    near machine precision; raise `panels` for strongly oscillatory integrands
    (node spacing must resolve the oscillation, as `basis.projection_rule` and
    the verification time rule do).
    """

    panels: int = 64
    order: int = 8

    def __post_init__(self):
        if self.panels < 1 or self.order < 1:
            raise ValueError("panels and order must both be >= 1")

    def nodes_weights(self, a: float, b: float):
        """Nodes and weights for integration over [a, b]."""
        x, w = _reference_rule(self.order)
        edges = np.linspace(a, b, self.panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        nodes = (mid[:, None] + half[:, None] * x).ravel()
        weights = (half[:, None] * w).ravel()
        return nodes, weights

    def _midpoints(self, a: float, b: float, index: np.ndarray) -> np.ndarray:
        """Midpoints of the panels `index` on [a, b], bit for bit those of the edges
        np.linspace(a, b, panels + 1): edge i is i * step + a, and the last edge is b."""
        step = (b - a) / self.panels
        left = index * step + a
        right = (index + 1) * step + a
        right[index + 1 == self.panels] = b
        return 0.5 * (left + right)

    def exp_moments(self, mu, a: float, b: float) -> np.ndarray:
        """sum_j w_j exp(i mu t_j) over this rule's nodes on [a, b], for each mu.

        The panels are equal, so a node is t = m_p + h x_i (panel midpoint m_p,
        half-width h, reference node x_i) and the sum factors as
        [sum_p exp(i mu m_p)] * [sum_i h w_i exp(i mu h x_i)]. The midpoints are
        equally spaced too, so the panel sum factors once more: with panels in
        groups of G = isqrt(panels), m_{qG+r} = s_q + o_r (group start s_q,
        offset o_r = m_r - m_0) and
            sum_p exp(i mu m_p) = sum_q exp(i mu s_q) * sum_{r<G_q} exp(i mu o_r),
        where G_q = G except for a last, shorter remainder group. Each frequency
        costs about 2 sqrt(panels) + order exponentials instead of
        panels * order, and the frequencies are taken in blocks of at most
        _BLOCK_ELEMENTS exponentials. Only the 2 sqrt(panels) midpoints read
        are formed, so memory stays O(len(mu) + sqrt(panels)).
        """
        mu = np.asarray(mu, dtype=float)
        flat = mu.ravel()
        x, w = _reference_rule(self.order)
        half = 0.5 * (b - a) / self.panels
        group = math.isqrt(self.panels)
        full, rest = divmod(self.panels, group)
        starts = self._midpoints(a, b, np.arange(0, self.panels, group))
        offsets = self._midpoints(a, b, np.arange(group))
        offsets -= offsets[0]
        out = np.empty(flat.size, dtype=complex)
        step = max(1, _BLOCK_ELEMENTS // (starts.size + group + self.order))
        for start in range(0, flat.size, step):
            block = flat[start:start + step]
            inner = np.exp(1j * np.multiply.outer(block, offsets))
            lead = np.exp(1j * np.multiply.outer(block, starts))
            panel_sums = lead[:, :full].sum(axis=1) * inner.sum(axis=1)
            if rest:
                panel_sums += lead[:, full] * inner[:, :rest].sum(axis=1)
            local = np.exp(1j * np.multiply.outer(block, half * x)) @ (half * w)
            out[start:start + step] = panel_sums * local
        return out.reshape(mu.shape)
