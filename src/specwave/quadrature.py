"""Composite Gauss-Legendre quadrature on an interval."""

from __future__ import annotations

import numpy as np

# The 8-node Gauss-Legendre rule on [-1, 1], equal to the last bit to
# numpy.polynomial.legendre.leggauss(8) and exactly symmetric. Written out, a
# run neither imports numpy.polynomial nor solves leggauss's eigenproblem.
_NODES = np.array([float.fromhex(v) for v in (
    "-0x1.ebab1cb0acc66p-1", "-0x1.97e4ab249f41ep-1", "-0x1.0d129583284b4p-1", "-0x1.77ac94f3c7344p-3",
    "0x1.77ac94f3c7344p-3", "0x1.0d129583284b4p-1", "0x1.97e4ab249f41ep-1", "0x1.ebab1cb0acc66p-1")])
_WEIGHTS = np.array([float.fromhex(v) for v in (
    "0x1.9ea1d04ca03aep-4", "0x1.c76fb531d2b94p-3", "0x1.413c50a25560ep-2", "0x1.736360b19933dp-2",
    "0x1.736360b19933dp-2", "0x1.413c50a25560ep-2", "0x1.c76fb531d2b94p-3", "0x1.9ea1d04ca03aep-4")])


def _half_width(panels: int, a: float, b: float) -> float:
    """h = (b - a) / (2 panels), the one half-width of every panel; panels must be >= 1."""
    if panels < 1:
        raise ValueError("panels must be >= 1")
    return 0.5 * (b - a) / panels


def nodes_weights(panels: int, a: float, b: float):
    """Nodes and weights of `panels` equal panels of 8 nodes each on [a, b], exact through
    degree 15 on each panel. Every panel has the one half-width h = (b - a) / (2 panels)
    and midpoint a + h(2p + 1), so the weights repeat exactly from panel to panel, as
    `basis._sine_sums` (one FFT down the panels) and `exp_moments` (a closed form) assume."""
    half = _half_width(panels, a, b)
    mid = a + half * (2 * np.arange(panels) + 1)
    nodes = (mid[:, None] + half * _NODES).ravel()
    return nodes, np.tile(half * _WEIGHTS, panels)


def exp_moments(panels: int, mu, a: float, b: float) -> np.ndarray:
    """sum_j w_j exp(i mu t_j) over the nodes of `nodes_weights(panels, a, b)`, for each mu.

    The panels are equal, so a node is t = m_p + h x_i (midpoint
    m_p = a + h + 2hp, half-width h, reference node x_i) and the sum is
    [sum_p exp(i mu m_p)] * [sum_i h w_i cos(mu h x_i)]: the reference rule
    is symmetric, so the one-panel sum is real. The midpoint sum is a
    geometric series, exp(i mu (a + b)/2) sin(P mu h) / sin(mu h) over P
    panels, written with sinc so that it holds through mu = 0.

    Domain: |mu| h <= 2.5, where the quotient's rounding, which grows like
    |mu h| / |sin mu h|, is amplified at most 4-fold; it breaks down at
    mu h = m pi. Frequencies outside it raise ValueError.
    """
    mu = np.asarray(mu, dtype=float)
    half = _half_width(panels, a, b)
    reach = float(np.abs(mu).max(initial=0.0)) * half
    if reach > 2.5:
        raise ValueError(f"|mu| h = {reach:.3g} exceeds 2.5: raise panels to resolve these frequencies")
    panel_sums = (np.exp(0.5j * (a + b) * mu) * panels
                  * np.sinc(mu * (0.5 * (b - a) / np.pi)) / np.sinc(mu * (half / np.pi)))
    local = np.multiply.outer(mu, half * _NODES)
    return panel_sums * (np.cos(local, out=local) @ (half * _WEIGHTS))
