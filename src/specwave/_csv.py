"""CSV lines formatted in NumPy: exactly the bytes of '%.12e' % x and str(v).

A block of equal-length columns becomes one bytes object. Each cell is laid
out in a fixed-width slot of uint8, NUL padded with its last byte free for the
separator, and deleting the NULs of the whole block leaves the CSV text. Float
cells are decided in NumPy only where that is provably exact; any other cell
(non-finite, below 1e-296, or too near a rounding tie or a power of ten) is
formatted by Python's own '%.12e'.
"""

from __future__ import annotations

import functools

import numpy as np

# decimal exponents formatted in NumPy: 10**(12 - e) stays a normal binary64
E_MIN, E_MAX = -296, 308

# half-width of the band around a rounding tie that is left to Python. s =
# |x| 10**(12 - e) is one rounded product of |x| and a correctly rounded power,
# so within 2**-52 of the exact value relatively: under 1e13 eps for s < 1e13.
# The guard is twice that
GUARD = 2e13 * np.finfo(float).eps

# bytes of a float cell: '-d.d', 8 digits, 'ddde', '-XXX', and the separator
FLOAT_WIDTH = 21

# integer columns in [0, INT_LIMIT) are formatted in NumPy, any other by str()
INT_LIMIT = 10**15

# offsets into _text_table, after the 4-digit groups
_LEAD, _TAIL, _EXPONENT, _NUL = 10**4, 10**4 + 200, 10**4 + 1200, 10**4 + 1200 + E_MAX - E_MIN + 1

_COMMA, _NEWLINE = b",\n"


@functools.cache
def _powers() -> np.ndarray:
    """10**k for k = 12 - E_MAX .. 12 - E_MIN, each correctly rounded to binary64."""
    return np.array([float(f"1e{k}") for k in range(12 - E_MAX, 13 - E_MIN)])


@functools.cache
def _text_table() -> np.ndarray:
    """Four-byte pieces of cell text as uint32: '0000' ... '9999'; from _LEAD,
    '\\0a.b' and '-a.b' for the leading digits ab = 00 ... 99; from _TAIL, '000e'
    ... '999e'; from _EXPONENT, '-296' ... '+308' NUL padded; at _NUL, NULs."""
    n = np.arange(10**4)
    quads = (np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")).astype(np.uint8)
    text = quads.tobytes()
    text += b"".join(sign + b"%d.%d" % divmod(ab, 10) for sign in (b"\0", b"-") for ab in range(100))
    text += b"".join(b"%03de" % n for n in range(1000))
    text += b"".join((b"%+03d" % e).ljust(4, b"\0") for e in range(E_MIN, E_MAX + 1)) + bytes(4)
    return np.frombuffer(text, np.uint32)


def _split(m: np.ndarray, unit: float):
    """floor(m / unit) and the remainder, for float64 integers 0 <= m < 2**52 and a
    whole unit: exact, as m / unit rounds by less than 1 / unit, the least
    distance of the true quotient below the next integer."""
    q = np.floor(m / unit)
    return q, m - q * unit


def float_cells(x: np.ndarray) -> np.ndarray:
    """'%.12e' % v of each float64 v, NUL padded: uint8 of shape x.shape + (FLOAT_WIDTH,)
    whose last byte is free.

    With e = floor(log10|v|) and s = |v| 10**(12 - e), the digits are m = rint(s)
    when 10**12 < m < 10**13 and s is further than GUARD from a tie: then m is
    the exact s rounded to nearest, and e is the exponent however log10
    rounded. Any other cell is formatted by Python.
    """
    ax = np.abs(x)
    live = (ax > 0) & np.isfinite(ax)
    e = np.floor(np.log10(np.where(live, ax, 1.0))).astype(np.intp)
    live &= e >= E_MIN
    e[~live] = 0
    s = np.where(live, ax, 0.0) * _powers()[E_MAX - e]
    m = np.rint(s)
    # zeros have s = m = 0 and print as 0.000000000000e+00
    exact = (ax == 0) | ((m > 1e12) & (m < 1e13) & (np.abs(s - m) < 0.5 - GUARD))
    m[~exact] = 0
    # one gather of the text words: sign and 2 digits, 4 + 4 digits, 3 digits, exponent
    index = np.empty(x.shape + (6,), np.intp)
    lead, m = _split(m, 1e11)
    index[..., 0] = _LEAD + 100 * np.signbit(x) + lead
    middle, index[..., 3] = _split(m, 1e3)
    index[..., 1], index[..., 2] = _split(middle, 1e4)
    index[..., 3] += _TAIL
    index[..., 4] = _EXPONENT - E_MIN + e
    index[..., 5] = _NUL
    words = _text_table()[index]
    if not exact.all():
        text = np.array([b"%.12e" % v for v in x[~exact].tolist()], dtype="S24")
        words[~exact] = text.view(np.uint32).reshape(-1, 6)
    return words.view(np.uint8)[..., :FLOAT_WIDTH]


def int_cells(v: np.ndarray) -> np.ndarray:
    """str(k) of each integer k, NUL padded: uint8 of shape (len(v), width), last byte free.

    A column of integers in [0, INT_LIMIT) is formatted in NumPy, any other by str().
    """
    if v.min() < 0 or v.max() >= INT_LIMIT:
        return text_cells(v)
    index = np.full((len(v), 5), _NUL, np.intp)
    high, low = _split(v.astype(float), 1e8)
    index[:, 0], index[:, 1] = _split(high, 1e4)
    index[:, 2], index[:, 3] = _split(low, 1e4)
    text = _text_table()[index].view(np.uint8)
    digits = 1 + np.searchsorted(10 ** np.arange(1, 16), v, side="right")
    text[:, :16][np.arange(16) < 16 - digits[:, None]] = 0  # leading zeros
    return text[:, 16 - int(digits.max()):17]


def text_cells(c: np.ndarray) -> np.ndarray:
    """str(k) of each integer k, or each bytes label as it is, NUL padded: uint8
    of shape (len(c), width), last byte free."""
    b = c.astype("S")
    return b.astype(f"S{b.dtype.itemsize + 1}").view(np.uint8).reshape(len(b), -1)


def lines(columns) -> bytes:
    """The CSV lines of equal-length NumPy columns: float arrays as '%.12e',
    integer arrays as str() and bytes arrays as their text; every float column
    is formatted in one pass."""
    cells = [None] * len(columns)
    floats = [j for j, c in enumerate(columns) if c.dtype.kind == "f"]
    if floats:
        formatted = float_cells(np.stack([columns[j] for j in floats], axis=1, dtype=float))
        for i, j in enumerate(floats):
            cells[j] = formatted[:, i]
    for j, c in enumerate(columns):
        if cells[j] is None:
            cells[j] = int_cells(c) if c.dtype.kind in "iu" else text_cells(c)
    block = np.concatenate(cells, axis=1)
    block[:, np.cumsum([c.shape[1] for c in cells]) - 1] = _COMMA
    block[:, -1] = _NEWLINE
    return block.tobytes().translate(None, b"\0")
