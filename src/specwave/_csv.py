"""CSV lines formatted in NumPy: exactly the bytes of '%.12e' % x and str(v).

A block of equal-length columns becomes one (rows, words) uint32 row buffer: each
cell owns a fixed run of 4-byte words, NUL padded, then one separator word, ','
or '\\n' at the end of a row; deleting the buffer's NULs leaves the CSV text.
Float cells are decided in NumPy only where that is provably exact; any other cell
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

# offsets into _text_table, after the 4-digit groups
_LEAD, _TAIL, _EXPONENT = 10**4, 10**4 + 200, 10**4 + 1200

# the separator words: ',' after a cell, '\n' after the last cell of a row
_COMMA, _NEWLINE = np.frombuffer(b",\0\0\0\n\0\0\0", np.uint32)


@functools.cache
def _powers() -> np.ndarray:
    """10**k for k = 12 - E_MAX .. 12 - E_MIN, each correctly rounded to binary64."""
    return np.array([float(f"1e{k}") for k in range(12 - E_MAX, 13 - E_MIN)])


@functools.cache
def _text_table() -> np.ndarray:
    """Four-byte pieces of cell text as uint32: '0000' ... '9999'; from _LEAD, '\\0a.b' and '-a.b' for
    the leading digits ab = 00 ... 99; from _TAIL, '000e' ... '999e'; from _EXPONENT, '-296' ... '+308'."""
    n = np.arange(10**4)
    quads = (np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")).astype(np.uint8)
    text = quads.tobytes()
    text += b"".join(sign + b"%d.%d" % divmod(ab, 10) for sign in (b"\0", b"-") for ab in range(100))
    text += b"".join(b"%03de" % n for n in range(1000))
    text += b"".join((b"%+03d" % e).ljust(4, b"\0") for e in range(E_MIN, E_MAX + 1))
    return np.frombuffer(text, np.uint32)


def _float_words(x: np.ndarray) -> np.ndarray:
    """'%.12e' % v of each float64 v in 5 NUL-padded words: uint32 of shape x.shape + (5,).

    With e = floor(log10|v|) and s = |v| 10**(12 - e), the digits are m = rint(s)
    when 10**12 < m < 10**13 and s is further than GUARD from a tie: then m is the
    exact s rounded to nearest, and e is the exponent however log10 rounded. That m
    is an integer below 10**13, so its int64 divmods are exact. Python formats the rest.
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
    # one gather of the text words: sign and 2 digits, 4 + 4 digits, 3 digits, exponent
    index = np.empty(x.shape + (5,), np.intp)
    lead, rest = np.divmod(np.where(exact, m, 0).astype(np.int64), 10**11)
    index[..., 0] = _LEAD + 100 * np.signbit(x) + lead
    middle, index[..., 3] = np.divmod(rest, 1000)
    index[..., 1], index[..., 2] = np.divmod(middle, 10**4)
    index[..., 3] += _TAIL
    index[..., 4] = _EXPONENT - E_MIN + e
    words = _text_table()[index]
    if not exact.all():
        text = np.array([b"%.12e" % v for v in x[~exact].tolist()], dtype="S20")
        words[~exact] = text.view(np.uint32).reshape(-1, 5)
    return words


def _words(c: np.ndarray) -> int:
    """Words per cell of column c: 5 for a float, ceil(digits / 4) of the largest row number,
    ceil(bytes / 4) of a label. Integers are row numbers: any outside [0, 10**15) is a ValueError."""
    if c.dtype.kind == "f":
        return 5
    if c.dtype.kind in "iu":
        if c.min() < 0 or c.max() >= 10**15:
            raise ValueError("integer cells are row numbers in [0, 1e15)")
        return -(-len(str(c.max())) // 4)
    return -(-c.dtype.itemsize // 4)


def lines(columns) -> bytes:
    """The CSV lines of equal-length NumPy columns: float arrays as '%.12e',
    integer arrays (row numbers) as str() and labels (bytes) as their text. Each cell is
    written in place into one row buffer; every float column is formatted in one pass."""
    columns = [c if c.dtype.kind in "fiu" else c.astype("S") for c in columns]
    words = [_words(c) for c in columns]
    ends = np.cumsum(np.add(words, 1))  # one past each cell's separator word
    block = np.zeros((len(columns[0]), ends[-1]), np.uint32)
    block[:, ends - 1] = _COMMA
    block[:, -1] = _NEWLINE
    floats = [j for j, c in enumerate(columns) if c.dtype.kind == "f"]
    if floats:
        slots = ends[floats, None] - 6 + np.arange(5)
        block[:, slots] = _float_words(np.stack([columns[j] for j in floats], axis=1, dtype=float))
    for c, w, end in zip(columns, words, ends):
        if c.dtype.kind in "iu":
            # 4-digit groups, then NULs over the leading zeros
            v = c.astype(np.int64)[:, None]
            text = _text_table()[v // 10 ** (4 * np.arange(w - 1, -1, -1)) % 10**4].view(np.uint8)
            digits = 1 + np.searchsorted(10 ** np.arange(1, 16), v, side="right")
            text[np.arange(4 * w) < 4 * w - digits] = 0
            block[:, end - 1 - w:end - 1] = text.view(np.uint32)
        elif c.dtype.kind != "f":
            block[:, end - 1 - w:end - 1] = c.astype(f"S{4 * w}").view(np.uint32).reshape(-1, w)
    return block.tobytes().translate(None, b"\0")
