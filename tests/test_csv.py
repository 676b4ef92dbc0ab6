import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specwave import _csv


def float_texts(values):
    """The cells `_csv.float_cells` writes for `values`."""
    cells = _csv.float_cells(np.array(values, dtype=float).reshape(-1, 1))[:, 0]
    return [bytes(cell).replace(b"\0", b"") for cell in cells]


def int_texts(values, dtype=np.int64):
    return [bytes(cell).replace(b"\0", b"") for cell in _csv.int_cells(np.array(values, dtype=dtype))]


def percent_e(values):
    return [b"%.12e" % v for v in values]


bit_patterns = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64)
any_floats = st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=64)


def near_ties(digits, exponents, steps):
    """Values within a few ulps of m.5e(k): ties of the 13th significant digit."""
    out = []
    for m, k, step in zip(digits, exponents, steps):
        v = float(f"{m}5e{k}")
        for _ in range(abs(step)):
            v = float(np.nextafter(v, np.inf if step > 0 else -np.inf))
        out.append(v)
    return out


class TestFloatCells:
    @settings(max_examples=200, deadline=None)
    @given(bits=bit_patterns)
    def test_any_bit_pattern(self, bits):
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        assert float_texts(x) == percent_e(x.tolist())

    @settings(max_examples=200, deadline=None)
    @given(values=any_floats)
    def test_any_float(self, values):
        assert float_texts(values) == percent_e(values)

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(st.integers(10**12, 10**13 - 1), st.integers(-330, 294), st.integers(-4, 4)),
            min_size=1, max_size=32,
        )
    )
    def test_within_ulps_of_a_tie(self, cells):
        values = near_ties(*zip(*cells))
        assert float_texts(values) == percent_e(values)

    def test_many_values_at_and_beside_ties(self, rng):
        # a guard narrower than the error bound of s misprints about 1% of exact ties
        n = 30000
        digits, exponents = rng.integers(10**12, 10**13, n), rng.integers(-290, 290, n)
        values = near_ties(digits.tolist(), exponents.tolist(), rng.integers(-1, 2, n).tolist())
        assert float_texts(values) == percent_e(values)

    @settings(max_examples=100, deadline=None)
    @given(exponents=st.lists(st.integers(-323, 308), min_size=1, max_size=32))
    def test_powers_of_ten_and_just_under(self, exponents):
        powers = [float(f"1e{k}") for k in exponents]
        values = powers + [float(np.nextafter(p, 0.0)) for p in powers] + [-p for p in powers]
        assert float_texts(values) == percent_e(values)

    def test_special_values(self):
        values = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, 1e-296, 9.999999999999999e-297,
                  0.5, 1.0, 9.9999999999995, 9.99999999999949, 1000000000000.5]
        assert float_texts(values) == percent_e(values)

    def test_block_shape_and_free_last_byte(self, rng):
        x = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-300, 300, (7, 3))
        cells = _csv.float_cells(x)
        assert cells.shape == (7, 3, _csv.FLOAT_WIDTH)
        assert not cells[..., -1].any()
        texts = [bytes(c).replace(b"\0", b"") for c in cells.reshape(-1, _csv.FLOAT_WIDTH)]
        assert texts == percent_e(x.ravel().tolist())


class TestIntCells:
    # every integer column the CLI prints is a row number, np.arange(1, N + 1)
    @pytest.mark.parametrize("width", range(1, 20))
    def test_every_width_and_sign(self, width, rng):
        low, high = 10 ** (width - 1), min(10**width, 2**63)
        values = [low, high - 1, *rng.integers(low, high, 50).tolist()]
        for column in (values, [0, *values]):
            if width <= 15:
                assert int_texts(column) == [str(v).encode() for v in column]
            else:
                with pytest.raises(ValueError, match="row numbers"):
                    int_texts(column)
        with pytest.raises(ValueError, match="row numbers"):
            int_texts([-v for v in values])

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=64))
    def test_any_int64(self, values):
        if min(values) < 0 or max(values) >= 10**15:
            with pytest.raises(ValueError, match="row numbers"):
                int_texts(values)
        else:
            assert int_texts(values) == [str(v).encode() for v in values]

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(0, 10**15 - 1), min_size=1, max_size=64))
    def test_any_below_the_limit(self, values):
        assert int_texts(values) == [str(v).encode() for v in values]

    def test_zero_extremes_and_unsigned(self):
        for values, dtype in (([0, -1], np.int64), ([0, 2**63 - 1], np.int64), ([-2**63, 0], np.int64),
                              ([0, 10**15], np.int64), ([0, 2**64 - 1], np.uint64), ([-5, 3], np.int8)):
            with pytest.raises(ValueError, match="row numbers"):
                int_texts(values, dtype)
        assert int_texts([0, 1, 10**15 - 1]) == [b"0", b"1", b"999999999999999"]
        unsigned = [0, 7, 10**15 - 1]
        assert int_texts(unsigned, np.uint64) == [str(v).encode() for v in unsigned]
        assert int_texts([5, 3], np.int8) == [b"5", b"3"]


def test_lines_join_cells_with_commas_and_newlines():
    columns = [np.array([1, 20]), np.array([0.5, -np.inf]), np.array([b"generic", b"x"]), np.array(["a", "bc"])]
    assert _csv.lines(columns) == b"1,5.000000000000e-01,generic,a\n20,-inf,x,bc\n"
