from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from walkdim.rational import (
    as_fraction,
    format_rational,
    inth_root,
    parse_rational,
)


class TestAsFraction:
    def test_int(self):
        assert as_fraction(7) == Fraction(7)

    def test_fraction_passthrough(self):
        f = Fraction(3, 5)
        assert as_fraction(f) is f

    def test_string(self):
        assert as_fraction("295/63") == Fraction(295, 63)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            as_fraction(0.5)

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            as_fraction(True)


class TestParseRational:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("5/3", Fraction(5, 3)),
            ("-3/4", Fraction(-3, 4)),
            ("12", Fraction(12)),
            (" 1 / 2 ", Fraction(1, 2)),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize("text", ["", "1/0", "a/b", "1.5", "1/2/3"])
    def test_invalid(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)

    @given(st.fractions())
    def test_roundtrip(self, f):
        assert parse_rational(format_rational(f)) == f


class TestFormatRational:
    def test_integer_drops_denominator(self):
        assert format_rational(Fraction(6, 3)) == "2"

    def test_proper_fraction(self):
        assert format_rational(Fraction(1475, 189)) == "1475/189"


class TestIntegerRoots:
    @pytest.mark.parametrize("base,k", [(2, 10), (3, 7), (885, 3), (10, 6)])
    def test_inth_root_exact(self, base, k):
        assert inth_root(base ** k, k) == base

    def test_inth_root_inexact(self):
        assert inth_root(2 ** 10 + 1, 10) is None

    @given(st.integers(min_value=2, max_value=10 ** 6), st.integers(min_value=1, max_value=32))
    def test_inth_root_roundtrip(self, n, k):
        assert inth_root(n ** k, k) == n

    @given(st.integers(min_value=2, max_value=10 ** 9), st.integers(min_value=2, max_value=16))
    def test_inth_root_never_overshoots(self, n, k):
        r = inth_root(n, k)
        if r is not None:
            assert r ** k == n
