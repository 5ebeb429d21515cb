"""Exact rational helpers and the "p/q" string convention.

All exact arithmetic in this package goes through fractions.Fraction.
JSON output never carries floats for exact quantities: a rational is
serialized as the string "p/q" (or "p" when q == 1) so that round-trips
are lossless and diffs are stable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction, str]


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction.

    Floats are rejected on purpose: a float argument is almost always a
    bug in exact code paths, and Fraction(0.1) would silently encode the
    binary approximation.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a rational value")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


def as_point(value) -> tuple[Fraction, Fraction]:
    """Coerce a pair of rational-likes to two Fractions; a string is one coordinate."""
    coords = (value,) if isinstance(value, str) else tuple(value)
    if len(coords) != 2:
        raise ValueError(f"a point needs two coordinates, got {len(coords)}")
    return (as_fraction(coords[0]), as_fraction(coords[1]))


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction.

    Whitespace around tokens is tolerated, anything else is an error.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    num, sep, den = s.partition("/")
    try:
        if not sep:
            return Fraction(int(num.strip(), 10))
        return Fraction(int(num.strip(), 10), int(den.strip(), 10))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


def format_rational(value: RationalLike) -> str:
    """Render a Fraction as "p/q", or "p" for integers."""
    frac = as_fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def json_number(value) -> Union[str, float]:
    """An int or Fraction as its "p/q" string, any other number as a float."""
    if isinstance(value, (int, Fraction)):
        return format_rational(value)
    return float(value)


def inth_root(n: int, k: int) -> int | None:
    """Integer k-th root of n >= 1 if exact, else None."""
    if n < 1 or k < 1:
        return None
    if k == 1:
        return n
    if n == 1:
        return 1
    # Initial guess from bit length, then Newton steps on integers.
    r = 1 << -(-n.bit_length() // k)
    while True:
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    while r ** k > n:
        r -= 1
    return r if r >= 1 and r ** k == n else None
