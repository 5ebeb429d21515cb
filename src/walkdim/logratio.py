"""Exact arithmetic for numbers of the form log(a)/log(b) with a, b rational.

Dimensions of self-similar sets are log-ratios of rationals.  Two such
numbers can be compared exactly: when the bases are multiplicatively
commensurable the question "log(a1)/log(b1) == log(a2)/log(b2)" reduces
to an equality of rational powers, which integer arithmetic settles with
a certificate.  Only when the bases share no common root do we fall back
to floats, and then a near-tie is reported as inconclusive rather than
decided.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .rational import as_fraction, format_rational, inth_root

# A certificate integer pair larger than this is reduced further before
# being reported; the bound keeps certificates eyeball-checkable.
_CERTIFICATE_LIMIT = 10 ** 12

# Largest root exponent probed when extracting a primitive root.
_MAX_ROOT_EXPONENT = 64

# Incommensurable values closer than this are inconclusive, not distinct.
FLOAT_TOL = 1e-9


class Relation(enum.Enum):
    EQUAL = "equal"
    DISTINCT = "distinct"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class PowerCertificate:
    """Exact witness that two log-ratios differ.

    The pair (left_integer, right_integer) are unequal integers obtained
    from the cross-multiplied power comparison; steps record the algebra
    that produced them.  The pair is oriented by value: left > right
    exactly when the first compared value is the larger one.
    """

    left_integer: int
    right_integer: int
    left_power: str
    right_power: str
    steps: tuple[str, ...] = ()

    def __post_init__(self):
        if self.left_integer == self.right_integer:
            raise ValueError("certificate integers must differ")

    def render(self) -> str:
        return f"{self.left_integer} != {self.right_integer}"


@dataclass(frozen=True)
class Comparison:
    relation: Relation
    certificate: Optional[PowerCertificate]
    float_gap: float
    route: str  # "exact" or "float"


def _oriented_certificate(
    li: int,
    ri: int,
    lp: str,
    rp: str,
    steps: tuple[str, ...],
    first_greater: bool,
) -> PowerCertificate:
    """Swap the witness pair if needed so left > right matches the exact
    value order (first_greater must come from exact arithmetic)."""
    if (li > ri) != first_greater:
        li, ri, lp, rp = ri, li, rp, lp
        steps = steps + ("swap sides to match value order",)
    return PowerCertificate(li, ri, lp, rp, steps)


def primitive_root(q: Fraction) -> tuple[Fraction, int]:
    """Write q > 1 as s**j with j maximal (j <= 64); returns (s, j).

    s is then not a proper rational power, so two rationals are
    multiplicatively commensurable iff their primitive roots coincide.
    """
    if q <= 1:
        raise ValueError("primitive_root requires q > 1")
    num, den = q.numerator, q.denominator
    cap = min(_MAX_ROOT_EXPONENT, num.bit_length())
    for j in range(cap, 1, -1):
        rn = inth_root(num, j)
        if rn is None:
            continue
        if den == 1:
            return Fraction(rn), j
        rd = inth_root(den, j)
        if rd is not None:
            return Fraction(rn, rd), j
    return q, 1


def _log_fraction(f: Fraction) -> float:
    # math.log on the integer parts avoids overflow for huge fractions
    return math.log(f.numerator) - math.log(f.denominator)


def _reduce_power_pair(
    p1: Fraction, a: int, p2: Fraction, b: int
) -> tuple[int, int, Fraction, Fraction, list[str]]:
    """Produce a small unequal integer pair certifying p1**a != p2**b.

    Starts from the cross-multiplied pair and, while it is large, cancels
    the common part of the bases (p1**a vs p2**b compares equal to
    p1**(a-b) vs (p2/p1)**b when a >= b).  The cancellation is the
    subtractive Euclidean algorithm on the exponents, so it terminates.
    """
    steps: list[str] = []
    while True:
        left = p1 ** a
        right = p2 ** b
        cross_l = left.numerator * right.denominator
        cross_r = right.numerator * left.denominator
        if max(cross_l, cross_r) <= _CERTIFICATE_LIMIT or a == 0 or b == 0:
            steps.append(
                f"cross-multiply ({format_rational(left)}) vs "
                f"({format_rational(right)}): {cross_l} vs {cross_r}"
            )
            g = math.gcd(cross_l, cross_r)
            if max(cross_l, cross_r) > _CERTIFICATE_LIMIT and g > 1:
                cross_l //= g
                cross_r //= g
                steps.append(f"divide by gcd {g}: {cross_l} vs {cross_r}")
            return cross_l, cross_r, left, right, steps
        # a base of 1 cancels nothing
        if a >= b and p1 != 1 and p2 != p1 and p2 / p1 > 1:
            steps.append(
                f"cancel ({format_rational(p1)})^{b} from both sides"
            )
            p2 = p2 / p1
            a = a - b
        elif b >= a and p2 != 1 and p1 != p2 and p1 / p2 > 1:
            steps.append(
                f"cancel ({format_rational(p2)})^{a} from both sides"
            )
            p1 = p1 / p2
            b = b - a
        else:
            # No size-reducing cancellation applies; emit the gcd-reduced
            # cross pair even if it is large.
            cross_l = left.numerator * right.denominator
            cross_r = right.numerator * left.denominator
            g = math.gcd(cross_l, cross_r)
            steps.append(
                f"cross-multiply and divide by gcd {g}: "
                f"{cross_l // g} vs {cross_r // g}"
            )
            return cross_l // g, cross_r // g, left, right, steps


class LogRatio:
    """The real number log(argument)/log(base), held exactly.

    base is normalized to be > 1 (log_b(a) == log_{1/b}(1/a)); the
    argument may be any positive rational, so the value can be negative
    or zero.  Use compare() for the three-way exact comparison; == is
    True only when compare() proves equality.
    """

    __slots__ = ("argument", "base")

    argument: Fraction
    base: Fraction

    def __init__(self, argument, base):
        arg = as_fraction(argument)
        b = as_fraction(base)
        if arg <= 0:
            raise ValueError("argument must be positive")
        if b <= 0 or b == 1:
            raise ValueError("base must be positive and != 1")
        if b < 1:
            arg, b = 1 / arg, 1 / b
        object.__setattr__(self, "argument", arg)
        object.__setattr__(self, "base", b)

    def __setattr__(self, name, value):
        raise AttributeError("LogRatio is immutable")

    @property
    def value(self) -> float:
        if self.argument == 1:
            return 0.0
        return _log_fraction(self.argument) / _log_fraction(self.base)

    def __float__(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return (
            f"LogRatio(log({format_rational(self.argument)})"
            f"/log({format_rational(self.base)}))"
        )

    def try_exact_rational(self) -> Optional[Fraction]:
        """Return this value as a Fraction if it is rational, else None."""
        if self.argument == 1:
            return Fraction(0)
        arg, sign = self.argument, 1
        if arg < 1:
            arg, sign = 1 / arg, -1
        sa, ja = primitive_root(arg)
        sb, jb = primitive_root(self.base)
        if sa != sb:
            return None
        return Fraction(sign * ja, jb)

    def compare(self, other: "LogRatio") -> Comparison:
        """Exact three-way comparison with a separating certificate.

        Equality and distinctness are decided by integer arithmetic when
        the two bases share a primitive root (a zero value shares every
        root) or both values are rational.  Incommensurable bases fall
        back to floats: a gap above FLOAT_TOL is reported distinct
        (without an integer certificate), anything closer is
        inconclusive.
        """
        if not isinstance(other, LogRatio):
            raise TypeError("can only compare LogRatio with LogRatio")
        gap = self.value - other.value

        # Both values exactly rational: decidable even across
        # incommensurable bases (log9/log3 == log4/log2 == 2).  A zero
        # value is left to the power test below, which needs no shared base.
        if self.argument != 1 and other.argument != 1:
            r1 = self.try_exact_rational()
            r2 = other.try_exact_rational()
            if r1 is not None and r2 is not None:
                if r1 == r2:
                    return Comparison(Relation.EQUAL, None, gap, "exact")
                li = r1.numerator * r2.denominator
                ri = r2.numerator * r1.denominator
                lp, rp = format_rational(r1), format_rational(r2)
                cert = PowerCertificate(li, ri, lp, rp, (
                    "both values are exact rationals",
                    f"cross-multiply {lp} vs {rp}: {li} vs {ri}",
                ))
                return Comparison(Relation.DISTINCT, cert, gap, "exact")

        # log(1) == 0 over every base, so a zero value takes the other
        # side's primitive root (a second zero then takes the first's).
        s1, j1 = primitive_root(self.base)
        s2, j2 = primitive_root(other.base)
        if self.argument == 1:
            s1, j1 = s2, 1
        if other.argument == 1:
            s2, j2 = s1, 1
        if s1 != s2:
            if abs(gap) > FLOAT_TOL:
                return Comparison(Relation.DISTINCT, None, gap, "float")
            return Comparison(Relation.INCONCLUSIVE, None, gap, "float")

        # Common base s: log(a1)/(j1 log s) vs log(a2)/(j2 log s) has the
        # order of a1**j2 vs a2**j1 for any positive a1, a2, since log s > 0.
        a1, a2 = self.argument, other.argument
        left, right = a1 ** j2, a2 ** j1
        if left == right:
            return Comparison(Relation.EQUAL, None, gap, "exact")
        li, ri, lp, rp, steps = _reduce_power_pair(a1, j2, a2, j1)
        cert = _oriented_certificate(
            li, ri, format_rational(lp), format_rational(rp),
            (
                f"common base {format_rational(s1)}: compare "
                f"({format_rational(a1)})^{j2} vs ({format_rational(a2)})^{j1}",
            )
            + tuple(steps),
            left > right,
        )
        return Comparison(Relation.DISTINCT, cert, gap, "exact")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogRatio):
            return NotImplemented
        return self.compare(other).relation is Relation.EQUAL

    __hash__ = None  # semantic equality is nontrivial; not hashable

    def to_json(self) -> dict:
        out = {
            "argument": format_rational(self.argument),
            "base": format_rational(self.base),
            "float": self.value,
        }
        exact = self.try_exact_rational()
        if exact is not None:
            out["exact_rational"] = format_rational(exact)
        return out
