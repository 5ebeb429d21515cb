import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from walkdim.logratio import (
    LogRatio,
    PowerCertificate,
    Relation,
    primitive_root,
)

ALPHA = LogRatio(3, 2)  # log3/log2
BETA_A = LogRatio(5, 2)  # log5/log2
BETA_B = LogRatio(Fraction(885, 7), 8)
BETA_C = LogRatio(Fraction(4425, 7), 16)


small_fractions = st.builds(
    Fraction, st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=30)
)


class TestConstruction:
    def test_base_below_one_inverts(self):
        a = LogRatio(3, Fraction(1, 2))
        assert a.base == Fraction(2) and a.argument == Fraction(1, 3)
        assert a.value < 0

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            LogRatio(0, 2)

    def test_rejects_base_one(self):
        with pytest.raises(ValueError):
            LogRatio(3, 1)

    def test_rejects_float_argument(self):
        with pytest.raises(TypeError):
            LogRatio(1.5, 2)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ALPHA.argument = Fraction(4)

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(ALPHA)


class TestValue:
    def test_known_floats(self):
        assert ALPHA.value == pytest.approx(1.5849625007211563, abs=1e-15)
        assert BETA_A.value == pytest.approx(2.321928094887362, abs=1e-15)
        assert BETA_B.value == pytest.approx(2.327392907637585, abs=1e-12)
        assert BETA_C.value == pytest.approx(2.3260267044500296, abs=1e-12)

    def test_huge_arguments_no_overflow(self):
        # plain math.log(Fraction->float) would overflow here
        big = LogRatio(Fraction(2) ** 5000, 2)
        assert big.value == pytest.approx(5000.0)


class TestPrimitiveRoot:
    @pytest.mark.parametrize(
        "q,root,j",
        [
            (Fraction(16), Fraction(2), 4),
            (Fraction(8), Fraction(2), 3),
            (Fraction(1, 0 + 2) ** -1, Fraction(2), 1),
            (Fraction(27, 8), Fraction(3, 2), 3),
            (Fraction(10), Fraction(10), 1),
        ],
    )
    def test_known(self, q, root, j):
        assert primitive_root(q) == (root, j)

    @given(small_fractions.filter(lambda f: f > 1), st.integers(min_value=1, max_value=6))
    def test_power_recovery(self, s, j):
        root, k = primitive_root(s ** j)
        # the extracted root generates s**j, with exponent a multiple of j
        assert root ** k == s ** j
        assert k % j == 0 or s != root  # k >= j whenever s is itself primitive


class TestArithmetic:
    def test_same_base_addition(self):
        assert (LogRatio(3, 2) + LogRatio(Fraction(5, 3), 2)) == LogRatio(5, 2)

    def test_commensurable_addition(self):
        # log(27)/log(8) + log(3)/log(2) = log3/log2 + log3/log2
        total = LogRatio(27, 8) + ALPHA
        assert total == LogRatio(9, 2)

    def test_incommensurable_addition_raises(self):
        with pytest.raises(ArithmeticError):
            LogRatio(2, 3) + LogRatio(2, 5)


class TestExactRational:
    def test_integer_value(self):
        assert LogRatio(8, 2).try_exact_rational() == 3

    def test_fractional_value(self):
        assert LogRatio(8, 16).try_exact_rational() == Fraction(3, 4)

    def test_negative_value(self):
        assert LogRatio(Fraction(1, 8), 16).try_exact_rational() == Fraction(-3, 4)

    def test_irrational(self):
        assert BETA_A.try_exact_rational() is None

    def test_zero(self):
        assert LogRatio(1, 5).try_exact_rational() == 0


class TestCompare:
    def test_spec_equal_pair(self):
        # log9/log4 == log3/log2 over the common base 2
        c = LogRatio(9, 4).compare(ALPHA)
        assert c.relation is Relation.EQUAL and c.route == "exact"

    def test_first_audit_pair(self):
        c = BETA_A.compare(BETA_B)
        assert c.relation is Relation.DISTINCT
        assert c.certificate.render() == "875 != 885"
        assert c.route == "exact"
        assert any("cross-multiply" in s for s in c.certificate.steps)

    def test_second_audit_pair(self):
        c = BETA_A.compare(BETA_C)
        assert c.certificate.render() == "4375 != 4425"

    def test_third_audit_pair_reduces(self):
        # 885^4 vs 7*4425^3 collapses through shared base parts
        c = BETA_B.compare(BETA_C)
        assert c.certificate.render() == "885 != 875"
        assert any("cancel" in s for s in c.certificate.steps)

    def test_certificate_order_matches_floats(self):
        for x, y in [(BETA_A, BETA_B), (BETA_A, BETA_C), (BETA_B, BETA_C)]:
            c = x.compare(y)
            assert (c.certificate.left_integer > c.certificate.right_integer) == (
                x.value > y.value
            )

    def test_zero_vs_zero(self):
        c = LogRatio(1, 2).compare(LogRatio(1, 7))
        assert c.relation is Relation.EQUAL

    def test_zero_vs_nonzero_has_certificate(self):
        c = LogRatio(1, 2).compare(ALPHA)
        assert c.relation is Relation.DISTINCT
        # oriented by value: the zero side is smaller
        assert c.certificate.render() == "1 != 3"

    def test_rational_values_cross_base(self):
        # decidable even though bases 3 and 2 are incommensurable
        c = LogRatio(9, 3).compare(LogRatio(4, 2))
        assert c.relation is Relation.EQUAL and c.route == "exact"

    def test_rational_values_distinct_cross_base(self):
        c = LogRatio(9, 3).compare(LogRatio(8, 2))
        assert c.relation is Relation.DISTINCT
        assert c.certificate is not None

    def test_opposite_signs_certificate(self):
        c = LogRatio(Fraction(5, 3), 2).compare(LogRatio(Fraction(3, 5), 2))
        assert c.relation is Relation.DISTINCT
        assert c.certificate.render() == "25 != 9"

    def test_incommensurable_far_apart(self):
        c = LogRatio(2, 3).compare(LogRatio(2, 5))
        assert c.relation is Relation.DISTINCT
        assert c.route == "float" and c.certificate is None

    def test_incommensurable_close_is_inconclusive(self):
        # log(998)/log(997) vs log(999)/log(998): gap ~ 1e-6 < tol=1e-3
        a = LogRatio(998, 997)
        b = LogRatio(999, 998)
        c = a.compare(b, float_tol=1e-3)
        assert c.relation is Relation.INCONCLUSIVE
        assert c.certificate is None

    def test_type_error(self):
        with pytest.raises(TypeError):
            ALPHA.compare(1.5)

    def test_eq_operator_only_on_proof(self):
        assert LogRatio(9, 4) == ALPHA
        assert not (BETA_A == BETA_B)


class TestCompareProperties:
    @given(
        small_fractions.filter(lambda f: f != 1),
        small_fractions.filter(lambda f: f != 1),
        st.sampled_from([2, 3, 4, 8, 9, 16]),
        st.sampled_from([2, 3, 4, 8, 9, 16]),
    )
    def test_symmetry(self, a1, a2, b1, b2):
        x, y = LogRatio(a1, b1), LogRatio(a2, b2)
        assert x.compare(y).relation is y.compare(x).relation

    @given(
        small_fractions.filter(lambda f: f > 1),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
    )
    def test_power_pairs_equal(self, s, j, k):
        # log(s^j)/log(s^k) == j/k for every rational s > 1
        a = LogRatio(s ** j, s ** k)
        assert a.try_exact_rational() == Fraction(j, k)
        b = LogRatio(s ** (2 * j), s ** (2 * k))
        assert a.compare(b).relation is Relation.EQUAL

    @given(
        st.sampled_from([2, 3, 5, 6, 10]),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    def test_equal_transitive_on_common_base(self, s, i, j, k):
        a = LogRatio(s ** i, s ** j)
        b = LogRatio(s ** (i * k), s ** (j * k))
        c = LogRatio(s ** (i * 2), s ** (j * 2))
        assert a.compare(b).relation is Relation.EQUAL
        assert b.compare(c).relation is Relation.EQUAL
        assert a.compare(c).relation is Relation.EQUAL

    @given(
        small_fractions.filter(lambda f: f != 1),
        small_fractions.filter(lambda f: f != 1),
        st.sampled_from([2, 4, 8, 16]),
        st.sampled_from([2, 4, 8, 16]),
    )
    def test_distinct_certificates_verify(self, a1, a2, b1, b2):
        x, y = LogRatio(a1, b1), LogRatio(a2, b2)
        c = x.compare(y)
        if c.relation is Relation.DISTINCT:
            assert c.route == "exact"
            assert c.certificate is not None
            assert c.certificate.left_integer != c.certificate.right_integer
            # a certificate never contradicts the float gap
            if abs(c.float_gap) > 1e-9:
                assert (
                    c.certificate.left_integer > c.certificate.right_integer
                ) == (c.float_gap > 0)

    @given(small_fractions.filter(lambda f: f != 1), st.sampled_from([2, 3, 5]))
    def test_reflexive(self, a, b):
        x = LogRatio(a, b)
        assert x.compare(x).relation is Relation.EQUAL


class TestCertificate:
    def test_rejects_equal_integers(self):
        with pytest.raises(ValueError):
            PowerCertificate(5, 5, "5", "5")

    def test_render(self):
        assert PowerCertificate(875, 885, "125", "885/7").render() == "875 != 885"


class TestJson:
    def test_irrational(self):
        j = BETA_A.to_json()
        assert j == {
            "argument": "5",
            "base": "2",
            "float": pytest.approx(math.log(5) / math.log(2)),
        }

    def test_rational_annotated(self):
        j = LogRatio(8, 4).to_json()
        assert j["exact_rational"] == "3/2"
