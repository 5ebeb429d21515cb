from fractions import Fraction

import pytest

from walkdim.audit import (
    DISTINCT_BY_ALPHA,
    DISTINCT_BY_BETA,
    INCONCLUSIVE,
    INVARIANTS_EQUAL,
    VERDICTS,
    as_dimension_report,
    audit_pair,
    verify_certificate,
)
from walkdim.errors import WalkdimError
from walkdim.logratio import LogRatio, PowerCertificate, Relation
from walkdim.network import DimensionReport, dimension_report_from_constants

F = Fraction

# the four gasket-type systems under comparison, as declared constants
# (map count, contraction ratio, energy scale)
K1 = (3, F(1, 2), F(5, 3))
K2 = (27, F(1, 8), F(295, 63))
K3 = (81, F(1, 16), F(1475, 189))
K4 = (81, F(1, 16), F(1475, 189))

TABLE = [
    (K1, K2, DISTINCT_BY_BETA, (875, 885)),
    (K1, K3, DISTINCT_BY_BETA, (4375, 4425)),
    (K1, K4, DISTINCT_BY_BETA, (4375, 4425)),
    (K2, K3, DISTINCT_BY_BETA, (885, 875)),
    (K2, K4, DISTINCT_BY_BETA, (885, 875)),
    (K3, K4, INVARIANTS_EQUAL, None),
]


class TestVerdictTable:
    @pytest.mark.parametrize("a,b,verdict,cert_pair", TABLE)
    def test_six_pairs(self, a, b, verdict, cert_pair):
        result = audit_pair(a, b)
        assert result.verdict == verdict
        if cert_pair is None:
            assert result.certificate is None
            assert result.lipschitz_equivalent is None
        else:
            cert = result.certificate
            assert (cert.left_integer, cert.right_integer) == cert_pair
            assert verify_certificate(cert)
            assert result.lipschitz_equivalent is False

    @pytest.mark.parametrize("a,b,verdict,cert_pair", TABLE)
    def test_alpha_always_equal_across_table(self, a, b, verdict, cert_pair):
        # all four systems share alpha = log 3 / log 2 after base
        # reduction, so separation must come from beta
        result = audit_pair(a, b)
        assert result.alpha_comparison.relation is Relation.EQUAL
        assert result.alpha_comparison.route == "exact"

    def test_render_contains_certificate(self):
        result = audit_pair(K1, K2)
        assert "875 != 885" in result.render()
        assert "DISTINCT_BY_BETA" in result.render()

    def test_symmetry_swaps_certificate(self):
        fwd = audit_pair(K1, K2)
        rev = audit_pair(K2, K1)
        assert fwd.verdict == rev.verdict == DISTINCT_BY_BETA
        assert (
            rev.certificate.left_integer,
            rev.certificate.right_integer,
        ) == (885, 875)

    def test_certificate_order_tracks_beta_order(self):
        # left > right exactly when the first beta is the larger one
        for a, b, verdict, cert_pair in TABLE:
            if cert_pair is None:
                continue
            result = audit_pair(a, b)
            beta_a, beta_b = result.betas
            assert (beta_a.value > beta_b.value) == (
                result.certificate.left_integer
                > result.certificate.right_integer
            )


class TestRoutes:
    def test_reflexive_geometric(self, sg):
        result = audit_pair(sg, sg)
        assert result.verdict == INVARIANTS_EQUAL
        assert result.certificate is None

    def test_geometric_vs_constants(self, sg):
        result = audit_pair(sg, K1)
        assert result.verdict == INVARIANTS_EQUAL

    def test_geometric_vs_distinct_constants(self, sg):
        result = audit_pair(sg, K2)
        assert result.verdict == DISTINCT_BY_BETA
        assert result.certificate.render() == "875 != 885"

    def test_segment_vs_sg_distinct_by_alpha(self, sg, segment):
        result = audit_pair(segment, sg)
        assert result.verdict == DISTINCT_BY_ALPHA
        assert result.certificate is not None
        assert verify_certificate(result.certificate)

    def test_string_constants_accepted(self):
        result = audit_pair((3, "1/2", "5/3"), ("27", "1/8", "295/63"))
        assert result.verdict == DISTINCT_BY_BETA
        assert result.certificate.render() == "875 != 885"

    def test_inconclusive_for_incommensurable(self):
        # alpha log4/log3 against log3/log2: no common power base, the
        # comparison bottoms out in floats and cannot certify
        result = audit_pair((4, F(1, 3), F(2)), K1)
        assert result.verdict == INCONCLUSIVE
        assert result.certificate is None
        assert result.lipschitz_equivalent is None
        assert "incommensurable" in result.note

    def test_equal_note_disclaims_equivalence(self):
        result = audit_pair(K3, K4)
        assert "NOT established" in result.note

    def test_inexact_subject_rejected(self):
        rough = dimension_report_from_constants(
            "rough", 3, F(1, 2), 1.6667, exact=False
        )
        with pytest.raises(WalkdimError):
            audit_pair(rough, K1)

    def test_custom_names(self):
        result = audit_pair(K1, K2, name_a="first", name_b="second")
        assert result.names == ("first", "second")
        assert result.render().startswith("first vs second:")


class TestSubjectNormalization:
    def test_report_passthrough(self):
        rep = dimension_report_from_constants("x", 3, F(1, 2), F(5, 3))
        assert as_dimension_report(rep) is rep

    def test_report_rename(self):
        rep = dimension_report_from_constants("x", 3, F(1, 2), F(5, 3))
        renamed = as_dimension_report(rep, name="y")
        assert renamed.name == "y"
        assert renamed.beta == rep.beta

    def test_constants_default_label(self):
        rep = as_dimension_report((3, F(1, 2), F(5, 3)))
        assert rep.name == "constants(3,1/2,5/3)"

    def test_geometric_subject(self, sg):
        rep = as_dimension_report(sg)
        assert rep.beta == LogRatio(F(5), F(2))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            as_dimension_report((3, F(1, 2)))

    def test_fractional_map_count_rejected(self):
        with pytest.raises(ValueError):
            as_dimension_report((F(7, 2), F(1, 2), F(5, 3)))

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            as_dimension_report(3.14)


class TestCertificateVerification:
    def test_reduced_pair_verifies(self):
        cmp = LogRatio(F(5), F(2)).compare(LogRatio(F(885, 7), F(8)))
        assert cmp.relation is Relation.DISTINCT
        assert verify_certificate(cmp.certificate)

    def test_equal_powers_fail(self):
        cert = PowerCertificate(1, 2, "3/4", "3/4", ())
        assert not verify_certificate(cert)

    def test_inconsistent_order_fails(self):
        cert = PowerCertificate(2, 1, "1/4", "3/4", ())
        assert not verify_certificate(cert)


class TestJson:
    def test_certificate_integers_as_strings(self):
        payload = audit_pair(K1, K2).to_json()
        assert payload["verdict"] == DISTINCT_BY_BETA
        assert payload["certificate"]["left"] == "875"
        assert payload["certificate"]["right"] == "885"
        assert payload["certificate"]["rendered"] == "875 != 885"
        assert payload["beta_comparison"]["relation"] == "distinct"
        assert payload["beta_comparison"]["route"] == "exact"

    def test_equal_pair_payload(self):
        payload = audit_pair(K3, K4).to_json()
        assert payload["verdict"] == INVARIANTS_EQUAL
        assert payload["certificate"] is None
        assert payload["subjects"] == [
            "constants(81,1/16,1475/189)",
            "constants(81,1/16,1475/189)",
        ]

    def test_verdict_vocabulary(self):
        assert set(VERDICTS) == {
            DISTINCT_BY_ALPHA,
            DISTINCT_BY_BETA,
            INVARIANTS_EQUAL,
            INCONCLUSIVE,
        }
        for a, b, verdict, _ in TABLE:
            assert audit_pair(a, b).verdict in VERDICTS
