"""Pairwise dimension audit for self-similar sets.

Decides whether two systems are separated by an exact Lipschitz
invariant: first the Hausdorff dimension, then the walk dimension.  A
DISTINCT verdict always carries an integer certificate (two unequal
integers obtained from an exact power comparison); equality of both
invariants is reported as a necessary-condition pass only, never as
equivalence.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import WalkdimError
from .ifs import IfsSpec
from .logratio import Comparison, LogRatio, PowerCertificate, Relation
from .network import (
    DimensionReport,
    dimension_report_from_constants,
    walk_dimension,
)
from .rational import format_rational, parse_rational

DISTINCT_BY_ALPHA = "DISTINCT_BY_ALPHA"
DISTINCT_BY_BETA = "DISTINCT_BY_BETA"
INVARIANTS_EQUAL = "INVARIANTS_EQUAL"
INCONCLUSIVE = "INCONCLUSIVE"

VERDICTS = (DISTINCT_BY_ALPHA, DISTINCT_BY_BETA, INVARIANTS_EQUAL, INCONCLUSIVE)

# Either a geometric system, a precomputed report, or declared constants
# (map count, contraction ratio, energy scale).
Subject = Union[IfsSpec, DimensionReport, Sequence]


def verify_certificate(cert: PowerCertificate) -> bool:
    """Re-check a separation witness with direct rational arithmetic.

    The recorded powers must be unequal, and the reduced integer pair
    must preserve their ordering (every reduction step multiplies or
    divides both sides by the same positive quantity).
    """
    left = parse_rational(cert.left_power)
    right = parse_rational(cert.right_power)
    if left == right or cert.left_integer == cert.right_integer:
        return False
    return (left > right) == (cert.left_integer > cert.right_integer)


def _coerce(value) -> Union[int, Fraction]:
    if isinstance(value, str):
        return parse_rational(value)
    return value


def as_dimension_report(subject: Subject, name: Optional[str] = None) -> DimensionReport:
    """Normalize an audit subject to a dimension report.

    Geometric systems run through renormalization; 3-sequences are read
    as (map count, contraction ratio, energy scale) for systems whose
    geometry is supplied externally.
    """
    if isinstance(subject, DimensionReport):
        report = subject
    elif isinstance(subject, IfsSpec):
        report = walk_dimension(subject)
    elif isinstance(subject, Sequence) and not isinstance(subject, (str, bytes)):
        if len(subject) != 3:
            raise ValueError(
                "constants must be (map_count, ratio, energy_scale)"
            )
        n_raw, ratio, scale = (_coerce(v) for v in subject)
        n = int(n_raw)
        if n != n_raw:
            raise ValueError("map count must be an integer")
        label = name or (
            f"constants({n},{format_rational(ratio)},{format_rational(scale)})"
        )
        return dimension_report_from_constants(label, n, ratio, scale)
    else:
        raise TypeError(f"cannot audit subject of type {type(subject).__name__}")
    if name is not None and name != report.name:
        report = dataclasses.replace(report, name=name)
    return report


def _comparison_json(cmp: Comparison) -> dict:
    out = {
        "relation": cmp.relation.value,
        "route": cmp.route,
        "float_gap": cmp.float_gap,
    }
    if cmp.certificate is not None:
        out["certificate"] = _certificate_json(cmp.certificate)
    return out


def _certificate_json(cert: PowerCertificate) -> dict:
    return {
        "left": str(cert.left_integer),
        "right": str(cert.right_integer),
        "left_power": cert.left_power,
        "right_power": cert.right_power,
        "steps": list(cert.steps),
        "rendered": cert.render(),
    }


@dataclass(frozen=True)
class AuditVerdict:
    names: tuple[str, str]
    alphas: tuple[LogRatio, LogRatio]
    betas: tuple[LogRatio, LogRatio]
    verdict: str
    certificate: Optional[PowerCertificate]
    alpha_comparison: Comparison
    beta_comparison: Comparison
    note: str

    @property
    def lipschitz_equivalent(self) -> Optional[bool]:
        """False when certified distinct; None otherwise (never True)."""
        if self.verdict in (DISTINCT_BY_ALPHA, DISTINCT_BY_BETA):
            return False
        return None

    def render(self) -> str:
        line = f"{self.names[0]} vs {self.names[1]}: {self.verdict}"
        if self.certificate is not None:
            line += f" [{self.certificate.render()}]"
        return line

    def to_json(self) -> dict:
        return {
            "subjects": list(self.names),
            "alpha": [a.to_json() for a in self.alphas],
            "beta": [b.to_json() for b in self.betas],
            "alpha_comparison": _comparison_json(self.alpha_comparison),
            "beta_comparison": _comparison_json(self.beta_comparison),
            "verdict": self.verdict,
            "certificate": (
                _certificate_json(self.certificate)
                if self.certificate is not None
                else None
            ),
            "note": self.note,
        }


def audit_pair(
    a: Subject,
    b: Subject,
    name_a: Optional[str] = None,
    name_b: Optional[str] = None,
    float_tol: float = 1e-9,
) -> AuditVerdict:
    """Compare two systems by (alpha, beta) and render a verdict.

    Alpha separates first; otherwise beta.  Only exact integer
    certificates produce DISTINCT verdicts: distinct walk dimensions
    rule out any bi-Lipschitz map between the sets, so the verdict has
    to be proof-grade.  Anything resting on float comparison alone is
    INCONCLUSIVE.
    """
    ra = as_dimension_report(a, name_a)
    rb = as_dimension_report(b, name_b)
    for rep in (ra, rb):
        if rep.beta is None:
            raise WalkdimError(
                f"renormalization for '{rep.name}' did not resolve to an "
                "exact energy scale; the audit needs exact invariants"
            )
    ca = ra.alpha.compare(rb.alpha, float_tol=float_tol)
    cb = ra.beta.compare(rb.beta, float_tol=float_tol)

    if ca.relation is Relation.DISTINCT and ca.route == "exact":
        verdict, cert = DISTINCT_BY_ALPHA, ca.certificate
        note = (
            "Hausdorff dimensions differ with an exact certificate; "
            "the sets are not Lipschitz equivalent."
        )
    elif cb.relation is Relation.DISTINCT and cb.route == "exact":
        verdict, cert = DISTINCT_BY_BETA, cb.certificate
        note = (
            "walk dimensions differ with an exact certificate; "
            "the sets are not Lipschitz equivalent."
        )
    elif ca.relation is Relation.EQUAL and cb.relation is Relation.EQUAL:
        verdict, cert = INVARIANTS_EQUAL, None
        note = (
            "alpha and beta agree exactly: necessary-condition pass, "
            "equivalence NOT established."
        )
    else:
        verdict, cert = INCONCLUSIVE, None
        note = (
            "no exact certificate: comparison involves incommensurable "
            f"bases (alpha gap {ca.float_gap:.3e}, beta gap "
            f"{cb.float_gap:.3e})."
        )
    if verdict in (DISTINCT_BY_ALPHA, DISTINCT_BY_BETA):
        assert cert is not None and verify_certificate(cert)
    return AuditVerdict(
        (ra.name, rb.name),
        (ra.alpha, rb.alpha),
        (ra.beta, rb.beta),
        verdict,
        cert,
        ca,
        cb,
        note,
    )
