"""The README's `## Library` example runs as written and gives the values
its comments state; every exported name resolves on the package."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

import walkdim
from walkdim.logratio import LogRatio


@pytest.fixture(scope="module")
def library_example() -> dict:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    return namespace


def test_dimension_report(library_example):
    rep = library_example["rep"]
    assert rep.energy_scale == Fraction(5, 3)
    assert rep.beta == LogRatio(5, 2)
    assert rep.beta_float == 2.321928094887362


def test_harmonic_energy(library_example):
    u, graph_energy = library_example["u"], library_example["graph_energy"]
    assert graph_energy(u, Fraction(5, 3)) == 2


def test_audit_verdict(library_example):
    verdict = library_example["verdict"]
    assert verdict.verdict == "DISTINCT_BY_BETA"
    assert verdict.certificate.render() == "875 != 885"
    assert verdict.lipschitz_equivalent is False


def test_exported_names_resolve():
    assert [name for name in walkdim.__all__ if not hasattr(walkdim, name)] == []
    assert set(walkdim.__all__) <= set(dir(walkdim))
    namespace: dict = {}
    exec("from walkdim import *", namespace)
    assert sorted(set(walkdim.__all__) - set(namespace)) == []
