"""Each benchmark check accepts a right value and rejects a deliberately
wrong one.  Run with ``python3 -m pytest bench``."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

import checks
from checks import Mismatch
from inputs import BENCH, K1, K2, K3, K4, OUT_DIR, ROOT, SRC
from tracer import LAYERS, self_times

SG_MAPS = [(F(1, 2), (F(0), F(0))), (F(1, 2), (F(1, 2), F(0))), (F(1, 2), (F(0), F(1, 2)))]
SG_BOUNDARY = [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
UNIT = {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}


def test_log_ratio_is_compared_exactly():
    checks.check_log_ratio(25, 4, 5, 2, "beta")
    with pytest.raises(Mismatch):
        checks.check_log_ratio(6, 2, 5, 2, "beta")


def test_product_law():
    checks.check_product_law({2: F(25, 9), 3: F(125, 27)}, F(5, 3))
    with pytest.raises(Mismatch):
        checks.check_product_law({2: F(25, 8)}, F(5, 3))


def test_audit_certificate_is_rederived():
    checks.check_audit(K1, K2, "DISTINCT_BY_BETA", (875, 885))
    checks.check_audit(K2, K3, "DISTINCT_BY_BETA", (885, 875))
    checks.check_audit(K3, K4, "INVARIANTS_EQUAL", None)
    with pytest.raises(Mismatch):
        checks.check_audit(K1, K2, "DISTINCT_BY_BETA", (875, 886))
    with pytest.raises(Mismatch):
        checks.check_audit(K1, K2, "DISTINCT_BY_BETA", (885, 875))
    with pytest.raises(Mismatch):
        checks.check_audit(K1, K2, "INVARIANTS_EQUAL", None)
    with pytest.raises(Mismatch):
        checks.check_audit(K3, K4, "INVARIANTS_EQUAL", (1, 2))


def test_exit_times():
    checks.check_exit_times([F(1), F(5), F(25)], 5, "sg")
    with pytest.raises(Mismatch):
        checks.check_exit_times([F(1), F(5), F(26)], 5, "sg")


def test_discrete_harmonic():
    edges = [(0, 1), (1, 2)]
    checks.check_discrete_harmonic([F(0), F(1, 2), F(1)], edges, {0, 2}, "path")
    with pytest.raises(Mismatch):
        checks.check_discrete_harmonic([F(0), F(1, 3), F(1)], edges, {0, 2}, "path")


def test_edge_energy_and_unit_interval():
    assert checks.edge_energy([F(0), F(1, 2), F(1)], [(0, 1), (1, 2)]) == F(1, 2)
    checks.check_unit_interval([F(0), F(1)], "u")
    with pytest.raises(Mismatch):
        checks.check_unit_interval([F(0), F(1) + F(1, 10 ** 9)], "u")


def test_energy_invariance():
    checks.check_energy_invariance({2: 2.0, 3: 2.0 * (1 + 1e-12)})
    with pytest.raises(Mismatch):
        checks.check_energy_invariance({2: 2.529, 3: 2.621, 4: 2.663})


def test_fixed_network_reproduces_itself():
    checks.check_fixed_network(SG_MAPS, SG_BOUNDARY, UNIT, 5 / 3)
    with pytest.raises(Mismatch):
        checks.check_fixed_network(SG_MAPS, SG_BOUNDARY, UNIT, 1.7)
    with pytest.raises(Mismatch):
        checks.check_fixed_network(SG_MAPS, SG_BOUNDARY, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 0.5}, 5 / 3)


def test_level_counts():
    checks.check_counts({"vertices": 6, "edges": 9, "cells": 3}, checks.sg_level_counts(1), "sg1")
    with pytest.raises(Mismatch):
        checks.check_counts({"vertices": 9843, "edges": 19682, "cells": 6561}, checks.sg_level_counts(8), "sg8")


def test_nonincreasing():
    checks.check_nonincreasing([3.0, 2.0, 2.0, 1.0], "p")
    with pytest.raises(Mismatch):
        checks.check_nonincreasing([3.0, 2.0, 2.1], "p")


def test_pushforward_rows():
    alpha = np.log(3) / np.log(2)
    factor = 0.5 ** (2 * alpha)
    bound = 2 ** (2 * alpha)
    good = [(0.5, factor * 3.0, 3.0, bound * 3.0, True), (0.25, factor * 1.0, 1.0, bound * 1.0, True)]
    checks.check_pushforward_rows(good, 0.5, alpha)
    with pytest.raises(Mismatch):
        checks.check_pushforward_rows([(0.5, factor * 3.1, 3.0, bound * 3.0, True)], 0.5, alpha)
    with pytest.raises(Mismatch):
        checks.check_pushforward_rows([(0.5, factor * 3.0, 3.0, bound * 3.0, False)], 0.5, alpha)
    with pytest.raises(Mismatch):
        checks.check_pushforward_rows([(0.5, factor * 3.0, 3.0, 3.0, True)], 0.5, alpha)


def test_sample_lattice():
    checks.check_sample_lattice([(F(1, 4), F(1, 2)), (F(3, 4096), F(0))], 12)
    with pytest.raises(Mismatch):
        checks.check_sample_lattice([(F(3, 4096), F(1, 4096))], 12)
    with pytest.raises(Mismatch):
        checks.check_sample_lattice([(F(1, 3), F(0))], 12)


def test_cell_shares():
    balanced = [(F(0), F(0)), (F(1, 2), F(0)), (F(0), F(1, 2))] * 100
    checks.check_cell_shares(balanced)
    with pytest.raises(Mismatch):
        checks.check_cell_shares([(F(0), F(0))] * 200 + balanced)


def test_coordinate_raw_below_r_squared():
    checks.check_coordinate_raw([0.5, 0.25], [0.2, 0.05])
    with pytest.raises(Mismatch):
        checks.check_coordinate_raw([0.5, 0.25], [0.2, 0.0625])


def test_brute_oscillation_by_hand():
    # points 0, 1/4, 1 on a line, equal weights, u = x; at r = 1/2 only
    # the pair (0, 1/4) is inside: volumes 2/3, 2/3, 1/3 and
    # osc = (1/3)(1/16) at the first two points
    points = np.array([[0.0, 0.0], [0.25, 0.0], [1.0, 0.0]])
    weights = np.full(3, 1 / 3)
    values = points[:, 0].copy()
    counts, raws = checks.brute_oscillation(points, weights, values, [0.5], chunk=2)
    assert counts == [1]
    assert raws[0] == pytest.approx(2 * (1 / 3) * ((1 / 3) * (1 / 16)) / (2 / 3), rel=1e-15)
    checks.check_scan([1], raws, counts, raws, "scan")
    with pytest.raises(Mismatch):
        checks.check_scan([2], raws, counts, raws, "scan")
    with pytest.raises(Mismatch):
        checks.check_scan(None, [raws[0] * (1 + 1e-9)], counts, raws, "scan")


def test_brute_ball_counts():
    points = np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [1.0, 0.0]])
    assert list(checks.brute_ball_counts(points, np.array([0, 3]), 0.5, chunk=1)) == [2, 1]


def test_self_times_subtract_children():
    spans = [["dirichlet.f", 0.0, 10.0, -1], ["levelgraph.g", 1.0, 4.0, 0], ["ifs.h", 2.0, 3.0, 1]]
    got = self_times(spans)
    assert got["dirichlet"] == 7.0 and got["levelgraph"] == 2.0 and got["ifs"] == 1.0
    assert set(got) == set(LAYERS)


def test_traced_cli_records_nested_spans_and_imports():
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / "test-spans.json"
    argv = [sys.executable, str(BENCH / "cli_traced.py"), str(spans_path), "cut", "sg", "-m", "1", "--remove-interior"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["components"] == 3
    spans = json.loads(spans_path.read_text())["spans"]
    spans_path.unlink()
    names = [s[0] for s in spans]
    for layer in LAYERS:
        assert f"{layer}.<import>" in names
    build = names.index("levelgraph.build_level_graph")
    assert any(s[0] == "ifs.ensure_valid" and s[3] == build for s in spans)
    assert all(value > 0 for value in self_times(spans).values())
