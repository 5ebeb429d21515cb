"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package at its stated
tolerance and prints a single pass/fail line (visible with -s); run as

    pytest tests/test_acceptance.py -v -s
"""

import math
import time
from fractions import Fraction

from walkdim.audit import (
    DISTINCT_BY_BETA,
    INVARIANTS_EQUAL,
    audit_pair,
    verify_certificate,
)
from walkdim.besov import LipschitzMap, alfors_check, critical_exponent_fit, pushforward_check
from walkdim.dirichlet import (
    exit_time_profile,
    graph_energy,
    harmonic_extension,
    heat_kernel_diag,
)
from walkdim.ifs import compose, load_system, sample_measure
from walkdim.levelgraph import build_level_graph, components_after_removal
from walkdim.logratio import LogRatio
from walkdim.network import renorm_factor, walk_dimension

F = Fraction

SG = load_system("sg")
SEGMENT = load_system("segment")

K1 = (3, F(1, 2), F(5, 3))
K2 = (27, F(1, 8), F(295, 63))
K3 = (81, F(1, 16), F(1475, 189))
K4 = (81, F(1, 16), F(1475, 189))

BETA_SG = math.log(5) / math.log(2)


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n} failed: {detail}"


def test_criterion_01_exact_renormalization():
    t0 = time.perf_counter()
    result = renorm_factor(SG)
    elapsed = time.perf_counter() - t0
    ok = result.energy_scale == F(5, 3) and result.exact and elapsed < 1.0
    report(1, ok, f"energy scale {result.energy_scale} exact={result.exact} in {elapsed:.3f}s")


def test_criterion_02_renormalization_product_law():
    t0 = time.perf_counter()
    sg2 = compose(SG, SG)
    r2 = renorm_factor(sg2)
    sg3 = compose(SG, sg2)
    r3 = renorm_factor(sg3)
    elapsed = time.perf_counter() - t0
    ok = (
        r2.energy_scale == F(25, 9)
        and r3.energy_scale == F(125, 27)
        and r2.exact
        and r3.exact
        and elapsed < 10.0
    )
    report(2, ok, f"compose scales {r2.energy_scale}, {r3.energy_scale} in {elapsed:.2f}s")


def test_criterion_03_walk_dimensions():
    rep_sg = walk_dimension(SG)
    rep_seg = walk_dimension(SEGMENT)
    ok = (
        rep_sg.beta == LogRatio(F(5), F(2))
        and abs(rep_sg.beta_float - 2.321928094887362) < 1e-9
        and rep_seg.beta.try_exact_rational() == 2
    )
    report(3, ok, f"beta(sg)={rep_sg.beta_float:.15f}, beta(segment)={rep_seg.beta_float}")


def test_criterion_04_pairwise_audit_table():
    t0 = time.perf_counter()
    expected = [
        (K1, K2, DISTINCT_BY_BETA, (875, 885)),
        (K1, K3, DISTINCT_BY_BETA, (4375, 4425)),
        (K1, K4, DISTINCT_BY_BETA, (4375, 4425)),
        (K2, K3, DISTINCT_BY_BETA, (885, 875)),
        (K2, K4, DISTINCT_BY_BETA, (885, 875)),
        (K3, K4, INVARIANTS_EQUAL, None),
    ]
    lines = []
    ok = True
    for a, b, verdict, pair in expected:
        got = audit_pair(a, b)
        ok = ok and got.verdict == verdict
        if pair is None:
            ok = ok and got.certificate is None
        else:
            cert = got.certificate
            ok = ok and (cert.left_integer, cert.right_integer) == pair
            ok = ok and verify_certificate(cert)
            ok = ok and got.beta_comparison.route == "exact"
        lines.append(got.render())
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(4, ok, f"6 verdicts in {elapsed:.3f}s: " + "; ".join(lines))


def test_criterion_05_harmonic_extension_and_energy():
    u1 = harmonic_extension(SG, 1, (F(1), F(0), F(0)))
    g = u1.graph
    b = SG.boundary

    def mid(p, q):
        return ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)

    mids = (
        u1.values[g.vertex_index(mid(b[0], b[1]))],
        u1.values[g.vertex_index(mid(b[0], b[2]))],
        u1.values[g.vertex_index(mid(b[1], b[2]))],
    )
    ok = mids == (F(2, 5), F(2, 5), F(1, 5))
    energies = []
    for m in range(5):
        um = harmonic_extension(SG, m, (F(1), F(0), F(0)))
        energies.append(graph_energy(um, F(5, 3)))
    ok = ok and all(e == 2 for e in energies)
    report(5, ok, f"midpoints {tuple(map(str, mids))}, energies m=0..4 all {energies[0]}")


def test_criterion_06_exit_time_scaling():
    t0 = time.perf_counter()
    rep = exit_time_profile(SG, 4)
    elapsed = time.perf_counter() - t0
    times = [t for _, t in rep.rows]
    ok = times[0] == 1 and times[1] == 5
    for r in rep.ratios[1:4]:
        ok = ok and abs(float(r) - 5.0) / 5.0 <= 0.01
    ok = ok and abs(rep.beta_hat - BETA_SG) / BETA_SG <= 0.02
    ok = ok and elapsed < 30.0
    report(6, ok, f"times {[str(t) for t in times]}, beta_hat {rep.beta_hat:.6f} in {elapsed:.2f}s")


def test_criterion_07_heat_kernel_exponent():
    t0 = time.perf_counter()
    prof = heat_kernel_diag(SG, 6)
    elapsed = time.perf_counter() - t0
    target = -math.log(3) / math.log(5)
    ok = (
        prof.window[0] >= 10
        and prof.window[1] <= 1000
        and abs(prof.fitted_exponent - target) <= 0.05
        and elapsed < 60.0
    )
    report(
        7,
        ok,
        f"exponent {prof.fitted_exponent:.4f} vs {target:.4f} "
        f"(window {prof.window}) in {elapsed:.2f}s",
    )


def test_criterion_08_besov_critical_exponent():
    t0 = time.perf_counter()
    u_sg = harmonic_extension(SG, 7, (F(1), F(0), F(0)))
    fit_sg = critical_exponent_fit(u_sg.graph, u_sg)
    u_seg = harmonic_extension(SEGMENT, 8, (F(0), F(1)))
    fit_seg = critical_exponent_fit(u_seg.graph, u_seg)
    elapsed = time.perf_counter() - t0
    rel_sg = abs(fit_sg.slope - 2.3219) / 2.3219
    rel_seg = abs(fit_seg.slope - 2.0) / 2.0
    ok = rel_sg <= 0.07 and rel_seg <= 0.05 and elapsed < 120.0
    report(
        8,
        ok,
        f"sg slope {fit_sg.slope:.4f} ({rel_sg:.1%} off), "
        f"segment slope {fit_seg.slope:.4f} ({rel_seg:.1%} off) in {elapsed:.1f}s",
    )


def test_criterion_09_pushforward_invariance():
    u = harmonic_extension(SG, 6, (F(1), F(0), F(0)))
    half = pushforward_check(LipschitzMap(F(1, 2), (F(0), F(0))), SG, u)
    ok = all(row.ok for row in half.rows) and half.fits_agree
    ident = pushforward_check(LipschitzMap(F(1), (F(0), F(0))), SG, u)
    shift = pushforward_check(LipschitzMap(F(1), (F(1, 4), F(-3, 8))), SG, u)
    for rep in (ident, shift):
        ok = ok and rep.exact_invariance
        ok = ok and rep.source_fit.slope == rep.image_fit.slope
        ok = ok and all(row.ok for row in rep.rows)
    report(
        9,
        ok,
        f"scale-1/2 rows ok, fits {half.source_fit.slope:.4f}/"
        f"{half.image_fit.slope:.4f} agree; identity and translation exact",
    )


def test_criterion_10_alfors_regularity():
    t0 = time.perf_counter()
    sample = sample_measure(SG, 12, 100_000)
    alpha = math.log(3) / math.log(2)
    good = alfors_check(sample, alpha)
    bad = alfors_check(sample, 1.0)
    elapsed = time.perf_counter() - t0
    ok = (
        good.constant <= 8.0
        and not good.flagged
        and bad.flagged
        and bad.drift > 4.0
    )
    report(
        10,
        ok,
        f"C={good.constant:.3f} (<=8), wrong-alpha drift {bad.drift:.3f} "
        f"flagged={bad.flagged} in {elapsed:.1f}s",
    )


def test_criterion_11_cut_points():
    g = build_level_graph(SG, 1)
    b = SG.boundary

    def mid(p, q):
        return ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)

    mids = [mid(b[0], b[1]), mid(b[0], b[2]), mid(b[1], b[2])]
    count = components_after_removal(g, mids)
    ok = count == 3
    report(11, ok, f"removing 3 midpoints leaves {count} components")
