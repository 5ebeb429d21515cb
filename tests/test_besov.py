import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import ball_volumes_brute, besov_raw_brute, oscillation_brute
from walkdim.besov import (
    DRIFT_THRESHOLD,
    LipschitzMap,
    alfors_check,
    besov_functional,
    critical_exponent_fit,
    dyadic_grid,
    pushforward_check,
)
from walkdim.dirichlet import GraphFunction, harmonic_extension
from walkdim.errors import BudgetExceeded, FitError
from walkdim.ifs import sample_measure
from walkdim.levelgraph import build_level_graph, vertex_measure_weights

F = Fraction
ALPHA = math.log(3) / math.log(2)


def harmonic_on(ifs, m):
    k = len(ifs.boundary)
    vals = (F(1),) + (F(0),) * (k - 1)
    return harmonic_extension(ifs, m, vals)


class TestDyadicGrid:
    def test_default(self):
        grid = dyadic_grid()
        assert grid == (0.5, 0.25, 0.125, 0.0625, 0.03125)

    def test_single(self):
        assert dyadic_grid(3, 3) == (0.125,)

    def test_validation(self):
        with pytest.raises(ValueError):
            dyadic_grid(0, 4)
        with pytest.raises(ValueError):
            dyadic_grid(4, 2)


class TestBesovFunctional:
    def test_constant_function_vanishes(self, sg):
        g = build_level_graph(sg, 3)
        u = GraphFunction(g, tuple(F(5) for _ in range(g.vertex_count)))
        scan = besov_functional(g, u, sigma=1.0)
        assert all(row.raw == 0.0 for row in scan.rows)
        assert scan.supremum == 0.0
        assert scan.l2_norm == pytest.approx(5.0)

    def test_sigma_scaling_per_row(self, sg):
        u = harmonic_on(sg, 3)
        scan = besov_functional(u.graph, u, sigma=1.2)
        for row in scan.rows:
            assert row.scaled == pytest.approx(row.r ** -2.4 * row.raw)

    def test_quadratic_homogeneity(self, sg):
        u = harmonic_on(sg, 3)
        scan1 = besov_functional(u.graph, u, sigma=0.8)
        doubled = GraphFunction(u.graph, tuple(2 * v for v in u.values))
        scan2 = besov_functional(u.graph, doubled, sigma=0.8)
        for a, b in zip(scan1.rows, scan2.rows):
            assert b.raw == pytest.approx(4.0 * a.raw, rel=1e-12)
        assert scan2.supremum == pytest.approx(4.0 * scan1.supremum, rel=1e-12)

    def test_supremum_is_max_usable_scaled(self, sg):
        u = harmonic_on(sg, 4)
        scan = besov_functional(u.graph, u, sigma=1.1)
        usable = [row.scaled for row in scan.rows if row.usable]
        assert scan.supremum == max(usable)

    def test_pair_count_monotone_in_radius(self, sg):
        u = harmonic_on(sg, 4)
        scan = besov_functional(u.graph, u, sigma=0.0)
        counts = [row.pair_count for row in scan.rows]  # radii decreasing
        assert counts == sorted(counts, reverse=True)

    def test_open_ball_excludes_exact_distance(self, segment):
        # level-2 vertices sit at spacing exactly 1/4; the open ball of
        # radius 1/4 contains no other vertex
        g = build_level_graph(segment, 2)
        u = GraphFunction(g, tuple(p[0] for p in g.vertices))
        scan = besov_functional(g, u, sigma=0.0, r_grid=[0.25])
        assert scan.rows[0].pair_count == 0
        assert not scan.rows[0].usable
        assert scan.rows[0].raw == 0.0

    def test_volume_includes_center(self, sg):
        g = build_level_graph(sg, 2)
        w = [float(x) for x in vertex_measure_weights(g)]
        u = GraphFunction(g, tuple(F(0) for _ in range(g.vertex_count)))
        scan = besov_functional(g, u, sigma=0.0, r_grid=[1e-6])
        assert scan.rows[0].volume_min == pytest.approx(min(w))
        assert scan.rows[0].volume_max == pytest.approx(max(w))

    def test_matches_brute_oracle_on_graph(self, sg):
        u = harmonic_on(sg, 3)
        g = u.graph
        pts = np.array([[float(x), float(y)] for x, y in g.vertices])
        w = np.array([float(v) for v in vertex_measure_weights(g)])
        vals = u.float_values()
        radii = [0.5, 0.25, 0.1]
        scan = besov_functional(g, u, sigma=0.0, r_grid=radii)
        for row, r in zip(scan.rows, radii):
            assert row.raw == pytest.approx(
                besov_raw_brute(pts, w, vals, r), rel=1e-10
            )

    def test_matches_brute_oracle_on_sample(self, sg):
        s = sample_measure(sg, 8, 200, seed=7)
        pts = s.float_points()
        w = np.full(len(s.points), 1.0 / len(s.points))
        vals = pts[:, 0]
        radii = [0.4, 0.15]
        scan = besov_functional(s, vals, sigma=0.0, r_grid=radii)
        for row, r in zip(scan.rows, radii):
            assert row.raw == pytest.approx(
                besov_raw_brute(pts, w, vals, r), rel=1e-10
            )

    def test_value_count_checked(self, sg):
        g = build_level_graph(sg, 2)
        with pytest.raises(ValueError):
            besov_functional(g, [1.0, 2.0], sigma=1.0)

    def test_foreign_graph_function_rejected(self, sg):
        g2 = build_level_graph(sg, 2)
        u3 = harmonic_on(sg, 3)
        with pytest.raises(ValueError):
            besov_functional(g2, u3, sigma=1.0)

    def test_source_type_checked(self):
        with pytest.raises(TypeError):
            besov_functional([(0, 0), (1, 1)], [0.0, 1.0], sigma=1.0)

    def test_radius_domain_checked(self, sg):
        g = build_level_graph(sg, 1)
        u = GraphFunction(g, tuple(F(0) for _ in range(g.vertex_count)))
        with pytest.raises(ValueError):
            besov_functional(g, u, sigma=1.0, r_grid=[])
        with pytest.raises(ValueError):
            besov_functional(g, u, sigma=1.0, r_grid=[1.5])

    def test_pair_budget_enforced(self, sg):
        s = sample_measure(sg, 4, 20001, seed=1)
        with pytest.raises(BudgetExceeded):
            besov_functional(s, np.zeros(20001), sigma=1.0)

    def test_json_shape(self, sg):
        u = harmonic_on(sg, 2)
        payload = besov_functional(u.graph, u, sigma=1.0).to_json()
        assert payload["sigma"] == 1.0
        assert len(payload["rows"]) == 5
        assert set(payload["rows"][0]) == {
            "r", "raw", "scaled", "volume_min", "volume_max", "pair_count",
        }


class TestCriticalExponentFit:
    def test_harmonic_slope_near_walk_dimension(self, sg):
        u = harmonic_on(sg, 6)
        fit = critical_exponent_fit(u.graph, u)
        assert fit.beta_star == fit.slope
        assert fit.slope == pytest.approx(math.log(5) / math.log(2), rel=0.04)

    def test_segment_slope_near_two(self, segment):
        u = harmonic_on(segment, 8)
        fit = critical_exponent_fit(u.graph, u)
        assert fit.slope == pytest.approx(2.0, rel=0.02)

    def test_window_validation(self, sg):
        u = harmonic_on(sg, 3)
        with pytest.raises(ValueError):
            critical_exponent_fit(u.graph, u, r_window=(0.5, 0.25))

    def test_too_few_radii(self, sg):
        u = harmonic_on(sg, 5)
        with pytest.raises(FitError):
            critical_exponent_fit(u.graph, u, r_grid=[0.5, 0.25, 0.125])

    def test_coarse_level_unusable_radii_rejected(self, sg):
        # level 2 leaves at most 2 radii with pairs inside the default
        # window
        u = harmonic_on(sg, 2)
        with pytest.raises(FitError):
            critical_exponent_fit(u.graph, u)


class TestAlfors:
    def test_graph_measure_regular(self, sg):
        g = build_level_graph(sg, 6)
        rep = alfors_check(g, ALPHA)
        assert rep.constant < 8.0
        assert not rep.flagged
        assert rep.drift < DRIFT_THRESHOLD

    def test_graph_wrong_alpha_flagged(self, sg):
        g = build_level_graph(sg, 6)
        rep = alfors_check(g, 1.0)
        assert rep.flagged
        assert rep.drift > DRIFT_THRESHOLD

    def test_sample_measure_regular(self, sg):
        s = sample_measure(sg, 12, 3000)
        rep = alfors_check(s, ALPHA)
        assert rep.constant < 8.0
        assert not rep.flagged

    def test_sample_wrong_alpha_flagged(self, sg):
        s = sample_measure(sg, 12, 3000)
        rep = alfors_check(s, 1.0)
        assert rep.flagged

    def test_row_ordering(self, sg):
        s = sample_measure(sg, 10, 1000)
        rep = alfors_check(s, ALPHA)
        for row in rep.rows:
            assert row.ratio_min <= row.ratio_mean <= row.ratio_max

    def test_determinism(self, sg):
        s = sample_measure(sg, 10, 2000)
        a = alfors_check(s, ALPHA)
        b = alfors_check(s, ALPHA)
        assert a == b

    def test_radius_validation(self, sg):
        g = build_level_graph(sg, 2)
        with pytest.raises(ValueError):
            alfors_check(g, ALPHA, r_grid=[])
        with pytest.raises(ValueError):
            alfors_check(g, ALPHA, r_grid=[-0.5])

    def test_volumes_match_brute_oracle(self, sg):
        g = build_level_graph(sg, 3)
        pts = np.array([[float(x), float(y)] for x, y in g.vertices])
        w = np.array([float(v) for v in vertex_measure_weights(g)])
        r = 0.3
        rep = alfors_check(g, ALPHA, r_grid=[r])
        vols = ball_volumes_brute(pts, w, r)
        ratios = vols / r ** ALPHA
        assert rep.rows[0].ratio_min == pytest.approx(ratios.min(), rel=1e-12)
        assert rep.rows[0].ratio_max == pytest.approx(ratios.max(), rel=1e-12)
        assert rep.rows[0].ratio_mean == pytest.approx(
            float(np.sum(w * ratios)), rel=1e-12
        )


class TestLipschitzMap:
    def test_apply_exact(self):
        t = LipschitzMap(F(1, 2), (F(3, 7), F(-2, 5)))
        assert t.apply((F(2), F(10))) == (F(1) + F(3, 7), F(5) - F(2, 5))

    def test_inverse_roundtrip(self):
        t = LipschitzMap(F(3, 4), (F(1, 3), F(-5, 2)))
        p = (F(7, 11), F(-2, 9))
        assert t.inverse().apply(t.apply(p)) == p

    def test_bilipschitz_constant(self):
        assert LipschitzMap(F(1, 2), (F(0), F(0))).bilipschitz_constant == 2
        assert LipschitzMap(F(3), (F(0), F(0))).bilipschitz_constant == 3
        assert LipschitzMap(F(1), (F(1), F(1))).bilipschitz_constant == 1

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            LipschitzMap(F(0), (F(0), F(0)))
        with pytest.raises(ValueError):
            LipschitzMap(F(-1), (F(0), F(0)))


class TestPushforward:
    def test_identity_exact(self, sg):
        u = harmonic_on(sg, 5)
        rep = pushforward_check(LipschitzMap(F(1), (F(0), F(0))), sg, u)
        assert rep.exact_invariance
        assert rep.source_fit.slope == rep.image_fit.slope
        assert rep.source_fit.values == rep.image_fit.values
        assert all(row.ok for row in rep.rows)
        assert rep.fits_agree

    def test_dyadic_translation_exact(self, sg):
        # dyadic shifts keep every coordinate exactly representable, so
        # the image cloud reproduces the source pair set bit for bit
        u = harmonic_on(sg, 5)
        rep = pushforward_check(LipschitzMap(F(1), (F(1, 4), F(-3, 8))), sg, u)
        assert rep.exact_invariance
        assert rep.source_fit.slope == rep.image_fit.slope
        assert all(row.ok for row in rep.rows)
        assert rep.fits_agree

    def test_contraction_by_half(self, sg):
        u = harmonic_on(sg, 5)
        rep = pushforward_check(LipschitzMap(F(1, 2), (F(0), F(0))), sg, u)
        assert not rep.exact_invariance
        assert rep.inflation == 2
        assert all(row.ok for row in rep.rows)
        assert rep.fits_agree
        assert rep.cprime_observed <= rep.cprime_bound
        s = 0.5
        for p, d in rep.lp_ratios.items():
            assert d["observed"] == pytest.approx(s ** (ALPHA / p), rel=1e-12)
            assert d["ok"]

    def test_expansion_by_two(self, sg):
        u = harmonic_on(sg, 5)
        rep = pushforward_check(LipschitzMap(F(2), (F(0), F(0))), sg, u)
        assert rep.inflation == 2
        assert all(row.ok for row in rep.rows)

    def test_json_shape(self, sg):
        u = harmonic_on(sg, 5)
        rep = pushforward_check(LipschitzMap(F(1, 2), (F(0), F(0))), sg, u)
        payload = rep.to_json()
        assert payload["scale"] == "1/2"
        assert payload["inflation"] == "2"
        assert payload["fits_agree"] is True
        assert len(payload["rows"]) == 5
