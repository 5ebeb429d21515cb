import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.spatial

from oracles import (
    ball_volumes_brute,
    besov_raw_brute,
    open_ball_counts_exact,
    open_ball_pairs_brute,
    oscillation_brute,
)
from walkdim import besov
from walkdim.besov import (
    DRIFT_THRESHOLD,
    LipschitzMap,
    _pairs_by_radius,
    alfors_check,
    besov_functional,
    critical_exponent_fit,
    dyadic_grid,
    pushforward_check,
)
from walkdim.dirichlet import GraphFunction, harmonic_extension
from walkdim.errors import BudgetExceeded, FitError
from walkdim.ifs import hausdorff_dim, sample_measure
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


class TestPairsByRadius:
    @pytest.mark.parametrize(
        "system, level, radii",
        [
            # 1/8 is the level-3 vertex spacing; 0.3 repeats
            ("sg", 3, [0.3, 0.125, 0.5, 0.3, 0.0625]),
            # thirds are not dyadic; 1/9 is the level-2 vertex spacing
            ("hook", 2, [1 / 3, 0.5, 1 / 9, 0.2, 1 / 3]),
            # the spacing 1/4 lies inside the query at the largest radius
            ("segment", 2, [0.5, 0.25]),
        ],
    )
    def test_matches_brute_open_balls(self, request, system, level, radii):
        g = build_level_graph(request.getfixturevalue(system), level)
        pts = np.array([[float(x), float(y)] for x, y in g.vertices])
        for r, (i, j) in zip(radii, _pairs_by_radius(pts, radii), strict=True):
            assert list(zip(i.tolist(), j.tolist())) == open_ball_pairs_brute(pts, r)


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

    def test_row_independent_of_grid(self, sg):
        u = harmonic_on(sg, 4)
        grid = [0.125, 0.5, 0.3, 0.0625, 0.5, 0.25]
        full = besov_functional(u.graph, u, sigma=0.9, r_grid=grid)
        for r, row in zip(grid, full.rows):
            alone = besov_functional(u.graph, u, sigma=0.9, r_grid=[r])
            assert alone.rows == (row,)

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

    @pytest.mark.parametrize("corner", range(3))
    def test_every_corner_within_seven_percent(self, sg, corner):
        u = harmonic_extension(sg, 6, tuple(F(int(a == corner)) for a in range(3)))
        fit = critical_exponent_fit(u.graph, u)
        assert fit.slope == pytest.approx(math.log(5) / math.log(2), rel=0.07)

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

    @pytest.mark.parametrize("max_centers", [0, -1, -400])
    def test_max_centers_must_be_positive(self, sg, max_centers):
        s = sample_measure(sg, 10, 500)
        with pytest.raises(ValueError, match="max_centers"):
            alfors_check(s, ALPHA, max_centers=max_centers)

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


class TestTernaryLattice:
    """Ball counts on the hook's 3^-6 lattice, whose coordinates floats
    round, against exact integer open balls."""

    HOOK_ALPHA = math.log(5) / math.log(3)

    @pytest.fixture(scope="class")
    def cloud(self, hook):
        s = sample_measure(hook, depth=6, count=1500, seed=42)
        return s, [p[0] for p in s.points]

    def exact_ratios(self, s, r):
        counts = open_ball_counts_exact(s.points, r) + 1  # the center counts
        return counts / len(counts) / r ** self.HOOK_ALPHA

    def test_dyadic_pair_counts_exact(self, cloud):
        s, x = cloud
        scan = besov_functional(s, x, sigma=0.0)
        for row in scan.rows:
            assert row.pair_count == open_ball_counts_exact(s.points, row.r).sum() // 2

    def test_dyadic_alfors_ratios_exact(self, cloud):
        s, _ = cloud
        for row in alfors_check(s, self.HOOK_ALPHA).rows:
            ratios = self.exact_ratios(s, row.r)
            assert row.ratio_min == pytest.approx(ratios.min(), rel=1e-12)
            assert row.ratio_max == pytest.approx(ratios.max(), rel=1e-12)
            assert row.ratio_mean == pytest.approx(ratios.mean(), rel=1e-12)

    # A radius at a lattice distance: float coordinates put some pairs at
    # exact distance 1/3 (or 1/81) inside the open ball.
    @pytest.mark.xfail(strict=True, reason="float open-ball test miscounts at lattice distances")
    def test_lattice_radius_pair_count(self, cloud):
        s, x = cloud
        scan = besov_functional(s, x, sigma=0.0, r_grid=[1 / 3])
        assert scan.rows[0].pair_count == open_ball_counts_exact(s.points, 1 / 3).sum() // 2

    @pytest.mark.xfail(strict=True, reason="float open-ball test miscounts at lattice distances")
    def test_lattice_radius_alfors_ratio(self, cloud):
        s, _ = cloud
        row = alfors_check(s, self.HOOK_ALPHA, r_grid=[1 / 81]).rows[0]
        assert row.ratio_mean == pytest.approx(self.exact_ratios(s, 1 / 81).mean(), rel=1e-12)


class TestLipschitzMap:
    def test_apply_exact(self):
        t = LipschitzMap(F(1, 2), (F(3, 7), F(-2, 5)))
        assert t.apply((F(2), F(10))) == (F(1) + F(3, 7), F(5) - F(2, 5))

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

    def test_identity_fits_one_window_on_custom_grid(self, sg):
        # the grid reaches past the default fit window [1/32, 1/2]
        grid = (0.9, 0.7, 0.5, 0.25, 0.125, 0.0625, 0.03125)
        u = harmonic_on(sg, 6)
        rep = pushforward_check(LipschitzMap(F(1), (F(0), F(0))), sg, u, r_grid=grid)
        assert rep.image_fit == rep.source_fit
        assert rep.source_fit.radii == grid[2:]

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

    def test_mismatched_system_rejected(self, sg, segment):
        u = harmonic_on(sg, 3)
        with pytest.raises(ValueError, match="segment"):
            pushforward_check(LipschitzMap(F(1, 2), (F(0), F(0))), segment, u)

    def test_json_shape(self, sg):
        u = harmonic_on(sg, 5)
        rep = pushforward_check(LipschitzMap(F(1, 2), (F(0), F(0))), sg, u)
        payload = rep.to_json()
        assert payload["scale"] == "1/2"
        assert payload["inflation"] == "2"
        assert payload["fits_agree"] is True
        assert len(payload["rows"]) == 5

    @pytest.mark.parametrize(
        "system, level, scale",
        [("sg", 4, F(1, 2)), ("sg", 4, F(2)), ("hook", 3, F(1, 2))],
    )
    def test_sides_and_fits_match_brute(self, request, system, level, scale):
        # level 4 has no sg pairs below 1/16, so the grid stays above it
        grid = (0.5, 0.4, 0.3, 0.2, 0.125, 0.1)
        ifs = request.getfixturevalue(system)
        u = harmonic_on(ifs, level)
        t = LipschitzMap(scale, (F(0), F(0)))
        rep = pushforward_check(t, ifs, u, r_grid=grid)
        pts = np.array([[float(x), float(y)] for x, y in u.graph.vertices])
        img = np.array([[float(x), float(y)] for x, y in map(t.apply, u.graph.vertices)])
        w = np.array([float(v) for v in vertex_measure_weights(u.graph)])
        w_img = w * float(scale) ** hausdorff_dim(ifs).value
        vals = u.float_values()
        c = float(t.bilipschitz_constant)
        for row in rep.rows:
            assert row.lhs == pytest.approx(oscillation_brute(img, w_img, vals, row.r), rel=1e-12)
            assert row.rhs == pytest.approx(oscillation_brute(pts, w, vals, c * row.r), rel=1e-12)
        for fit, cloud, s in ((rep.source_fit, pts, 1.0), (rep.image_fit, img, float(scale))):
            lo, hi = fit.window
            radii = [r * s for r in grid]
            used = [r for r in radii if lo <= r <= hi and open_ball_pairs_brute(cloud, r)]
            assert fit.radii == tuple(used)
            for r, value in zip(fit.radii, fit.values):
                assert value == pytest.approx(besov_raw_brute(cloud, w, vals, r), rel=1e-12)

    def test_one_pair_scan_per_cloud(self, sg, monkeypatch):
        clouds = []
        scan = besov._pairs_by_radius

        def counting(points, radii):
            clouds.append(len(points))
            return scan(points, radii)

        monkeypatch.setattr(besov, "_pairs_by_radius", counting)
        pushforward_check(LipschitzMap(F(1, 2), (F(0), F(0))), sg, harmonic_on(sg, 5))
        assert clouds == [366, 366]

    def test_pair_limit_refused_before_any_tree(self, sg, monkeypatch):
        g = build_level_graph(sg, 9)
        assert g.vertex_count == 29526
        u = GraphFunction(g, (F(0),) * g.vertex_count)
        trees = []
        # besov imports cKDTree inside each scan, so patch it at its source
        monkeypatch.setattr(scipy.spatial, "cKDTree", lambda *args, **kwargs: trees.append(args))
        with pytest.raises(BudgetExceeded):
            pushforward_check(LipschitzMap(F(1, 2), (F(0), F(0))), sg, u)
        with pytest.raises(BudgetExceeded):
            alfors_check(g, ALPHA)  # level-graph weights: the weighted path
        assert trees == []
