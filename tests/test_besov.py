import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import (
    ball_sums_by_pairs,
    ball_volumes_brute,
    besov_raw_brute,
    open_ball_counts_exact,
    open_ball_pairs_brute,
    oscillation_brute,
    pairs_by_radius,
)
from walkdim import besov
from walkdim.besov import (
    DRIFT_THRESHOLD,
    AlforsRow,
    LipschitzMap,
    _ball_sums,
    _weights,
    alfors_check,
    besov_functional,
    critical_exponent_fit,
    dyadic_grid,
    pushforward_check,
)
from walkdim.dirichlet import GraphFunction, harmonic_extension
from walkdim.errors import BudgetExceeded, FitError
from walkdim.ifs import LatticePoints, hausdorff_dim, sample_measure
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
    """The pair-list scan of tests/oracles.py, the reference that
    TestBallSums holds the streaming kernel to, against pairs decided
    one by one in Fractions."""

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
        self.assert_brute(build_level_graph(request.getfixturevalue(system), level), radii)

    @staticmethod
    def assert_brute(cloud, radii):
        for r, (i, j) in zip(radii, pairs_by_radius(cloud.points, radii), strict=True):
            assert list(zip(i.tolist(), j.tolist())) == open_ball_pairs_brute(cloud.points, r)

    @pytest.mark.parametrize("block", [1, 7, 50])
    @pytest.mark.parametrize(
        "system, level, radii",
        [("sg", 3, [0.5, 0.125, 0.3]), ("hook", 2, [0.2, 1 / 9, 0.5, 0.2, 1 / 3, 0.05, 0.5])],
    )
    def test_block_boundaries(self, request, monkeypatch, system, level, radii, block):
        monkeypatch.setattr(oracles, "PAIR_BLOCK", block)
        self.assert_brute(build_level_graph(request.getfixturevalue(system), level), radii)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_clouds(self, n):
        self.assert_brute(first(TINY, n), [0.5, 0.25, 0.125])

    def test_duplicate_points(self, monkeypatch):
        monkeypatch.setattr(oracles, "PAIR_BLOCK", 5)
        self.assert_brute(DUPLICATES, [0.5, 0.125, 0.001])
        i, j = next(pairs_by_radius(DUPLICATES.points, [0.001]))
        assert list(zip(i.tolist(), j.tolist())) == [(0, 2), (0, 3), (2, 3)]

    def test_radius_above_diameter(self, sg):
        g = build_level_graph(sg, 2)
        n = g.vertex_count
        (i, _), _ = pairs_by_radius(g.points, [1.5, 0.5])  # the diameter is sqrt(2)
        assert len(i) == n * (n - 1) // 2
        self.assert_brute(g, [1.5, 0.5])


def first(cloud, n):
    return LatticePoints(cloud.numerators[:n], cloud.denominator)


TINY = LatticePoints(((0, 0), (1, 0)), 4)
DUPLICATES = LatticePoints(((2, 2), (0, 0), (2, 2), (2, 2), (1, 2)), 4)


class TestBallSums:
    """The integer kernel against open balls decided exactly: pair by
    pair in Fractions, or on the oracles' integer numerators."""

    @staticmethod
    def assert_brute(cloud, radii):
        # random weights and values, so that every sum is checked
        n = len(cloud.numerators)
        rng = np.random.default_rng(n)
        w = rng.uniform(0.5, 1.5, n)
        vals = rng.uniform(-1.0, 1.0, n)
        sums = _ball_sums(cloud, w, radii, vals)
        assert len(sums) == len(radii)
        pts = cloud.points
        for r, (volume, raw, pairs, integral) in zip(radii, sums):
            assert pairs == len(open_ball_pairs_brute(pts, r))
            np.testing.assert_allclose(volume, ball_volumes_brute(pts, w, r), rtol=1e-12)
            assert raw == pytest.approx(besov_raw_brute(pts, w, vals, r), rel=1e-12)
            assert integral == pytest.approx(oscillation_brute(pts, w, vals, r), rel=1e-12)
        for volume, raw, pairs, integral in _ball_sums(cloud, w, radii):
            assert (raw, integral) == (0.0, 0.0)

    @pytest.mark.parametrize(
        "system, level, radii",
        [
            ("sg", 3, [0.3, 0.125, 0.5, 0.3, 0.0625]),
            ("hook", 2, [1 / 3, 0.5, 1 / 9, 0.2, 1 / 3]),
            ("segment", 2, [0.5, 0.25]),
        ],
    )
    def test_matches_brute_open_balls(self, request, system, level, radii):
        self.assert_brute(build_level_graph(request.getfixturevalue(system), level), radii)

    @pytest.mark.parametrize("block", [1, 7, 50])
    @pytest.mark.parametrize(
        "system, level, radii",
        [("sg", 3, [0.5, 0.125, 0.3]), ("hook", 2, [0.2, 1 / 9, 0.5, 0.2, 1 / 3, 0.05, 0.5])],
    )
    def test_block_boundaries(self, request, monkeypatch, system, level, radii, block):
        # blocks of 1, 7 or 50 candidates hold one row while the windows
        # are wide, several rows (the triangle below the diagonal masked)
        # once they are narrow, and the last block is cut at row n - 2
        monkeypatch.setattr(besov, "PAIR_BLOCK", block)
        self.assert_brute(build_level_graph(request.getfixturevalue(system), level), radii)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_clouds(self, n):
        self.assert_brute(first(TINY, n), [0.5, 0.25, 0.125])

    def test_duplicate_points(self, monkeypatch):
        monkeypatch.setattr(besov, "PAIR_BLOCK", 5)
        self.assert_brute(DUPLICATES, [0.5, 0.125, 0.001])
        assert _ball_sums(DUPLICATES, np.ones(5), [0.001])[0][2] == 3

    def test_radius_above_diameter(self, sg):
        g = build_level_graph(sg, 2)
        n = g.vertex_count
        assert _ball_sums(g, np.ones(n), [1.5, 0.5])[0][2] == n * (n - 1) // 2
        self.assert_brute(g, [1.5, 0.5])

    @pytest.mark.parametrize("block", [14, 20, 64])
    def test_window_widens_inside_a_block(self, monkeypatch, block):
        # x numerators over 8; the largest ball, r = 1/3 (L = 7), reaches
        # 2 in x.  Row 0 meets no column and row 1 meets six, one block
        # of 2 * 7 entries, so every block of 14 or more entries starts
        # at row 0 and ends in a row whose window is wider
        cloud = LatticePoints(
            ((0, 0), (5, 1), (5, 2), (6, 0), (6, 1), (6, 3), (7, 0), (7, 2), (8, 1), (12, 0)), 8
        )
        x = [a for a, _ in cloud.numerators]
        assert [sum(i < j and b - a <= 2 for j, b in enumerate(x)) for i, a in enumerate(x[:2])] == [0, 6]
        monkeypatch.setattr(besov, "PAIR_BLOCK", block)
        self.assert_brute(cloud, [1 / 3, 0.25, 0.2, 0.125])

    def test_unsorted_sample_volumes_in_input_order(self, sg):
        s = sample_measure(sg, 6, 300, seed=5)
        order = sorted(range(300), key=lambda i: s.numerators[i])
        assert order != list(range(300))
        by_xy = LatticePoints(tuple(s.numerators[i] for i in order), s.denominator)
        rng = np.random.default_rng(0)
        w, vals = rng.uniform(0.5, 1.5, 300), rng.uniform(-1.0, 1.0, 300)
        radii = (0.5, 1 / 3, 0.1)
        sums = _ball_sums(s, w, radii, vals)
        sorted_sums = _ball_sums(by_xy, w[order], radii, vals[order])
        for (volume, raw, pairs, integral), (volume0, raw0, pairs0, integral0) in zip(
            sums, sorted_sums, strict=True
        ):
            # the kernel sorts the sample itself: the same sums, per point
            assert volume[order].tolist() == volume0.tolist()
            assert pairs == pairs0
            assert raw == pytest.approx(raw0, rel=1e-12, abs=0)
            assert integral == pytest.approx(integral0, rel=1e-12, abs=0)
        self.assert_brute(first(s, 60), radii)

    def test_translated_image_mixed_denominators(self, monkeypatch, sg, hook):
        # the translated image over the lcm of its mixed denominators sums
        # as the brute force does, and as the untranslated image that
        # pushforward_check scans
        monkeypatch.setattr(besov, "PAIR_BLOCK", 64)
        radii = [0.5, 0.2, 1 / 7, 1 / 21, 1 / 9]
        for ifs, scale in ((sg, F(1, 3)), (hook, F(5, 2))):
            g = build_level_graph(ifs, 2)
            points = tuple(map(LipschitzMap(scale, (F(2, 7), F(-5, 3))).apply, g.points))
            den = math.lcm(*(c.denominator for p in points for c in p))
            translated = LatticePoints(tuple((int(x * den), int(y * den)) for x, y in points), den)
            assert translated.points == points
            self.assert_brute(translated, radii)
            n = g.vertex_count
            w, vals = np.linspace(0.5, 1.5, n), np.linspace(-1.0, 1.0, n)
            for moved, still in zip(
                _ball_sums(translated, w, radii, vals), _ball_sums(g.image(scale), w, radii, vals), strict=True
            ):
                assert moved[0].tolist() == still[0].tolist()
                assert moved[2] == still[2]
                assert moved[1] == pytest.approx(still[1], rel=1e-12, abs=0)
                assert moved[3] == pytest.approx(still[3], rel=1e-12, abs=0)

    def test_numerator_limit_refused_before_any_block(self, sg, monkeypatch):
        s = sample_measure(sg, 30, 4, seed=2)  # D = 2^31
        assert max(max(p) for p in s.numerators) >= besov.MAX_SCAN_NUMERATOR

        def no_blocks(*args, **kwargs):
            raise AssertionError("the cloud was sorted or a block was summed before the check")

        monkeypatch.setattr(np, "lexsort", no_blocks)
        monkeypatch.setattr(np, "einsum", no_blocks)
        with pytest.raises(BudgetExceeded, match=r"lattice numerator.*--depth") as exc:
            besov_functional(s, [0.0] * 4, sigma=0.0)
        assert exc.value.budget == 2 ** 30
        monkeypatch.undo()
        # D = 2^29: numerators below the limit, spans whose squared
        # distances pass int32
        below = sample_measure(sg, 28, 40, seed=2)
        xs = [a for a, _ in below.numerators]
        assert max(xs) - min(xs) > 2 ** 16
        self.assert_brute(below, [0.5, 1 / 3, 0.1])

    @pytest.fixture(scope="class")
    def clouds(self, sg, hook):
        return {
            "sg sample": sample_measure(sg, 10, 2000, seed=3),
            "hook sample": sample_measure(hook, 8, 2000, seed=3),
            "sg m=6": harmonic_on(sg, 6),
            "sg m=7": harmonic_on(sg, 7),
            "hook m=4": harmonic_on(hook, 4),
        }

    @pytest.mark.parametrize(
        "radii",
        [
            (0.3, 0.125, 0.5, 0.3, 0.0625, 1 / 3, 1 / 9, 1.5),
            dyadic_grid() + tuple(2 * r for r in dyadic_grid()),
        ],
        ids=["mixed", "dyadic"],
    )
    @pytest.mark.parametrize("cloud", ["sg sample", "hook sample", "sg m=6", "sg m=7", "hook m=4"])
    def test_matches_pair_list_reference(self, clouds, cloud, radii):
        source = clouds[cloud]
        if isinstance(source, GraphFunction):
            source, vals = source.graph, source.float_values()
        else:
            vals = source.float_points()[:, 0].copy()
        w = _weights(source)
        new = _ball_sums(source, w, radii, vals)
        ref = ball_sums_by_pairs(source.points, w, radii, vals)
        for (volume, raw, pairs, integral), (volume0, raw0, pairs0, integral0) in zip(
            new, ref, strict=True
        ):
            assert pairs == pairs0
            np.testing.assert_allclose(volume, volume0, rtol=1e-12, atol=0)
            assert raw == pytest.approx(raw0, rel=1e-12, abs=0)
            assert integral == pytest.approx(integral0, rel=1e-12, abs=0)


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
        w = np.array([float(v) for v in vertex_measure_weights(g)])
        vals = u.float_values()
        radii = [0.5, 0.25, 0.1]
        scan = besov_functional(g, u, sigma=0.0, r_grid=radii)
        for row, r in zip(scan.rows, radii):
            assert row.raw == pytest.approx(
                besov_raw_brute(g.vertices, w, vals, r), rel=1e-10
            )

    def test_matches_brute_oracle_on_sample(self, sg):
        s = sample_measure(sg, 8, 200, seed=7)
        w = np.full(len(s.points), 1.0 / len(s.points))
        vals = s.float_points()[:, 0]
        radii = [0.4, 0.15]
        scan = besov_functional(s, vals, sigma=0.0, r_grid=radii)
        for row, r in zip(scan.rows, radii):
            assert row.raw == pytest.approx(
                besov_raw_brute(s.points, w, vals, r), rel=1e-10
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
        # two samples drawn apart, so neither call reads the other's counts
        a = alfors_check(sample_measure(sg, 10, 2000), ALPHA)
        b = alfors_check(sample_measure(sg, 10, 2000), ALPHA)
        assert a == b

    def test_radius_validation(self, sg):
        g = build_level_graph(sg, 2)
        with pytest.raises(ValueError):
            alfors_check(g, ALPHA, r_grid=[])
        with pytest.raises(ValueError):
            alfors_check(g, ALPHA, r_grid=[-0.5])
        with pytest.raises(ValueError, match=r"radii must lie in \(0,1\)"):
            alfors_check(g, ALPHA, r_grid=[1.5])
        with pytest.raises(TypeError):
            alfors_check([(0, 0), (1, 1)], ALPHA)

    @pytest.mark.parametrize("max_centers", [0, -1, -400])
    def test_max_centers_must_be_positive(self, sg, max_centers):
        s = sample_measure(sg, 10, 500)
        with pytest.raises(ValueError, match="max_centers"):
            alfors_check(s, ALPHA, max_centers=max_centers)

    def test_sg_dyadic_rows_match_float_route(self, sg):
        # dyadic radii on dyadic coordinates: the float open-ball query
        # is exact, so the integer route must agree to the last bit
        from scipy.spatial import cKDTree

        s = sample_measure(sg, 12, 6000, seed=11)
        pts = s.float_points()
        tree, n = cKDTree(pts), len(pts)
        rows = []
        for r in dyadic_grid(1, 6):
            counts = tree.query_ball_point(pts, np.nextafter(r, 0.0), return_length=True)
            ratios = counts * (1.0 / n) / r ** ALPHA
            mean = np.sum(np.full(n, 1.0 / n) * ratios)
            rows.append(AlforsRow(r, float(ratios.min()), float(ratios.max()), float(mean)))
        assert alfors_check(s, ALPHA).rows == tuple(rows)

    def test_volumes_match_brute_oracle(self, sg):
        g = build_level_graph(sg, 3)
        w = np.array([float(v) for v in vertex_measure_weights(g)])
        r = 0.3
        rep = alfors_check(g, ALPHA, r_grid=[r])
        vols = ball_volumes_brute(g.vertices, w, r)
        ratios = vols / r ** ALPHA
        assert rep.rows[0].ratio_min == pytest.approx(ratios.min(), rel=1e-12)
        assert rep.rows[0].ratio_max == pytest.approx(ratios.max(), rel=1e-12)
        assert rep.rows[0].ratio_mean == pytest.approx(
            float(np.sum(w * ratios)), rel=1e-12
        )


@pytest.fixture
def tree_log(monkeypatch):
    """("build", n) and ("query", r) for every k-d tree that alfors_check
    builds and queries, in order."""
    import scipy.spatial

    log = []

    class SpyTree(scipy.spatial.cKDTree):
        def __init__(self, data, *args, **kwargs):
            log.append(("build", len(data)))
            super().__init__(data, *args, **kwargs)

        def query_ball_point(self, x, r, *args, **kwargs):
            log.append(("query", r))
            return super().query_ball_point(x, r, *args, **kwargs)

    monkeypatch.setattr(scipy.spatial, "cKDTree", SpyTree)
    return log


@pytest.fixture
def scan_log(monkeypatch):
    """The radii of every _ball_sums scan, in order."""
    log = []
    ball_sums = besov._ball_sums

    def spy(points, w, radii, vals=None):
        log.append(tuple(radii))
        return ball_sums(points, w, radii, vals)

    monkeypatch.setattr(besov, "_ball_sums", spy)
    return log


class TestAlforsMemo:
    """Ball volumes do not depend on alpha: each source object counts
    them once per (radii, centers)."""

    def test_sample_second_alpha_queries_nothing(self, sg, tree_log):
        s = sample_measure(sg, 10, 2000, seed=7)
        alfors_check(s, ALPHA)
        assert [what for what, _ in tree_log] == ["build"] + ["query"] * 6
        again = alfors_check(s, 1.0)
        assert len(tree_log) == 7
        fresh = alfors_check(sample_measure(sg, 10, 2000, seed=7), 1.0)
        assert again == fresh

    def test_graph_second_alpha_scans_nothing(self, sg, scan_log):
        g = build_level_graph(sg, 4)
        alfors_check(g, ALPHA)
        again = alfors_check(g, 1.0)
        assert scan_log == [dyadic_grid(1, 6)]
        fresh = alfors_check(build_level_graph(sg, 4), 1.0)
        assert again == fresh

    def test_sample_new_grid_or_centers_queries_again(self, sg, tree_log):
        s = sample_measure(sg, 10, 2000, seed=7)
        for _ in range(2):
            alfors_check(s, ALPHA)
            alfors_check(s, ALPHA, r_grid=[0.5, 0.1])
            alfors_check(s, ALPHA, max_centers=100)
        queries = [r for what, r in tree_log if what == "query"]
        assert len(queries) == 6 + 2 + 6
        assert len(s.ball_volumes) == 3

    def test_graph_new_grid_scans_again(self, sg, scan_log):
        g = build_level_graph(sg, 4)
        for _ in range(2):
            alfors_check(g, ALPHA)
            alfors_check(g, ALPHA, r_grid=[0.5, 0.1])
        assert scan_log == [dyadic_grid(1, 6), (0.5, 0.1)]

    def test_equal_separate_objects_count_again(self, sg, tree_log, scan_log):
        samples = [sample_measure(sg, 10, 500, seed=3) for _ in range(2)]
        graphs = [build_level_graph(sg, 3) for _ in range(2)]
        assert samples[0] == samples[1] and samples[0] is not samples[1]
        assert graphs[0] == graphs[1] and graphs[0] is not graphs[1]
        for source in samples + graphs:
            alfors_check(source, ALPHA)
        assert [what for what, _ in tree_log].count("build") == 2
        assert len(scan_log) == 2


class TestBallDenominator:
    """A sample's exact ball counts need its lattice denominator D at
    most besov.MAX_BALL_DENOMINATOR; sg at depth k has D = 2^(k+1)."""

    def test_depth_24_runs(self, sg):
        s = sample_measure(sg, 24, 5, seed=1)
        assert s.denominator == besov.MAX_BALL_DENOMINATOR
        rep = alfors_check(s, ALPHA)
        assert [row.r for row in rep.rows] == list(dyadic_grid(1, 6))

    def test_depth_25_refused_before_any_tree(self, sg, tree_log):
        s = sample_measure(sg, 25, 5, seed=1)
        with pytest.raises(BudgetExceeded, match="sampling depth") as exc:
            alfors_check(s, ALPHA)
        assert exc.value.requested == 2 ** 26
        assert tree_log == []
        assert s.ball_volumes == {}


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

    def exact_row(self, s, r):
        """The row alfors_check makes of the exact counts at every center."""
        counts = open_ball_counts_exact(s.points, r) + 1
        n = len(counts)
        ratios = counts * (1.0 / n) / r ** self.HOOK_ALPHA
        mean = np.sum(np.full(n, 1.0 / n) * ratios)
        return AlforsRow(r, float(ratios.min()), float(ratios.max()), float(mean))

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

    # Radii at lattice distances: some pairs lie at exactly 1/3 (or
    # 1/81), which float coordinates would put inside the open ball.
    def test_lattice_radius_pair_count(self, cloud):
        s, x = cloud
        scan = besov_functional(s, x, sigma=0.0, r_grid=[1 / 3, 1 / 9, 1 / 81])
        for row in scan.rows:
            assert row.pair_count == open_ball_counts_exact(s.points, row.r).sum() // 2

    def test_lattice_radius_alfors_ratio(self, cloud):
        s, _ = cloud
        row = alfors_check(s, self.HOOK_ALPHA, r_grid=[1 / 81]).rows[0]
        assert row.ratio_mean == pytest.approx(self.exact_ratios(s, 1 / 81).mean(), rel=1e-12)

    def test_alfors_rows_equal_exact_counts(self, cloud):
        s, _ = cloud
        radii = (1 / 3, 1 / 81) + dyadic_grid(1, 6)
        rows = alfors_check(s, self.HOOK_ALPHA, r_grid=radii).rows
        assert rows == tuple(self.exact_row(s, r) for r in radii)


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
        pts = u.graph.vertices
        img = tuple(map(t.apply, pts))
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
            used = [r for r in radii if lo <= r <= hi and open_ball_counts_exact(cloud, r).any()]
            assert fit.radii == tuple(used)
            for r, value in zip(fit.radii, fit.values):
                assert value == pytest.approx(besov_raw_brute(cloud, w, vals, r), rel=1e-12)

    def test_one_pair_scan_per_cloud(self, sg, monkeypatch):
        clouds = []
        scan = besov._ball_sums

        def counting(points, *args):
            clouds.append(len(points.numerators))
            return scan(points, *args)

        monkeypatch.setattr(besov, "_ball_sums", counting)
        pushforward_check(LipschitzMap(F(1, 2), (F(0), F(0))), sg, harmonic_on(sg, 5))
        assert clouds == [366, 366]

    def test_pair_limit_refused_before_any_tree(self, sg, monkeypatch):
        g = build_level_graph(sg, 9)
        assert g.vertex_count == 29526
        u = GraphFunction(g, (F(0),) * g.vertex_count)

        def no_blocks(*args, **kwargs):
            raise AssertionError("the cloud was sorted or a block was summed before the check")

        # the kernel sorts the cloud with np.lexsort and sums each block with np.einsum
        monkeypatch.setattr(np, "lexsort", no_blocks)
        monkeypatch.setattr(np, "einsum", no_blocks)
        with pytest.raises(BudgetExceeded):
            pushforward_check(LipschitzMap(F(1, 2), (F(0), F(0))), sg, u)
        with pytest.raises(BudgetExceeded):
            alfors_check(g, ALPHA)  # level-graph weights: the weighted path


LATTICE_GRAPHS = (
    [("sg", m) for m in range(8)] + [("hook", m) for m in range(5)] + [("sg2", m) for m in range(4)]
)


class TestLatticeFloats:
    """The float points and weights are read off the integer numerators
    by int true division; they equal the float(Fraction) conversions bit
    for bit.  Images stay exact lattice points."""

    @pytest.mark.parametrize("name, m", LATTICE_GRAPHS)
    def test_cloud_equals_fraction_floats(self, lattice_systems, name, m):
        g = build_level_graph(lattice_systems[name], m)
        assert g.float_points().tolist() == [[float(x), float(y)] for x, y in g.vertices]
        assert _weights(g).tolist() == [float(v) for v in vertex_measure_weights(g)]

    @pytest.mark.parametrize("scale", [F(1, 2), F(1), F(2), F(1, 3)])
    @pytest.mark.parametrize("name, m", LATTICE_GRAPHS)
    def test_image_cloud_equals_fraction_floats(self, lattice_systems, name, m, scale):
        g = build_level_graph(lattice_systems[name], m)
        img = g.image(scale)
        assert img.points == tuple(map(LipschitzMap(scale, (F(0), F(0))).apply, g.vertices))
        assert img.float_points().tolist() == [[float(x), float(y)] for x, y in img.points]

    def test_pushforward_scans_the_fraction_image(self, sg, monkeypatch):
        clouds = []
        scan = besov._ball_sums

        def recording(points, *args):
            clouds.append(points.points)
            return scan(points, *args)

        monkeypatch.setattr(besov, "_ball_sums", recording)
        u = harmonic_on(sg, 5)
        t = LipschitzMap(F(1, 3), (F(1, 7), F(-2, 5)))
        pushforward_check(t, sg, u)
        # a translation moves no distance: the image scanned is x -> x/3's
        untranslated = LipschitzMap(t.scale, (F(0), F(0)))
        assert clouds == [u.graph.vertices, tuple(map(untranslated.apply, u.graph.vertices))]
