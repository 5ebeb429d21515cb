import itertools
import json
import random
from fractions import Fraction

import pytest

import walkdim.ifs
from oracles import (
    boundary_is_word_fixed_point_unpruned,
    cell_meeting_checks_fractions,
    sample_measure_wordwise,
)
from walkdim._geometry import hull_intersection
from walkdim.errors import ValidationError
from walkdim.ifs import (
    IfsSpec,
    Similitude,
    _boundary_is_word_fixed_point,
    _lattice,
    attractor_hull,
    compose,
    ensure_valid,
    hausdorff_dim,
    load_system,
    preset,
    preset_names,
    sample_measure,
    sample_numerator_bound,
    validate,
)
from walkdim.logratio import LogRatio

F = Fraction


def pt(x, y):
    return (F(x), F(y))


def make(maps, boundary, name="test"):
    return IfsSpec(name, tuple(maps), tuple(boundary))


class TestSimilitude:
    def test_apply(self):
        s = Similitude(F(1, 2), (F(1, 2), F(0)))
        assert s.apply(pt(1, 1)) == pt(1, F(1, 2))

    def test_fixed_point(self):
        s = Similitude(F(1, 2), (F(1, 2), F(0)))
        fp = s.fixed_point()
        assert fp == pt(1, 0)
        assert s.apply(fp) == fp

    def test_after_composition(self):
        a = Similitude(F(1, 2), (F(1, 2), F(0)))
        b = Similitude(F(1, 2), (F(0), F(1, 2)))
        ab = a.after(b)
        p = pt(F(1, 3), F(2, 7))
        assert ab.apply(p) == a.apply(b.apply(p))
        assert ab.ratio == F(1, 4)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            Similitude(F(3, 2), (F(0), F(0)))


class TestPresets:
    def test_names(self):
        assert preset_names() == ("segment", "sg")

    @pytest.mark.parametrize("name", ["sg", "segment"])
    def test_validate_ok(self, name):
        report = validate(preset(name))
        assert report.ok, report.failures
        assert {c.name for c in report.checks} == {
            "map-count",
            "equal-ratio",
            "boundary-distinct",
            "boundary-fixed-point",
            "finite-ramification",
            "level1-connected",
        }

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("carpet")


class TestValidation:
    def test_single_map_fails(self):
        bad = make([Similitude(F(1, 2), (F(0), F(0)))], [pt(0, 0)])
        report = validate(bad)
        assert not report.ok
        assert "map-count" in {c.name for c in report.failures}

    def test_unequal_ratios_fail(self):
        bad = make(
            [
                Similitude(F(1, 2), (F(0), F(0))),
                Similitude(F(1, 3), (F(2, 3), F(0))),
            ],
            [pt(0, 0), pt(1, 0)],
        )
        assert "equal-ratio" in {c.name for c in validate(bad).failures}

    def test_duplicate_boundary_fails(self):
        bad = make(
            [
                Similitude(F(1, 2), (F(0), F(0))),
                Similitude(F(1, 2), (F(1, 2), F(0))),
            ],
            [pt(0, 0), pt(0, 0)],
        )
        assert "boundary-distinct" in {c.name for c in validate(bad).failures}

    def test_boundary_not_fixed_fails(self):
        bad = make(
            [
                Similitude(F(1, 2), (F(0), F(0))),
                Similitude(F(1, 2), (F(1, 2), F(0))),
            ],
            [pt(0, 0), pt(F(1, 3), F(1, 3))],
        )
        assert "boundary-fixed-point" in {c.name for c in validate(bad).failures}

    def test_unfixed_boundary_builds_only_checked_words(self, sg, monkeypatch):
        # 27 maps: words of length 2 and 3 are checked; length 4 is never
        # built, and only words whose cell box holds (1/2, 1/2) are
        # extended, far fewer than the 27^2 + 27^3 of every word
        sg3 = compose(sg, compose(sg, sg))
        bad = make(sg3.maps, [pt(0, 0), pt(1, 0), pt(F(1, 2), F(1, 2))])
        built = []
        after = Similitude.after

        def counting(self, inner):
            built.append(self.ratio * inner.ratio)
            return after(self, inner)

        monkeypatch.setattr(Similitude, "after", counting)
        report = validate(bad)
        assert "boundary-fixed-point" in {c.name for c in report.failures}
        assert set(built) == {F(1, 8) ** 2, F(1, 8) ** 3}
        assert len(built) < 27 ** 2

    def test_overlapping_cells_fail(self):
        # both maps fix overlapping squares: intersection has interior
        bad = make(
            [
                Similitude(F(2, 3), (F(0), F(0))),
                Similitude(F(2, 3), (F(1, 3), F(0))),
            ],
            [pt(0, 0), pt(1, 0)],
        )
        assert "finite-ramification" in {c.name for c in validate(bad).failures}

    def test_disconnected_fails(self):
        # ratio 1/3 with a gap between the two cells
        bad = make(
            [
                Similitude(F(1, 3), (F(0), F(0))),
                Similitude(F(1, 3), (F(2, 3), F(0))),
            ],
            [pt(0, 0), pt(1, 0)],
        )
        report = validate(bad)
        assert "level1-connected" in {c.name for c in report.failures}

    def test_ensure_valid_raises(self):
        bad = make([Similitude(F(1, 2), (F(0), F(0)))], [pt(0, 0)])
        with pytest.raises(ValidationError):
            ensure_valid(bad)

    def test_report_json(self):
        j = validate(preset("sg")).to_json()
        assert j["ok"] is True
        assert all(c["passed"] for c in j["checks"])


def corner_keeping_grids(cells, corners, ratio, boundary):
    """Every system on a cell grid that keeps the corner cells: one per
    subset of the other cells, cells in grid order."""
    rest = [c for c in cells if c not in corners]
    for r in range(len(rest) + 1):
        for extra in itertools.combinations(rest, r):
            kept = [c for c in cells if c in corners or c in extra]
            maps = [Similitude(ratio, (ratio * x, ratio * y)) for x, y in kept]
            yield make(maps, boundary, name=f"grid{kept}")


SQUARE_GRIDS = list(
    corner_keeping_grids(
        [(x, y) for x in range(3) for y in range(3)],
        {(0, 0), (2, 0), (0, 2), (2, 2)},
        F(1, 3),
        [pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)],
    )
)
TRIANGLE_GRIDS = list(
    corner_keeping_grids(
        [(x, y) for x in range(4) for y in range(4 - x)],
        {(0, 0), (3, 0), (0, 3)},
        F(1, 4),
        [pt(0, 0), pt(1, 0), pt(0, 1)],
    )
)


class TestValidateAgainstFractionClips:
    """validate's integer clips with the bounding-box reject give the
    same cell-meeting checks as clipping every pair in Fractions."""

    @staticmethod
    def cell_checks(ifs):
        return tuple(
            (c.name, c.passed, c.detail)
            for c in validate(ifs).checks
            if c.name in ("finite-ramification", "level1-connected")
        )

    def test_grid_counts(self):
        assert (len(SQUARE_GRIDS), len(TRIANGLE_GRIDS)) == (32, 128)

    @pytest.mark.parametrize(
        "family, verdicts",
        [
            # upward triangles never share a segment
            ("square", {(True, True), (True, False), (False, True), (False, False)}),
            ("triangle", {(True, True), (True, False)}),
        ],
        ids=["square", "triangle"],
    )
    def test_corner_keeping_grids(self, family, verdicts):
        seen = set()
        for ifs in SQUARE_GRIDS if family == "square" else TRIANGLE_GRIDS:
            want = cell_meeting_checks_fractions(ifs)
            assert self.cell_checks(ifs) == want, ifs.name
            seen.add(tuple(passed for _, passed, _ in want))
        assert seen == verdicts

    def test_vicsek_cross_and_full_grid(self):
        cross = [(F(x, 3), F(y, 3)) for x, y in [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]]
        (vicsek,) = [g for g in SQUARE_GRIDS if [m.translation for m in g.maps] == cross]
        assert validate(vicsek).ok
        assert len(SQUARE_GRIDS[-1].maps) == 9
        finite = self.cell_checks(SQUARE_GRIDS[-1])[0]
        assert finite[:2] == ("finite-ramification", False)
        assert finite[2].startswith("cells (0,1) share a segment")

    def test_sg_cubed_and_hook(self, sg, lattice_systems):
        for ifs in (compose(compose(sg, sg), sg), lattice_systems["hook"]):
            want = cell_meeting_checks_fractions(ifs)
            assert self.cell_checks(ifs) == want
            assert all(passed for _, passed, _ in want)


# The ratio-1/6 grid cells (i, j), i + j <= 6, j <= 5, without (0, 0):
# 26 maps, and no word fixes the corner (0, 0).
GRID6 = make(
    [
        Similitude(F(1, 6), (F(i, 6), F(j, 6)))
        for i in range(7)
        for j in range(6)
        if i + j <= 6 and (i, j) != (0, 0)
    ],
    [pt(0, 0), pt(1, 0), pt(0, 1)],
    name="grid6",
)


class TestBoundaryWordSearch:
    """The pruned word search gives the verdicts of composing every word."""

    @staticmethod
    def verdicts(ifs, points):
        hull = attractor_hull(ifs)
        pruned = [_boundary_is_word_fixed_point(ifs, hull, p) for p in points]
        assert pruned == [boundary_is_word_fixed_point_unpruned(ifs, p) for p in points], ifs.name
        return pruned

    def test_corner_keeping_grids(self):
        for ifs in SQUARE_GRIDS + TRIANGLE_GRIDS:
            assert self.verdicts(ifs, ifs.boundary) == [True] * len(ifs.boundary)

    def test_grid6_corner_unfixed(self):
        assert len(GRID6.maps) == 26
        assert self.verdicts(GRID6, GRID6.boundary) == [False, True, True]
        assert "boundary-fixed-point" in {c.name for c in validate(GRID6).failures}

    def test_fixed_points_of_longer_words(self, sg, lattice_systems):
        # the fixed points of words of length 2 and 3 need the search to
        # extend the right words; points fixed by no word of length <= 3
        # need it to exhaust the pruned tree
        for ifs in (sg, lattice_systems["hook"]):
            words = list(ifs.maps)
            for _ in range(2):
                words = [m.after(inner) for m in words[: 2 * len(ifs.maps)] for inner in ifs.maps]
                fixed = [m.fixed_point() for m in words[:: len(ifs.maps) + 1]]
                assert all(self.verdicts(ifs, fixed))
            unfixed = [pt(F(1, 2), F(1, 2)), pt(F(1, 5), 0), pt(F(1, 9), F(1, 9))]
            assert self.verdicts(ifs, unfixed) == [False] * 3


class TestDimensions:
    def test_sg_alpha(self, sg):
        assert hausdorff_dim(sg) == LogRatio(3, 2)

    def test_segment_alpha_is_one(self, segment):
        assert hausdorff_dim(segment).try_exact_rational() == 1


class TestHull:
    def test_sg_hull_is_corner_triangle(self, sg):
        hull = attractor_hull(sg)
        assert sorted(hull) == [pt(0, 0), pt(0, 1), pt(1, 0)]

    def test_segment_hull(self, segment):
        assert sorted(attractor_hull(segment)) == [pt(0, 0), pt(1, 0)]


class TestCompose:
    def test_sg_squared(self, sg):
        c = compose(sg, sg)
        assert len(c.maps) == 9
        assert c.ratio == F(1, 4)
        assert c.boundary == sg.boundary
        assert validate(c).ok

    def test_alpha_invariant_under_composition(self, sg):
        c = compose(sg, sg)
        assert hausdorff_dim(c) == hausdorff_dim(sg)

    def test_boundary_mismatch_rejected(self, sg, segment):
        with pytest.raises(ValidationError):
            compose(sg, segment)

    def test_name(self, sg):
        assert compose(sg, sg).name == "sg.sg"


class TestSampling:
    def test_deterministic_by_seed(self, sg):
        a = sample_measure(sg, depth=6, count=200, seed=42)
        b = sample_measure(sg, depth=6, count=200, seed=42)
        assert a.points == b.points

    def test_seed_changes_points(self, sg):
        a = sample_measure(sg, depth=6, count=200, seed=42)
        b = sample_measure(sg, depth=6, count=200, seed=43)
        assert a.points != b.points

    def test_points_inside_hull(self, sg):
        hull = attractor_hull(sg)
        s = sample_measure(sg, depth=8, count=300, seed=3)
        assert all(hull_intersection([p], hull).kind == "point" for p in s.points)

    def test_float_points_shape(self, sg):
        s = sample_measure(sg, depth=4, count=50, seed=0)
        assert s.float_points().shape == (50, 2)


class TestLatticeSampling:
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    # depth 62: sg's numerator bound 2^63 - 2 still fits int64; depth 70
    # composes every system on Python ints (dtype object)
    @pytest.mark.parametrize("depth", [1, 2, 12, 62, 70])
    @pytest.mark.parametrize("name", ["sg", "segment", "hook", "sg2", "shifted-hook"])
    def test_matches_wordwise_oracle(self, lattice_systems, name, depth, seed):
        ifs = lattice_systems[name]
        sample = sample_measure(ifs, depth=depth, count=150, seed=seed)
        want = sample_measure_wordwise(ifs, depth, 150, seed)
        assert sample.points == want
        assert all(type(c) is Fraction for p in sample.points for c in p)
        # the float points come off the integers, the same floats as float(Fraction)
        assert sample.float_points().tolist() == [[float(x), float(y)] for x, y in want]

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("power", [1, 2, 3])
    @pytest.mark.parametrize("name", ["segment", "sg"])
    def test_composed_map_counts(self, lattice_systems, name, power, seed):
        # segment: 2, 4 maps (k = 2, 3: half and a quarter of the words
        # rejected); sg: 3, 9, 27 maps
        ifs = lattice_systems[name]
        for _ in range(power - 1):
            ifs = compose(ifs, lattice_systems[name])
        got = sample_measure(ifs, depth=3, count=150, seed=seed).points
        assert got == sample_measure_wordwise(ifs, 3, 150, seed)

    def test_second_batch(self, sg, segment, monkeypatch):
        monkeypatch.setattr(walkdim.ifs, "DIGIT_BATCH", 7)
        for ifs in (sg, segment):
            got = sample_measure(ifs, depth=5, count=40, seed=3).points
            assert got == sample_measure_wordwise(ifs, 5, 40, seed=3)

    @pytest.mark.parametrize("n", [2, 3, 4, 27])
    def test_digits_across_batches_match_randrange(self, n):
        count = 3 * walkdim.ifs.DIGIT_BATCH
        rng = random.Random(11)
        want = [rng.randrange(n) for _ in range(count)]
        assert walkdim.ifs._uniform_digits(random.Random(11), n, count).tolist() == want

    @pytest.mark.parametrize("name", ["sg", "segment", "hook", "sg2", "shifted-hook"])
    def test_numerator_bound_is_the_closed_form_below_int64(self, lattice_systems, name):
        # the bound bounds the drawn numerators, equals the closed
        # triangle-inequality sum while below 2^63 and stays past 2^63
        # after, so int64 is chosen where the sum fits
        ifs = lattice_systems[name]
        p, q, _, T, B = _lattice(ifs)
        top_t = max(abs(c) for t in T for c in t)
        for depth in range(1, 90):
            closed = p ** depth * max(map(abs, B[0])) + sum(
                p ** (depth - 1 - j) * q ** (j + 1) * top_t for j in range(depth)
            )
            bound = sample_numerator_bound(ifs, depth)
            assert bound == closed if closed < 2 ** 63 else bound >= 2 ** 63
        sample = sample_measure(ifs, depth=12, count=300, seed=1)
        assert max(abs(c) for pt in sample.numerators for c in pt) <= sample_numerator_bound(ifs, 12)

    def test_boundary_denominator_enters_lattice(self, lattice_systems):
        p, q, d, T, B = _lattice(lattice_systems["shifted-hook"])
        assert (p, q, d) == (1, 3, 6)
        assert T[0] == (2, 0) and B == ((3, 0), (9, 0), (3, 6))


class TestSerialization:
    def test_roundtrip(self, sg):
        again = IfsSpec.from_json(sg.to_json())
        assert again == sg

    def test_load_system_preset(self):
        assert load_system("sg") == preset("sg")

    def test_load_system_path(self, tmp_path, sg):
        p = tmp_path / "sys.json"
        p.write_text(json.dumps(sg.to_json()))
        assert load_system(str(p)) == sg

    def test_load_system_missing(self):
        with pytest.raises(FileNotFoundError):
            load_system("/definitely/not/here.json")
