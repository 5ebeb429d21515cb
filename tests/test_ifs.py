import json
from fractions import Fraction

import pytest

from oracles import sample_measure_wordwise
from walkdim._geometry import hull_intersection
from walkdim.errors import ValidationError
from walkdim.ifs import (
    IfsSpec,
    Similitude,
    _lattice,
    attractor_hull,
    compose,
    ensure_valid,
    hausdorff_dim,
    load_system,
    preset,
    preset_names,
    sample_measure,
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
        # 27 maps: words of length 2 and 3 are checked; length 4 is never built
        sg3 = compose(sg, compose(sg, sg))
        bad = make(sg3.maps, [pt(0, 0), pt(1, 0), pt(F(1, 2), F(1, 2))])
        calls = []
        after = Similitude.after

        def counting(self, inner):
            calls.append(None)
            return after(self, inner)

        monkeypatch.setattr(Similitude, "after", counting)
        report = validate(bad)
        assert "boundary-fixed-point" in {c.name for c in report.failures}
        assert len(calls) == 27 ** 2 + 27 ** 3

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
    @pytest.mark.parametrize("depth", [1, 2, 12])
    @pytest.mark.parametrize("name", ["sg", "segment", "hook", "sg2", "shifted-hook"])
    def test_matches_wordwise_oracle(self, lattice_systems, name, depth, seed):
        ifs = lattice_systems[name]
        got = sample_measure(ifs, depth=depth, count=150, seed=seed).points
        assert got == sample_measure_wordwise(ifs, depth, 150, seed)
        assert all(type(c) is Fraction for p in got for c in p)

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
