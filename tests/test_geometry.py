from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from walkdim._geometry import (
    HullIntersection,
    convex_hull,
    hull_intersection,
)

F = Fraction


def pt(x, y):
    return (F(x), F(y))


SQUARE = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]

coords = st.builds(F, st.integers(min_value=-8, max_value=8), st.integers(min_value=1, max_value=4))
points = st.tuples(coords, coords)
# general sets plus the degenerate shapes: one point, points on one line
point_sets = st.one_of(
    st.lists(points, min_size=1, max_size=6),
    st.builds(lambda p: [p], points),
    st.builds(
        lambda p, d, ts: [(p[0] + t * d[0], p[1] + t * d[1]) for t in ts],
        points,
        points,
        st.lists(coords, min_size=2, max_size=4),
    ),
)


def in_hull(p, pts):
    """Membership oracle: adding p leaves the hull's vertex set unchanged."""
    return sorted(convex_hull(list(pts) + [p])) == sorted(convex_hull(list(pts)))


class TestConvexHull:
    def test_square_with_interior_point(self):
        hull = convex_hull(SQUARE + [pt(F(1, 2), F(1, 2))])
        assert sorted(hull) == sorted(SQUARE)

    def test_collinear_keeps_extremes(self):
        hull = convex_hull([pt(0, 0), pt(1, 0), pt(2, 0), pt(F(1, 2), 0)])
        assert sorted(hull) == [pt(0, 0), pt(2, 0)]

    def test_degenerate_sizes(self):
        assert convex_hull([pt(3, 4)]) == [pt(3, 4)]
        assert len(convex_hull([pt(0, 0), pt(0, 0), pt(0, 0)])) == 1

    @given(st.lists(points, min_size=1, max_size=12))
    def test_hull_contains_all_points(self, pts):
        hull = convex_hull(pts)
        assert all(hull_intersection([p], hull).kind == "point" for p in pts)

    @given(st.lists(points, min_size=3, max_size=10), st.randoms())
    def test_order_invariance(self, pts, rng):
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert sorted(convex_hull(pts)) == sorted(convex_hull(shuffled))


class TestPointInHull:
    def test_segment_hull(self):
        seg = [pt(0, 0), pt(2, 0)]
        assert hull_intersection([pt(1, 0)], seg).kind == "point"
        assert hull_intersection([pt(1, 1)], seg).kind == "empty"


class TestHullIntersection:
    def test_disjoint(self):
        a = [pt(0, 0), pt(1, 0), pt(0, 1)]
        b = [pt(3, 3), pt(4, 3), pt(3, 4)]
        res = hull_intersection(a, b)
        assert res.kind == "empty" and res.is_finite

    def test_single_touch_point(self):
        # two triangles sharing exactly one vertex-on-edge contact
        a = [pt(0, 0), pt(1, 0), pt(0, 1)]
        b = [pt(1, 0), pt(2, 0), pt(1, 1)]
        res = hull_intersection(a, b)
        assert res.kind == "point" and res.is_finite
        assert res.witnesses == (pt(1, 0),)

    def test_exact_rational_touch(self):
        a = [pt(0, 0), pt(F(1, 2), 0), pt(0, F(1, 2))]
        b = [pt(F(1, 2), 0), pt(1, 0), pt(F(1, 2), F(1, 2))]
        res = hull_intersection(a, b)
        assert res.kind == "point"
        assert res.witnesses == (pt(F(1, 2), 0),)

    def test_shared_edge_is_segment(self):
        a = [pt(0, 0), pt(2, 0), pt(1, 1)]
        b = [pt(0, 0), pt(2, 0), pt(1, -1)]
        res = hull_intersection(a, b)
        assert res.kind == "segment" and not res.is_finite

    def test_overlapping_region(self):
        a = SQUARE
        b = [pt(F(1, 2), F(1, 2)), pt(2, F(1, 2)), pt(2, 2), pt(F(1, 2), 2)]
        res = hull_intersection(a, b)
        assert res.kind == "region" and not res.is_finite

    def test_segment_crossing_polygon(self):
        seg = [pt(-1, F(1, 2)), pt(2, F(1, 2))]
        res = hull_intersection(seg, SQUARE)
        assert res.kind == "segment"

    def test_segment_touching_corner(self):
        seg = [pt(1, 1), pt(2, 2)]
        res = hull_intersection(seg, SQUARE)
        assert res.kind == "point"
        assert res.witnesses == (pt(1, 1),)

    def test_collinear_segments_overlap(self):
        a = [pt(0, 0), pt(2, 0)]
        b = [pt(1, 0), pt(3, 0)]
        res = hull_intersection(a, b)
        assert res.kind == "segment"

    def test_collinear_segments_touch(self):
        a = [pt(0, 0), pt(1, 0)]
        b = [pt(1, 0), pt(2, 0)]
        res = hull_intersection(a, b)
        assert res.kind == "point"

    def test_point_vs_polygon(self):
        res = hull_intersection([pt(F(1, 2), F(1, 2))], SQUARE)
        assert res.kind == "point"
        res = hull_intersection([pt(5, 5)], SQUARE)
        assert res.kind == "empty"

    @pytest.mark.parametrize(
        "a, b, kind, witnesses",
        [
            ([pt(1, 1)], [pt(0, 0), pt(2, 2)], "point", (pt(1, 1),)),
            ([pt(1, 0)], [pt(0, 0), pt(2, 2)], "empty", ()),
            ([pt(0, 0), pt(2, 2)], [pt(0, 2), pt(2, 0)], "point", (pt(1, 1),)),
            ([pt(0, 0), pt(2, 0)], [pt(0, 1), pt(2, 1)], "empty", ()),
            ([pt(0, F(1, 2))], SQUARE, "point", (pt(0, F(1, 2)),)),
            ([pt(1, 1)], [pt(1, 1)], "point", (pt(1, 1),)),
            ([pt(1, 2)], [pt(1, 1)], "empty", ()),
        ],
        ids=[
            "point-on-segment",
            "point-off-segment",
            "segments-cross",
            "parallel-disjoint",
            "point-on-polygon-edge",
            "point-on-point",
            "point-off-point",
        ],
    )
    def test_degenerate_pairs(self, a, b, kind, witnesses):
        for x, y in ((a, b), (b, a)):
            res = hull_intersection(x, y)
            assert (res.kind, res.witnesses) == (kind, witnesses)

    @given(point_sets, point_sets, st.lists(points, max_size=4))
    def test_witness_hull_is_the_intersection(self, a, b, extra):
        res = hull_intersection(a, b)
        probes = a + b + extra + [((p[0] + q[0]) / 2, (p[1] + q[1]) / 2) for p in a for q in b]
        for p in probes:
            assert in_hull(p, res.witnesses) == (in_hull(p, a) and in_hull(p, b))

    @given(st.lists(points, min_size=1, max_size=6), st.lists(points, min_size=1, max_size=6))
    def test_symmetry(self, pa, pb):
        a, b = convex_hull(pa), convex_hull(pb)
        assert hull_intersection(a, b).kind == hull_intersection(b, a).kind

    def test_result_type(self):
        res = hull_intersection([pt(0, 0)], [pt(0, 0)])
        assert isinstance(res, HullIntersection)
        assert res.kind == "point"
