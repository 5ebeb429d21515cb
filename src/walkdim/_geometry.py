"""Exact 2D computational geometry over rational coordinates.

Supports the structural validation of gasket systems: convex hulls of
cell vertex sets and classification of pairwise cell intersections as
empty / single point / segment / two-dimensional region.  Every hull,
whatever its shape, is a list of closed half-planes, so one half-plane
clipper serves every intersection.
Coordinates may be ints or Fractions: on int inputs every orientation
test stays in integers, and only a clipped edge's crossing point is
built as a Fraction.  There are no tolerances anywhere in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Point = tuple[Fraction, Fraction]


def cross(o: Point, a: Point, b: Point) -> Fraction:
    """Signed area of the parallelogram (a-o, b-o); >0 means left turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points: list[Point]) -> list[Point]:
    """Andrew monotone chain; CCW order, collinear interior points dropped.

    Degenerate inputs collapse: all-equal -> one point, collinear -> the
    two extreme points.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        # every point was collinear; keep the extremes
        return [pts[0], pts[-1]]
    return hull


def _halfplanes(hull: list[Point]) -> list[tuple[Point, Point]]:
    """The closed half-planes {x : cross(a, b, x) >= 0} whose intersection
    is the hull: a polygon's CCW edges; for a segment or a single point,
    its line in both directions plus two end caps (a point takes
    direction (1, 0))."""
    if len(hull) >= 3:
        return list(zip(hull, hull[1:] + hull[:1]))
    a, b = hull[0], hull[-1]
    dx, dy = (b[0] - a[0], b[1] - a[1]) if a != b else (1, 0)
    e = (a[0] + dx, a[1] + dy)
    return [(a, e), (e, a), (a, (a[0] + dy, a[1] - dx)), (b, (b[0] - dy, b[1] + dx))]


def _clip_polygon_halfplane(poly: list[Point], a: Point, b: Point) -> list[Point]:
    """Keep the part of poly with cross(a, b, x) >= 0 (left of a->b)."""
    out: list[Point] = []
    n = len(poly)
    for i in range(n):
        cur, nxt = poly[i], poly[(i + 1) % n]
        c_cur, c_nxt = cross(a, b, cur), cross(a, b, nxt)
        if c_cur >= 0:
            out.append(cur)
        if (c_cur > 0 and c_nxt < 0) or (c_cur < 0 and c_nxt > 0):
            t = Fraction(c_cur) / (c_cur - c_nxt)
            out.append(
                (
                    cur[0] + t * (nxt[0] - cur[0]),
                    cur[1] + t * (nxt[1] - cur[1]),
                )
            )
    # drop consecutive duplicates introduced by on-line vertices
    dedup: list[Point] = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


@dataclass(frozen=True)
class HullIntersection:
    """Classification of the intersection of two convex hulls.

    kind is one of "empty", "point", "segment", "region"; witnesses are
    the point, the segment endpoints, or the polygon vertices.
    """

    kind: str
    witnesses: tuple[Point, ...]

    @property
    def is_finite(self) -> bool:
        return self.kind in ("empty", "point")


def hull_intersection(a: list[Point], b: list[Point]) -> HullIntersection:
    """Exact intersection classification of two convex hulls.

    Inputs are point sets; each is normalized through convex_hull (so
    ordering and orientation of the callers' lists never matter).  The
    intersection of convex sets is convex, so the answer is empty, a
    point, a segment, or a polygon with positive area: convex_hull never
    keeps three collinear points, so its length names the kind.
    """
    poly = convex_hull(a)
    for p, q in _halfplanes(convex_hull(b)):
        poly = _clip_polygon_halfplane(poly, p, q)
    hull = convex_hull(poly)
    kind = ("empty", "point", "segment", "region")[min(len(hull), 3)]
    return HullIntersection(kind, tuple(hull))
