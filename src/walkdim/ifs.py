"""Equal-ratio, rotation-free iterated function systems on rational points.

A gasket system is a list of similitudes x -> ratio*x + t sharing one
contraction ratio, plus a declared boundary vertex set V0.  Validation
checks the structural properties that the rest of the package relies on
(finite ramification, connectivity); dimensions come out as exact
LogRatio values.  Level graphs and measure samples share one point
format, LatticePoints: integer pairs over one denominator, that of
_lattice.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from ._geometry import Point, convex_hull, hull_intersection
from .errors import ValidationError
from .logratio import LogRatio
from .rational import as_fraction, as_point, format_rational

if TYPE_CHECKING:
    import numpy as np

# Boundary points are accepted when fixed by some composition of at most
# this many maps; covers every shipped preset at length 1.
_BOUNDARY_WORD_DEPTH = 3


@dataclass(frozen=True)
class Similitude:
    """The map x -> ratio*x + translation, with 0 < ratio < 1."""

    ratio: Fraction
    translation: Point

    def __post_init__(self):
        object.__setattr__(self, "ratio", as_fraction(self.ratio))
        object.__setattr__(self, "translation", as_point(self.translation))
        if not (0 < self.ratio < 1):
            raise ValueError("similitude ratio must lie in (0, 1)")

    def apply(self, p: Point) -> Point:
        return (
            self.ratio * p[0] + self.translation[0],
            self.ratio * p[1] + self.translation[1],
        )

    def fixed_point(self) -> Point:
        s = 1 - self.ratio
        return (self.translation[0] / s, self.translation[1] / s)

    def after(self, inner: "Similitude") -> "Similitude":
        """self o inner as a single similitude."""
        return Similitude(
            self.ratio * inner.ratio,
            (
                self.ratio * inner.translation[0] + self.translation[0],
                self.ratio * inner.translation[1] + self.translation[1],
            ),
        )

    def to_json(self) -> dict:
        return {
            "ratio": format_rational(self.ratio),
            "translate": [
                format_rational(self.translation[0]),
                format_rational(self.translation[1]),
            ],
        }


@dataclass(frozen=True)
class IfsSpec:
    name: str
    maps: tuple[Similitude, ...]
    boundary: tuple[Point, ...]

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        object.__setattr__(self, "boundary", tuple(map(as_point, self.boundary)))

    @property
    def ratio(self) -> Fraction:
        return self.maps[0].ratio

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "maps": [m.to_json() for m in self.maps],
            "boundary": [
                [format_rational(x), format_rational(y)]
                for x, y in self.boundary
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "IfsSpec":
        maps = tuple(Similitude(m["ratio"], m["translate"]) for m in data["maps"])
        return IfsSpec(str(data.get("name", "unnamed")), maps, data["boundary"])


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def attractor_hull(ifs: IfsSpec) -> list[Point]:
    """Convex hull of the attractor.

    For rotation-free equal-ratio systems the support function satisfies
    h(u) = ratio*h(u) + max_i <t_i, u>, so the hull is the convex hull of
    the maps' fixed points (boundary points are included for safety; for
    a consistent system they are attractor points anyway).
    """
    pts = [m.fixed_point() for m in ifs.maps]
    pts.extend(ifs.boundary)
    return convex_hull(pts)


def _boundary_is_word_fixed_point(ifs: IfsSpec, hull: list[Point], p: Point) -> bool:
    """Is p the fixed point of some composition of <= _BOUNDARY_WORD_DEPTH maps?

    A word's fixed point lies in its cell, inside the word's image of
    the attractor hull's bounding box, and so does the cell of every
    longer word that starts with it: only words whose box holds p are
    extended."""
    xs, ys = zip(*hull)
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)

    def holds(m: Similitude) -> bool:
        (tx, ty), s = m.translation, m.ratio
        return s * x0 + tx <= p[0] <= s * x1 + tx and s * y0 + ty <= p[1] <= s * y1 + ty

    frontier = list(ifs.maps)
    for depth in range(1, _BOUNDARY_WORD_DEPTH + 1):
        if any(m.fixed_point() == p for m in frontier):
            return True
        if depth == _BOUNDARY_WORD_DEPTH:
            break
        # extend the words whose box holds p, if their extensions fit the cap
        frontier = [m for m in frontier if holds(m)]
        if len(frontier) * len(ifs.maps) > 20000:
            break
        frontier = [m.after(inner) for m in frontier for inner in ifs.maps]
    return False


def validate(ifs: IfsSpec) -> ValidationReport:
    """Structural checks for gasket-type systems; never raises.

    Finite ramification and level-1 connectivity classify the meeting
    of every pair of cell hulls.  The hulls are scaled once to integer
    pairs over one common denominator, so the clipping runs on
    integers; a pair whose closed bounding boxes are disjoint is skipped
    unclipped, and a meeting point is scaled back to Fractions for the
    boundary-image test."""
    checks: list[Check] = []

    n = len(ifs.maps)
    checks.append(
        Check("map-count", n >= 2, "" if n >= 2 else f"need N >= 2 maps, got {n}")
    )

    ratios = {m.ratio for m in ifs.maps}
    if len(ratios) == 1:
        checks.append(Check("equal-ratio", True))
    else:
        bad = [i for i, m in enumerate(ifs.maps) if m.ratio != ifs.maps[0].ratio]
        checks.append(
            Check(
                "equal-ratio",
                False,
                f"maps {bad} differ from map 0 ratio {format_rational(ifs.maps[0].ratio)}",
            )
        )

    k = len(ifs.boundary)
    distinct = len(set(ifs.boundary)) == k
    checks.append(
        Check(
            "boundary-distinct",
            k >= 2 and distinct,
            "" if k >= 2 and distinct else f"need >= 2 distinct boundary points, got {k}",
        )
    )

    if n >= 2 and len(ratios) == 1 and k >= 2 and distinct:
        hull = attractor_hull(ifs)
        bad_pts = [
            i
            for i, p in enumerate(ifs.boundary)
            if not _boundary_is_word_fixed_point(ifs, hull, p)
        ]
        checks.append(
            Check(
                "boundary-fixed-point",
                not bad_pts,
                "" if not bad_pts else f"boundary vertices {bad_pts} fix no map word",
            )
        )

        cell_hulls = [[m.apply(p) for p in hull] for m in ifs.maps]
        den = math.lcm(*(c.denominator for cell in cell_hulls for p in cell for c in p))
        cell_hulls = [
            [tuple(c.numerator * (den // c.denominator) for c in p) for p in cell]
            for cell in cell_hulls
        ]
        boxes = [
            (min(xs), max(xs), min(ys), max(ys))
            for xs, ys in (zip(*cell) for cell in cell_hulls)
        ]
        cell_boundary = [frozenset(m.apply(p) for p in ifs.boundary) for m in ifs.maps]
        ram_bad: list[str] = []
        adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
        for i in range(n):
            x0, x1, y0, y1 = boxes[i]
            for j in range(i + 1, n):
                u0, u1, v0, v1 = boxes[j]
                if x1 < u0 or u1 < x0 or y1 < v0 or v1 < y0:
                    continue  # disjoint closed boxes: disjoint hulls
                inter = hull_intersection(cell_hulls[i], cell_hulls[j])
                if inter.kind == "empty":
                    continue
                adjacency[i].add(j)
                adjacency[j].add(i)
                if not inter.is_finite:
                    ram_bad.append(f"cells ({i},{j}) share a {inter.kind}")
                    continue
                w = tuple(Fraction(c) / den for c in inter.witnesses[0])
                if w not in cell_boundary[i] or w not in cell_boundary[j]:
                    ram_bad.append(
                        f"cells ({i},{j}) meet at a non-boundary image point"
                    )
        checks.append(
            Check("finite-ramification", not ram_bad, "; ".join(ram_bad[:8]))
        )

        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        connected = len(seen) == n
        checks.append(
            Check(
                "level1-connected",
                connected,
                "" if connected else f"cell graph splits; reached only {sorted(seen)}",
            )
        )

    return ValidationReport(tuple(checks))


@functools.lru_cache(maxsize=256)
def _validate_cached(ifs: IfsSpec) -> ValidationReport:
    return validate(ifs)


def ensure_valid(ifs: IfsSpec) -> None:
    report = _validate_cached(ifs)
    if not report.ok:
        names = ", ".join(c.name for c in report.failures)
        raise ValidationError(f"system {ifs.name!r} failed checks: {names}")


def hausdorff_dim(ifs: IfsSpec) -> LogRatio:
    """log(N)/log(1/ratio), exact."""
    ensure_valid(ifs)
    return LogRatio(Fraction(len(ifs.maps)), 1 / ifs.ratio)


def compose(outer: IfsSpec, inner: IfsSpec) -> IfsSpec:
    """The system {outer_i o inner_j}; same boundary, ratio product."""
    ensure_valid(outer)
    ensure_valid(inner)
    if outer.boundary != inner.boundary:
        raise ValidationError(
            "cannot compose systems with different boundary vertex sets"
        )
    maps = tuple(o.after(i) for o in outer.maps for i in inner.maps)
    return IfsSpec(f"{outer.name}.{inner.name}", maps, outer.boundary)


def _lattice(ifs: IfsSpec):
    """(p, q, d, T, B): ratio p/q; d = lcm of all translation and boundary
    denominators; T[i] = t_i*d; B = boundary*d.  F_w(b) with |w| = j is
    A/(q^j*d), A an integer pair; outer digit i maps A to p*A + q^(j+1)*T[i]."""
    pts = [m.translation for m in ifs.maps] + list(ifs.boundary)
    d = math.lcm(*(c.denominator for pt in pts for c in pt))
    scaled = [tuple(int(c * d) for c in pt) for pt in pts]
    n = len(ifs.maps)
    return ifs.ratio.numerator, ifs.ratio.denominator, d, scaled[:n], tuple(scaled[n:])


@dataclass(frozen=True)
class LatticePoints:
    """Point i is numerators[i] / denominator; `points`, the same points
    as Fractions, is built on first use and kept.  Equality compares the
    integers, which for one system and depth are equal exactly when the
    points are.  The ball scans of besov decide every open ball on these
    integers."""

    numerators: tuple[tuple[int, int], ...]
    denominator: int

    @functools.cached_property
    def points(self) -> tuple[Point, ...]:
        den = self.denominator
        return tuple((Fraction(ax, den), Fraction(ay, den)) for ax, ay in self.numerators)

    @functools.cached_property
    def ball_volumes(self) -> dict:
        """Regularity ball volumes, filled by besov.alfors_check and kept
        with this object alone: an equal object counts its own."""
        return {}

    def float_points(self):
        """The points as an (n, 2) float array, each coordinate one int
        true division a/D: correctly rounded, the same float as
        float(Fraction)."""
        import numpy as np

        den = self.denominator
        return np.array([(ax / den, ay / den) for ax, ay in self.numerators])


@dataclass(frozen=True)
class MeasureSample(LatticePoints):
    """Points F_w(x0) for uniform random words w of length depth, over
    the denominator q^depth*d; the empirical picture of the normalized
    self-similar (Hausdorff) measure."""

    depth: int
    seed: int


# Mersenne words drawn per getrandbits call of _uniform_digits.
DIGIT_BATCH = 2 ** 15


def _uniform_digits(rng: random.Random, n: int, count: int) -> np.ndarray:
    """The digits of count successive rng.randrange(n) calls, from
    batches of 32-bit generator words, as an array.

    randrange(n) draws getrandbits(k), k = n.bit_length(), until the
    result is below n, and getrandbits(k <= 32) is the top k bits of one
    32-bit word; getrandbits(32*K) returns K words, least significant
    first.  So keeping, in order, each word's top k bits that are below
    n gives the same digits; the unused words of the last batch only
    advance rng."""
    import numpy as np

    k = n.bit_length()
    batches, drawn = [], 0
    while drawn < count:
        # a word gives a digit with probability n/2^k
        words = min(DIGIT_BATCH, ((count - drawn) << k) // n + 1)
        raw = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        top = np.frombuffer(raw, "<u4") >> (32 - k)
        batches.append(top[top < n])
        drawn += batches[-1].size
    return np.concatenate(batches)[:count]


def sample_numerator_bound(ifs: IfsSpec, depth: int) -> int:
    """The triangle-inequality bound b_depth on every partial numerator of
    sample_measure's Horner rule, b_0 = |B|, b_(j+1) = p*b_j + q^(j+1)*|T|
    (_lattice); b_j grows with j, and the first b_j >= 2^63 stands for it."""
    p, q, _, T, B = _lattice(ifs)
    top_t = max(abs(c) for t in T for c in t)
    top = max(map(abs, B[0]))
    for j in range(depth):
        if top >= 2 ** 63:
            break
        top = p * top + q ** (j + 1) * top_t
    return top


def sample_measure(
    ifs: IfsSpec, depth: int, count: int, seed: int = 42
) -> MeasureSample:
    """count i.i.d. points F_{w1} o ... o F_{w_depth}(x0), x0 = first
    boundary vertex, digits uniform; deterministic in seed, the digits
    those of successive random.Random(seed).randrange(N) calls.

    Composed on integer numerators (_lattice) by Horner's rule, one
    numpy column of count points per digit position: int64 where
    sample_numerator_bound fits, Python ints (dtype object) otherwise."""
    import numpy as np

    ensure_valid(ifs)
    if depth < 1 or count < 1:
        raise ValueError(
            f"depth and count must be >= 1 (--depth, --sample); got depth = {depth}, "
            f"count = {count}"
        )
    digits = _uniform_digits(random.Random(seed), len(ifs.maps), count * depth)
    digits = digits.reshape(count, depth)  # row i: the digits of point i, outermost map first
    p, q, d, T, B = _lattice(ifs)
    dtype = np.int64 if sample_numerator_bound(ifs, depth) < 2 ** 63 else object
    axes = [np.full(count, c, dtype) for c in B[0]]
    for j in range(depth):
        digit = digits[:, depth - 1 - j]
        for axis, ts in enumerate(zip(*T)):
            step = np.array([q ** (j + 1) * t for t in ts], dtype)
            axes[axis] = p * axes[axis] + step[digit]
    numerators = tuple(zip(*(a.tolist() for a in axes)))
    return MeasureSample(numerators, q ** depth * d, depth, seed)


def preset(name: str) -> IfsSpec:
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(_PRESETS))}"
        ) from None
    return factory()


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def _make_sg() -> IfsSpec:
    h = Fraction(1, 2)
    return IfsSpec(
        "sg",
        (
            Similitude(h, (Fraction(0), Fraction(0))),
            Similitude(h, (h, Fraction(0))),
            Similitude(h, (Fraction(0), h)),
        ),
        ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
    )


def _make_segment() -> IfsSpec:
    h = Fraction(1, 2)
    return IfsSpec(
        "segment",
        (
            Similitude(h, (Fraction(0), Fraction(0))),
            Similitude(h, (h, Fraction(0))),
        ),
        ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),
    )


_PRESETS = {"sg": _make_sg, "segment": _make_segment}


def load_system(source: str) -> IfsSpec:
    """Resolve a preset name or a JSON config path to an IfsSpec."""
    if source in _PRESETS:
        return preset(source)
    with open(source, "r", encoding="utf-8") as fh:
        return IfsSpec.from_json(json.load(fh))
