"""Discretized Besov-type oscillation functionals on point clouds.

The scan computes, per radius r, the weighted mean-square oscillation
over open balls B(x,r) normalized by empirical ball volumes, which is
the discrete counterpart of the sup-over-r functional whose critical
exponent recovers the walk dimension.  Point clouds come from level
graphs (exact weights) or measure samples (uniform weights).  A scan
enumerates its point pairs once, with one k-d query at its largest
radius, and keeps each radius's open-ball pairs by a mask on the squared
distances; the pushforward audit makes one such scan per cloud.

The float open-ball test d^2 < r^2 is exact when no lattice distance
lies within rounding of r: always for dyadic coordinates and radii, and
for dyadic radii on the hook's 3^-m lattice; but there a custom radius
1/3 counts some pairs at distance exactly 1/3 as inside.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

from .dirichlet import GraphFunction, _loglog_fit
from .errors import BudgetExceeded, FitError
from .ifs import IfsSpec, MeasureSample, hausdorff_dim
from .levelgraph import LevelGraph, vertex_measure_weights
from .rational import as_fraction, format_rational

if TYPE_CHECKING:
    import numpy as np

# Pair scans are quadratic in the worst case; keep clouds desk-sized.
MAX_SCAN_POINTS = 20000

# Default radius window [r_min, r_max] of the critical-exponent fits.
FIT_WINDOW = (2.0 ** -5, 2.0 ** -1)

PointSource = Union[LevelGraph, MeasureSample]


def dyadic_grid(j_min: int = 1, j_max: int = 5) -> tuple[float, ...]:
    """Radii 2^-j for j_min <= j <= j_max, decreasing."""
    if j_min < 1 or j_max < j_min:
        raise ValueError("need 1 <= j_min <= j_max")
    return tuple(2.0 ** -j for j in range(j_min, j_max + 1))


def _cloud(source: PointSource) -> tuple[np.ndarray, np.ndarray]:
    """(points, weights) as float arrays; weights sum to 1."""
    import numpy as np

    if isinstance(source, LevelGraph):
        pts = np.array([[float(x), float(y)] for x, y in source.vertices])
        w = np.array([float(v) for v in vertex_measure_weights(source)])
    elif isinstance(source, MeasureSample):
        pts = source.float_points()
        w = np.full(len(source.points), 1.0 / len(source.points))
    else:
        raise TypeError("point source must be a LevelGraph or MeasureSample")
    return pts, w


def _check_pair_budget(n: int) -> None:
    # quadratic pair enumeration; ball *counting* paths are exempt
    if n > MAX_SCAN_POINTS:
        remedy = "use fewer points or a lower level (fixed limit besov.MAX_SCAN_POINTS)"
        raise BudgetExceeded(n, MAX_SCAN_POINTS, "pair-scan points", remedy)


def _function_values(source: PointSource, u) -> np.ndarray:
    import numpy as np

    if isinstance(u, GraphFunction):
        defined_here = isinstance(source, LevelGraph) and (
            u.graph is source or u.graph.vertices == source.vertices
        )
        if not defined_here:
            raise ValueError("function is not defined on this point source")
        return u.float_values()
    arr = np.asarray([float(v) for v in u], dtype=float)
    n = len(source.vertices) if isinstance(source, LevelGraph) else len(source.points)
    if arr.shape != (n,):
        raise ValueError(f"need one value per point ({n}), got shape {arr.shape}")
    return arr


def _radius_grid(r_grid: Optional[Sequence[float]]) -> tuple:
    """The scan radii (default dyadic_grid()), each checked to lie in (0,1)."""
    radii = tuple(r_grid) if r_grid is not None else dyadic_grid()
    if not radii:
        raise ValueError("empty radius grid")
    if not all(0 < r < 1 for r in radii):
        raise ValueError("radii must lie in (0,1)")
    return radii


def _pairs_by_radius(
    points: np.ndarray, radii: Sequence[float]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per radius, in the given order: the index pairs (i, j), i < j,
    with d(x_i, x_j) < r strictly (open balls), sorted by (i, j).

    The canonical order makes accumulation independent of how the tree
    enumerates pairs; a masked subset of a sorted list stays sorted, so
    every radius sees its pairs in that order.  This is the only place
    that allocates pairs, so it checks the pair-scan limit before the
    k-d query.
    """
    import numpy as np
    from scipy.spatial import cKDTree

    n = len(points)
    _check_pair_budget(n)
    pairs = cKDTree(points).query_pairs(max(radii), output_type="ndarray")
    i, j = np.divmod(np.sort(pairs[:, 0] * n + pairs[:, 1]), n)
    del pairs  # this frame lives until the last radius is yielded
    x, y = np.ascontiguousarray(points.T)
    d2 = (x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2
    for r in radii:
        keep = d2 < r * r
        yield i[keep], j[keep]


def _ball_sums(
    w: np.ndarray,
    scan: Iterable[tuple[np.ndarray, np.ndarray]],
    vals: Optional[np.ndarray] = None,
) -> Iterator[tuple[np.ndarray, float, int]]:
    """Per radius of a _pairs_by_radius scan: sums over the open balls
    B(x, r) of every point x.

    Yields the ball volumes (w_x plus w_y over the ball: x always counts,
    so volumes never vanish), the raw oscillation (the w_x-weighted sum
    over x of the ball's w_y*(u(x)-u(y))^2 divided by its volume; 0 when
    vals is None), and the number of pairs x != y in a ball.
    """
    import numpy as np

    for i, j in scan:
        volume = w.copy()
        np.add.at(volume, i, w[j])
        np.add.at(volume, j, w[i])
        raw = 0.0
        if vals is not None:
            osc = np.zeros(len(w))
            diff2 = (vals[i] - vals[j]) ** 2
            np.add.at(osc, i, w[j] * diff2)
            np.add.at(osc, j, w[i] * diff2)
            raw = float(np.sum(w * osc / volume))
        yield volume, raw, len(i)


@dataclass(frozen=True)
class BesovRow:
    r: float
    raw: float  # ball-normalized mean-square oscillation at scale r
    scaled: float  # r^(-2 sigma) * raw
    volume_min: float
    volume_max: float
    pair_count: int

    @property
    def usable(self) -> bool:
        return self.pair_count > 0


@dataclass(frozen=True)
class BesovScan:
    sigma: float
    rows: tuple[BesovRow, ...]
    supremum: float
    l2_norm: float

    @property
    def norm_sigma2(self) -> float:
        """The scan summary norm: ||u||_2 + sup^(1/2)."""
        return self.l2_norm + math.sqrt(self.supremum)

    def to_json(self) -> dict:
        return {
            "sigma": self.sigma,
            "supremum": self.supremum,
            "l2_norm": self.l2_norm,
            "norm_sigma2": self.norm_sigma2,
            "rows": [asdict(row) for row in self.rows],
        }


def besov_functional(
    source: PointSource,
    u,
    sigma: float,
    r_grid: Optional[Sequence[float]] = None,
) -> BesovScan:
    """Per-radius values of the scaled oscillation functional.

    For each x, the inner term averages w_y-weighted (u(x)-u(y))^2 over
    the open ball of radius r and divides by the empirical ball volume
    (x itself always counts, so volumes never vanish); the outer sum is
    w_x-weighted.  Radii with no point pairs are kept but flagged via
    pair_count = 0.  r_grid (default dyadic_grid()): see the module
    docstring for when its open balls are exact.
    """
    import numpy as np

    pts, w = _cloud(source)
    vals = _function_values(source, u)
    radii = _radius_grid(r_grid)
    rows: list[BesovRow] = []
    sums = _ball_sums(w, _pairs_by_radius(pts, radii), vals)
    for r, (volume, raw, pairs) in zip(radii, sums):
        scaled = r ** (-2.0 * sigma) * raw
        rows.append(
            BesovRow(float(r), raw, scaled, float(volume.min()), float(volume.max()), pairs)
        )
    usable = [row.scaled for row in rows if row.usable]
    supremum = max(usable) if usable else 0.0
    l2 = float(np.sqrt(np.sum(w * vals ** 2)))
    return BesovScan(float(sigma), tuple(rows), supremum, l2)


@dataclass(frozen=True)
class CriticalExponentEstimate:
    slope: float
    stderr: float
    window: tuple[float, float]
    radii: tuple[float, ...]
    values: tuple[float, ...]

    @property
    def beta_star(self) -> float:
        """The critical-exponent estimate: the oscillation functional
        stays bounded under r^(-2 sigma) scaling exactly up to
        2 sigma = slope."""
        return self.slope

    def to_json(self) -> dict:
        return {
            "beta_star": self.beta_star,
            "slope": self.slope,
            "stderr": self.stderr,
            "window": list(self.window),
            "radii": list(self.radii),
            "values": list(self.values),
        }


def _fit(
    radii: Sequence[float], raws: Iterable[float], window: tuple[float, float], knobs: str
) -> CriticalExponentEstimate:
    """Log-log slope over the radii inside the window whose raw
    oscillation is positive; with fewer than four, FitError naming `knobs`."""
    r_min, r_max = window
    usable = [(r, raw) for r, raw in zip(radii, raws) if raw > 0 and r_min <= r <= r_max]
    if len(usable) < 4:
        raise FitError(
            f"{len(usable)} usable radii in window [{r_min}, {r_max}]; need >= 4; {knobs}"
        )
    used, values = zip(*usable)
    return CriticalExponentEstimate(
        *_loglog_fit(used, values), (float(r_min), float(r_max)), used, values
    )


def critical_exponent_fit(
    source: PointSource,
    u,
    r_window: tuple[float, float] = FIT_WINDOW,
    r_grid: Optional[Sequence[float]] = None,
) -> CriticalExponentEstimate:
    """Least-squares slope of log(raw oscillation) against log r.

    For a critical witness (harmonic or coordinate function) the slope
    estimates the Besov critical exponent, matching the walk dimension.
    r_grid has besov_functional's exactness limit.
    """
    r_min, r_max = r_window
    if not (0 < r_min < r_max < 1):
        raise ValueError("window must satisfy 0 < r_min < r_max < 1")
    if r_grid is None:
        j_max = int(round(-math.log2(r_min)))
        j_min = int(round(-math.log2(r_max)))
        radii = dyadic_grid(max(1, j_min), j_max)
    else:
        radii = tuple(r_grid)
    rows = besov_functional(source, u, sigma=0.0, r_grid=radii).rows
    more = "the level (-m)" if isinstance(source, LevelGraph) else "the sample count (--sample)"
    knobs = f"raise {more} or lower the window's lower edge (--r-min)"
    return _fit([row.r for row in rows], [row.raw for row in rows], r_window, knobs)


@dataclass(frozen=True)
class AlforsRow:
    r: float
    ratio_min: float
    ratio_max: float
    ratio_mean: float


@dataclass(frozen=True)
class AlforsReport:
    alpha: float
    rows: tuple[AlforsRow, ...]
    constant: float  # two-sided: max(max ratio, 1/min ratio)
    drift: float  # cross-scale factor between mean ratios
    flagged: bool  # drift beyond the misspecification threshold

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "constant": self.constant,
            "drift": self.drift,
            "flagged": self.flagged,
            "rows": [asdict(row) for row in self.rows],
        }


DRIFT_THRESHOLD = 4.0
MAX_ALFORS_CENTERS = 20000


def alfors_check(
    source: PointSource,
    alpha: float,
    r_grid: Optional[Sequence[float]] = None,
    max_centers: int = MAX_ALFORS_CENTERS,
) -> AlforsReport:
    """Empirical regularity diagnostics: V(x,r)/r^alpha across scales.

    Every point contributes to the ball volumes.  On a uniform cloud (a
    measure sample) larger than max_centers (>= 1; ValueError otherwise),
    the ratio is probed at an evenly strided deterministic subset of
    centers; a weighted cloud (a level graph) probes every vertex and is
    bounded by the pair-scan limit instead.  The two-sided constant
    bounds the ratio above and below; the drift (largest-to-smallest
    mean ratio across scales) flags a misspecified exponent, which bends
    the ratios geometrically in r.  r_grid (default 2^-j, 1 <= j <= 6):
    see the module docstring for when its open balls are exact.
    """
    import numpy as np
    from scipy.spatial import cKDTree

    if max_centers < 1:
        raise ValueError("max_centers must be >= 1")
    pts, w = _cloud(source)
    radii = tuple(r_grid) if r_grid is not None else tuple(2.0 ** -j for j in range(1, 7))
    if not radii:
        raise ValueError("empty radius grid")
    if not all(0 < r for r in radii):
        raise ValueError("radii must be positive")
    uniform = np.allclose(w, w[0])
    if uniform:
        tree = cKDTree(pts)
        stride = max(1, len(pts) // max_centers)
        centers = np.arange(0, len(pts), stride)[:max_centers]
        center_w = np.full(len(centers), 1.0 / len(centers))
        # open ball: shrink the query radius to just below r; exact
        # when no lattice distance lies within rounding of r
        volumes_by_radius = (
            tree.query_ball_point(pts[centers], np.nextafter(r, 0.0), return_length=True)
            * w[0]
            for r in radii
        )
    else:
        center_w = w
        volumes_by_radius = (
            volume for volume, _, _ in _ball_sums(w, _pairs_by_radius(pts, radii))
        )
    rows: list[AlforsRow] = []
    for r, volumes in zip(radii, volumes_by_radius):
        ratios = volumes / (r ** alpha)
        rows.append(
            AlforsRow(
                float(r),
                float(ratios.min()),
                float(ratios.max()),
                float(np.sum(center_w * ratios)),
            )
        )
    constant = max(
        max(row.ratio_max for row in rows),
        1.0 / min(row.ratio_min for row in rows),
    )
    means = [row.ratio_mean for row in rows]
    drift = max(means) / min(means)
    return AlforsReport(
        float(alpha), tuple(rows), float(constant), float(drift), drift > DRIFT_THRESHOLD
    )


@dataclass(frozen=True)
class LipschitzMap:
    """x -> scale*x + translation with rational data; distances scale by
    exactly `scale`, so the bi-Lipschitz constant is max(scale, 1/scale)."""

    scale: Fraction
    translation: tuple[Fraction, Fraction]

    def __post_init__(self):
        s = as_fraction(self.scale)
        tx, ty = self.translation
        object.__setattr__(self, "scale", s)
        object.__setattr__(self, "translation", (as_fraction(tx), as_fraction(ty)))
        if s <= 0:
            raise ValueError("scale must be positive (invertible, orientation-true)")

    @property
    def bilipschitz_constant(self) -> Fraction:
        return max(self.scale, 1 / self.scale)

    def apply(self, p: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
        return (
            self.scale * p[0] + self.translation[0],
            self.scale * p[1] + self.translation[1],
        )


@dataclass(frozen=True)
class PushforwardRow:
    r: float
    lhs: float  # image-side pair oscillation at radius r
    rhs: float  # source-side pair oscillation at inflated radius C*r
    bound: float  # C' * rhs
    ok: bool


@dataclass(frozen=True)
class PushforwardReport:
    scale: Fraction
    inflation: Fraction  # the bi-Lipschitz constant C
    cprime_bound: float  # C^(2 alpha); the constant the inequality uses
    cprime_observed: float  # max over radii of lhs/rhs
    lp_ratios: dict
    rows: tuple[PushforwardRow, ...]
    source_fit: CriticalExponentEstimate
    image_fit: CriticalExponentEstimate
    fits_agree: bool
    exact_invariance: bool  # isometry case: scans match exactly

    def to_json(self) -> dict:
        return {
            "scale": format_rational(self.scale),
            "inflation": format_rational(self.inflation),
            "cprime_bound": self.cprime_bound,
            "cprime_observed": self.cprime_observed,
            "lp_ratios": self.lp_ratios,
            "rows": [asdict(row) for row in self.rows],
            "source_beta_star": self.source_fit.to_json(),
            "image_beta_star": self.image_fit.to_json(),
            "fits_agree": self.fits_agree,
            "exact_invariance": self.exact_invariance,
        }


def pushforward_check(
    transform: LipschitzMap,
    ifs: IfsSpec,
    u: GraphFunction,
    alpha: Optional[float] = None,
    r_grid: Optional[Sequence[float]] = None,
) -> PushforwardReport:
    """Empirical invariance audit of the oscillation machinery under an
    affine bi-Lipschitz map.

    Checks, on the level graph carrying u: (i) L^p norm scaling of the
    transported function against the alpha-dimensional volume factor,
    (ii) the pair-oscillation inequality image(r) <= C' * source(C*r)
    with C the bi-Lipschitz constant and C' = C^(2 alpha), at every grid
    radius, and (iii) agreement of the critical-exponent fits computed
    independently on source and image clouds.  Each cloud's pairs are
    enumerated once, for all of its radii.  u must live on a level graph
    of `ifs`; ValueError otherwise.  r_grid has besov_functional's
    exactness limit.
    """
    import numpy as np

    graph = u.graph
    if ifs != graph.ifs:
        raise ValueError(
            f"u lives on {graph.ifs.name!r}, not on the given system {ifs.name!r}"
        )
    if alpha is None:
        alpha = hausdorff_dim(ifs).value
    radii = _radius_grid(r_grid)
    k = len(radii)
    float_radii = [float(r) for r in radii]
    s = float(transform.scale)
    c_float = float(transform.bilipschitz_constant)
    pts_src, w = _cloud(graph)
    vals = u.float_values()

    # one scan per cloud: the source over radii + C*radii (its fit, then
    # the right-hand sides), the image over radii + s*radii (the left-hand
    # sides, then its fit); the source scan ends before the image one starts
    inflated = tuple(r * c_float for r in float_radii)
    src_pairs = _pairs_by_radius(pts_src, radii + inflated)
    r_min, r_max = FIT_WINDOW
    source_fit = _fit(
        float_radii,
        (raw for _, raw, _ in _ball_sums(w, islice(src_pairs, k), vals)),
        FIT_WINDOW,
        "raise the level (-m)",
    )

    # (i) alpha-dimensional mass transport: image carries s^alpha times
    # the source mass, so L^p norms scale by s^(alpha/p)
    mass_factor = s ** alpha
    w_img = w * mass_factor
    lp: dict = {}
    for p in (1, 2):
        src_norm = float(np.sum(w * np.abs(vals) ** p) ** (1.0 / p))
        img_norm = float(np.sum(w_img * np.abs(vals) ** p) ** (1.0 / p))
        observed = img_norm / src_norm if src_norm > 0 else 1.0
        lp[p] = {
            "observed": observed,
            "predicted": mass_factor ** (1.0 / p),
            "bound": c_float ** (alpha / p),
            "ok": observed <= c_float ** (alpha / p) * (1 + 1e-12),
        }
    pts_img = np.array(
        [[float(x), float(y)] for x, y in map(transform.apply, graph.vertices)]
    )
    img_radii = [r * s for r in float_radii]
    img_pairs = _pairs_by_radius(pts_img, tuple(float_radii + img_radii))

    # (ii) each side: the double integral of (u(x)-u(y))^2 over open-ball
    # pairs, each pair counted in both orientations
    sides = [
        float(2.0 * np.sum(wt[i] * wt[j] * (vals[i] - vals[j]) ** 2))
        for wt, scan in ((w, src_pairs), (w_img, islice(img_pairs, k)))
        for i, j in scan
    ]
    cprime_bound = c_float ** (2.0 * alpha)
    rows: list[PushforwardRow] = []
    observed_ratio = 0.0
    for r, lhs, rhs in zip(float_radii, sides[k:], sides[:k]):
        bound = cprime_bound * rhs
        ok = lhs <= bound * (1 + 1e-12)
        if rhs > 0 and lhs > 0:
            observed_ratio = max(observed_ratio, lhs / rhs)
        rows.append(PushforwardRow(r, lhs, rhs, bound, ok))

    # (iii) the image window is the source window scaled by the map, so
    # both fits use the same grid radii on any grid
    image_fit = _fit(
        img_radii,
        (raw for _, raw, _ in _ball_sums(w, img_pairs, vals)),
        (r_min * s, r_max * s),
        "raise the level (-m)",
    )
    combined = 2.0 * (source_fit.stderr + image_fit.stderr)
    fits_agree = abs(source_fit.slope - image_fit.slope) <= max(combined, 1e-12)
    exact_invariance = transform.scale == 1
    return PushforwardReport(
        transform.scale,
        transform.bilipschitz_constant,
        cprime_bound,
        observed_ratio,
        lp,
        tuple(rows),
        source_fit,
        image_fit,
        fits_agree,
        exact_invariance,
    )
