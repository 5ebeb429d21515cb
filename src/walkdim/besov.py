"""Discretized Besov-type oscillation functionals on point clouds.

The scan computes, per radius r, the weighted mean-square oscillation
over open balls B(x,r) normalized by empirical ball volumes, which is
the discrete counterpart of the sup-over-r functional whose critical
exponent recovers the walk dimension.  Point clouds come from level
graphs (exact weights) or measure samples (uniform weights); pair
enumeration uses a k-d tree at each scale.

Float geometry here is exact for the shipped systems: vertex and sample
coordinates are dyadic rationals, so squared distances and dyadic radii
are represented without rounding and the open-ball test d^2 < r^2 is
decided exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np
from scipy.spatial import cKDTree

from .dirichlet import GraphFunction, _loglog_fit
from .errors import BudgetExceeded, FitError
from .ifs import IfsSpec, MeasureSample
from .levelgraph import LevelGraph, vertex_measure_weights
from .rational import as_fraction

# Pair scans are quadratic in the worst case; keep clouds desk-sized.
MAX_SCAN_POINTS = 20000

PointSource = Union[LevelGraph, MeasureSample]


def dyadic_grid(j_min: int = 1, j_max: int = 5) -> tuple[float, ...]:
    """Radii 2^-j for j_min <= j <= j_max, decreasing."""
    if j_min < 1 or j_max < j_min:
        raise ValueError("need 1 <= j_min <= j_max")
    return tuple(2.0 ** -j for j in range(j_min, j_max + 1))


def _cloud(source: PointSource) -> tuple[np.ndarray, np.ndarray]:
    """(points, weights) as float arrays; weights sum to 1."""
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


def _strict_pairs(
    tree: cKDTree, points: np.ndarray, r: float
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs with d(x,y) < r strictly (open balls)."""
    pairs = tree.query_pairs(r, output_type="ndarray")
    if len(pairs) == 0:
        empty = np.zeros(0, dtype=int)
        return empty, empty
    i, j = pairs[:, 0], pairs[:, 1]
    delta = points[i] - points[j]
    d2 = (delta * delta).sum(axis=1)
    keep = d2 < r * r
    i, j = i[keep], j[keep]
    # canonical order: accumulation becomes order-independent across
    # trees that enumerate the same pair set differently
    order = np.lexsort((j, i))
    return i[order], j[order]


def _ball_sums(
    tree: cKDTree,
    pts: np.ndarray,
    w: np.ndarray,
    r: float,
    vals: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Sums over the open balls B(x, r) of every point x.

    Returns the ball volumes (w_x plus w_y over the ball: x always counts,
    so volumes never vanish), the oscillation sums of w_y*(u(x)-u(y))^2
    (zeros when vals is None), and the number of pairs x != y in a ball.
    """
    i, j = _strict_pairs(tree, pts, r)
    volume = w.copy()
    osc = np.zeros(len(pts))
    if len(i):
        np.add.at(volume, i, w[j])
        np.add.at(volume, j, w[i])
        if vals is not None:
            diff2 = (vals[i] - vals[j]) ** 2
            np.add.at(osc, i, w[j] * diff2)
            np.add.at(osc, j, w[i] * diff2)
    return volume, osc, len(i)


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
            "rows": [
                {
                    "r": row.r,
                    "raw": row.raw,
                    "scaled": row.scaled,
                    "volume_min": row.volume_min,
                    "volume_max": row.volume_max,
                    "pair_count": row.pair_count,
                }
                for row in self.rows
            ],
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
    pair_count = 0.
    """
    pts, w = _cloud(source)
    _check_pair_budget(len(pts))
    vals = _function_values(source, u)
    radii = tuple(r_grid) if r_grid is not None else dyadic_grid()
    if not radii:
        raise ValueError("empty radius grid")
    for r in radii:
        if not (0 < r < 1):
            raise ValueError("radii must lie in (0,1)")
    tree = cKDTree(pts)
    rows: list[BesovRow] = []
    for r in radii:
        volume, osc, pairs = _ball_sums(tree, pts, w, r, vals)
        raw = float(np.sum(w * osc / volume))
        scaled = r ** (-2.0 * sigma) * raw
        rows.append(
            BesovRow(
                float(r), raw, scaled, float(volume.min()), float(volume.max()), pairs
            )
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


def critical_exponent_fit(
    source: PointSource,
    u,
    r_window: tuple[float, float] = (2.0 ** -5, 2.0 ** -1),
    r_grid: Optional[Sequence[float]] = None,
) -> CriticalExponentEstimate:
    """Least-squares slope of log(raw oscillation) against log r.

    For a critical witness (harmonic or coordinate function) the slope
    estimates the Besov critical exponent, matching the walk dimension.
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
    scan = besov_functional(source, u, sigma=0.0, r_grid=radii)
    usable = [
        row
        for row in scan.rows
        if row.usable and row.raw > 0 and r_min <= row.r <= r_max
    ]
    if len(usable) < 4:
        raise FitError(
            f"{len(usable)} usable radii in window [{r_min}, {r_max}]; need >= 4"
        )
    radii = tuple(row.r for row in usable)
    values = tuple(row.raw for row in usable)
    return CriticalExponentEstimate(
        *_loglog_fit(radii, values), (float(r_min), float(r_max)), radii, values
    )


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
            "rows": [
                {
                    "r": row.r,
                    "ratio_min": row.ratio_min,
                    "ratio_max": row.ratio_max,
                    "ratio_mean": row.ratio_mean,
                }
                for row in self.rows
            ],
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

    Every point contributes to the ball volumes; when the cloud exceeds
    max_centers, the ratio is probed at an evenly strided deterministic
    subset of centers.  The two-sided constant bounds the ratio above
    and below; the drift (largest-to-smallest mean ratio across scales)
    flags a misspecified exponent, which bends the ratios geometrically
    in r.
    """
    pts, w = _cloud(source)
    radii = tuple(r_grid) if r_grid is not None else tuple(2.0 ** -j for j in range(1, 7))
    if not radii:
        raise ValueError("empty radius grid")
    tree = cKDTree(pts)
    uniform = np.allclose(w, w[0])
    if not uniform:
        _check_pair_budget(len(pts))
        centers = np.arange(len(pts))
    else:
        stride = max(1, len(pts) // max_centers)
        centers = np.arange(0, len(pts), stride)[:max_centers]
    rows: list[AlforsRow] = []
    for r in radii:
        if not (0 < r):
            raise ValueError("radii must be positive")
        if uniform:
            # open ball: shrink the query radius to just below r; exact
            # for dyadic coordinates whose distance gaps dwarf one ulp
            counts = tree.query_ball_point(
                pts[centers], np.nextafter(r, 0.0), return_length=True
            )
            volumes = counts * w[0]
            center_w = np.full(len(centers), 1.0 / len(centers))
        else:
            volumes, _, _ = _ball_sums(tree, pts, w, r)
            center_w = w
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

    def inverse(self) -> "LipschitzMap":
        inv = 1 / self.scale
        return LipschitzMap(
            inv, (-self.translation[0] * inv, -self.translation[1] * inv)
        )


def _pair_oscillation(
    pts: np.ndarray, w: np.ndarray, vals: np.ndarray, tree: cKDTree, r: float
) -> float:
    """Double integral of (u(x)-u(y))^2 over open-ball pairs (no volume
    normalization); the quantity the pushforward inequality bounds."""
    i, j = _strict_pairs(tree, pts, r)
    if len(i) == 0:
        return 0.0
    diff2 = (vals[i] - vals[j]) ** 2
    return float(2.0 * np.sum(w[i] * w[j] * diff2))  # both orientations


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
        from .rational import format_rational

        return {
            "scale": format_rational(self.scale),
            "inflation": format_rational(self.inflation),
            "cprime_bound": self.cprime_bound,
            "cprime_observed": self.cprime_observed,
            "lp_ratios": self.lp_ratios,
            "rows": [
                {
                    "r": row.r,
                    "lhs": row.lhs,
                    "rhs": row.rhs,
                    "bound": row.bound,
                    "ok": row.ok,
                }
                for row in self.rows
            ],
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
    independently on source and image clouds.
    """
    graph = u.graph
    if alpha is None:
        from .ifs import hausdorff_dim

        alpha = hausdorff_dim(graph.ifs).value
    pts_src, w = _cloud(graph)
    _check_pair_budget(len(pts_src))
    vals = u.float_values()
    s = float(transform.scale)
    image_vertices = [transform.apply(p) for p in graph.vertices]
    pts_img = np.array([[float(x), float(y)] for x, y in image_vertices])

    radii = tuple(r_grid) if r_grid is not None else dyadic_grid()
    tree_src = cKDTree(pts_src)
    tree_img = cKDTree(pts_img)

    # (i) alpha-dimensional mass transport: image carries s^alpha times
    # the source mass, so L^p norms scale by s^(alpha/p)
    mass_factor = s ** alpha
    w_img = w * mass_factor
    lp: dict = {}
    c_float = float(transform.bilipschitz_constant)
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
    cprime_bound = c_float ** (2.0 * alpha)
    rows: list[PushforwardRow] = []
    observed_ratio = 0.0
    for r in radii:
        lhs = _pair_oscillation(pts_img, w_img, vals, tree_img, float(r))
        rhs = _pair_oscillation(pts_src, w, vals, tree_src, float(r) * c_float)
        bound = cprime_bound * rhs
        ok = lhs <= bound * (1 + 1e-12)
        if rhs > 0 and lhs > 0:
            observed_ratio = max(observed_ratio, lhs / rhs)
        rows.append(PushforwardRow(float(r), lhs, rhs, bound, ok))

    # (iii) independent critical-exponent fits; the image window scales
    # with the map so both fits see the same geometric range
    source_fit = critical_exponent_fit(graph, u, r_grid=radii)
    img_radii = tuple(float(r) * s for r in radii)
    usable = []
    for r in img_radii:
        volume, osc, _ = _ball_sums(tree_img, pts_img, w, r, vals)
        raw = float(np.sum(w * osc / volume))
        if raw > 0:
            usable.append((r, raw))
    if len(usable) < 4:
        raise FitError("too few usable radii on the image side")
    img_used, img_values = zip(*usable)
    image_fit = CriticalExponentEstimate(
        *_loglog_fit(img_used, img_values),
        (min(img_radii), max(img_radii)),
        img_used,
        img_values,
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
