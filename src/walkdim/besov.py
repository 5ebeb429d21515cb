"""Discretized Besov-type oscillation functionals on point clouds.

The scan computes, per radius r, the weighted mean-square oscillation
over open balls B(x,r) normalized by empirical ball volumes, which is
the discrete counterpart of the sup-over-r functional whose critical
exponent recovers the walk dimension.  Point clouds, level graphs
(exact weights) or measure samples (uniform weights), are read off
their integer numerators (ifs.LatticePoints).  One kernel, _ball_sums,
computes every squared distance once, in blocks of rows, and adds each
block into per-point sums for each radius's open balls, nested from the
largest ball inward; no pair outlives its block.
The pushforward audit makes one such scan per cloud.

_ball_sums's float open-ball test d^2 < r^2 is exact when no lattice
distance lies within rounding of r: always for dyadic coordinates and
radii, and for dyadic radii on the hook's 3^-m lattice; but there a
custom radius 1/3 counts some pairs at distance exactly 1/3 as inside.
The regularity counts of alfors_check on a measure sample are decided
on the integer numerators instead, exact at any radius.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .dirichlet import GraphFunction, _loglog_fit
from .errors import BudgetExceeded, FitError
from .ifs import IfsSpec, MeasureSample, hausdorff_dim
from .levelgraph import LevelGraph, _float_measure_weights
from .rational import as_fraction, as_point, format_rational

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
        w = np.array(_float_measure_weights(source))
    elif isinstance(source, MeasureSample):
        w = np.full(len(source.numerators), 1.0 / len(source.numerators))
    else:
        raise TypeError("point source must be a LevelGraph or MeasureSample")
    return source.float_points(), w


def _check_pair_budget(n: int) -> None:
    # quadratic pair enumeration; ball *counting* paths are exempt
    if n > MAX_SCAN_POINTS:
        remedy = "use fewer points or a lower level (fixed limit besov.MAX_SCAN_POINTS)"
        raise BudgetExceeded(n, MAX_SCAN_POINTS, "pair-scan points", remedy)


def _function_values(source: PointSource, u) -> np.ndarray:
    import numpy as np

    if isinstance(u, GraphFunction):
        defined_here = isinstance(source, LevelGraph) and (
            u.graph is source
            or (u.graph.numerators, u.graph.denominator)
            == (source.numerators, source.denominator)
        )
        if not defined_here:
            raise ValueError("function is not defined on this point source")
        return u.float_values()
    arr = np.asarray([float(v) for v in u], dtype=float)
    n = len(source.numerators)
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


# Candidate pairs per block of the ball-sum scan (512 KB of float64 d^2).
PAIR_BLOCK = 2 ** 16


def _ball_sums(
    points: np.ndarray,
    w: np.ndarray,
    radii: Sequence[float],
    vals: Optional[np.ndarray] = None,
) -> list[tuple[np.ndarray, float, int, float]]:
    """Per radius, in the given order: (volumes, raw, pairs, integral)
    over the open balls B(x, r), d(x, y) < r strictly, of every point x.

    volumes are w_x plus w_y over the ball (never 0); osc_x is the ball's
    sum of w_y*(u(x)-u(y))^2; raw sums w_x*osc_x/volume_x and integral
    sums w_x*osc_x (both 0 when vals is None); pairs counts i < j in a
    ball.

    Squared distances are computed for blocks of consecutive rows i
    against every column j > i, about PAIR_BLOCK candidates a block;
    every distance is computed whatever the radii, so 20000 sample points
    at r = 1/64 take about 0.8 s, against 0.03 s for a k-d tree query
    (2-core x86-64, CPython 3.11).  Each ball, largest first, keeps the
    entries of the next larger one with d^2 < r^2, in block order, and
    np.bincount adds them to its per-point sums in both directions; no
    entry outlives its block.  A ball's sums thus come out the same
    whatever other radii the scan has and, bincount being sequential, on
    any BLAS.  The pair-scan limit is checked before the first block.
    """
    import numpy as np

    n = len(points)
    _check_pair_budget(n)
    r2 = np.square(np.asarray(radii, dtype=float))
    balls = np.unique(r2)  # the distinct r^2, increasing
    k = len(balls)
    x, y = np.ascontiguousarray(points.T)
    volume = np.zeros((k, n))
    osc = np.zeros((k, n))
    pairs = np.zeros(k, dtype=np.int64)
    start = 0
    while start < n - 1:
        cols = n - 1 - start
        rows = min(cols, max(1, PAIR_BLOCK // cols))
        # entry (a, b) is the pair (start + a, start + 1 + b), so i < j iff a <= b
        d2 = x[start : start + rows, None] - x[start + 1 :]
        d2 *= d2
        dy = y[start : start + rows, None] - y[start + 1 :]
        d2 += dy * dy
        keep = d2 < balls[-1]
        keep[:, :rows] = np.triu(keep[:, :rows])
        flat = np.flatnonzero(keep)
        d2 = d2.ravel().take(flat)
        a = flat // cols
        b = flat - a * cols
        if vals is not None:
            diff2 = vals[start : start + rows].take(a) - vals[start + 1 :].take(b)
            diff2 *= diff2
        w_a, w_b = w[start : start + rows], w[start + 1 :]
        for t in range(k - 1, -1, -1):
            if t < k - 1:
                inner = np.flatnonzero(d2 < balls[t])
                a, b, d2 = a.take(inner), b.take(inner), d2.take(inner)
                if vals is not None:
                    diff2 = diff2.take(inner)
            pairs[t] += len(a)
            wa, wb = w_a.take(a), w_b.take(b)
            volume[t, start : start + rows] += np.bincount(a, wb, rows)
            volume[t, start + 1 :] += np.bincount(b, wa, cols)
            if vals is not None:
                osc[t, start : start + rows] += np.bincount(a, wb * diff2, rows)
                osc[t, start + 1 :] += np.bincount(b, wa * diff2, cols)
        start += rows
    sums = []
    for t in np.searchsorted(balls, r2):
        ball = w + volume[t]
        w_osc = w * osc[t]
        sums.append((ball, float(np.sum(w_osc / ball)), int(pairs[t]), float(np.sum(w_osc))))
    return sums


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
    for r, (volume, raw, pairs, _) in zip(radii, _ball_sums(pts, w, radii, vals)):
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
    radii: Sequence[float], raws: Iterable[float], window: tuple[float, float], knob: str
) -> CriticalExponentEstimate:
    """Log-log slope over the radii inside the window whose raw
    oscillation is positive; with fewer than four, FitError naming `knob`."""
    r_min, r_max = window
    usable = [(r, raw) for r, raw in zip(radii, raws) if raw > 0 and r_min <= r <= r_max]
    if len(usable) < 4:
        raise FitError(
            f"{len(usable)} usable radii in window [{r_min}, {r_max}]; need >= 4; {knob}"
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
    # with fewer than four grid radii in the window, only a wider window adds radii
    in_window = sum(r_min <= r <= r_max for r in radii)
    knob = f"raise {more}" if in_window >= 4 else "lower the window's lower edge (--r-min)"
    return _fit([row.r for row in rows], [row.raw for row in rows], r_window, knob)


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
# Largest lattice denominator D of a uniform regularity count.  With
# r < 1 the squared numerator distances that decide a ball stay below
# D^2 <= 2^50, where they are exact floats and the query radius
# sqrt(L + 1/2), squared, lies within 3/8 of L + 1/2.
MAX_BALL_DENOMINATOR = 2 ** 25


def _open_ball_radius(r: float, den: int) -> float:
    """The query radius whose closed ball on integer numerators over den
    is the open ball of radius r (its exact value): sqrt(L + 1/2), with
    d^2 < r^2*den^2 iff d^2 <= L = ceil(r^2*den^2) - 1."""
    bound = Fraction(r) ** 2 * den ** 2
    return math.sqrt(-(-bound.numerator // bound.denominator) - 1 + 0.5)


def _regularity_volumes(
    source: PointSource, radii: tuple, max_centers: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(center weights, per radius the ball volumes at the centers),
    computed once per (radii, centers) and kept in source.ball_volumes.

    A measure sample counts with a k-d tree on its integer numerators at
    an evenly strided subset of at most max_centers centers, exactly at
    any radius; a level graph sums the weights of every vertex's ball
    with _ball_sums."""
    import numpy as np

    uniform = isinstance(source, MeasureSample)
    if not uniform and not isinstance(source, LevelGraph):
        raise TypeError("point source must be a LevelGraph or MeasureSample")
    n = len(source.numerators)
    centers = range(0, n, max(1, n // max_centers))[:max_centers] if uniform else range(n)
    key = (radii, centers)
    if key in source.ball_volumes:
        return source.ball_volumes[key]
    if uniform:
        from scipy.spatial import cKDTree

        den = source.denominator
        if den > MAX_BALL_DENOMINATOR:
            remedy = "lower the sampling depth (fixed limit besov.MAX_BALL_DENOMINATOR)"
            raise BudgetExceeded(den, MAX_BALL_DENOMINATOR, "lattice denominator", remedy)
        coords = np.array(source.numerators, dtype=float)
        tree = cKDTree(coords)
        volumes = tuple(
            tree.query_ball_point(coords[centers], _open_ball_radius(r, den), return_length=True)
            * (1.0 / n)
            for r in radii
        )
        center_w = np.full(len(centers), 1.0 / len(centers))
    else:
        pts, center_w = _cloud(source)
        volumes = tuple(volume for volume, _, _, _ in _ball_sums(pts, center_w, radii))
    source.ball_volumes[key] = center_w, volumes
    return center_w, volumes


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
    the ratios geometrically in r.  r_grid (default dyadic_grid(1, 6),
    radii in (0,1)): a sample's open balls are exact at any radius, with
    its lattice denominator at most MAX_BALL_DENOMINATOR (BudgetExceeded
    otherwise); a level graph's have the float limit of the module
    docstring.  The volumes do not depend on alpha and are counted once
    per (radii, centers) on each source object.
    """
    import numpy as np

    if max_centers < 1:
        raise ValueError("max_centers must be >= 1")
    radii = tuple(map(float, _radius_grid(dyadic_grid(1, 6) if r_grid is None else r_grid)))
    center_w, volumes_by_radius = _regularity_volumes(source, radii, max_centers)
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
        object.__setattr__(self, "scale", as_fraction(self.scale))
        object.__setattr__(self, "translation", as_point(self.translation))
        if self.scale <= 0:
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
    r_grid: Optional[Sequence[float]] = None,
) -> PushforwardReport:
    """Empirical invariance audit of the oscillation machinery under an
    affine bi-Lipschitz map.

    Checks, on the level graph carrying u, with alpha = hausdorff_dim(ifs):
    (i) L^p norm scaling of the transported function against the
    alpha-dimensional volume factor, (ii) the pair-oscillation
    inequality image(r) <= C' * source(C*r) with C the bi-Lipschitz
    constant and C' = C^(2 alpha), at every grid radius, and (iii)
    agreement of the critical-exponent fits computed independently on
    source and image clouds.  Each cloud is scanned once, for all of its
    radii.  u must live on a level graph of `ifs`; ValueError otherwise.
    r_grid has besov_functional's exactness limit.
    """
    import numpy as np

    graph = u.graph
    if ifs != graph.ifs:
        raise ValueError(
            f"u lives on {graph.ifs.name!r}, not on the given system {ifs.name!r}"
        )
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
    # sides, then its fit)
    inflated = tuple(r * c_float for r in float_radii)
    src_sums = _ball_sums(pts_src, w, radii + inflated, vals)
    r_min, r_max = FIT_WINDOW
    source_fit = _fit(
        float_radii, (raw for _, raw, _, _ in src_sums[:k]), FIT_WINDOW, "raise the level (-m)"
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
    pts_img = graph.float_points(transform.scale, transform.translation)
    img_radii = [r * s for r in float_radii]
    img_sums = _ball_sums(pts_img, w, tuple(float_radii + img_radii), vals)

    # (ii) each side: the double integral of (u(x)-u(y))^2 over open-ball
    # pairs, the image's under weights w_img = mass_factor * w
    lhs_sides = [mass_factor ** 2 * integral for _, _, _, integral in img_sums[:k]]
    rhs_sides = [integral for _, _, _, integral in src_sums[k:]]
    cprime_bound = c_float ** (2.0 * alpha)
    rows: list[PushforwardRow] = []
    observed_ratio = 0.0
    for r, lhs, rhs in zip(float_radii, lhs_sides, rhs_sides):
        bound = cprime_bound * rhs
        ok = lhs <= bound * (1 + 1e-12)
        if rhs > 0 and lhs > 0:
            observed_ratio = max(observed_ratio, lhs / rhs)
        rows.append(PushforwardRow(r, lhs, rhs, bound, ok))

    # (iii) the image window is the source window scaled by the map, so
    # both fits use the same grid radii on any grid
    image_fit = _fit(
        img_radii,
        (raw for _, raw, _, _ in img_sums[k:]),
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
