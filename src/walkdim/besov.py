"""Discretized Besov-type oscillation functionals on point clouds.

The scan computes, per radius r, the weighted mean-square oscillation
over open balls B(x,r) normalized by empirical ball volumes, which is
the discrete counterpart of the sup-over-r functional whose critical
exponent recovers the walk dimension.  Point clouds, level graphs
(exact weights) or measure samples (uniform weights), are their integer
numerators over one denominator (ifs.LatticePoints), and every open
ball is decided on those integers, exactly at any radius: d(x, y) < r
iff the squared numerator distance is at most ceil(r^2*D^2) - 1.

One kernel, _ball_sums, serves every Besov and pushforward scan and
the regularity volumes of a level graph: it sorts the cloud by (x, y),
computes the squared distances of each block of rows against the
x-window of its largest ball, and adds each ball's masked row and
column sums into per-point sums; no pair outlives its block.  The
pushforward audit makes one such scan per cloud, the image an exact
lattice cloud too.  The regularity counts of alfors_check on a measure
sample use a k-d tree on the same integers.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .dirichlet import GraphFunction, _loglog_fit
from .errors import BudgetExceeded, FitError
from .ifs import IfsSpec, LatticePoints, MeasureSample, hausdorff_dim
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


def _weights(source: PointSource) -> np.ndarray:
    """The float point weights of a point source; they sum to 1."""
    import numpy as np

    if isinstance(source, LevelGraph):
        return np.array(_float_measure_weights(source))
    if isinstance(source, MeasureSample):
        return np.full(len(source.numerators), 1.0 / len(source.numerators))
    raise TypeError("point source must be a LevelGraph or MeasureSample")


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


# Candidate entries per block of the ball-sum scan (128 KB of int32 d^2).
PAIR_BLOCK = 2 ** 15
# Numerators of a pair scan stay below this, so that squared numerator
# distances, below 2 * (2^31)^2 = 2^63, are exact int64.
MAX_SCAN_NUMERATOR = 2 ** 30


def _open_ball_bound(r: float, den: int) -> int:
    """L = ceil(r^2*den^2) - 1 for the exact value of r: points a/den and
    b/den lie at distance < r iff the integer |a - b|^2 is at most L."""
    bound = Fraction(r) ** 2 * den ** 2
    return -(-bound.numerator // bound.denominator) - 1


_NUMERATOR_KNOBS = {
    MeasureSample: "lower the sampling depth (--depth)",
    LevelGraph: "lower the level (-m)",
    LatticePoints: "lower the level (-m) or the numerator of the map's --scale",
}


def _check_numerators(points: LatticePoints) -> None:
    """Refuse numerators past MAX_SCAN_NUMERATOR, naming the cloud's knob."""
    top = max(map(abs, chain.from_iterable(points.numerators)), default=0)
    if top >= MAX_SCAN_NUMERATOR:
        knob = _NUMERATOR_KNOBS.get(type(points), _NUMERATOR_KNOBS[LatticePoints])
        remedy = f"{knob} (fixed limit besov.MAX_SCAN_NUMERATOR)"
        raise BudgetExceeded(top, MAX_SCAN_NUMERATOR, "lattice numerator", remedy)


def _ball_sums(
    points: LatticePoints,
    w: np.ndarray,
    radii: Sequence[float],
    vals: Optional[np.ndarray] = None,
) -> list[tuple[np.ndarray, float, int, float]]:
    """Per radius, in the given order: (volumes, raw, pairs, integral)
    over the open balls B(x, r), d(x, y) < r strictly, of every point x.

    volumes are w_x plus w_y over the ball (never 0); osc_x is the ball's
    sum of w_y*(u(x)-u(y))^2; raw sums w_x*osc_x/volume_x and integral
    sums w_x*osc_x (both 0 when vals is None); pairs counts i < j in a
    ball.  Arrays are in the input order of the points.

    A ball is decided on the integer numerators over the one
    denominator D: d(x, y) < r iff the squared numerator distance is at
    most L = ceil(r^2*D^2) - 1 (_open_ball_bound), exact at any radius.
    The cloud is sorted by (x, y).  Each block of consecutive rows i
    meets the columns j > i with x_j <= x_last + isqrt(L) of its largest
    ball, found by np.searchsorted, and holds as many rows as keep it
    within PAIR_BLOCK entries (one row may exceed it).  The block
    computes its squared distances and (u(x)-u(y))^2 once; each ball
    masks its own x-window of them and adds the masked row and column
    sums of w and of w*(u(x)-u(y))^2 with np.einsum, which sums in one
    order on any BLAS and thread count.  So the sums are deterministic,
    and depend on the other radii only through the blocks.  20000 sg
    sample points at r = 1/64 take about 0.05 s (2-core x86-64,
    CPython 3.11, numpy 2.4).  The pair-scan and numerator limits are
    checked before the cloud is sorted.
    """
    import numpy as np

    n = len(points.numerators)
    _check_pair_budget(n)
    _check_numerators(points)
    xy = np.array(points.numerators, dtype=np.int64).reshape(n, 2)
    order = np.lexsort((xy[:, 1], xy[:, 0]))
    xy = xy[order]
    if n:
        xy -= xy.min(axis=0)  # distances are translation-invariant
    # the distinct bounds L, increasing, none above the largest d^2
    top = sum(side * side for side in (xy.max(axis=0).tolist() if n else ()))
    bound = [min(_open_ball_bound(r, points.denominator), top) for r in radii]
    balls = sorted(set(bound))
    k = len(balls)
    # int32 squared distances where they fit, with the sentinel top + 1
    dtype = np.int32 if top < 2 ** 31 - 1 else np.int64
    x, y = np.ascontiguousarray(xy.T, dtype=dtype)
    ends = [np.searchsorted(x, x + math.isqrt(b), "right") for b in balls]
    reach = ends[-1].tolist()
    w_s = w[order]
    u = None if vals is None else vals[order]
    size = max(PAIR_BLOCK, n)  # one row may exceed PAIR_BLOCK
    d2_buf, dy_buf = np.empty(size, dtype), np.empty(size, dtype)
    du2_buf, mask_buf, in_buf = np.empty(size), np.empty(size), np.empty(size, bool)
    volume = np.zeros((k, n))
    osc = np.zeros((k, n))
    pairs = [0] * k
    start = 0
    while start < n - 1:
        # the most rows whose window holds at most PAIR_BLOCK entries
        rows, most = 1, n - 1 - start
        while rows < most:
            mid = (rows + most + 1) // 2
            if mid * (reach[start + mid - 1] - start - 1) <= PAIR_BLOCK:
                rows = mid
            else:
                most = mid - 1
        stop = start + rows
        first, cols = start + 1, reach[stop - 1] - start - 1
        if cols > 0:
            # entry (a, b) is the pair (start + a, first + b), so i < j iff a <= b
            d2 = d2_buf[: rows * cols].reshape(rows, cols)
            dy = dy_buf[: rows * cols].reshape(rows, cols)
            np.subtract(x[start:stop, None], x[first : first + cols], out=d2)
            np.multiply(d2, d2, out=d2)
            np.subtract(y[start:stop, None], y[first : first + cols], out=dy)
            np.multiply(dy, dy, out=dy)
            d2 += dy
            d2[:, :rows][np.tri(rows, min(rows, cols), -1, dtype=bool)] = top + 1
            if u is not None:
                du2 = du2_buf[: rows * cols].reshape(rows, cols)
                np.subtract(u[start:stop, None], u[first : first + cols], out=du2)
                np.multiply(du2, du2, out=du2)
            w_rows = w_s[start:stop]
            for t in range(k):
                c = int(ends[t][stop - 1]) - first
                if c <= 0:
                    continue
                inside = in_buf[: rows * c].reshape(rows, c)
                np.less_equal(d2[:, :c], balls[t], out=inside)
                pairs[t] += int(np.count_nonzero(inside))
                mask = mask_buf[: rows * c].reshape(rows, c)
                np.copyto(mask, inside)
                w_cols = w_s[first : first + c]
                volume[t, start:stop] += np.einsum("ij,j->i", mask, w_cols)
                volume[t, first : first + c] += np.einsum("ij,i->j", mask, w_rows)
                if u is not None:
                    np.multiply(mask, du2[:, :c], out=mask)
                    osc[t, start:stop] += np.einsum("ij,j->i", mask, w_cols)
                    osc[t, first : first + c] += np.einsum("ij,i->j", mask, w_rows)
        start = stop
    volume[:, order] = volume.copy()
    osc[:, order] = osc.copy()
    sums = []
    for b in bound:
        t = balls.index(b)
        ball = w + volume[t]
        w_osc = w * osc[t]
        sums.append((ball, float(np.sum(w_osc / ball)), pairs[t], float(np.sum(w_osc))))
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
    pair_count = 0.  r_grid (default dyadic_grid()) may hold any radii
    in (0,1); their open balls are exact on the lattice numerators.
    """
    import numpy as np

    w = _weights(source)
    vals = _function_values(source, u)
    radii = _radius_grid(r_grid)
    rows: list[BesovRow] = []
    for r, (volume, raw, pairs, _) in zip(radii, _ball_sums(source, w, radii, vals)):
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
    Every grid radius gets exact open balls (see the module docstring).
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
    L = _open_ball_bound(r, den)."""
    return math.sqrt(_open_ball_bound(r, den) + 0.5)


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
        center_w = _weights(source)
        volumes = tuple(volume for volume, _, _, _ in _ball_sums(source, center_w, radii))
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
    radii in (0,1)): open balls are exact at any radius, a sample's with
    its lattice denominator at most MAX_BALL_DENOMINATOR (BudgetExceeded
    otherwise), a level graph's with its numerators below
    MAX_SCAN_NUMERATOR.  The volumes do not depend on alpha and are
    counted once per (radii, centers) on each source object.
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
    radii; a translation moves no distance, so the image scanned is the
    exact lattice cloud of x -> scale*x (LatticePoints.image), whatever
    the map's translation, and both sides decide their open balls on
    integers.  u must live on a level graph of `ifs`; ValueError
    otherwise.
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
    w = _weights(graph)
    vals = u.float_values()

    # one scan per cloud: the source over radii + C*radii (its fit, then
    # the right-hand sides), the image over radii + s*radii (the left-hand
    # sides, then its fit)
    inflated = tuple(r * c_float for r in float_radii)
    src_sums = _ball_sums(graph, w, radii + inflated, vals)
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
    image = graph.image(transform.scale)
    img_radii = [r * s for r in float_radii]
    img_sums = _ball_sums(image, w, tuple(float_radii + img_radii), vals)

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
