"""Discretized Besov-type oscillation functionals on point clouds.

The scan computes, per radius r, the weighted mean-square oscillation
over open balls B(x,r) normalized by empirical ball volumes, which is
the discrete counterpart of the sup-over-r functional whose critical
exponent recovers the walk dimension.  Point clouds, level graphs
(exact weights) or measure samples (uniform weights), are their integer
numerators over one denominator (ifs.LatticePoints), and every open
ball is decided on those integers, exactly at any radius: d(x, y) < r
iff the squared numerator distance is at most ceil(r^2*D^2) - 1.

One kernel, _ball_sums, serves every Besov and pushforward scan: it
sorts the cloud by (x, y), computes the squared distances of each block
of rows against the x-window of its largest ball, and adds each ball's
masked row and column sums into per-point sums; no pair outlives its
block.  The pushforward audit makes one such scan, of the source graph:
the image ball B(s*x, r) is s*B(x, r/s), so every image-side sum is a
source-side sum at an exact rational radius.  alfors_check counts every
regularity ball, of a sample or a level graph, with _ball_masses on
integer weights, by tiles: the cloud is cut into small compact tiles of
points and the centers into tiles of centers, each with its integer
bounding box, and the least and largest squared box distances of a pair
of tiles decide, per ball, whether the point tile lies wholly inside
every center's ball (its weight sum added at once), wholly outside (it
is skipped), or is cut by the sphere: only those tiles get per-point
squared distances.
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
from .levelgraph import LevelGraph, _cell_counts, _float_measure_weights
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


def _check_pair_budget(n: int, sampled: bool) -> None:
    # quadratic pair enumeration; a sample's strided ball counts are exempt
    if n > MAX_SCAN_POINTS:
        knob = "sample count (--sample)" if sampled else "level (-m)"
        remedy = f"lower the {knob} (fixed limit besov.MAX_SCAN_POINTS)"
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


# Candidate entries per block of a ball scan (128 KB of int32 d^2).
PAIR_BLOCK = 2 ** 15
# Numerators of a pair scan stay below this, so that squared numerator
# distances, below 2 * (2^31)^2 = 2^63, are exact int64.
MAX_SCAN_NUMERATOR = 2 ** 30


def _open_ball_bound(r: Union[float, Fraction], den: int) -> int:
    """L = ceil(r^2*den^2) - 1 for the exact value of r: points a/den and
    b/den lie at distance < r iff the integer |a - b|^2 is at most L."""
    bound = Fraction(r) ** 2 * den ** 2
    return -(-bound.numerator // bound.denominator) - 1


def _check_numerators(points: LatticePoints) -> None:
    """Refuse numerators past MAX_SCAN_NUMERATOR, naming the cloud's knob."""
    top = max(map(abs, chain.from_iterable(points.numerators)), default=0)
    if top >= MAX_SCAN_NUMERATOR:
        knob = "sampling depth (--depth)" if isinstance(points, MeasureSample) else "level (-m)"
        remedy = f"lower the {knob} (fixed limit besov.MAX_SCAN_NUMERATOR)"
        raise BudgetExceeded(top, MAX_SCAN_NUMERATOR, "lattice numerator", remedy)


def _sorted_cloud(points: LatticePoints, radii: Sequence[float]) -> tuple:
    """(order, x, y, bound, top, squared), after the numerator check, of
    the cloud sorted by (x, y) and shifted to 0 (its point p is
    points[order[p]]): its x and y coordinates; per radius the bound L,
    capped at the largest d^2, top; and squared(rows, cols), the d^2 of
    the sorted points rows to the sorted points cols (each a slice or an
    index array), int32 where top fits, in buffers reused across blocks."""
    import numpy as np

    n = len(points.numerators)
    _check_numerators(points)
    xy = np.array(points.numerators, dtype=np.int64).reshape(n, 2)
    order = np.lexsort((xy[:, 1], xy[:, 0]))
    xy = xy[order]
    if n:
        xy -= xy.min(axis=0)  # distances are translation-invariant
    top = sum(side * side for side in (xy.max(axis=0).tolist() if n else ()))
    bound = [min(_open_ball_bound(r, points.denominator), top) for r in radii]
    # int32 squared distances where they fit, with the sentinel top + 1
    dtype = np.int32 if top < 2 ** 31 - 1 else np.int64
    x, y = np.ascontiguousarray(xy.T, dtype=dtype)
    bufs = np.empty(max(PAIR_BLOCK, n), dtype), np.empty(max(PAIR_BLOCK, n), dtype)

    def squared(rows, cols) -> np.ndarray:
        (xr, yr), (xc, yc) = (x[rows], y[rows]), (x[cols], y[cols])
        d2, dy = (buf[: xr.size * xc.size].reshape(xr.size, xc.size) for buf in bufs)
        for a, b, out in ((xr, xc, d2), (yr, yc, dy)):
            np.subtract(a[:, None], b, out=out)
            np.multiply(out, out, out=out)
        d2 += dy
        return d2

    return order, x, y, bound, top, squared


def _block_rows(most: int, entries) -> int:
    """The most rows, 1 to most, whose block holds entries(rows) <=
    PAIR_BLOCK entries (one row may exceed it); entries grows with rows."""
    rows, most = 1, min(most, PAIR_BLOCK // max(entries(1), 1))
    while rows < most:
        mid = (rows + most + 1) // 2
        if entries(mid) <= PAIR_BLOCK:
            rows = mid
        else:
            most = mid - 1
    return rows


def _ball_sums(
    points: LatticePoints, w: np.ndarray, radii: Sequence[float], vals: np.ndarray
) -> list[tuple[np.ndarray, float, int, float]]:
    """Per radius, in the given order: (volumes, raw, pairs, integral)
    over the open balls B(x, r), d(x, y) < r strictly, of every point x;
    a radius is a float or a Fraction, taken at its exact value.

    volumes are w_x plus w_y over the ball (never 0); osc_x is the ball's
    sum of w_y*(u(x)-u(y))^2; raw sums w_x*osc_x/volume_x and integral
    sums w_x*osc_x; pairs counts i < j in a ball.  Arrays are in the
    input order of the points.

    A ball is d^2 <= L = ceil(r^2*D^2) - 1 on the numerators over the
    denominator D (_open_ball_bound), exact at any radius, on the cloud
    sorted by _sorted_cloud.  Each block of consecutive rows i meets the
    columns j > i with x_j <= x_last + isqrt(L) of its largest ball
    (np.searchsorted), within PAIR_BLOCK entries (_block_rows), and
    computes its d^2 and (u(x)-u(y))^2 once; each ball masks its own
    x-window of them and adds the masked row and column sums of w and of
    w*(u(x)-u(y))^2 with np.einsum, which sums in one order on any BLAS
    and thread count.  So the sums are deterministic, and depend on the
    other radii only through the blocks.  20000 sg sample points at
    r = 1/64 take about 0.05 s (2-core x86-64, CPython 3.11, numpy 2.4).
    The pair-scan and numerator limits are checked before the sort.
    """
    import numpy as np

    n = len(points.numerators)
    _check_pair_budget(n, isinstance(points, MeasureSample))
    order, x, _, bound, top, squared = _sorted_cloud(points, radii)
    balls = sorted(set(bound))  # the distinct bounds, increasing
    k = len(balls)
    ends = [np.searchsorted(x, x + math.isqrt(b), "right") for b in balls]
    reach = ends[-1].tolist()
    w_s, u = w[order], vals[order]
    size = max(PAIR_BLOCK, n)  # one row may exceed PAIR_BLOCK
    du2_buf, mask_buf, in_buf = np.empty(size), np.empty(size), np.empty(size, bool)
    volume = np.zeros((k, n))
    osc = np.zeros((k, n))
    pairs = [0] * k
    start = 0
    while start < n - 1:
        rows = _block_rows(n - 1 - start, lambda r: r * (reach[start + r - 1] - start - 1))
        stop = start + rows
        first, cols = start + 1, reach[stop - 1] - start - 1
        if cols > 0:
            # entry (a, b) is the pair (start + a, first + b), so i < j iff a <= b
            d2 = squared(slice(start, stop), slice(first, first + cols))
            d2[:, :rows][np.tri(rows, min(rows, cols), -1, dtype=bool)] = top + 1
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


# Centers per row tile and points per column tile of _ball_masses.
ROW_TILE = 64
COLUMN_TILE = 8


def _tiles(x: np.ndarray, y: np.ndarray, size: int) -> tuple:
    """(order, boxes) of points sorted by (x, y): order cuts them into x
    strips of size * isqrt(n // size) points, about sqrt(n * size), each
    in y order, so that every run of size consecutive points is a
    compact tile; boxes are the int64 (x0, x1, y0, y1) of those tiles."""
    import numpy as np

    n = len(x)
    order = np.lexsort((y, np.arange(n) // (size * max(1, math.isqrt(n // size)))))
    starts = np.arange(0, n, size)
    boxes = tuple(
        f.reduceat(axis[order].astype(np.int64), starts)
        for axis in (x, y)
        for f in (np.minimum, np.maximum)
    )
    return order, boxes


def _ball_masses(
    points: LatticePoints, centers: Sequence[int], radii: Sequence[float], weights: np.ndarray
) -> np.ndarray:
    """Per radius (rows) and center index c (columns), in the given
    orders, the weight of the open ball B(c, r), c's own included, with
    _ball_sums' integer balls.

    The sorted cloud is cut into column tiles of COLUMN_TILE points and
    the centers into row tiles of ROW_TILE, both by _tiles; each tile
    has its integer bounding box, and each column tile its weight sum
    (np.add.reduceat).  For a row tile, the int64 box distances dmin^2
    and dmax^2 to every column tile classify it per radius bound L: a
    tile with dmax^2 <= L lies in every row's ball and adds its weight
    sum to all of them at once, a tile with dmin^2 > L is skipped, and
    only the tiles left get per-point d^2 (_sorted_cloud), in chunks
    within PAIR_BLOCK entries.  Integer-valued weights (summing below
    2^53) give exact integer masses in any BLAS summation order."""
    import numpy as np

    order, x, y, bound, _, squared = _sorted_cloud(points, radii)
    n = len(x)
    cols, (cx0, cx1, cy0, cy1) = _tiles(x, y, COLUMN_TILE)
    w = weights[order][cols]  # the weights in column-tile order
    tile_w = np.add.reduceat(w, np.arange(0, n, COLUMN_TILE))
    at = np.argsort(order)[np.array(centers, dtype=np.intp)]
    by_place = np.argsort(at)  # the centers in sorted-cloud order
    tiled, (rx0, rx1, ry0, ry1) = _tiles(x[at[by_place]], y[at[by_place]], ROW_TILE)
    tiled = by_place[tiled]  # the centers in row-tile order
    rows_at = at[tiled]
    ls = np.array(bound, dtype=np.int64)[:, None]
    lanes = np.arange(COLUMN_TILE)
    in_buf = np.empty(max(PAIR_BLOCK, n), bool)
    mass = np.empty((len(bound), len(at)))
    for tile, start in enumerate(range(0, len(at), ROW_TILE)):
        rows = rows_at[start : start + ROW_TILE]
        gap_x = np.maximum(np.maximum(cx0 - rx1[tile], rx0[tile] - cx1), 0)
        gap_y = np.maximum(np.maximum(cy0 - ry1[tile], ry0[tile] - cy1), 0)
        span_x = np.maximum(cx1 - rx0[tile], rx1[tile] - cx0)
        span_y = np.maximum(cy1 - ry0[tile], ry1[tile] - cy0)
        near = gap_x * gap_x + gap_y * gap_y  # dmin^2 per column tile
        far = span_x * span_x + span_y * span_y  # dmax^2
        whole = far <= ls
        mass[:, start : start + rows.size] = (whole @ tile_w)[:, None]
        step = max(1, PAIR_BLOCK // rows.size)
        for t, edge in enumerate((near <= ls) & ~whole):
            part = (np.flatnonzero(edge)[:, None] * COLUMN_TILE + lanes).ravel()
            part = part[part < n]
            for a in range(0, part.size, step):
                chunk = part[a : a + step]
                inside = in_buf[: rows.size * chunk.size].reshape(rows.size, chunk.size)
                np.less_equal(squared(rows, cols[chunk]), bound[t], out=inside)
                mass[t, start : start + rows.size] += inside @ w[chunk]
    return mass[:, np.argsort(tiled)]


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
) -> CriticalExponentEstimate:
    """Least-squares slope of log(raw oscillation) against log r.

    For a critical witness (harmonic or coordinate function) the slope
    estimates the Besov critical exponent, matching the walk dimension.
    The radii are the dyadic ones 2^-j nearest the window's edges and
    between them, each with exact open balls (see the module docstring).
    """
    r_min, r_max = r_window
    if not (0 < r_min < r_max < 1):
        raise ValueError(
            f"window must satisfy 0 < r_min < r_max < 1 (--r-min, --r-max); "
            f"got r_min = {r_min}, r_max = {r_max}"
        )
    j_max = int(round(-math.log2(r_min)))
    j_min = int(round(-math.log2(r_max)))
    # a window that holds no dyadic radius scans nothing and fails the fit
    radii = dyadic_grid(max(1, j_min), j_max) if j_max >= 1 else ()
    rows = besov_functional(source, u, sigma=0.0, r_grid=radii).rows if radii else ()
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


DRIFT_THRESHOLD = 4.0
MAX_ALFORS_CENTERS = 20000


def _regularity_volumes(
    source: PointSource, radii: tuple, max_centers: int
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """(center weights, per radius the ball volumes at the centers),
    computed once per (radii, centers) and kept in source.ball_volumes.
    _ball_masses counts them on integer weights: 1 per point of a
    sample, at an evenly strided subset of at most max_centers centers;
    a vertex's cell count (_cell_counts) on a level graph, at every
    vertex, within the pair-scan limit."""
    import numpy as np

    uniform = isinstance(source, MeasureSample)
    if not uniform and not isinstance(source, LevelGraph):
        raise TypeError("point source must be a LevelGraph or MeasureSample")
    n = len(source.numerators)
    centers = range(0, n, max(1, n // max_centers))[:max_centers] if uniform else range(n)
    key = (radii, centers)
    if key in source.ball_volumes:
        return source.ball_volumes[key]
    if not uniform:
        _check_pair_budget(n, False)
    w = np.ones(n) if uniform else np.array(_cell_counts(source)[0], dtype=float)
    mass = _ball_masses(source, centers, radii, w)
    w_c = w[np.array(centers, dtype=np.intp)]
    source.ball_volumes[key] = w_c / w_c.sum(), tuple(mass * (1.0 / w.sum()))
    return source.ball_volumes[key]


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
    radii in (0,1)): open balls are exact at any radius, with the
    lattice numerators below MAX_SCAN_NUMERATOR (BudgetExceeded
    otherwise).  The volumes do not depend on alpha and are counted once
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
            raise ValueError(
                f"scale must be positive, so that the map is invertible and "
                f"orientation-true (--scale); got {self.scale}"
            )

    @property
    def bilipschitz_constant(self) -> Fraction:
        return max(self.scale, 1 / self.scale)


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
    agreement of the critical-exponent fits of source and image.
    A translation moves no distance, and the image ball B(s*x, rho) is
    s*B(x, rho/s), so one scan of the source graph, at the exact radii
    r, C*r and r/s, gives both sides: the image's oscillation at s*r is
    the source's at r, and its fit differs from the source's only in
    the rounding of the radii s*r.  u must live on a level graph of
    `ifs`; ValueError otherwise.
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

    # one scan of the source at the exact radii r (both fits), C*r (the
    # right-hand sides) and r/s (the left-hand sides: the image ball
    # B(s*x, r) is s*B(x, r/s)); for s <= 1, r/s = C*r shares its balls
    exact = [Fraction(r) for r in radii]
    c, scale = transform.bilipschitz_constant, transform.scale
    sums = _ball_sums(graph, w, exact + [r * c for r in exact] + [r / scale for r in exact], vals)
    raws = [raw for _, raw, _, _ in sums[:k]]
    r_min, r_max = FIT_WINDOW
    source_fit = _fit(float_radii, raws, FIT_WINDOW, "raise the level (-m)")

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

    # (ii) each side: the double integral of (u(x)-u(y))^2 over open-ball
    # pairs, the image's under weights w_img = mass_factor * w
    lhs_sides = [mass_factor ** 2 * integral for _, _, _, integral in sums[2 * k :]]
    rhs_sides = [integral for _, _, _, integral in sums[k : 2 * k]]
    cprime_bound = c_float ** (2.0 * alpha)
    rows: list[PushforwardRow] = []
    observed_ratio = 0.0
    for r, lhs, rhs in zip(float_radii, lhs_sides, rhs_sides):
        bound = cprime_bound * rhs
        ok = lhs <= bound * (1 + 1e-12)
        if rhs > 0 and lhs > 0:
            observed_ratio = max(observed_ratio, lhs / rhs)
        rows.append(PushforwardRow(r, lhs, rhs, bound, ok))

    # (iii) the image's raw at s*r is the source's at r; its radii and
    # window are the source's scaled by the map, so both fits use the
    # same grid radii on any grid
    image_fit = _fit(
        [r * s for r in float_radii], raws, (r_min * s, r_max * s), "raise the level (-m)"
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
