"""Discrete Dirichlet-form machinery on level graphs.

Harmonic extension and exit times are exact rational linear algebra on
the unweighted level-m graph, solved as m one-level refinement steps of
the cell problem; harmonic extension then interpolates cell by cell on
integer numerators over one denominator per depth.  The heat-kernel
diagonal is a float power-iteration of the lazy walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .errors import FitError
from .ifs import IfsSpec, ensure_valid
from .levelgraph import LevelGraph, _check_level, _float_measure_weights, build_level_graph
from .network import _back_substitute, _eliminate, _matrix, _refine
from .rational import as_fraction, format_rational

if TYPE_CHECKING:
    import numpy as np

Value = Union[Fraction, float]


@dataclass(frozen=True)
class GraphFunction:
    graph: LevelGraph
    values: tuple[Value, ...]

    def __post_init__(self):
        if len(self.values) != self.graph.vertex_count:
            raise ValueError("one value per vertex required")

    def float_values(self) -> np.ndarray:
        import numpy as np

        return np.array([float(v) for v in self.values])


def solve_weighted_laplacian(
    vertex_count: int,
    edges: dict[tuple[int, int], Value],
    rhs: dict[int, Value],
    fixed: dict[int, Value],
) -> list[Value]:
    """Solve (L u)(v) = rhs(v) for v outside `fixed`, with u = fixed on
    the rest, by sparse elimination (rhs as the ground column) and
    back-substitution with ground value 1.

    Exact when every input is an int or a Fraction; a float anywhere
    makes the whole solve float.  Raises if some free vertex has no path
    to anywhere (singular block).
    """
    rows = _matrix(vertex_count, edges, rhs)
    order = _eliminate(rows, set(range(vertex_count)) - set(fixed))
    values: list[Optional[Value]] = [None] * vertex_count + [1]
    for v, x in fixed.items():
        values[v] = x
    return _back_substitute(order, values)[:vertex_count]  # type: ignore[return-value]


def _unit_levels(g1: LevelGraph, m: int, interpolate: bool = False) -> list[tuple]:
    """(cell matrix on V0, V0 -> V1 interpolation matrix or None without
    `interpolate`) of the unit level-j problem, j = 0..m: every vertex of
    the level-j graph loaded by its degree, the interior eliminated.  The
    cell matrix is the Schur complement that `_refine` returns, the trace
    Laplacian on V0 with minus the load left there as its ground column.

    Level 0 is the unit complete graph on V0, each corner loaded by its
    degree k - 1; it has no interpolation matrix.  The level-j graph is
    one copy of the level-(j-1) graph per map, glued at cell corners
    (cells meet only there), so one refinement step takes level j-1 to
    level j; `g1` is the level-1 graph that every step glues on."""
    k = len(g1.ifs.boundary)
    unit = {(i, j): Fraction(1) for i in range(k) for j in range(i + 1, k)}
    levels = [(_matrix(k, unit, dict.fromkeys(range(k), Fraction(k - 1))), None)]
    for _ in range(m):
        levels.append(_refine(g1, levels[-1][0], interpolate))
    return levels


def harmonic_extension(
    ifs: IfsSpec,
    m: int,
    boundary_values: Sequence[Value],
    method: str = "recursive",
) -> GraphFunction:
    """The unique minimizer of the level-m graph energy among functions
    with the given V0 values; exact for rational data.

    method: "recursive" (the default) interpolates cell by cell, a cell of
    depth d by the harmonic interpolation matrix of the level-(m-d) unit
    problem (Kigami's harmonic extension matrices); "direct" solves the
    level-m graph by sparse elimination, the reference route.

    Both routes are exact: float boundary values enter as their exact
    Fractions, and every value then comes back as the correctly rounded
    float of the exact extension.  The recursive route runs on integers:
    every value at one depth is a numerator over one denominator, each
    matrix is scaled to integers by the common denominator of its
    entries, and each vertex becomes Fraction(numerator, denominator) at
    the end.
    """
    ensure_valid(ifs)
    k = len(ifs.boundary)
    if len(boundary_values) != k:
        raise ValueError(f"need {k} boundary values")
    if method not in ("recursive", "direct"):
        raise ValueError("method must be recursive or direct")
    graph = build_level_graph(ifs, m)
    exact = [Fraction(v) if isinstance(v, float) else as_fraction(v) for v in boundary_values]
    rounded = any(isinstance(v, float) for v in boundary_values)

    if method == "direct":
        bidx = graph.boundary_indices()
        fixed = {bidx[a]: exact[a] for a in range(k)}
        edges = dict.fromkeys(graph.edges, 1)
        solution = solve_weighted_laplacian(graph.vertex_count, edges, {}, fixed)
        return GraphFunction(graph, tuple(map(float, solution) if rounded else solution))

    den = math.lcm(*(v.denominator for v in exact))
    # corner numerators per cell, one depth at a time; with n maps, child
    # d of cell c is cell c*n + d, the order build_level_graph emits
    g1 = build_level_graph(ifs, 1)
    corners = [[v.numerator * (den // v.denominator) for v in exact]]
    for _, h in reversed(_unit_levels(g1, m, interpolate=True)[1:]):
        scale = math.lcm(*(x.denominator for row in h for x in row))
        rows = [[x.numerator * (scale // x.denominator) for x in row] for row in h]
        den *= scale
        children: list[list[int]] = []
        for cell in corners:
            local = [sum(map(mul, row, cell)) for row in rows]
            children.extend([local[v] for v in sub] for sub in g1.cells)
        corners = children
    nums: list[Optional[int]] = [None] * graph.vertex_count
    for cell, cell_nums in zip(graph.cells, corners):
        for v, a in zip(cell, cell_nums):
            if nums[v] is None:
                nums[v] = a
            elif nums[v] != a:
                raise AssertionError("inconsistent cell extension values")
    if rounded:
        return GraphFunction(graph, tuple(a / den for a in nums))
    return GraphFunction(graph, tuple(Fraction(a, den) for a in nums))


def graph_energy(u: GraphFunction, energy_scale: Value) -> Value:
    """(energy_scale)^m * sum over level-m edges of (u_i - u_j)^2.

    With every value rational the sum runs on integer numerators over
    one common denominator and becomes one Fraction at the end; a float
    value sends the sum through float arithmetic, edge by edge."""
    scale = energy_scale
    if not isinstance(scale, float):
        scale = as_fraction(scale)
    if all(isinstance(v, (int, Fraction)) for v in u.values):
        den = math.lcm(*(v.denominator for v in u.values))
        nums = [v.numerator * (den // v.denominator) for v in u.values]
        squares = sum((nums[i] - nums[j]) ** 2 for i, j in u.graph.edges)
        total: Value = Fraction(squares, den * den)
    else:
        total = Fraction(0)
        for i, j in u.graph.edges:
            diff = u.values[i] - u.values[j]
            total = total + diff * diff
    return scale ** u.graph.level * total


@dataclass(frozen=True)
class ExitTimeReport:
    start: int
    rows: tuple[tuple[int, Fraction], ...]  # (level, expected steps)
    ratios: tuple[Fraction, ...]
    time_scale: Optional[Fraction]  # last consecutive ratio
    beta_hat: Optional[float]

    def to_json(self) -> dict:
        return {
            "start": self.start,
            "expected_steps": [
                {"level": m, "value": format_rational(t), "float": float(t)}
                for m, t in self.rows
            ],
            "ratios": [
                {"levels": f"{i}/{i - 1}", "value": format_rational(r), "float": float(r)}
                for i, r in enumerate(self.ratios, start=1)
            ],
            "time_scale": None
            if self.time_scale is None
            else format_rational(self.time_scale),
            "beta_hat": self.beta_hat,
        }


def exit_time_profile(ifs: IfsSpec, m_max: int, start: int = 0) -> ExitTimeReport:
    """Exact expected steps for the simple walk started at boundary
    vertex `start` to hit the rest of V0, for each level m <= m_max.

    Eliminating the level-m interior with each vertex loaded by its
    degree leaves the trace C_m and load l_m on V0; the expected steps
    are then l_m(start) / sum_b C_m(start, b), the ground entry of the
    cell matrix over its diagonal (the trace's row sums vanish).

    beta_hat = log(last ratio)/log(1/ratio): the time-scaling estimate
    of the walk dimension.
    """
    ensure_valid(ifs)
    k = len(ifs.boundary)
    if not (0 <= start < k):
        raise ValueError(f"start must index a boundary vertex, 0..{k - 1} (--start); got {start}")
    _check_level(ifs, m_max)
    rows: list[tuple[int, Fraction]] = []
    for m, (cell, _) in enumerate(_unit_levels(build_level_graph(ifs, 1), m_max)):
        rows.append((m, -cell[start][k] / cell[start][start]))
    # every level's exit time is at least one step, so no ratio divides by 0
    ratios = tuple(rows[i][1] / rows[i - 1][1] for i in range(1, len(rows)))
    time_scale = ratios[-1] if ratios else None
    beta_hat = (
        math.log(float(time_scale)) / math.log(float(1 / ifs.ratio))
        if time_scale is not None
        else None
    )
    return ExitTimeReport(start, tuple(rows), ratios, time_scale, beta_hat)


@dataclass(frozen=True)
class HeatProfile:
    times: tuple[int, ...]
    diag_values: tuple[float, ...]  # measure-normalized p_t(x,x)
    laziness: float
    base_vertex: int
    fitted_exponent: float
    stderr: float
    window: tuple[int, int]
    plateau: float

    def to_json(self) -> dict:
        return {
            "times": list(self.times),
            "diag_values": list(self.diag_values),
            "laziness": self.laziness,
            "base_vertex": self.base_vertex,
            "fitted_exponent": self.fitted_exponent,
            "stderr": self.stderr,
            "window": list(self.window),
            "plateau": self.plateau,
        }


def deep_interior_vertex(g: LevelGraph) -> int:
    """Vertex of maximal hop distance from V0 (lowest index on ties)."""
    adj = g.adjacency()
    dist = [-1] * g.vertex_count
    frontier = list(g.boundary_indices())
    for b in frontier:
        dist[b] = 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    best = max(range(g.vertex_count), key=lambda v: (dist[v], -v))
    return best


def _loglog_fit(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Least-squares slope of log y against log x, and its standard error."""
    import numpy as np

    coeffs, cov = np.polyfit(np.log(x), np.log(y), 1, cov=True)
    return float(coeffs[0]), float(np.sqrt(cov[0][0]))


def default_time_grid(t_min: int = 10, t_max: int = 1000, count: int = 30) -> tuple[int, ...]:
    """The distinct integer roundings of count log-spaced times from
    t_min to t_max; ValueError unless 1 <= t_min < t_max and count >= 1."""
    if not 1 <= t_min < t_max:
        raise ValueError(
            f"time window must satisfy 1 <= t_min < t_max (--t-min, --t-max); "
            f"got t_min = {t_min}, t_max = {t_max}"
        )
    if count < 1:
        raise ValueError(f"the time grid needs at least one point (--points); got {count}")
    import numpy as np

    grid = np.unique(
        np.round(np.logspace(math.log10(t_min), math.log10(t_max), count)).astype(int)
    )
    return tuple(map(int, grid))


# The lazy walk's hold probability, which keeps the walk aperiodic.
_HOLD = 0.5
# The heat-kernel fit window: times from _T_MIN_FIT on, while p_t stays
# above _PLATEAU_FACTOR times the stationary plateau.
_PLATEAU_FACTOR = 1.1
_T_MIN_FIT = 10


def heat_kernel_diag(
    ifs: IfsSpec,
    m: int,
    t_grid: Optional[Sequence[int]] = None,
) -> HeatProfile:
    """Measure-normalized on-diagonal heat kernel of the lazy walk and
    its log-log decay slope.

    p_t(x,x) = P^t(x,x)/w(x) at x = deep_interior_vertex(level-m graph),
    with w the vertex measure weights; the walk stays put with
    probability _HOLD = 1/2.  The fit uses the window t >= 10 and p_t
    above 1.1 times the stationary plateau (the two-sided power-law
    regime).
    """
    import numpy as np

    ensure_valid(ifs)
    g = build_level_graph(ifs, m)
    n = g.vertex_count
    x = deep_interior_vertex(g)
    times = tuple(sorted(set(default_time_grid() if t_grid is None else map(int, t_grid))))
    if not times or times[0] < 1:
        raise ValueError("time grid must contain positive integers")

    # P^T as a padded table: slot s of column v holds the s-th entry
    # P(u, v), u ascending (v itself included, weight _HOLD); the
    # padding has weight 0.  A step sums the slots in order, as a sparse
    # row-by-vector product sums a row.
    ends = np.array(g.edges, dtype=np.intp).reshape(-1, 2)
    degrees = np.bincount(ends.ravel(), minlength=n).astype(float)
    move = (1.0 - _HOLD) * (1.0 / degrees)
    stay = np.arange(n)
    src = np.concatenate([ends[:, 0], ends[:, 1], stay])
    dst = np.concatenate([ends[:, 1], ends[:, 0], stay])
    order = np.lexsort((src, dst))
    src, dst = src[order], dst[order]
    slot = np.arange(len(dst)) - np.searchsorted(dst, dst)
    cols = np.zeros((slot.max() + 1, n), dtype=np.intp)
    weights = np.zeros(cols.shape)
    cols[slot, dst] = src
    weights[slot, dst] = np.where(src == dst, _HOLD, move[src])

    measure = np.array(_float_measure_weights(g))
    pi = degrees / degrees.sum()
    plateau = float(pi[x] / measure[x])

    vec = np.zeros(n)
    vec[x] = 1.0
    diag: list[float] = []
    t_prev = 0
    for t in times:
        for _ in range(t - t_prev):
            vec = np.einsum("sv,sv->v", weights, vec[cols])
        t_prev = t
        diag.append(float(vec[x]) / measure[x])

    usable = [
        (t, p)
        for t, p in zip(times, diag)
        if t >= _T_MIN_FIT and p > _PLATEAU_FACTOR * plateau
    ]
    if len(usable) < 4:
        raise FitError(
            f"only {len(usable)} usable times in the fit window; "
            f"raise the level (-m) or extend the grid (--t-max)"
        )
    slope, stderr = _loglog_fit([t for t, _ in usable], [p for _, p in usable])
    window = (usable[0][0], usable[-1][0])
    return HeatProfile(times, tuple(diag), _HOLD, x, slope, stderr, window, plateau)
