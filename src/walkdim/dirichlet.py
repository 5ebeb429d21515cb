"""Discrete Dirichlet-form machinery on level graphs.

Harmonic extension and exit times are exact rational linear algebra on
the unweighted level-m graph, solved as m one-level refinement steps of
the cell problem; the heat-kernel diagonal is a float
power-iteration of the lazy walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .errors import FitError
from .ifs import IfsSpec, ensure_valid
from .levelgraph import LevelGraph, _check_level, build_level_graph, vertex_measure_weights
from .network import _adjacency, _back_substitute, _eliminate, _refine, unit_complete_network
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
    the rest, by sparse star-mesh elimination plus back-substitution.

    Exact when all inputs are Fractions.  Raises if some free vertex has
    no path to anywhere (singular block).
    """
    adj = _adjacency(vertex_count, edges)
    load: list[Value] = [rhs.get(v, 0) for v in range(vertex_count)]
    order = _eliminate(adj, set(range(vertex_count)) - set(fixed), load)
    values: list[Optional[Value]] = [None] * vertex_count
    for v, x in fixed.items():
        values[v] = x
    return _back_substitute(order, values)  # type: ignore[return-value]


def _unit_levels(ifs: IfsSpec, m: int) -> list[tuple]:
    """(trace on V0, load left on V0, V0 -> V1 interpolation matrix) of
    the unit level-j problem, j = 0..m, each corner of the unit complete
    level-0 network loaded by its degree.

    The level-j graph is one copy of the level-(j-1) graph per map, glued
    at cell corners (cells meet only there), so one refinement step takes
    level j-1 to level j.  Level 0 has no matrix."""
    k = len(ifs.boundary)
    levels = [(unit_complete_network(k), (Fraction(k - 1),) * k, None)]
    for _ in range(m):
        trace, load, _ = levels[-1]
        levels.append(_refine(ifs, trace, load))
    return levels


def harmonic_extension(
    ifs: IfsSpec,
    m: int,
    boundary_values: Sequence[Value],
    method: str = "auto",
) -> GraphFunction:
    """The unique minimizer of the level-m graph energy among functions
    with the given V0 values; exact for rational data.

    method: "auto" and "recursive" interpolate cell by cell, a cell of
    depth d by the harmonic interpolation matrix of the level-(m-d) unit
    problem (Kigami's harmonic extension matrices); "direct" solves the
    level-m graph by sparse elimination, the reference route.
    """
    ensure_valid(ifs)
    k = len(ifs.boundary)
    if len(boundary_values) != k:
        raise ValueError(f"need {k} boundary values")
    if method not in ("auto", "recursive", "direct"):
        raise ValueError("method must be auto, recursive, or direct")
    vals = [as_fraction(v) if not isinstance(v, float) else v for v in boundary_values]
    graph = build_level_graph(ifs, m)

    if method == "direct":
        bidx = graph.boundary_indices()
        fixed = {bidx[a]: vals[a] for a in range(k)}
        edges = {e: Fraction(1) for e in graph.edges}
        solution = solve_weighted_laplacian(graph.vertex_count, edges, {}, fixed)
        return GraphFunction(graph, tuple(solution))

    # corner values per cell, one level at a time; with n maps, child d
    # of cell c is cell c*n + d, the order build_level_graph emits
    cells1 = build_level_graph(ifs, 1).cells
    corners: list[list[Value]] = [vals]
    for _, _, h in reversed(_unit_levels(ifs, m)[1:]):
        children: list[list[Value]] = []
        for cell in corners:
            local = [
                sum((row[b] * cell[b] for b in range(k)), start=Fraction(0))
                for row in h
            ]
            children.extend([local[v] for v in sub] for sub in cells1)
        corners = children
    values: list[Optional[Value]] = [None] * graph.vertex_count
    for cell, cell_values in zip(graph.cells, corners):
        for v, x in zip(cell, cell_values):
            if values[v] is None:
                values[v] = x
            elif values[v] != x:
                raise AssertionError("inconsistent cell extension values")
    return GraphFunction(graph, tuple(values))


def graph_energy(u: GraphFunction, energy_scale: Value) -> Value:
    """(energy_scale)^m * sum over level-m edges of (u_i - u_j)^2."""
    scale = energy_scale
    if not isinstance(scale, float):
        scale = as_fraction(scale)
    total: Value = Fraction(0)
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
    are then l_m(start) / sum_b C_m(start, b).

    beta_hat = log(last ratio)/log(1/ratio): the time-scaling estimate
    of the walk dimension.
    """
    ensure_valid(ifs)
    k = len(ifs.boundary)
    if not (0 <= start < k):
        raise ValueError(f"start must index a boundary vertex (0..{k - 1})")
    _check_level(ifs, m_max)
    rows: list[tuple[int, Fraction]] = []
    for m, (trace, load, _) in enumerate(_unit_levels(ifs, m_max)):
        conductance = sum(trace.edge(start, b) for b in range(k) if b != start)
        rows.append((m, load[start] / conductance))
    ratios = tuple(
        rows[i][1] / rows[i - 1][1] for i in range(1, len(rows)) if rows[i - 1][1] != 0
    )
    time_scale = ratios[-1] if ratios else None
    beta_hat = (
        math.log(float(time_scale)) / math.log(float(1 / ifs.ratio))
        if time_scale is not None and time_scale > 0
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
    import numpy as np

    grid = np.unique(
        np.round(np.logspace(math.log10(t_min), math.log10(t_max), count)).astype(int)
    )
    return tuple(int(t) for t in grid if t >= 1)


# The heat-kernel fit window: times from _T_MIN_FIT on, while p_t stays
# above _PLATEAU_FACTOR times the stationary plateau.
_PLATEAU_FACTOR = 1.1
_T_MIN_FIT = 10


def heat_kernel_diag(
    ifs: IfsSpec,
    m: int,
    laziness: float = 0.5,
    t_grid: Optional[Sequence[int]] = None,
    base_vertex: Optional[int] = None,
) -> HeatProfile:
    """Measure-normalized on-diagonal heat kernel of the lazy walk and
    its log-log decay slope.

    p_t(x,x) = P^t(x,x)/w(x) with w the vertex measure weights; the walk
    stays put with probability `laziness`.  The fit uses the window
    t >= 10 and p_t above 1.1 times the stationary plateau (the
    two-sided power-law regime).
    """
    import numpy as np
    from scipy import sparse

    ensure_valid(ifs)
    if not (0 < laziness < 1):
        raise ValueError("laziness must lie in (0,1)")
    g = build_level_graph(ifs, m)
    n = g.vertex_count
    x = deep_interior_vertex(g) if base_vertex is None else base_vertex
    if not (0 <= x < n):
        raise ValueError("base vertex out of range")
    times = tuple(sorted(set(default_time_grid() if t_grid is None else map(int, t_grid))))
    if not times or times[0] < 1:
        raise ValueError("time grid must contain positive integers")

    degrees = np.zeros(n)
    rows, cols, data = [], [], []
    for i, j in g.edges:
        degrees[i] += 1
        degrees[j] += 1
    for i, j in g.edges:
        rows.extend([i, j])
        cols.extend([j, i])
        data.extend([1.0, 1.0])
    adjacency = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
    inv_deg = sparse.diags(1.0 / degrees)
    step = sparse.eye(n) * laziness + (1.0 - laziness) * (inv_deg @ adjacency)
    step = sparse.csr_matrix(step)

    weights = np.array([float(w) for w in vertex_measure_weights(g)])
    pi = degrees / degrees.sum()
    plateau = float(pi[x] / weights[x])

    vec = np.zeros(n)
    vec[x] = 1.0
    diag: list[float] = []
    t_prev = 0
    stepT = step.T.tocsr()
    for t in times:
        for _ in range(t - t_prev):
            vec = stepT @ vec
        t_prev = t
        diag.append(float(vec[x]) / weights[x])

    usable = [
        (t, p)
        for t, p in zip(times, diag)
        if t >= _T_MIN_FIT and p > _PLATEAU_FACTOR * plateau
    ]
    if len(usable) < 4:
        raise FitError(
            f"only {len(usable)} usable times in the fit window; "
            f"raise the level or extend the grid"
        )
    slope, stderr = _loglog_fit([t for t, _ in usable], [p for _, p in usable])
    window = (usable[0][0], usable[-1][0])
    return HeatProfile(times, tuple(diag), laziness, x, slope, stderr, window, plateau)
