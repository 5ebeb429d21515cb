"""Discrete Dirichlet-form machinery on level graphs.

Harmonic extension and exit times are exact rational linear algebra on
the unweighted level-m graph; the heat-kernel diagonal is a float
power-iteration of the lazy walk; the decay-condition checker evaluates
the tail integral required for the walk-dimension identification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConvergenceError, FitError, ReductionError
from .ifs import IfsSpec, Similitude, ensure_valid
from .levelgraph import LevelGraph, build_level_graph, vertex_measure_weights
from .network import _adjacency, _eliminate, renorm_factor
from .rational import as_fraction, format_rational

Value = Union[Fraction, float]


@dataclass(frozen=True)
class GraphFunction:
    graph: LevelGraph
    values: tuple[Value, ...]

    def __post_init__(self):
        if len(self.values) != self.graph.vertex_count:
            raise ValueError("one value per vertex required")

    def float_values(self) -> np.ndarray:
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
    load: dict[int, Value] = {v: rhs.get(v, 0) for v in range(vertex_count)}
    order = _eliminate(adj, set(range(vertex_count)) - set(fixed), load)
    values: list[Optional[Value]] = [None] * vertex_count
    for v, x in fixed.items():
        values[v] = x
    for v, star, d, lv in reversed(order):
        acc = lv
        for w, c in star:
            acc = acc + c * values[w]
        values[v] = acc / d
    return values  # type: ignore[return-value]


def _unit_edges(g: LevelGraph) -> dict[tuple[int, int], Fraction]:
    return {e: Fraction(1) for e in g.edges}


@dataclass(frozen=True)
class _ExtensionRule:
    """Per-refinement harmonic interpolation: level-1 vertex values as
    exact linear combinations of the k cell corner values."""

    graph1: LevelGraph
    matrix: tuple[tuple[Fraction, ...], ...]  # |V1| x k


def _one_level_rule(ifs: IfsSpec) -> _ExtensionRule:
    g1 = build_level_graph(ifs, 1)
    k = len(ifs.boundary)
    bidx = g1.boundary_indices()
    edges = _unit_edges(g1)
    cols: list[list[Fraction]] = []
    for b in range(k):
        fixed = {bidx[a]: Fraction(1 if a == b else 0) for a in range(k)}
        col = solve_weighted_laplacian(g1.vertex_count, edges, {}, fixed)
        cols.append(col)
    matrix = tuple(
        tuple(cols[b][v] for b in range(k)) for v in range(g1.vertex_count)
    )
    return _ExtensionRule(g1, matrix)


_rule_cache: dict[IfsSpec, _ExtensionRule] = {}
_uniform_cache: dict[IfsSpec, bool] = {}


def _extension_rule(ifs: IfsSpec) -> _ExtensionRule:
    if ifs not in _rule_cache:
        _rule_cache[ifs] = _one_level_rule(ifs)
    return _rule_cache[ifs]


def _has_uniform_fixed_network(ifs: IfsSpec) -> bool:
    """True when the unit network on V0 is an exact fixed direction of
    the renormalization map; then one-level interpolation iterates to
    the global minimizer at every depth."""
    if ifs not in _uniform_cache:
        try:
            result = renorm_factor(ifs)
            _uniform_cache[ifs] = bool(result.exact)
        except (ConvergenceError, ReductionError):
            _uniform_cache[ifs] = False
    return _uniform_cache[ifs]


def harmonic_extension(
    ifs: IfsSpec,
    m: int,
    boundary_values: Sequence[Value],
    method: str = "auto",
) -> GraphFunction:
    """The unique minimizer of the level-m graph energy among functions
    with the given V0 values; exact for rational data.

    method: "auto" picks cell recursion when the system's unit network
    is renormalization-fixed (all shipped presets), else the direct
    sparse elimination solve; "recursive" and "direct" force a route.
    """
    ensure_valid(ifs)
    k = len(ifs.boundary)
    if len(boundary_values) != k:
        raise ValueError(f"need {k} boundary values")
    vals = [as_fraction(v) if not isinstance(v, float) else v for v in boundary_values]
    graph = build_level_graph(ifs, m)
    if m == 0:
        ordered = [None] * k
        for a, b in enumerate(graph.boundary_indices()):
            ordered[b] = vals[a]
        return GraphFunction(graph, tuple(ordered))

    if method not in ("auto", "recursive", "direct"):
        raise ValueError("method must be auto, recursive, or direct")
    if method == "auto":
        method = "recursive" if _has_uniform_fixed_network(ifs) else "direct"

    if method == "direct":
        bidx = graph.boundary_indices()
        fixed = {bidx[a]: vals[a] for a in range(k)}
        solution = solve_weighted_laplacian(
            graph.vertex_count, _unit_edges(graph), {}, fixed
        )
        return GraphFunction(graph, tuple(solution))

    rule = _extension_rule(ifs)
    g1, h = rule.graph1, rule.matrix
    out: dict[tuple, Value] = {}

    def descend(transform: Optional[Similitude], corners: list[Value], depth: int):
        if depth == m:
            for a, p0 in enumerate(ifs.boundary):
                pt = transform.apply(p0) if transform is not None else p0
                prev = out.get(pt)
                if prev is None:
                    out[pt] = corners[a]
                elif prev != corners[a]:
                    raise AssertionError("inconsistent cell extension values")
            return
        local = [
            sum((h[v][b] * corners[b] for b in range(len(corners))), start=Fraction(0))
            for v in range(g1.vertex_count)
        ]
        for i, mp in enumerate(ifs.maps):
            sub = [local[g1.cells[i][a]] for a in range(len(corners))]
            nxt = transform.after(mp) if transform is not None else mp
            descend(nxt, sub, depth + 1)

    descend(None, list(vals), 0)
    return GraphFunction(graph, tuple(out[p] for p in graph.vertices))


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

    beta_hat = log(last ratio)/log(1/ratio): the time-scaling estimate
    of the walk dimension.
    """
    ensure_valid(ifs)
    k = len(ifs.boundary)
    if not (0 <= start < k):
        raise ValueError(f"start must index a boundary vertex (0..{k - 1})")
    rows: list[tuple[int, Fraction]] = []
    for m in range(m_max + 1):
        g = build_level_graph(ifs, m)
        bidx = g.boundary_indices()
        absorbing = {bidx[a]: Fraction(0) for a in range(k) if a != start}
        degrees: dict[int, Fraction] = {}
        for i, j in g.edges:
            degrees[i] = degrees.get(i, Fraction(0)) + 1
            degrees[j] = degrees.get(j, Fraction(0)) + 1
        rhs = {
            v: degrees.get(v, Fraction(0))
            for v in range(g.vertex_count)
            if v not in absorbing
        }
        solution = solve_weighted_laplacian(
            g.vertex_count, _unit_edges(g), rhs, absorbing
        )
        rows.append((m, as_fraction(solution[bidx[start]])))
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
    coeffs, cov = np.polyfit(np.log(x), np.log(y), 1, cov=True)
    return float(coeffs[0]), float(np.sqrt(cov[0][0]))


def default_time_grid(t_min: int = 10, t_max: int = 1000, count: int = 30) -> tuple[int, ...]:
    grid = np.unique(
        np.round(np.logspace(math.log10(t_min), math.log10(t_max), count)).astype(int)
    )
    return tuple(int(t) for t in grid if t >= 1)


def heat_kernel_diag(
    ifs: IfsSpec,
    m: int,
    laziness: float = 0.5,
    t_grid: Optional[Sequence[int]] = None,
    base_vertex: Optional[int] = None,
    plateau_factor: float = 1.1,
    t_min_fit: int = 10,
) -> HeatProfile:
    """Measure-normalized on-diagonal heat kernel of the lazy walk and
    its log-log decay slope.

    p_t(x,x) = P^t(x,x)/w(x) with w the vertex measure weights; the walk
    stays put with probability `laziness`.  The fit uses the window
    t >= t_min_fit and p_t above plateau_factor times the stationary
    plateau (the two-sided power-law regime).
    """
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
        if t >= t_min_fit and p > plateau_factor * plateau
    ]
    if len(usable) < 4:
        raise FitError(
            f"only {len(usable)} usable times in the fit window; "
            f"raise the level or extend the grid"
        )
    slope, stderr = _loglog_fit([t for t, _ in usable], [p for _, p in usable])
    window = (usable[0][0], usable[-1][0])
    return HeatProfile(times, tuple(diag), laziness, x, slope, stderr, window, plateau)


@dataclass(frozen=True)
class DecayCheck:
    finite: bool
    value: float
    quadrature_part: float
    tail_bound: float
    split_point: float

    def to_json(self) -> dict:
        return {
            "finite": self.finite,
            "value": self.value,
            "quadrature_part": self.quadrature_part,
            "tail_bound": self.tail_bound,
            "split_point": self.split_point,
        }


def decay_condition_check(
    alpha: float, beta: float, epsilon: float, c: float
) -> DecayCheck:
    """Evaluate the integral of s^(alpha+beta+epsilon) * Phi(s) ds/s over
    (0, inf) for the stretched-exponential profile
    Phi(s) = exp(-c * s^(beta/(beta-1))).

    Finite for every c > 0; the split integral is quadrature up to a
    point where the integrand is negligible, plus an exact incomplete-
    gamma tail.  c <= 0 (no decay) is rejected: the integral diverges.
    """
    from scipy import integrate, special

    if beta <= 1:
        raise ValueError("beta must exceed 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if c <= 0:
        raise ValueError("c must be positive; the integral diverges without decay")
    p = alpha + beta + epsilon
    if p <= 0:
        raise ValueError("alpha + beta + epsilon must be positive")
    kappa = beta / (beta - 1.0)
    split = (40.0 / c) ** (1.0 / kappa)

    def integrand(s: float) -> float:
        return s ** (p - 1.0) * math.exp(-c * s ** kappa)

    quad_value, _ = integrate.quad(integrand, 0.0, split, limit=200)
    a = p / kappa
    tail = (
        special.gamma(a)
        * special.gammaincc(a, c * split ** kappa)
        / (kappa * c ** a)
    )
    return DecayCheck(True, quad_value + tail, quad_value, float(tail), split)
