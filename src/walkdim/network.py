"""Exact resistor-network algebra and the renormalization factor.

A network is a sparse symmetric set of positive edge conductances with
designated boundary vertices.  Interior vertices are eliminated by
star-mesh steps (the Schur complement of the weighted graph Laplacian),
which preserves all boundary effective resistances exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import ConvergenceError, ReductionError
from .ifs import IfsSpec, ensure_valid
from .levelgraph import build_level_graph
from .logratio import LogRatio
from .rational import as_fraction, format_rational

Conductance = Union[Fraction, float]
Edge = tuple[int, int]


@dataclass
class ConductanceNetwork:
    """Vertices 0..n-1, positive conductances on undirected edges (i < j),
    and an ordered boundary index tuple."""

    vertex_count: int
    conductances: dict[Edge, Conductance]
    boundary: tuple[int, ...]

    def __post_init__(self):
        clean: dict[Edge, Conductance] = {}
        for (i, j), c in self.conductances.items():
            if i == j:
                raise ValueError("self-loop conductance not allowed")
            if not (0 <= i < self.vertex_count and 0 <= j < self.vertex_count):
                raise ValueError(f"edge ({i},{j}) out of range")
            if c < 0:
                raise ValueError(f"negative conductance on ({i},{j})")
            if c == 0:
                continue  # zero edges are dropped up front
            key = (i, j) if i < j else (j, i)
            clean[key] = clean.get(key, 0) + c
        self.conductances = clean
        self.boundary = tuple(self.boundary)
        if len(set(self.boundary)) != len(self.boundary):
            raise ValueError("boundary indices must be distinct")
        for b in self.boundary:
            if not (0 <= b < self.vertex_count):
                raise ValueError(f"boundary index {b} out of range")

    @property
    def interior(self) -> tuple[int, ...]:
        bset = set(self.boundary)
        return tuple(v for v in range(self.vertex_count) if v not in bset)

    def edge(self, i: int, j: int) -> Conductance:
        key = (i, j) if i < j else (j, i)
        return self.conductances.get(key, 0)

    def to_json(self) -> dict:
        def fmt(c: Conductance):
            return format_rational(c) if isinstance(c, (int, Fraction)) else float(c)

        return {
            "vertex_count": self.vertex_count,
            "boundary": list(self.boundary),
            "edges": [
                [i, j, fmt(c)] for (i, j), c in sorted(self.conductances.items())
            ],
        }


def unit_complete_network(k: int) -> ConductanceNetwork:
    """Complete graph on k vertices, all conductances 1, all boundary."""
    if k < 2:
        raise ValueError("need at least 2 vertices")
    edges = {(i, j): Fraction(1) for i in range(k) for j in range(i + 1, k)}
    return ConductanceNetwork(k, edges, tuple(range(k)))


def _adjacency(
    vertex_count: int, edges: dict[Edge, Conductance]
) -> list[dict[int, Conductance]]:
    """Symmetric neighbor maps; parallel edges add, zero edges are dropped."""
    adj: list[dict[int, Conductance]] = [dict() for _ in range(vertex_count)]
    for (i, j), c in edges.items():
        if c == 0:
            continue
        adj[i][j] = adj[i].get(j, 0) + c
        adj[j][i] = adj[j].get(i, 0) + c
    return adj


def _eliminate(
    adj: list[dict[int, Conductance]],
    vertices: Iterable[int],
    load: Optional[list[Conductance]] = None,
) -> list[tuple]:
    """Star-mesh elimination of `vertices` from `adj`, in place, least
    degree first (lowest index on ties); `adj` is left holding the Schur
    complement on the other vertices.  A load moves to the neighbors in
    proportion to their conductances.  Returns (vertex, star, total
    conductance, load) per step, in order, for back-substitution."""
    remaining = set(vertices)
    order: list[tuple] = []
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u]), u))
        remaining.discard(v)
        star = list(adj[v].items())
        d = sum(c for _, c in star)
        if d == 0:
            raise ReductionError(
                f"vertex {v} has no neighbors left; the Schur complement is singular"
            )
        lv = 0 if load is None else load[v]
        order.append((v, star, d, lv))
        for w, _ in star:
            del adj[w][v]
        adj[v] = {}
        for a_pos in range(len(star)):
            a, ca = star[a_pos]
            if load is not None:
                load[a] = load[a] + ca * lv / d
            for b_pos in range(a_pos + 1, len(star)):
                b, cb = star[b_pos]
                add = ca * cb / d
                adj[a][b] = adj[a].get(b, 0) + add
                adj[b][a] = adj[b].get(a, 0) + add
    return order


def _back_substitute(order: list[tuple], values: list, loaded: bool = True) -> list:
    """Fill in the vertices eliminated in `order`, last step first: each
    takes the conductance-weighted mean of its star, plus its load over
    the star's total conductance when `loaded`."""
    for v, star, d, lv in reversed(order):
        acc = lv if loaded else 0
        for w, c in star:
            acc = acc + c * values[w]
        values[v] = acc / d
    return values


def _boundary_trace(
    adj: list[dict[int, Conductance]], boundary: tuple[int, ...]
) -> ConductanceNetwork:
    """The network `adj` leaves on `boundary`, re-indexed to boundary order."""
    remap = {old: new for new, old in enumerate(boundary)}
    edges: dict[Edge, Conductance] = {}
    for old_i, new_i in remap.items():
        for old_j, c in adj[old_i].items():
            new_j = remap[old_j]
            if new_i < new_j:
                edges[(new_i, new_j)] = c
    return ConductanceNetwork(len(boundary), edges, tuple(range(len(boundary))))


def reduce_boundary(net: ConductanceNetwork) -> ConductanceNetwork:
    """Eliminate all interior vertices by star-mesh steps.

    Equivalent to the Schur complement of the weighted Laplacian onto
    the boundary block; boundary effective resistances are preserved
    exactly.  Interior vertices are eliminated in min-degree order to
    limit fill-in.  The result is re-indexed to boundary order.
    """
    adj = _adjacency(net.vertex_count, net.conductances)
    _eliminate(adj, net.interior)
    return _boundary_trace(adj, net.boundary)


def replicate(ifs: IfsSpec, cell_net: ConductanceNetwork) -> ConductanceNetwork:
    """One copy of cell_net per map, glued at identified level-1 points;
    parallel edges add.  Boundary of the result is V0."""
    ensure_valid(ifs)
    k = len(ifs.boundary)
    if cell_net.vertex_count != k:
        raise ValueError(
            f"cell network must live on the {k} boundary vertices, "
            f"got {cell_net.vertex_count}"
        )
    g1 = build_level_graph(ifs, 1)
    edges: dict[Edge, Conductance] = {}
    for cell in g1.cells:
        for (a, b), c in cell_net.conductances.items():
            i, j = cell[a], cell[b]
            key = (i, j) if i < j else (j, i)
            edges[key] = edges.get(key, 0) + c
    return ConductanceNetwork(g1.vertex_count, edges, g1.boundary_indices())


def _refine(
    ifs: IfsSpec, cell_net: ConductanceNetwork, cell_load: tuple[Conductance, ...]
) -> tuple[ConductanceNetwork, tuple[Conductance, ...], tuple[tuple, ...]]:
    """One refinement step of a cell problem: one copy of `cell_net` per
    map, each carrying `cell_load` on its corners, with the level-1
    interior eliminated once.

    Returns the trace on V0, the load left on V0, and the V0 -> V1
    harmonic interpolation matrix (one row of k corner weights per
    level-1 vertex), read by a load-free back-substitution."""
    net = replicate(ifs, cell_net)
    load: list[Conductance] = [0] * net.vertex_count
    for cell in build_level_graph(ifs, 1).cells:
        for v, x in zip(cell, cell_load):
            load[v] = load[v] + x
    adj = _adjacency(net.vertex_count, net.conductances)
    order = _eliminate(adj, net.interior, load)
    cols = []
    for b in net.boundary:
        col: list = [None] * net.vertex_count
        for a in net.boundary:
            col[a] = Fraction(a == b)
        cols.append(_back_substitute(order, col, loaded=False))
    matrix = tuple(zip(*cols))
    return _boundary_trace(adj, net.boundary), tuple(load[a] for a in net.boundary), matrix


@dataclass(frozen=True)
class RenormResult:
    energy_scale: Union[Fraction, float]  # the factor r^{-1} = 1/mu
    fixed_network: ConductanceNetwork
    exact: bool
    iterations: int

    def to_json(self) -> dict:
        scale = self.energy_scale
        return {
            "energy_scale": format_rational(scale) if self.exact else float(scale),
            "exact": self.exact,
            "iterations": self.iterations,
            "fixed_network": self.fixed_network.to_json(),
        }


def renorm_factor(
    ifs: IfsSpec, max_iter: int = 100, tol: float = 1e-12
) -> RenormResult:
    """Energy renormalization factor r^{-1}.

    Refining once multiplies the conductances of the boundary trace by a
    factor mu; energies of harmonic extensions are invariant when the
    level-m sum is scaled by (1/mu)^m, so r^{-1} = 1/mu.

    Exact route: if the uniform unit network on V0 is a fixed direction
    of reduce(replicate(.)) (true for every symmetric gasket shipped),
    mu is read off as an exact rational.  Otherwise a normalized float
    fixed-direction iteration runs until the direction stabilizes.
    """
    ensure_valid(ifs)
    k = len(ifs.boundary)
    c0 = unit_complete_network(k)
    reduced = reduce_boundary(replicate(ifs, c0))
    values = [reduced.edge(i, j) for i in range(k) for j in range(i + 1, k)]
    if all(isinstance(v, Fraction) for v in values) and len(set(values)) == 1 and values[0] > 0:
        mu = values[0]
        return RenormResult(1 / mu, c0, True, 0)

    # float fixed-direction iteration
    edge_keys = [(i, j) for i in range(k) for j in range(i + 1, k)]
    cur = {e: 1.0 for e in edge_keys}
    mu_prev: Optional[float] = None
    for it in range(1, max_iter + 1):
        net = ConductanceNetwork(k, dict(cur), tuple(range(k)))
        nxt = reduce_boundary(replicate(ifs, net))
        total_old = sum(cur.values())
        nxt_vals = {e: float(nxt.edge(*e)) for e in edge_keys}
        total_new = sum(nxt_vals.values())
        if total_new <= 0:
            raise ReductionError("reduction produced an empty boundary network")
        mu = total_new / total_old
        norm = {e: v * total_old / total_new for e, v in nxt_vals.items()}
        drift = max(abs(norm[e] - cur[e]) for e in edge_keys)
        cur = norm
        if mu_prev is not None and drift <= tol and abs(mu - mu_prev) <= tol:
            fixed = ConductanceNetwork(k, dict(cur), tuple(range(k)))
            return RenormResult(1.0 / mu, fixed, False, it)
        mu_prev = mu
    raise ConvergenceError(
        f"renormalization direction did not stabilize in {max_iter} iterations"
    )


@dataclass(frozen=True)
class DimensionReport:
    name: str
    alpha: LogRatio
    energy_scale: Union[Fraction, float]
    exact: bool
    gamma: Optional[LogRatio]
    beta: Optional[LogRatio]
    gamma_float: float
    beta_float: float

    @property
    def alpha_float(self) -> float:
        return self.alpha.value

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "alpha": self.alpha.to_json(),
            "energy_scale": (
                format_rational(self.energy_scale)
                if self.exact
                else float(self.energy_scale)
            ),
            "exact": self.exact,
            "floats": {
                "alpha": self.alpha_float,
                "gamma": self.gamma_float,
                "beta": self.beta_float,
            },
        }
        if self.gamma is not None:
            out["gamma"] = self.gamma.to_json()
        if self.beta is not None:
            out["beta"] = self.beta.to_json()
        return out


def dimension_report_from_constants(
    name: str, n_maps: int, ratio, energy_scale, exact: bool = True
) -> DimensionReport:
    """Build the (alpha, gamma, beta) report from declared constants
    (map count, contraction ratio, renormalization factor)."""
    rho = as_fraction(ratio)
    if not (0 < rho < 1):
        raise ValueError("ratio must lie in (0,1)")
    if n_maps < 2:
        raise ValueError("need at least 2 maps")
    base = 1 / rho
    alpha = LogRatio(Fraction(n_maps), base)
    if exact:
        lam = as_fraction(energy_scale)
        gamma = LogRatio(lam, base)
        beta = LogRatio(n_maps * lam, base)
        return DimensionReport(
            name, alpha, lam, True, gamma, beta, gamma.value, beta.value
        )
    lam_f = float(energy_scale)
    gamma_f = math.log(lam_f) / math.log(float(base))
    return DimensionReport(
        name, alpha, lam_f, False, None, None, gamma_f, alpha.value + gamma_f
    )


def walk_dimension(ifs: IfsSpec, max_iter: int = 100, tol: float = 1e-12) -> DimensionReport:
    """alpha, gamma = log(r^{-1})/log(1/rho), beta = alpha + gamma."""
    renorm = renorm_factor(ifs, max_iter=max_iter, tol=tol)
    return dimension_report_from_constants(
        ifs.name, len(ifs.maps), ifs.ratio, renorm.energy_scale, renorm.exact
    )
