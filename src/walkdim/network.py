"""Exact resistor-network algebra and the renormalization factor.

A network is a sparse symmetric set of positive edge conductances with
designated boundary vertices.  Interior vertices are eliminated by
star-mesh steps (the Schur complement of the weighted graph Laplacian),
which preserves all boundary effective resistances exactly.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import ConvergenceError, ReductionError
from .ifs import IfsSpec, ensure_valid
from .levelgraph import build_level_graph
from .logratio import LogRatio
from .rational import as_fraction, json_number

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

    def to_json(self) -> dict:
        return {
            "vertex_count": self.vertex_count,
            "boundary": list(self.boundary),
            "edges": [
                [i, j, json_number(c)] for (i, j), c in sorted(self.conductances.items())
            ],
        }


def unit_complete_network(k: int) -> ConductanceNetwork:
    """Complete graph on k vertices, all conductances 1, all boundary."""
    if k < 2:
        raise ValueError("need at least 2 vertices")
    edges = {(i, j): Fraction(1) for i in range(k) for j in range(i + 1, k)}
    return ConductanceNetwork(k, edges, tuple(range(k)))


def _matrix(
    vertex_count: int, edges: dict[Edge, Conductance], load: dict[int, Conductance]
) -> list[dict[int, Conductance]]:
    """Rows of the symmetric matrix [[L, -l], [-l^T, 0]]: the Laplacian L
    of `edges` (parallel edges add), diagonal included, and a ground
    index `vertex_count` whose column is minus the load l; no zeros."""
    rows: list[dict[int, Conductance]] = [dict() for _ in range(vertex_count + 1)]
    for (i, j), c in edges.items():
        if c == 0:
            continue
        for a, b in ((i, j), (j, i)):
            rows[a][b] = rows[a].get(b, 0) - c
            rows[a][a] = rows[a].get(a, 0) + c
    for v, x in load.items():
        if x != 0:
            rows[v][vertex_count] = rows[vertex_count][v] = -x
    return rows


def _eliminate(rows: list[dict[int, Conductance]], vertices: Iterable[int]) -> list[tuple]:
    """Schur steps on the symmetric matrix `rows`, in place, pivoting on
    the diagonal of each of `vertices`, shortest row first (lowest index
    on ties); `rows` is left holding the Schur complement.  On a
    Laplacian this is the star-mesh step, and the ground column moves
    each load to the neighbors in proportion to their conductances.
    Returns (vertex, off-diagonal row, pivot) per step, in order."""
    remaining = set(vertices)
    # (row length, vertex) entries; one whose vertex is gone or whose
    # length is out of date is skipped, so the first live entry is the
    # minimum over `remaining`
    heap = [(len(rows[u]), u) for u in remaining]
    heapq.heapify(heap)
    order: list[tuple] = []
    while remaining:
        length, v = heapq.heappop(heap)
        if v not in remaining or length != len(rows[v]):
            continue
        remaining.discard(v)
        row, rows[v] = rows[v], {}
        pivot = row.pop(v, 0)
        if pivot == 0:
            raise ReductionError(
                f"vertex {v} has no neighbors left; the Schur complement is singular"
            )
        star = list(row.items())
        order.append((v, star, pivot))
        for w, _ in star:
            del rows[w][v]
        for a_pos, (a, x) in enumerate(star):
            row_a = rows[a]
            for b, y in star[a_pos:]:
                row_a[b] = row_a.get(b, 0) - x * y / pivot
                if b != a:
                    rows[b][a] = row_a[b]
            if a in remaining:
                heapq.heappush(heap, (len(row_a), a))
    return order


def _back_substitute(order: list[tuple], values: list) -> list:
    """Fill in the vertices eliminated in `order`, last step first, from
    the values already known; the ground value scales the load (1 to
    solve with it, 0 to interpolate without)."""
    for v, star, pivot in reversed(order):
        values[v] = -sum(x * values[w] for w, x in star) / pivot
    return values


def _refine(
    ifs: IfsSpec, cell: list[dict[int, Conductance]], interpolate: bool = False
) -> tuple[list[dict[int, Conductance]], Optional[tuple[tuple, ...]]]:
    """One refinement step of a cell problem.  `cell` is a matrix as
    `_matrix` builds it on V0 (k vertices, ground index k): one copy is
    added per map at the map's level-1 points (Laplacians and loads add,
    as in finite-element assembly) and the level-1 interior is
    eliminated once.

    Returns the Schur complement left on V0 and the ground, re-indexed
    to boundary order (its ground row's own entry, -l^T L^-1 l, is read
    by nothing), and, with `interpolate`, the V0 -> V1 harmonic
    interpolation matrix (one row of k corner weights per level-1
    vertex), read by k back-substitutions with ground value 0; None
    without it."""
    g1 = build_level_graph(ifs, 1)
    n = g1.vertex_count
    rows: list[dict[int, Conductance]] = [dict() for _ in range(n + 1)]
    for corners in g1.cells:
        place = (*corners, n)
        for a, row in zip(place, cell):
            row_a = rows[a]
            for b, x in row.items():
                row_a[place[b]] = row_a.get(place[b], 0) + x
    boundary = g1.boundary_indices()
    order = _eliminate(rows, set(range(n)) - set(boundary))
    pos = {old: new for new, old in enumerate((*boundary, n))}
    nxt = [{pos[b]: x for b, x in rows[a].items() if b in pos} for a in pos]
    if not interpolate:
        return nxt, None
    cols = []
    for b in boundary:
        col: list = [None] * n + [0]
        for a in boundary:
            col[a] = Fraction(a == b)
        cols.append(_back_substitute(order, col)[:n])
    return nxt, tuple(zip(*cols))


@dataclass(frozen=True)
class RenormResult:
    energy_scale: Union[Fraction, float]  # the factor r^{-1} = 1/mu
    fixed_network: ConductanceNetwork
    exact: bool
    iterations: int

    def to_json(self) -> dict:
        return {
            "energy_scale": json_number(self.energy_scale),
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
    of one load-free refinement step (true for every symmetric gasket
    shipped), mu is read off as an exact rational.  Otherwise a
    normalized float fixed-direction iteration of that step runs until
    the direction stabilizes.
    """
    ensure_valid(ifs)
    k = len(ifs.boundary)
    c0 = unit_complete_network(k)
    edge_keys = list(c0.conductances)
    reduced = _refine(ifs, _matrix(k, c0.conductances, {}))[0]
    values = [-reduced[i].get(j, 0) for i, j in edge_keys]
    if all(isinstance(v, Fraction) for v in values) and len(set(values)) == 1 and values[0] > 0:
        mu = values[0]
        return RenormResult(1 / mu, c0, True, 0)

    # float fixed-direction iteration
    cur = {e: 1.0 for e in edge_keys}
    mu_prev: Optional[float] = None
    for it in range(1, max_iter + 1):
        nxt = _refine(ifs, _matrix(k, cur, {}))[0]
        total_old = sum(cur.values())
        nxt_vals = {(i, j): float(-nxt[i].get(j, 0)) for i, j in edge_keys}
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
        f"renormalization direction did not stabilize in {max_iter} "
        f"iterations at tol {tol:g}; raise max_iter (--max-iter) or "
        "loosen tol (--tol)"
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
            "energy_scale": json_number(self.energy_scale),
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
    name: str, n_maps: int, ratio, energy_scale
) -> DimensionReport:
    """Build the (alpha, gamma, beta) report from declared constants
    (map count, contraction ratio, renormalization factor), each an int,
    Fraction or "p/q" string.  A float energy scale makes the report
    inexact: gamma and beta are then floats only."""
    n = as_fraction(n_maps)
    if n.denominator != 1:
        raise ValueError("map count must be an integer")
    if n < 2:
        raise ValueError("need at least 2 maps")
    rho = as_fraction(ratio)
    if not (0 < rho < 1):
        raise ValueError("ratio must lie in (0,1)")
    base = 1 / rho
    alpha = LogRatio(n, base)
    if not isinstance(energy_scale, float):
        lam = as_fraction(energy_scale)
        gamma = LogRatio(lam, base)
        beta = LogRatio(n * lam, base)
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
        ifs.name, len(ifs.maps), ifs.ratio, renorm.energy_scale
    )
