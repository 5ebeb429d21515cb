"""Exact resistor-network algebra and the renormalization factor.

A network is a sparse symmetric set of positive edge conductances with
designated boundary vertices.  Interior vertices are eliminated by
star-mesh steps (the Schur complement of the weighted graph Laplacian),
which preserves all boundary effective resistances exactly.  The one
Schur kernel keeps exact entries (ints and Fractions) as reduced
(numerator, denominator) int pairs; float entries run through the same
kernel as (float, 1.0) pairs and round as plain float arithmetic does.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional, Union

from .errors import ConvergenceError, ReductionError
from .ifs import IfsSpec
from .levelgraph import LevelGraph, build_level_graph
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


def _reduce(n: int, d: int) -> tuple[int, int]:
    g = math.gcd(n, d)
    return (n // g, d // g) if d > 0 else (-n // g, -d // g)


def _arithmetic(numbers: Iterable) -> tuple[Callable, Callable, Callable]:
    """(pair, reduce, value) for one kernel call on `numbers`: exact, on
    reduced int pairs with a positive denominator, unless some number is
    a float.  Then every pair is (float, 1.0), and as multiplying by 1.0
    is exact, each step rounds as the plain float operation would."""
    if any(isinstance(x, float) for x in numbers):
        return lambda x: (float(x), 1.0), lambda n, d: (n / d, 1.0), lambda n, d: n / d
    return lambda x: (x.numerator, x.denominator), _reduce, Fraction


def _eliminate(rows: list[dict[int, Conductance]], vertices: Iterable[int]) -> list[tuple]:
    """Schur steps on the symmetric matrix `rows`, in place, pivoting on
    the diagonal of each of `vertices`, shortest row first (lowest index
    on ties); `rows` is left holding the Schur complement.  On a
    Laplacian this is the star-mesh step, and the ground column moves
    each load to the neighbors in proportion to their conductances.

    The entries become (numerator, denominator) pairs on entry
    (`_arithmetic`), each update row - (x*y)/pivot reduces its quotient
    and its difference once, and the rows left turn back into numbers.
    Returns (vertex, off-diagonal row, pivot) per step, in order, as
    pairs."""
    pair, reduce, value = _arithmetic(x for row in rows for x in row.values())
    for row in rows:
        for b, x in row.items():
            row[b] = pair(x)
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
        pn, pd = row.pop(v, (0, 1))
        if pn == 0:
            raise ReductionError(
                f"vertex {v} has no neighbors left; the Schur complement is singular"
            )
        star = list(row.items())
        order.append((v, star, (pn, pd)))
        for w, _ in star:
            del rows[w][v]
        for a_pos, (a, (xn, xd)) in enumerate(star):
            row_a = rows[a]
            for b, (yn, yd) in star[a_pos:]:
                tn, td = reduce(xn * yn * pd, xd * yd * pn)
                rn, rd = row_a.get(b, (0, 1))
                row_a[b] = reduce(rn * td - tn * rd, rd * td)
                if b != a:
                    rows[b][a] = row_a[b]
            if a in remaining:
                heapq.heappush(heap, (len(row_a), a))
    for row in rows:
        for b, (n, d) in row.items():
            row[b] = value(n, d)
    return order


def _back_substitute(order: list[tuple], values: list) -> list:
    """Fill in the vertices eliminated in `order`, last step first, from
    the values already known; the ground value scales the load (1 to
    solve with it, 0 to interpolate without).  The sum runs left to
    right in `_eliminate`'s pair arithmetic, exact unless the steps or a
    value are floats, and each value filled in turns back into a number."""
    if not order:
        return values
    pair, reduce, value = _arithmetic([*order[0][2], *values])
    known = [None if x is None else pair(x) for x in values]
    for v, star, (pn, pd) in reversed(order):
        sn, sd = 0, 1
        for w, (xn, xd) in star:
            un, ud = known[w]
            sn, sd = reduce(sn * xd * ud + xn * un * sd, sd * xd * ud)
        known[v] = reduce(-sn * pd, sd * pn)
        values[v] = value(*known[v])
    return values


def _refine(
    g1: LevelGraph, cell: list[dict[int, Conductance]], interpolate: bool = False
) -> tuple[list[dict[int, Conductance]], Optional[tuple[tuple, ...]]]:
    """One refinement step of a cell problem on the level-1 graph `g1`.
    `cell` is a matrix as `_matrix` builds it on V0 (k vertices, ground
    index k): one copy is added per cell of `g1` at its corners
    (Laplacians and loads add, as in finite-element assembly) and the
    level-1 interior is eliminated once.

    Returns the Schur complement left on V0 and the ground, re-indexed
    to boundary order (its ground row's own entry, -l^T L^-1 l, is read
    by nothing), and, with `interpolate`, the V0 -> V1 harmonic
    interpolation matrix (one row of k corner weights per level-1
    vertex), read by k back-substitutions with ground value 0; None
    without it."""
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


# Newton's step cap, residual tolerance and forward-difference step
_NEWTON_STEPS = 30
_NEWTON_TOL = 1e-12
_NEWTON_H = 1e-7


def renorm_factor(ifs: IfsSpec) -> RenormResult:
    """Energy renormalization factor r^{-1} = 1/mu: refining once
    multiplies the conductances of the boundary trace by mu, so harmonic
    energies are invariant when the level-m sum is scaled by (1/mu)^m.

    The fixed direction's E = k(k-1)/2 conductances sum to E.  If the unit
    network, refined exactly, has residual zero (true for every symmetric
    gasket shipped), mu is an exact rational and `iterations` is 0;
    otherwise Newton's method runs in floats on E - 1 free conductances,
    each step solving its normal equations with the Schur kernel, and
    `iterations` counts its steps.
    """
    g1 = build_level_graph(ifs, 1)
    k = len(ifs.boundary)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]

    def residual(c: list) -> tuple[list, Conductance]:
        nxt = _refine(g1, _matrix(k, dict(zip(edges, c)), {}))[0]
        image = [-nxt[i].get(j, 0) for i, j in edges]
        if sum(image) <= 0:
            raise ReductionError("reduction produced an empty boundary network")
        mu = sum(image) / len(edges)
        return [y / mu - a for a, y in zip(c, image)], mu

    c: list = [Fraction(1)] * len(edges)
    res, mu = residual(c)
    steps = 0
    while max(map(abs, res)) > (_NEWTON_TOL if steps else 0):
        if steps == _NEWTON_STEPS:
            raise ConvergenceError(
                f"renormalization found no fixed direction in {steps} Newton steps; "
                f"the residual reached {max(map(abs, res)):.3g}"
            )
        c, res, h = [float(v) for v in c], [float(r) for r in res], _NEWTON_H
        # J by forward differences, free conductance i against the last; J's
        # columns eliminated from the Gram matrix of [J | res] give J^T J dx = -J^T res
        moved = ([*c[:i], v + h, *c[i + 1:-1], c[-1] - h] for i, v in enumerate(c[:-1]))
        cols = [[(y - r) / h for y, r in zip(residual(m)[0], res)] for m in moved] + [res]
        gram = [{j: sum(p * q for p, q in zip(a, b)) for j, b in enumerate(cols)} for a in cols]
        order = _eliminate(gram, range(len(c) - 1))
        dx = _back_substitute(order, [None] * (len(c) - 1) + [1])[:-1]
        c = [*(v + d for v, d in zip(c, dx)), c[-1] - sum(dx)]
        res, mu = residual(c)
        steps += 1
    fixed = ConductanceNetwork(k, dict(zip(edges, c)), tuple(range(k)))
    return RenormResult(1 / mu, fixed, steps == 0, steps)


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
    inexact: gamma and beta are then floats only.  A value out of range
    raises ValueError naming it and its option (--constants)."""
    n = as_fraction(n_maps)
    if n.denominator != 1 or n < 2:
        raise ValueError(f"map count must be an integer >= 2 (--constants); got {n}")
    rho = as_fraction(ratio)
    if not 0 < rho < 1:
        raise ValueError(f"contraction ratio must lie in (0,1) (--constants); got {rho}")
    lam = energy_scale if isinstance(energy_scale, float) else as_fraction(energy_scale)
    if not lam > 0:
        raise ValueError(f"energy scale must be positive (--constants); got {lam}")
    base = 1 / rho
    alpha = LogRatio(n, base)
    if not isinstance(lam, float):
        gamma = LogRatio(lam, base)
        beta = LogRatio(n * lam, base)
        return DimensionReport(
            name, alpha, lam, True, gamma, beta, gamma.value, beta.value
        )
    gamma_f = math.log(lam) / math.log(float(base))
    return DimensionReport(
        name, alpha, lam, False, None, None, gamma_f, alpha.value + gamma_f
    )


def walk_dimension(ifs: IfsSpec) -> DimensionReport:
    """alpha, gamma = log(r^{-1})/log(1/rho), beta = alpha + gamma."""
    renorm = renorm_factor(ifs)
    return dimension_report_from_constants(
        ifs.name, len(ifs.maps), ifs.ratio, renorm.energy_scale
    )
