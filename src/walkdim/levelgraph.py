"""Level-m vertex/edge approximations of a gasket attractor.

Vertices are exact rational points (identity = exact equality, so cell
gluing never false-merges); the edge relation joins images of distinct
boundary vertices under the same length-m word.  Vertex order is
canonical (lexicographic), making graph builds reproducible.  Gluing
and sorting run on integer numerators over the level's denominator
q^m*d (ifs._lattice), which keep that order; each vertex becomes a
Fraction once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ._geometry import Point
from .errors import BudgetExceeded, WalkdimError
from .ifs import IfsSpec, _lattice, ensure_valid
from .rational import format_rational

DEFAULT_CELL_BUDGET = 10 ** 6


def cell_budget() -> int:
    raw = os.environ.get("WALKDIM_BUDGET")
    if raw is None:
        return DEFAULT_CELL_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise WalkdimError(f"WALKDIM_BUDGET must be an integer, got {raw!r}") from exc
    if value < 1:
        raise WalkdimError("WALKDIM_BUDGET must be positive")
    return value


@dataclass(frozen=True)
class LevelGraph:
    ifs: IfsSpec
    level: int
    vertices: tuple[Point, ...]
    edges: tuple[tuple[int, int], ...]
    cells: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {v: i for i, v in enumerate(self.vertices)}
        )

    def vertex_index(self, p: Point) -> int:
        try:
            return self._index[p]
        except KeyError:
            raise WalkdimError(
                f"({format_rational(p[0])}, {format_rational(p[1])}) "
                f"is not a vertex of the level-{self.level} graph"
            ) from None

    def boundary_indices(self) -> tuple[int, ...]:
        return tuple(self.vertex_index(p) for p in self.ifs.boundary)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.vertices]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj


def _check_level(ifs: IfsSpec, m: int) -> None:
    """Refuse a negative level, or one with more cells than the budget."""
    if m < 0:
        raise ValueError("level must be >= 0")
    cells, budget = len(ifs.maps) ** m, cell_budget()
    if cells > budget:
        raise BudgetExceeded(cells, budget, "cells", "lower the level or raise WALKDIM_BUDGET")


def build_level_graph(ifs: IfsSpec, m: int) -> LevelGraph:
    """Enumerate all length-m cells, glue identical rational points.

    Level 0 is the complete graph on the boundary set.
    """
    ensure_valid(ifs)
    _check_level(ifs, m)

    p, q, d, T, B = _lattice(ifs)
    cells_pts = [B]
    for j in range(m):
        qj = q ** (j + 1)
        cells_pts = [
            tuple((p * ax + qj * tx, p * ay + qj * ty) for ax, ay in cell)
            for tx, ty in T
            for cell in cells_pts
        ]

    ordered = sorted({pt for cell in cells_pts for pt in cell})
    index = {pt: i for i, pt in enumerate(ordered)}
    den = q ** m * d
    vertices = tuple((Fraction(ax, den), Fraction(ay, den)) for ax, ay in ordered)

    cells = tuple(tuple(index[pt] for pt in cell) for cell in cells_pts)
    edges = tuple(sorted({tuple(sorted(e)) for c in cells for e in combinations(c, 2)}))
    return LevelGraph(ifs, m, vertices, edges, cells)


def components_after_removal(g: LevelGraph, removed: list[Point]) -> int:
    """Connected components of the graph with the given vertices deleted."""
    removed_idx = {g.vertex_index(p) for p in removed}
    adj = g.adjacency()
    seen = set(removed_idx)
    components = 0
    for start in range(g.vertex_count):
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return components


def vertex_measure_weights(g: LevelGraph) -> list[Fraction]:
    """Discretized self-similar measure on V_m: weight of v is
    (cells containing v) / (N^m * k).  Sums to exactly 1."""
    counts = [0] * g.vertex_count
    for cell in g.cells:
        for i in cell:
            counts[i] += 1
    denom = len(g.ifs.maps) ** g.level * len(g.ifs.boundary)
    return [Fraction(c, denom) for c in counts]
