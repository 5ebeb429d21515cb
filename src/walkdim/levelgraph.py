"""Level-m vertex/edge approximations of a gasket attractor.

Vertices are exact rational points, held as integer numerator pairs
over the level's one denominator q^m*d (ifs.LatticePoints); identity is
exact equality, so cell gluing never false-merges.  The edge relation
joins images of distinct boundary vertices under the same length-m
word.  Vertex order is canonical (lexicographic, which sorted numerator
pairs keep), making graph builds reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from ._geometry import Point
from .errors import BudgetExceeded, WalkdimError
from .ifs import IfsSpec, LatticePoints, _lattice, ensure_valid
from .rational import format_rational

# Level graphs enumerate every length-m cell; keep them desk-sized.
MAX_CELLS = 10 ** 6


@dataclass(frozen=True)
class LevelGraph(LatticePoints):
    """The level-m graph; its vertices are the lattice points, in order."""

    ifs: IfsSpec
    level: int
    edges: tuple[tuple[int, int], ...]
    cells: tuple[tuple[int, ...], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.numerators)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> tuple[Point, ...]:
        return self.points

    @functools.cached_property
    def _index(self) -> dict[tuple[int, int], int]:
        return {a: i for i, a in enumerate(self.numerators)}

    def vertex_index(self, p: Point) -> int:
        # p*denominator is an integer pair exactly when p lies on the
        # lattice; an off-lattice Fraction equals no int key
        try:
            return self._index[(p[0] * self.denominator, p[1] * self.denominator)]
        except KeyError:
            raise WalkdimError(
                f"({format_rational(p[0])}, {format_rational(p[1])}) "
                f"is not a vertex of the level-{self.level} graph"
            ) from None

    def boundary_indices(self) -> tuple[int, ...]:
        return tuple(self.vertex_index(p) for p in self.ifs.boundary)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in self.numerators]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj


def _check_level(ifs: IfsSpec, m: int) -> None:
    """Refuse a negative level, or one with more than MAX_CELLS cells."""
    if m < 0:
        raise ValueError(f"level must be >= 0 (-m); got {m}")
    cells = len(ifs.maps) ** m
    if cells > MAX_CELLS:
        remedy = "lower the level (-m) (fixed limit levelgraph.MAX_CELLS)"
        raise BudgetExceeded(cells, MAX_CELLS, "cells", remedy)


def level_vertex_count(ifs: IfsSpec, m: int) -> int:
    """The vertex count of the level-m graph, without building it.

    Cells meet only at images of V0 (validate), so level m glues N
    copies of level m-1 at the same N*k - |V_1| corners that level 1
    glues: V_0 = k and V_m = N*V_(m-1) - (N*k - |V_1|)."""
    ensure_valid(ifs)
    _check_level(ifs, m)
    n, count = len(ifs.maps), len(ifs.boundary)
    glued = n * count - len({s.apply(b) for s in ifs.maps for b in ifs.boundary})
    for _ in range(m):
        count = n * count - glued
    return count


def build_level_graph(ifs: IfsSpec, m: int) -> LevelGraph:
    """Enumerate all length-m cells, glue identical rational points.

    Level 0 is the complete graph on the boundary set.
    """
    ensure_valid(ifs)
    _check_level(ifs, m)

    p, q, d, T, B = _lattice(ifs)
    # the corner numerators of every cell, cell after cell, one list per axis
    xs, ys = ([c[axis] for c in B] for axis in (0, 1))
    for j in range(m):
        qj = q ** (j + 1)
        xs = [p * a + qj * tx for tx, _ in T for a in xs]
        ys = [p * a + qj * ty for _, ty in T for a in ys]

    corners = list(zip(xs, ys))
    ordered = tuple(sorted(set(corners)))
    index = {pt: i for i, pt in enumerate(ordered)}
    cells = tuple(zip(*[iter([index[pt] for pt in corners])] * len(B)))
    # edge (a, b), a < b, keyed by a*n + b, which sorts as the pair does
    n = len(ordered)
    keys = {a * n + b if a < b else b * n + a for c in cells for a, b in combinations(c, 2)}
    edges = tuple(divmod(key, n) for key in sorted(keys))
    return LevelGraph(ordered, q ** m * d, ifs, m, edges, cells)


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


def _cell_counts(g: LevelGraph) -> tuple[list[int], int]:
    """(cells containing each vertex, N^m * k): the numerators and the
    common denominator of the vertex measure weights."""
    counts = [0] * g.vertex_count
    for cell in g.cells:
        for i in cell:
            counts[i] += 1
    return counts, len(g.ifs.maps) ** g.level * len(g.ifs.boundary)


def vertex_measure_weights(g: LevelGraph) -> list[Fraction]:
    """Discretized self-similar measure on V_m: weight of v is
    (cells containing v) / (N^m * k).  Sums to exactly 1."""
    counts, denom = _cell_counts(g)
    return [Fraction(c, denom) for c in counts]


def _float_measure_weights(g: LevelGraph) -> list[float]:
    """vertex_measure_weights as floats, each one int true division,
    which rounds correctly: the same floats as float(Fraction)."""
    counts, denom = _cell_counts(g)
    return [c / denom for c in counts]
