"""Independent reference implementations for cross-checking.

Everything here deliberately uses a different algorithm from the
package: dense Gaussian elimination and matrix-tree determinants instead
of star-mesh reduction, O(n^2) double loops instead of tree-accelerated
pair scans, float linear solves instead of exact back-substitution,
Fraction similitudes composed word by word instead of integer lattice
numerators.  Slow and obvious on purpose.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from walkdim.errors import ReductionError


def sample_measure_wordwise(ifs, depth: int, count: int, seed: int = 42):
    """The points F_{w1} o ... o F_{w_depth}(x0) of sample_measure, one
    Similitude.apply per digit, from the same digit stream."""
    rng = random.Random(seed)
    n = len(ifs.maps)
    pts = []
    for _ in range(count):
        word = [rng.randrange(n) for _ in range(depth)]
        x = ifs.boundary[0]
        for digit in reversed(word):
            x = ifs.maps[digit].apply(x)
        pts.append(x)
    return tuple(pts)


def level_graph_wordwise(ifs, m: int):
    """(vertices, edges, cells) of the level-m graph: compose the
    similitude F_w of every word (cell w1...wm has index w1...wm in
    base N), apply it to the boundary, glue equal Fraction points."""
    words = [None]  # None is the empty word, the identity
    for _ in range(m):
        words = [f if w is None else f.after(w) for f in ifs.maps for w in words]
    cells_pts = [
        tuple(ifs.boundary) if w is None else tuple(w.apply(b) for b in ifs.boundary)
        for w in words
    ]
    distinct = {p for cell in cells_pts for p in cell}
    # exact lexicographic order, via integer keys over one common denominator
    den = math.lcm(*(c.denominator for p in distinct for c in p))
    vertices = tuple(
        sorted(distinct, key=lambda p: tuple(c.numerator * (den // c.denominator) for c in p))
    )
    index = {p: i for i, p in enumerate(vertices)}
    cells = tuple(tuple(index[p] for p in cell) for cell in cells_pts)
    edges = tuple(sorted({(min(a, b), max(a, b)) for c in cells for a in c for b in c if a != b}))
    return vertices, edges, cells


def dense_laplacian(n: int, edges: dict[tuple[int, int], Fraction]):
    lap = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in edges.items():
        lap[i][i] += c
        lap[j][j] += c
        lap[i][j] -= c
        lap[j][i] -= c
    return lap


def schur_reduce_dense(
    n: int, edges: dict[tuple[int, int], Fraction], boundary: tuple[int, ...]
) -> dict[tuple[int, int], Fraction]:
    """Eliminate interior rows of the Laplacian by dense exact Gaussian
    elimination; read conductances off the resulting boundary block.

    Returns edges keyed by positions in `boundary`.
    """
    lap = dense_laplacian(n, edges)
    interior = [v for v in range(n) if v not in boundary]
    order = list(interior) + list(boundary)
    a = [[lap[r][c] for c in order] for r in order]
    k = len(interior)
    for p in range(k):
        piv = a[p][p]
        assert piv != 0, "interior vertex with no connection"
        for r in range(p + 1, len(order)):
            if a[r][p] == 0:
                continue
            f = a[r][p] / piv
            for c in range(p, len(order)):
                a[r][c] -= f * a[p][c]
    out: dict[tuple[int, int], Fraction] = {}
    for bi in range(len(boundary)):
        for bj in range(bi + 1, len(boundary)):
            c = -a[k + bi][k + bj]
            if c != 0:
                out[(bi, bj)] = c
    return out


def solve_dense(
    lap: list[list[Fraction]],
    rhs: list[Fraction],
    fixed: dict[int, Fraction],
) -> list[Fraction]:
    """Exact dense solve of L u = rhs with Dirichlet values `fixed`."""
    n = len(lap)
    free = [v for v in range(n) if v not in fixed]
    idx = {v: i for i, v in enumerate(free)}
    a = [[lap[r][c] for c in free] for r in free]
    b = []
    for r in free:
        acc = rhs[r]
        for v, val in fixed.items():
            acc -= lap[r][v] * val
        b.append(acc)
    m = len(free)
    for p in range(m):
        # partial pivot (exact arithmetic still needs a nonzero pivot)
        piv_row = next(r for r in range(p, m) if a[r][p] != 0)
        if piv_row != p:
            a[p], a[piv_row] = a[piv_row], a[p]
            b[p], b[piv_row] = b[piv_row], b[p]
        for r in range(p + 1, m):
            if a[r][p] == 0:
                continue
            f = a[r][p] / a[p][p]
            for c in range(p, m):
                a[r][c] -= f * a[p][c]
            b[r] -= f * b[p]
    x = [Fraction(0)] * m
    for p in range(m - 1, -1, -1):
        acc = b[p]
        for c in range(p + 1, m):
            acc -= a[p][c] * x[c]
        x[p] = acc / a[p][p]
    out = [Fraction(0)] * n
    for v, val in fixed.items():
        out[v] = val
    for v in free:
        out[v] = x[idx[v]]
    return out


def effective_resistance_dense(
    n: int, edges: dict[tuple[int, int], Fraction], a: int, b: int
) -> Fraction:
    """Voltage at `a` when unit current enters at `a`, exits at `b`."""
    lap = dense_laplacian(n, edges)
    rhs = [Fraction(0)] * n
    rhs[a] = Fraction(1)
    u = solve_dense(lap, rhs, {b: Fraction(0)})
    return u[a]


def _det_bareiss(m: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def effective_resistance(net, a: int, b: int) -> Fraction:
    """Exact R_eff between a and b of a ConductanceNetwork via the
    weighted matrix-tree theorem: R = (spanning 2-forests separating
    a,b) / (spanning trees), both as Bareiss determinants of reduced
    integer Laplacians.  No elimination and no linear solve, so it
    checks both reduce_boundary and effective_resistance_dense.
    """
    if a == b:
        raise ValueError("need two distinct vertices")
    adj: dict[int, set[int]] = {v: set() for v in range(net.vertex_count)}
    for i, j in net.conductances:
        adj[i].add(j)
        adj[j].add(i)
    # restrict to the connected component containing a
    comp = {a}
    stack = [a]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in comp:
                comp.add(w)
                stack.append(w)
    if b not in comp:
        raise ReductionError(f"vertices {a} and {b} are not connected")
    nodes = sorted(comp)
    pos = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    lap = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in net.conductances.items():
        if i in comp and j in comp:
            if isinstance(c, float):
                raise TypeError("effective_resistance requires exact conductances")
            pi, pj = pos[i], pos[j]
            lap[pi][pi] += c
            lap[pj][pj] += c
            lap[pi][pj] -= c
            lap[pj][pi] -= c
    scale = math.lcm(*(x.denominator for row in lap for x in row))
    ints = [[int(x * scale) for x in row] for row in lap]
    ia, ib = pos[a], pos[b]
    keep_t = [i for i in range(n) if i != ib]
    tree_det = _det_bareiss([[ints[r][c] for c in keep_t] for r in keep_t])
    if tree_det == 0:
        raise ReductionError("network component is degenerate (no spanning tree)")
    keep_f = [i for i in range(n) if i not in (ia, ib)]
    forest_det = _det_bareiss([[ints[r][c] for c in keep_f] for r in keep_f])
    # determinant scaling: tree minor has n-1 rows, forest minor n-2
    return Fraction(forest_det * scale, tree_det)


def exit_time_float(
    n: int, edges: dict[tuple[int, int], Fraction], absorbing: set[int], start: int
) -> float:
    """Expected steps to hit `absorbing` from `start`, dense float solve
    of (L E)(v) = deg(v) on free vertices."""
    lap = np.zeros((n, n))
    deg = np.zeros(n)
    for (i, j), c in edges.items():
        w = float(c)
        lap[i, i] += w
        lap[j, j] += w
        lap[i, j] -= w
        lap[j, i] -= w
        deg[i] += w
        deg[j] += w
    free = [v for v in range(n) if v not in absorbing]
    sol = np.linalg.solve(lap[np.ix_(free, free)], deg[free])
    out = np.zeros(n)
    out[free] = sol
    return float(out[start])


def ball_volumes_brute(pts: np.ndarray, w: np.ndarray, r: float) -> np.ndarray:
    """V(x,r) per point: total weight within the open ball, double loop."""
    n = len(pts)
    vols = w.astype(float).copy()
    for i in range(n):
        for j in range(i + 1, n):
            d2 = float((pts[i, 0] - pts[j, 0]) ** 2 + (pts[i, 1] - pts[j, 1]) ** 2)
            if d2 < r * r:
                vols[i] += w[j]
                vols[j] += w[i]
    return vols


def open_ball_counts_exact(points, r: float) -> np.ndarray:
    """Per point, how many other points lie in its open ball of radius r
    (the exact value of the float r), decided on integer numerators over
    one common denominator: no coordinate, distance or radius rounds."""
    den = math.lcm(*(c.denominator for p in points for c in p))
    xy = np.array([[int(c * den) for c in p] for p in points], dtype=np.int64)
    assert np.abs(xy).max() < 2 ** 30, "squared distances would overflow int64"
    bound = Fraction(r) ** 2 * den ** 2  # d2 < bound  <=>  d2 <= ceil(bound) - 1
    limit = -(-bound.numerator // bound.denominator) - 1
    d2 = ((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2)
    return (d2 <= limit).sum(axis=1) - 1


def open_ball_pairs_brute(pts: np.ndarray, r: float) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, at distance < r, in (i, j) order."""
    n = len(pts)
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if float((pts[i, 0] - pts[j, 0]) ** 2 + (pts[i, 1] - pts[j, 1]) ** 2) < r * r
    ]


def oscillation_brute(
    pts: np.ndarray, w: np.ndarray, vals: np.ndarray, r: float
) -> float:
    """Double integral of (u(x)-u(y))^2 over open-ball pairs."""
    total = 0.0
    n = len(pts)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d2 = float((pts[i, 0] - pts[j, 0]) ** 2 + (pts[i, 1] - pts[j, 1]) ** 2)
            if d2 < r * r:
                total += float(w[i]) * float(w[j]) * float(vals[i] - vals[j]) ** 2
    return total


def besov_raw_brute(pts: np.ndarray, w: np.ndarray, vals: np.ndarray, r: float) -> float:
    """Volume-normalized mean-square oscillation, the slow way."""
    vols = ball_volumes_brute(pts, w, r)
    total = 0.0
    n = len(pts)
    for i in range(n):
        inner = 0.0
        for j in range(n):
            if i == j:
                continue
            d2 = float((pts[i, 0] - pts[j, 0]) ** 2 + (pts[i, 1] - pts[j, 1]) ** 2)
            if d2 < r * r:
                inner += float(w[j]) * float(vals[i] - vals[j]) ** 2
        total += float(w[i]) * inner / float(vols[i])
    return total
