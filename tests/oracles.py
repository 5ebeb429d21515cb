"""Independent reference implementations for cross-checking.

Everything here deliberately uses a different algorithm from the
package: dense Gaussian elimination and matrix-tree determinants instead
of star-mesh reduction, O(n^2) double loops instead of tree-accelerated
pair scans, float linear solves instead of exact back-substitution,
Fraction similitudes composed word by word instead of integer lattice
numerators, Fraction sums and hull clips instead of integer ones.  Slow
and obvious on purpose.  The exceptions, at the end, are earlier
kernels of the package kept as regression references: the pair-list
ball scan and the plain-number Schur kernel.
"""

from __future__ import annotations

import heapq
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


def harmonic_extension_fractions(ifs, m: int, boundary_values):
    """The values of the recursive harmonic extension computed cell by
    cell as Fraction dot products of the interpolation matrices, float
    boundary values kept as floats (so Fraction*float products round at
    every step); values indexed as build_level_graph(ifs, m)."""
    from walkdim.dirichlet import _unit_levels
    from walkdim.levelgraph import build_level_graph

    k = len(ifs.boundary)
    vals = [v if isinstance(v, float) else Fraction(v) for v in boundary_values]
    g1 = build_level_graph(ifs, 1)
    corners = [vals]
    for _, h in reversed(_unit_levels(g1, m, interpolate=True)[1:]):
        children = []
        for cell in corners:
            local = [sum((row[b] * cell[b] for b in range(k)), start=Fraction(0)) for row in h]
            children.extend([local[v] for v in sub] for sub in g1.cells)
        corners = children
    graph = build_level_graph(ifs, m)
    values = [None] * graph.vertex_count
    for cell, cell_values in zip(graph.cells, corners):
        for v, x in zip(cell, cell_values):
            if values[v] is None:
                values[v] = x
            assert values[v] == x, "inconsistent cell extension values"
    return tuple(values)


def cell_meeting_checks_fractions(ifs):
    """(name, passed, detail) of validate's finite-ramification and
    level1-connected checks, by clipping every cell pair's hulls in
    Fraction coordinates, no bounding-box reject."""
    from walkdim._geometry import hull_intersection
    from walkdim.ifs import attractor_hull

    n = len(ifs.maps)
    hull = attractor_hull(ifs)
    cell_hulls = [[m.apply(p) for p in hull] for m in ifs.maps]
    cell_boundary = [{m.apply(p) for p in ifs.boundary} for m in ifs.maps]
    bad, adjacency = [], {i: set() for i in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            inter = hull_intersection(cell_hulls[i], cell_hulls[j])
            if inter.kind == "empty":
                continue
            adjacency[i].add(j)
            adjacency[j].add(i)
            if not inter.is_finite:
                bad.append(f"cells ({i},{j}) share a {inter.kind}")
            elif any(inter.witnesses[0] not in cell_boundary[c] for c in (i, j)):
                bad.append(f"cells ({i},{j}) meet at a non-boundary image point")
    seen, stack = {0}, [0]
    while stack:
        for v in adjacency[stack.pop()] - seen:
            seen.add(v)
            stack.append(v)
    connected = len(seen) == n
    return (
        ("finite-ramification", not bad, "; ".join(bad[:8])),
        ("level1-connected", connected, "" if connected else f"cell graph splits; reached only {sorted(seen)}"),
    )


def boundary_is_word_fixed_point_unpruned(ifs, p, depth: int = 3) -> bool:
    """Is p the fixed point of some composition of <= depth maps?  Every
    word is composed, however far its cell lies from p, under the same
    20000-word cap on each new length as the pruned search."""
    frontier = list(ifs.maps)
    for length in range(1, depth + 1):
        if any(m.fixed_point() == p for m in frontier):
            return True
        if length == depth or len(frontier) * len(ifs.maps) > 20000:
            break
        frontier = [m.after(inner) for m in frontier for inner in ifs.maps]
    return False


def graph_energy_edgewise(u, energy_scale):
    """graph_energy summed edge by edge in the values' own arithmetic,
    from Fraction(0)."""
    total = Fraction(0)
    for i, j in u.graph.edges:
        diff = u.values[i] - u.values[j]
        total = total + diff * diff
    scale = energy_scale if isinstance(energy_scale, float) else Fraction(energy_scale)
    return scale ** u.graph.level * total


def dense_laplacian(n: int, edges: dict[tuple[int, int], Fraction]):
    lap = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in edges.items():
        lap[i][i] += c
        lap[j][j] += c
        lap[i][j] -= c
        lap[j][i] -= c
    return lap


def schur_dense(mat: list[list[Fraction]], keep) -> list[list[Fraction]]:
    """The Schur complement of the square matrix `mat` onto the indices
    `keep`, in that order, by dense exact Gaussian elimination of every
    other index in index order."""
    rest = [v for v in range(len(mat)) if v not in keep]
    order = rest + list(keep)
    a = [[mat[r][c] for c in order] for r in order]
    k = len(rest)
    for p in range(k):
        piv = a[p][p]
        assert piv != 0, "interior vertex with no connection"
        for r in range(p + 1, len(order)):
            if a[r][p] == 0:
                continue
            f = a[r][p] / piv
            for c in range(p, len(order)):
                a[r][c] -= f * a[p][c]
    return [row[k:] for row in a[k:]]


def schur_reduce_dense(
    n: int, edges: dict[tuple[int, int], Fraction], boundary: tuple[int, ...]
) -> dict[tuple[int, int], Fraction]:
    """Eliminate interior rows of the Laplacian by dense exact Gaussian
    elimination; read conductances off the resulting boundary block.

    Returns edges keyed by positions in `boundary`.
    """
    block = schur_dense(dense_laplacian(n, edges), boundary)
    return {
        (bi, bj): -block[bi][bj]
        for bi in range(len(boundary))
        for bj in range(bi + 1, len(boundary))
        if block[bi][bj] != 0
    }


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
    checks both the star-mesh kernel and effective_resistance_dense.
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


def min_degree_order(rows, vertices) -> list[int]:
    """The pivot order of a Schur elimination that always takes the
    shortest row (lowest index on ties), by a full scan each step over
    the rows' index sets: eliminating v leaves its star S fully joined
    (a diagonal included) and drops v; entries that cancel stay."""
    sets = [set(row) for row in rows]
    remaining, order = set(vertices), []
    while remaining:
        v = min(remaining, key=lambda u: (len(sets[u]), u))
        remaining.discard(v)
        star = sets[v] - {v}
        for a in star:
            sets[a] |= star
            sets[a].discard(v)
        order.append(v)
    return order


def heat_diag_dense(graph, laziness: float, times, x: int) -> list[float]:
    """P^t(x,x)/w(x) at each t of `times` (ascending), by stepping the
    row vector e_x through the dense lazy-walk matrix P; w(x) is the
    cells containing x over N^m * k."""
    n = graph.vertex_count
    adj = np.zeros((n, n))
    for i, j in graph.edges:
        adj[i, j] = adj[j, i] = 1.0
    walk = laziness * np.eye(n) + (1.0 - laziness) * adj / adj.sum(axis=1)[:, None]
    cells = sum(x in cell for cell in graph.cells)
    w = cells / (len(graph.ifs.maps) ** graph.level * len(graph.ifs.boundary))
    row = np.zeros(n)
    row[x] = 1.0
    out, done = [], 0
    for t in times:
        for _ in range(t - done):
            row = row @ walk
        done = t
        out.append(float(row[x]) / w)
    return out


def open_ball_pairs_brute(points, r: float) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, at distance < r (the exact value of the
    float r), in (i, j) order: each pair decided in Fractions."""
    r2 = Fraction(r) ** 2
    n = len(points)
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (points[i][0] - points[j][0]) ** 2 + (points[i][1] - points[j][1]) ** 2 < r2
    ]


def _integer_cloud(points) -> tuple[np.ndarray, int]:
    """(numerators as an (n, 2) int64 array, their one denominator)."""
    den = math.lcm(*(c.denominator for p in points for c in p))
    xy = np.array([[int(c * den) for c in p] for p in points], dtype=np.int64).reshape(-1, 2)
    assert len(xy) == 0 or np.abs(xy).max() < 2 ** 30, "squared distances would overflow int64"
    return xy, den


def _open_ball_limit(r: float, den: int) -> int:
    bound = Fraction(r) ** 2 * den ** 2  # d2 < bound  <=>  d2 <= ceil(bound) - 1
    return -(-bound.numerator // bound.denominator) - 1


def open_ball_mask_exact(points, r: float) -> np.ndarray:
    """The n x n matrix of "point j lies in the open ball of radius r
    (the exact value of the float r) about point i", j != i, decided on
    integer numerators over one common denominator: no coordinate,
    distance or radius rounds."""
    xy, den = _integer_cloud(points)
    d2 = ((xy[:, None, :] - xy[None, :, :]) ** 2).sum(axis=2)
    inside = d2 <= _open_ball_limit(r, den)
    np.fill_diagonal(inside, False)
    return inside


def open_ball_counts_exact(points, r: float) -> np.ndarray:
    """Per point, how many other points lie in its open ball of radius r."""
    return open_ball_mask_exact(points, r).sum(axis=1)


def ball_masses_brute(cloud, centers, radii, weights) -> list[list[int]]:
    """Per radius and center, the int weight of the open ball B(c, r) of
    a lattice cloud (numerators over one denominator), c's own included:
    a double loop over Python ints, each pair decided by d^2/D^2 < r^2
    for the exact value of r, cross-multiplied."""
    num, den2 = cloud.numerators, cloud.denominator ** 2
    out = []
    for r in radii:
        r2 = Fraction(r) ** 2
        row = []
        for c in centers:
            cx, cy = num[c]
            row.append(sum(
                int(w)
                for (x, y), w in zip(num, weights)
                if ((x - cx) ** 2 + (y - cy) ** 2) * r2.denominator < r2.numerator * den2
            ))
        out.append(row)
    return out


def ball_volumes_brute(points, w: np.ndarray, r: float) -> np.ndarray:
    """V(x,r) per point: total weight within the open ball, double loop."""
    inside = open_ball_mask_exact(points, r)
    n = len(points)
    vols = w.astype(float).copy()
    for i in range(n):
        for j in range(i + 1, n):
            if inside[i, j]:
                vols[i] += w[j]
                vols[j] += w[i]
    return vols


def oscillation_brute(points, w: np.ndarray, vals: np.ndarray, r: float) -> float:
    """Double integral of (u(x)-u(y))^2 over open-ball pairs."""
    inside = open_ball_mask_exact(points, r)
    total = 0.0
    n = len(points)
    for i in range(n):
        for j in range(n):
            if inside[i, j]:
                total += float(w[i]) * float(w[j]) * float(vals[i] - vals[j]) ** 2
    return total


def besov_raw_brute(points, w: np.ndarray, vals: np.ndarray, r: float) -> float:
    """Volume-normalized mean-square oscillation, the slow way."""
    inside = open_ball_mask_exact(points, r)
    vols = ball_volumes_brute(points, w, r)
    total = 0.0
    n = len(points)
    for i in range(n):
        inner = 0.0
        for j in range(n):
            if inside[i, j]:
                inner += float(w[j]) * float(vals[i] - vals[j]) ** 2
        total += float(w[i]) * inner / float(vols[i])
    return total


# The blocked pair-list scan that the streaming ball-sum kernel replaced,
# kept as its reference on exact integers: it holds every pair below the
# largest radius, masks them per radius and scatters them with np.add.at.
PAIR_BLOCK = 2 ** 16


def pairs_by_radius(points, radii):
    """Per radius, in the given order: the int32 index pairs (i, j),
    i < j, with d(x_i, x_j) < r strictly, sorted by (i, j); points are
    exact pairs, decided on integer numerators."""
    xy, den = _integer_cloud(points)
    n = len(xy)
    x, y = np.ascontiguousarray(xy.T)
    limits = [_open_ball_limit(r, den) for r in radii]
    blocks = [(np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0, np.int64))]
    start = 0
    while start < n - 1:
        stop = min(n - 1, start + max(1, PAIR_BLOCK // (n - 1 - start)))
        # entry (a, b) is the pair (start + a, start + 1 + b), so i < j iff a <= b
        d2 = x[start:stop, None] - x[start + 1 :]
        d2 *= d2
        dy = y[start:stop, None] - y[start + 1 :]
        d2 += dy * dy
        keep = d2 <= max(limits)
        keep[:, : stop - start] = np.triu(keep[:, : stop - start])
        a, b = np.nonzero(keep)
        blocks.append((a.astype(np.int32) + start, b.astype(np.int32) + (start + 1), d2[keep]))
        start = stop
    i, j, d2 = map(np.concatenate, zip(*blocks))
    for limit in limits:
        keep = d2 <= limit
        yield i[keep], j[keep]


def ball_sums_by_pairs(points, w: np.ndarray, radii, vals=None):
    """besov._ball_sums from pair lists: per radius, (volumes, raw, pair
    count, double integral sum_x w_x osc_x)."""
    out = []
    for i, j in pairs_by_radius(points, radii):
        volume = w.copy()
        np.add.at(volume, i, w[j])
        np.add.at(volume, j, w[i])
        raw = integral = 0.0
        if vals is not None:
            osc = np.zeros(len(w))
            diff2 = (vals[i] - vals[j]) ** 2
            np.add.at(osc, i, w[j] * diff2)
            np.add.at(osc, j, w[i] * diff2)
            raw = float(np.sum(w * osc / volume))
            integral = float(np.sum(w * osc))
        out.append((volume, raw, len(i), integral))
    return out


# The Schur kernel as it ran on plain numbers before it moved to
# (numerator, denominator) pairs, kept as the reference that the float
# path of network._eliminate and network._back_substitute must match bit
# for bit: same heap pivot order, same row - (x*y)/pivot updates, same
# left-to-right back-substitution sums.
def eliminate_plain(rows, vertices):
    """network._eliminate on plain numbers: the Schur complement left in
    `rows`, and (vertex, off-diagonal row, pivot) per step."""
    remaining = set(vertices)
    heap = [(len(rows[u]), u) for u in remaining]
    heapq.heapify(heap)
    order = []
    while remaining:
        length, v = heapq.heappop(heap)
        if v not in remaining or length != len(rows[v]):
            continue
        remaining.discard(v)
        row, rows[v] = rows[v], {}
        pivot = row.pop(v, 0)
        if pivot == 0:
            raise ReductionError(f"vertex {v} has no neighbors left")
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


def back_substitute_plain(order, values):
    """network._back_substitute on plain numbers."""
    for v, star, pivot in reversed(order):
        values[v] = -sum(x * values[w] for w, x in star) / pivot
    return values
