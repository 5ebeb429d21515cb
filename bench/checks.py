"""Output checks made apart from walkdim.

Every function here takes plain data (ints, Fractions, floats, numpy
arrays) and raises Mismatch when the data contradicts a value derived
independently (closed forms, plain integer powers, dense linear
algebra, O(n^2) brute force) or a property the method must have.
Nothing here imports walkdim.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class Mismatch(AssertionError):
    """A program output disagrees with its independent check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def close(got: float, want: float, rel: float, what: str) -> None:
    """|got - want| <= rel * |want| (both finite)."""
    expect(
        math.isfinite(got) and abs(got - want) <= rel * abs(want),
        f"{what}: got {got!r}, want {want!r} within {rel:g} relative",
    )


# ---------------------------------------------------------------- exact algebra


def same_log_ratio(a: Fraction, b: Fraction, c: Fraction, d: Fraction) -> bool:
    """log(a)/log(b) == log(c)/log(d), shown by a^q == c^p and b^q == d^p
    for some small positive integers p, q (a, b, c, d > 0, b, d > 1)."""
    for q in range(1, 13):
        for p in range(1, 13):
            if b ** q == d ** p:
                return a ** q == c ** p
    return False


def check_log_ratio(argument, base, want_argument, want_base, what: str) -> None:
    expect(
        same_log_ratio(Fraction(argument), Fraction(base), Fraction(want_argument), Fraction(want_base)),
        f"{what}: log({argument})/log({base}) != log({want_argument})/log({want_base})",
    )


def check_product_law(scales: dict, one_map_scale: Fraction) -> None:
    """The energy scale of the n-fold composition is the n-th power of
    the one-system scale: {n: scale}."""
    for n, scale in scales.items():
        expect(
            scale == one_map_scale ** n,
            f"product law: scale of {n}-fold composition is {scale}, want {one_map_scale ** n}",
        )


def _power_of_two(q: Fraction) -> int:
    expect(q.denominator == 1 and q.numerator > 1, f"{q} is not an integer > 1")
    n = q.numerator
    expect(n & (n - 1) == 0, f"{n} is not a power of two")
    return n.bit_length() - 1


def beta_power_pair(a: tuple, b: tuple) -> tuple[Fraction, Fraction]:
    """For declared constants (N, rho, lambda) with 1/rho a power of two,
    beta = log(N*lambda)/log(1/rho); return the powers X, Y with
    beta_a <=> beta_b exactly as X <=> Y (X = (N_a lambda_a)^q_b,
    Y = (N_b lambda_b)^q_a, 1/rho = 2^q)."""
    qa = _power_of_two(1 / Fraction(a[1]))
    qb = _power_of_two(1 / Fraction(b[1]))
    return (Fraction(a[0]) * Fraction(a[2])) ** qb, (Fraction(b[0]) * Fraction(b[2])) ** qa


def check_audit(a: tuple, b: tuple, verdict: str, certificate) -> None:
    """Alpha is log 2-commensurable for every constant triple used here,
    so the verdict rests on beta: DISTINCT_BY_BETA with a certificate
    whose integer pair has the ratio X/Y, or INVARIANTS_EQUAL when
    X == Y.  certificate is (left, right) or None."""
    x, y = beta_power_pair(a, b)
    alpha_x, alpha_y = beta_power_pair((a[0], a[1], 1), (b[0], b[1], 1))
    expect(alpha_x == alpha_y, f"audit {a} vs {b}: alphas differ, fixture assumption broken")
    if x == y:
        expect(verdict == "INVARIANTS_EQUAL", f"audit {a} vs {b}: {verdict}, want INVARIANTS_EQUAL")
        expect(certificate is None, f"audit {a} vs {b}: certificate on equal invariants")
        return
    expect(verdict == "DISTINCT_BY_BETA", f"audit {a} vs {b}: {verdict}, want DISTINCT_BY_BETA")
    expect(certificate is not None, f"audit {a} vs {b}: no certificate")
    left, right = certificate
    expect(
        isinstance(left, int) and isinstance(right, int) and left != right,
        f"audit {a} vs {b}: certificate {certificate!r} is not two unequal integers",
    )
    expect(
        Fraction(left, right) == x / y,
        f"audit {a} vs {b}: certificate {left} != {right} does not have ratio {x / y}",
    )


def check_exit_times(times: list, base: int, what: str) -> None:
    """Mean exit time of the level-m walk is exactly base^m."""
    want = [Fraction(base) ** m for m in range(len(times))]
    expect(list(times) == want, f"{what}: exit times {times}, want {want}")


def check_discrete_harmonic(values: list, edges, boundary: set, what: str) -> None:
    """Exact: at every vertex outside `boundary` the value equals the
    mean of its neighbours' values."""
    total = [Fraction(0)] * len(values)
    degree = [0] * len(values)
    for i, j in edges:
        total[i] += values[j]
        total[j] += values[i]
        degree[i] += 1
        degree[j] += 1
    for v, value in enumerate(values):
        if v in boundary:
            continue
        expect(
            degree[v] > 0 and total[v] == degree[v] * value,
            f"{what}: vertex {v} is not discrete-harmonic",
        )


def edge_energy(values: list, edges) -> Fraction:
    """Sum over edges of the squared difference, in exact arithmetic."""
    total = Fraction(0)
    for i, j in edges:
        diff = values[i] - values[j]
        total += diff * diff
    return total


def check_unit_interval(values, what: str) -> None:
    """Maximum principle for boundary data in [0, 1]."""
    lo, hi = min(values), max(values)
    expect(0 <= lo and hi <= 1, f"{what}: values span [{float(lo)}, {float(hi)}], outside [0, 1]")


def check_energy_invariance(energies: dict, rel: float = 1e-9) -> None:
    """Scaled energies lambda^m E_m agree across levels: {m: energy}."""
    levels = sorted(energies)
    first = energies[levels[0]]
    for m in levels[1:]:
        close(energies[m], first, rel, f"scaled energy at level {m} vs level {levels[0]}")


def level_one_replica(maps, boundary, conductances):
    """Glue one copy of the boundary network per map at exact level-1
    points.  maps: [(ratio, (tx, ty))]; conductances: {(a, b): c} on
    boundary positions.  Returns (vertex_count, edge list, boundary)."""
    index: dict = {}
    cells = []
    for ratio, (tx, ty) in maps:
        cell = []
        for x, y in boundary:
            point = (ratio * x + tx, ratio * y + ty)
            cell.append(index.setdefault(point, len(index)))
        cells.append(cell)
    edges = [(cell[a], cell[b], c) for cell in cells for (a, b), c in conductances.items()]
    return len(index), edges, [index[p] for p in boundary]


def schur_boundary(vertex_count: int, edges, boundary) -> np.ndarray:
    """Dense Schur complement of the weighted Laplacian onto `boundary`."""
    lap = np.zeros((vertex_count, vertex_count))
    for i, j, c in edges:
        lap[i, i] += c
        lap[j, j] += c
        lap[i, j] -= c
        lap[j, i] -= c
    inner = [v for v in range(vertex_count) if v not in set(boundary)]
    bb = lap[np.ix_(boundary, boundary)]
    bi = lap[np.ix_(boundary, inner)]
    ii = lap[np.ix_(inner, inner)]
    return bb - bi @ np.linalg.solve(ii, bi.T)


def check_fixed_network(maps, boundary, conductances: dict, energy_scale: float, rel: float = 1e-9) -> None:
    """The renormalization fixed point reproduces itself: the Schur
    complement of its level-1 replica is the network scaled by
    1/energy_scale."""
    n, edges, bidx = level_one_replica(maps, boundary, conductances)
    reduced = schur_boundary(n, edges, bidx)
    for (a, b), c in conductances.items():
        close(-reduced[a, b] * energy_scale, float(c), rel, f"fixed network edge {(a, b)}")
    k = len(boundary)
    for a in range(k):
        for b in range(a + 1, k):
            if (a, b) not in conductances and (b, a) not in conductances:
                expect(abs(reduced[a, b]) <= 1e-12, f"fixed network: edge {(a, b)} appears")


# ---------------------------------------------------------------- level graphs


def sg_level_counts(m: int) -> dict:
    """Vertices, edges and cells of the level-m Sierpinski gasket graph."""
    return {"vertices": (3 ** (m + 1) + 3) // 2, "edges": 3 ** (m + 1), "cells": 3 ** m}


def check_counts(got: dict, want: dict, what: str) -> None:
    for key, value in want.items():
        expect(got[key] == value, f"{what}: {key} = {got[key]}, want {value}")


def check_nonincreasing(values, what: str, rel: float = 1e-12) -> None:
    """Return probabilities of a lazy (positive semidefinite) walk never
    increase in t."""
    for t, (prev, cur) in enumerate(zip(values, values[1:]), start=1):
        expect(cur <= prev * (1 + rel), f"{what}: value {t} ({cur!r}) exceeds value {t - 1} ({prev!r})")


def check_pushforward_rows(rows, scale: float, alpha: float, rel: float = 1e-9) -> None:
    """rows: [(r, lhs, rhs, bound, ok)].  For x -> s x + t the image
    pairs at r are the source pairs at r/s, and image weights carry
    s^alpha, so for s <= 1 (inflation C = 1/s) lhs = s^(2 alpha) rhs;
    every row must hold its bound C^(2 alpha) rhs."""
    inflation = max(scale, 1 / scale)
    for r, lhs, rhs, bound, ok in rows:
        close(bound, inflation ** (2 * alpha) * rhs, rel, f"pushforward bound at r={r}")
        expect(ok and lhs <= bound * (1 + 1e-12), f"pushforward row r={r} breaks its bound")
        if scale <= 1:
            close(lhs, scale ** (2 * alpha) * rhs, rel, f"pushforward lhs at r={r}")


# ---------------------------------------------------------------- samples


def check_sample_lattice(points, depth: int) -> None:
    """A depth-d gasket sample from (0,0) is (a, b)/2^d with the binary
    digits of a and b disjoint (a & b == 0), hence a + b < 2^d."""
    scale = 2 ** depth
    for x, y in points:
        a, b = x * scale, y * scale
        expect(
            a.denominator == 1 and b.denominator == 1,
            f"sample point ({x}, {y}) is not on the 2^-{depth} lattice",
        )
        a, b = a.numerator, b.numerator
        expect(
            a >= 0 and b >= 0 and a & b == 0 and a + b <= scale,
            f"sample point ({x}, {y}) is not a gasket point",
        )


def check_cell_shares(points, sigmas: float = 5.0) -> None:
    """Each level-1 gasket cell holds a third of the measure: the share of
    samples with x >= 1/2, with y >= 1/2, and the rest is within
    `sigmas` binomial standard deviations of 1/3."""
    n = len(points)
    half = Fraction(1, 2)
    right = sum(1 for x, _ in points if x >= half)
    top = sum(1 for _, y in points if y >= half)
    sd = math.sqrt(n * (1 / 3) * (2 / 3))
    for name, count in (("right", right), ("top", top), ("corner", n - right - top)):
        expect(
            abs(count - n / 3) <= sigmas * sd,
            f"cell share {name}: {count} of {n}, beyond {sigmas} sigma of 1/3",
        )


def check_coordinate_raw(radii, raws) -> None:
    """For u(x) = x the oscillation over an open r-ball is below r^2,
    so every ball-normalized raw value is too."""
    for r, raw in zip(radii, raws):
        expect(0 < raw < r * r, f"coordinate oscillation {raw!r} at r={r} is not in (0, r^2)")


# ---------------------------------------------------------------- brute force


def brute_oscillation(points: np.ndarray, weights: np.ndarray, values: np.ndarray, radii, chunk: int = 512):
    """O(n^2) pair counts and ball-normalized oscillation per radius.

    For each x: volume = w_x + sum of w_y over y != x with |x-y| < r;
    osc = sum of w_y (u_x - u_y)^2 over the same y; raw = sum of
    w_x osc / volume.  Pair counts are unordered pairs."""
    n = len(points)
    counts, raws = [], []
    for r in radii:
        r2 = r * r
        pairs = 0
        raw = 0.0
        for lo in range(0, n, chunk):
            block = points[lo : lo + chunk]
            d2 = ((block[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
            inside = d2 < r2
            rows = np.arange(lo, lo + len(block))
            inside[np.arange(len(block)), rows] = False
            pairs += int(inside.sum())
            volume = weights[rows] + inside @ weights
            diff2 = (values[rows, None] - values[None, :]) ** 2
            osc = (inside * diff2) @ weights
            raw += float(np.sum(weights[rows] * osc / volume))
        counts.append(pairs // 2)
        raws.append(raw)
    return counts, raws


def brute_ball_counts(points: np.ndarray, centers: np.ndarray, r: float, chunk: int = 256) -> np.ndarray:
    """Points (centre included) in the open ball of radius r about each centre."""
    out = []
    for lo in range(0, len(centers), chunk):
        block = points[centers[lo : lo + chunk]]
        d2 = ((block[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
        out.append((d2 < r * r).sum(axis=1))
    return np.concatenate(out)


def check_scan(got_counts, got_raws, want_counts, want_raws, what: str, rel: float = 1e-12) -> None:
    """Pair counts equal (skipped when got_counts is None) and raw
    oscillations within `rel` at every radius."""
    if got_counts is not None:
        expect(list(got_counts) == list(want_counts), f"{what}: pair counts {list(got_counts)}, want {list(want_counts)}")
    expect(len(got_raws) == len(want_raws), f"{what}: {len(got_raws)} radii, want {len(want_raws)}")
    for k, (got, want) in enumerate(zip(got_raws, want_raws)):
        close(got, want, rel, f"{what}: raw oscillation at radius #{k}")
