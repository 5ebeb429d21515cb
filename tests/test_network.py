import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    back_substitute_plain,
    dense_laplacian,
    effective_resistance,
    effective_resistance_dense,
    eliminate_plain,
    min_degree_order,
    schur_dense,
    schur_reduce_dense,
    solve_dense,
)
import walkdim.network
from walkdim.errors import ConvergenceError, ReductionError
from walkdim.ifs import IfsSpec, compose, validate
from walkdim.levelgraph import build_level_graph
from walkdim.logratio import LogRatio
from walkdim.network import (
    ConductanceNetwork,
    _back_substitute,
    _eliminate,
    _matrix,
    dimension_report_from_constants,
    _refine,
    renorm_factor,
    walk_dimension,
)

F = Fraction
# the complete graph on three vertices, unit conductances
UNIT_TRIANGLE = {(0, 1): F(1), (0, 2): F(1), (1, 2): F(1)}


def trace_edges(n, edges, boundary):
    """The Schur complement of the Laplacian of `edges` onto `boundary`,
    read off the rows that _matrix and _eliminate leave, as conductances
    keyed by positions in `boundary`."""
    rows = _matrix(n, edges, {})
    _eliminate(rows, set(range(n)) - set(boundary))
    return {
        (p, q): -rows[a][b]
        for p, a in enumerate(boundary)
        for q, b in enumerate(boundary)
        if p < q and b in rows[a]
    }


class TestConductanceNetwork:
    def test_parallel_edges_merge(self):
        net = ConductanceNetwork(2, {(0, 1): F(1), (1, 0): F(2)}, (0, 1))
        assert net.conductances == {(0, 1): 3}

    def test_zero_edges_dropped(self):
        net = ConductanceNetwork(3, {(0, 1): F(1), (1, 2): F(0)}, (0, 2))
        assert (1, 2) not in net.conductances

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            ConductanceNetwork(2, {(1, 1): F(1)}, (0,))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ConductanceNetwork(2, {(0, 1): F(-1)}, (0,))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ConductanceNetwork(2, {(0, 5): F(1)}, (0,))


class TestReduction:
    def test_series_halves(self):
        # 0 -1- 1 -1- 2 with interior 1: conductance 1/2 end to end
        assert trace_edges(3, {(0, 1): F(1), (1, 2): F(1)}, (0, 2)) == {(0, 1): F(1, 2)}

    def test_star_to_triangle(self):
        # unit 3-star: Y-Delta gives 1/3 on each triangle edge
        star = {(0, 3): F(1), (1, 3): F(1), (2, 3): F(1)}
        assert trace_edges(4, star, (0, 1, 2)) == {
            (0, 1): F(1, 3), (0, 2): F(1, 3), (1, 2): F(1, 3)
        }

    def test_dangling_interior_rejected(self):
        with pytest.raises(ReductionError):
            _eliminate(_matrix(3, {(0, 1): F(1)}, {}), {2})

    def test_no_interior_is_identity(self):
        edges = UNIT_TRIANGLE
        rows = _matrix(3, edges, {})
        assert _eliminate(rows, set()) == []
        assert rows == _matrix(3, edges, {})
        assert trace_edges(3, edges, (0, 1, 2)) == edges

    @pytest.mark.parametrize("system, level", [("sg", 4), ("sg", 5), ("hook", 3)])
    def test_pivot_order_is_min_degree(self, request, system, level):
        # a level graph, every vertex but V0 eliminated, each loaded by
        # its index mod 3 (zero loads leave the ground column out)
        g = build_level_graph(request.getfixturevalue(system), level)
        edges = {e: F(1) for e in g.edges}
        load = {v: F(v % 3) for v in range(g.vertex_count)}
        free = set(range(g.vertex_count)) - set(g.boundary_indices())
        expected = min_degree_order(_matrix(g.vertex_count, edges, load), free)
        order = _eliminate(_matrix(g.vertex_count, edges, load), free)
        assert [v for v, _, _ in order] == expected


def random_connected_network(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    # random spanning tree guarantees connectivity
    edges = {}
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges[(u, v)] = F(
            draw(st.integers(min_value=1, max_value=6)),
            draw(st.integers(min_value=1, max_value=4)),
        )
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        i = draw(st.integers(min_value=0, max_value=n - 2))
        j = draw(st.integers(min_value=i + 1, max_value=n - 1))
        c = F(
            draw(st.integers(min_value=1, max_value=6)),
            draw(st.integers(min_value=1, max_value=4)),
        )
        edges[(i, j)] = edges.get((i, j), 0) + c
    return n, edges


networks = st.composite(random_connected_network)()


class TestElectricalEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(networks)
    def test_star_mesh_matches_dense_schur(self, net_data):
        n, edges = net_data
        boundary = (0, n - 1)
        assert trace_edges(n, edges, boundary) == schur_reduce_dense(n, edges, boundary)

    @settings(max_examples=60, deadline=None)
    @given(networks)
    def test_resistance_matches_dense_solve(self, net_data):
        n, edges = net_data
        net = ConductanceNetwork(n, dict(edges), (0, n - 1))
        r_pkg = effective_resistance(net, 0, n - 1)
        r_dense = effective_resistance_dense(n, edges, 0, n - 1)
        assert r_pkg == r_dense

    @settings(max_examples=40, deadline=None)
    @given(networks)
    def test_reduction_preserves_resistance(self, net_data):
        n, edges = net_data
        net = ConductanceNetwork(n, dict(edges), (0, n - 1))
        red = ConductanceNetwork(2, trace_edges(n, edges, (0, n - 1)), (0, 1))
        assert effective_resistance(net, 0, n - 1) == effective_resistance(
            red, 0, 1
        )


@st.composite
def loaded_problems(draw, number):
    """(n, rows, fixed): a random symmetric matrix in the format `_matrix`
    builds, with ground index n.  Off-diagonal entries of either sign
    (drawn by `number`) on a connected graph, each diagonal the sum of its
    row's absolute values plus a drawn mass, so that with a vertex fixed
    every pivot is nonzero; loads as the ground column; fixed values."""
    n = draw(st.integers(min_value=3, max_value=8))
    rows = [dict() for _ in range(n + 1)]
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs += draw(st.lists(st.sampled_from([(i, j) for j in range(n) for i in range(j)]), max_size=n))
    for i, j in pairs:
        rows[i][j] = rows[j][i] = draw(number)
    for v in range(n):
        rows[v][v] = sum(abs(x) for x in rows[v].values()) + abs(draw(st.one_of(st.just(0), number)))
    for v in draw(st.sets(st.integers(0, n - 1))):
        rows[v][n] = rows[n][v] = draw(number)
    fixed_vs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
    return n, rows, {v: draw(number) for v in fixed_vs}


exact_numbers = st.one_of(
    st.integers(-6, 6).filter(bool),
    st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 4)),
)
float_numbers = st.floats(-10, 10).filter(lambda x: abs(x) > 0.05)


def hexed(rows):
    return [{b: x.hex() for b, x in row.items()} for row in rows]


class TestSchurKernel:
    @settings(max_examples=80, deadline=None)
    @given(loaded_problems(exact_numbers))
    def test_exact_matches_dense_oracles(self, problem):
        # int and Fraction entries mixed: the kernel is exact on both (the
        # dense oracles divide, so they get Fractions)
        n, rows, fixed = problem
        dense = [[F(rows[a].get(b, 0)) for b in range(n + 1)] for a in range(n + 1)]
        keep = (*sorted(fixed), n)
        order = _eliminate(rows, set(range(n)) - set(fixed))
        left = [[rows[a].get(b, 0) for b in keep] for a in keep]
        assert left == schur_dense(dense, keep)
        assert all(type(x) is F for a in keep for x in rows[a].values())
        values = [fixed.get(v) for v in range(n)] + [1]
        got = _back_substitute(order, values)[:n]
        load = [-dense[v][n] for v in range(n)]
        want = solve_dense([row[:n] for row in dense[:n]], load, {v: F(x) for v, x in fixed.items()})
        assert got == want
        assert all(type(got[v]) is F for v, _, _ in order)

    @settings(max_examples=80, deadline=None)
    @given(loaded_problems(float_numbers))
    def test_float_is_the_plain_kernel_bit_for_bit(self, problem):
        n, rows, fixed = problem
        plain_rows = [dict(row) for row in rows]
        free = set(range(n)) - set(fixed)
        order = _eliminate(rows, free)
        plain_order = eliminate_plain(plain_rows, free)
        assert [v for v, _, _ in order] == [v for v, _, _ in plain_order]
        assert hexed(rows) == hexed(plain_rows)
        values = [fixed.get(v) for v in range(n)] + [1.0]
        got = _back_substitute(order, list(values))
        assert [x.hex() for x in got] == [x.hex() for x in back_substitute_plain(plain_order, values)]


class TestEffectiveResistance:
    def test_unit_triangle(self):
        assert effective_resistance(ConductanceNetwork(3, UNIT_TRIANGLE, (0, 1, 2)), 0, 1) == F(2, 3)

    def test_series_path(self):
        net = ConductanceNetwork(3, {(0, 1): F(1), (1, 2): F(1)}, (0, 2))
        assert effective_resistance(net, 0, 2) == 2

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            effective_resistance(ConductanceNetwork(3, UNIT_TRIANGLE, (0, 1, 2)), 1, 1)

    def test_disconnected_pair_rejected(self):
        net = ConductanceNetwork(4, {(0, 1): F(1), (2, 3): F(1)}, (0, 3))
        with pytest.raises(ReductionError):
            effective_resistance(net, 0, 3)


def glue(ifs, cell_edges, cell_load):
    """The level-1 network and loads, one copy of the cell per map."""
    g1 = build_level_graph(ifs, 1)
    edges, load = {}, [F(0)] * g1.vertex_count
    for cell in g1.cells:
        for (a, b), c in cell_edges.items():
            key = tuple(sorted((cell[a], cell[b])))
            edges[key] = edges.get(key, 0) + c
        for v, x in zip(cell, cell_load):
            load[v] += x
    return g1, edges, load


class TestReplicate:
    def test_sg_one_level(self, sg):
        g1, edges, _ = glue(sg, UNIT_TRIANGLE, (F(0),) * 3)
        assert g1.vertex_count == 6
        assert len(edges) == 9
        assert len(g1.boundary_indices()) == 3

    def test_conductances_add_on_shared_edges(self, sg):
        # no two sg cells share an edge, so every conductance stays 1
        _, edges, _ = glue(sg, UNIT_TRIANGLE, (F(0),) * 3)
        assert set(edges.values()) == {F(1)}


class TestRefine:
    @pytest.mark.parametrize("name", ["sg", "segment", "hook"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_dense_oracles(self, request, name, seed):
        ifs = request.getfixturevalue(name)
        rng = random.Random(seed)
        k = len(ifs.boundary)
        cell_edges = {
            (i, j): F(rng.randint(1, 9), rng.randint(1, 9)) for i in range(k) for j in range(i + 1, k)
        }
        cell_load = tuple(F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(k))
        cell = _matrix(k, cell_edges, dict(enumerate(cell_load)))
        nxt, interp = _refine(build_level_graph(ifs, 1), cell, interpolate=True)
        assert cell == _matrix(k, cell_edges, dict(enumerate(cell_load)))
        assert _refine(build_level_graph(ifs, 1), cell) == (nxt, None)
        assert len(nxt) == k + 1
        assert all(nxt[b][a] == x for a in range(k + 1) for b, x in nxt[a].items())

        g1, edges, load = glue(ifs, cell_edges, cell_load)
        bidx = g1.boundary_indices()
        off = {(a, b): -nxt[a][b] for a in range(k) for b in range(a + 1, k) if b in nxt[a]}
        assert off == schur_reduce_dense(g1.vertex_count, edges, bidx)
        for a in range(k):
            assert nxt[a][a] == -sum(x for b, x in nxt[a].items() if b not in (a, k))
        lap = dense_laplacian(g1.vertex_count, edges)
        # u solves L u = l inside with u = 0 on V0
        u = solve_dense(lap, load, {b: F(0) for b in bidx})
        # the load left on b is l_b + sum over the interior of c_bv u_v,
        # and the ground column holds minus it
        assert [-nxt[a][k] for a in range(k)] == [
            load[b] + sum(-lap[b][v] * u[v] for v in range(g1.vertex_count) if v not in bidx)
            for b in bidx
        ]
        # column a of the interpolation matrix is the harmonic extension of e_a
        for a, col in enumerate(zip(*interp)):
            fixed = {b: F(a == pos) for pos, b in enumerate(bidx)}
            assert list(col) == solve_dense(lap, [F(0)] * g1.vertex_count, fixed)


    @pytest.mark.parametrize("name", ["sg", "segment", "hook"])
    def test_general_cell_matches_dense_schur(self, request, name):
        # a loaded cell whose diagonal exceeds its row sums (a mass term),
        # so nothing may lean on row sums: the next cell is the dense Schur
        # complement of the level-1 matrix that adds one copy per map, its
        # ground row's own entry included
        ifs = request.getfixturevalue(name)
        rng = random.Random(7)
        k = len(ifs.boundary)

        def draw():
            return F(rng.randint(1, 9), rng.randint(1, 9))

        edges = {(i, j): draw() for i in range(k) for j in range(i + 1, k)}
        cell = _matrix(k, edges, {a: draw() for a in range(k)})
        for a in range(k):
            cell[a][a] += draw()
        g1 = build_level_graph(ifs, 1)
        n = g1.vertex_count
        dense = [[F(0)] * (n + 1) for _ in range(n + 1)]
        for corners in g1.cells:
            place = (*corners, n)
            for a in range(k + 1):
                for b in range(k + 1):
                    dense[place[a]][place[b]] += cell[a].get(b, 0)
        expected = schur_dense(dense, (*g1.boundary_indices(), n))
        nxt, _ = _refine(g1, cell)
        assert [[nxt[a].get(b, 0) for b in range(k + 1)] for a in range(k + 1)] == expected


class TestRenorm:
    def test_sg_exact(self, sg):
        res = renorm_factor(sg)
        assert res.exact and res.energy_scale == F(5, 3)

    def test_segment_exact(self, segment):
        res = renorm_factor(segment)
        assert res.exact and res.energy_scale == 2

    def test_fixed_network_is_uniform(self, sg):
        res = renorm_factor(sg)
        vals = set(res.fixed_network.conductances.values())
        assert len(vals) == 1

    def test_composition_multiplies(self, sg):
        assert renorm_factor(compose(sg, sg)).energy_scale == F(25, 9)

    def test_json_exact_string(self, sg):
        j = renorm_factor(sg).to_json()
        assert j["energy_scale"] == "5/3" and j["exact"] is True

    def test_hook_float_fixed_point(self, hook):
        # the unit network is not renormalization-fixed, so Newton runs;
        # its fixed direction is (s, s, 3 - 2s) with s = (sqrt(33) - 3)/2
        res = renorm_factor(hook)
        assert res.exact is False and res.iterations == 4
        # pinned by accuracy, not by bits: lambda = (27 + sqrt(33))/12
        assert res.energy_scale == pytest.approx((27 + math.sqrt(33)) / 12, rel=1e-13)
        fixed = res.fixed_network.conductances
        assert sum(fixed.values()) == pytest.approx(3, abs=1e-12)
        s = (math.sqrt(33) - 3) / 2
        assert sum(abs(c - s) <= 1e-12 for c in fixed.values()) == 2
        mu = 1 / res.energy_scale
        reduced, _ = _refine(build_level_graph(hook, 1), _matrix(3, fixed, {}))
        assert len(reduced) == 4 and not reduced[3]
        for (i, j), c in fixed.items():
            assert -reduced[i][j] == pytest.approx(mu * c, rel=1e-10)

    def test_step_cap_names_no_option(self, hook, monkeypatch):
        monkeypatch.setattr(walkdim.network, "_NEWTON_STEPS", 1)
        with pytest.raises(ConvergenceError) as info:
            renorm_factor(hook)
        detail = str(info.value)
        assert "1 Newton steps" in detail and "residual" in detail
        assert "--" not in detail and "max_iter" not in detail

    def test_takes_only_the_system(self, hook):
        with pytest.raises(TypeError):
            renorm_factor(hook, max_iter=100)
        with pytest.raises(TypeError):
            walk_dimension(hook, tol=1e-12)


def grid_gasket(name, n, cells, boundary):
    """The maps x -> x/n + (i, j)/n over `cells`, on the given corners."""
    return IfsSpec.from_json(
        {
            "name": name,
            "maps": [{"ratio": f"1/{n}", "translate": [f"{i}/{n}", f"{j}/{n}"]} for i, j in cells],
            "boundary": boundary,
        }
    )


def census_systems():
    """Every corner-keeping triangular n = 4 grid gasket that validates,
    and the k = 4 systems on the 5x5 square grid built from the diagonal
    X plus one to four of (2,0), (0,2), (4,2), (2,4)."""
    triangle = [(i, j) for i in range(4) for j in range(4 - i)]
    corners = [(0, 0), (3, 0), (0, 3)]
    rest = [c for c in triangle if c not in corners]
    unit = [["0", "0"], ["1", "0"], ["0", "1"]]
    grids = [
        grid_gasket(f"grid4-{sub}", 4, corners + list(sub), unit)
        for r in range(len(rest) + 1)
        for sub in itertools.combinations(rest, r)
    ]
    grids = [ifs for ifs in grids if validate(ifs).ok]
    x = [(i, i) for i in range(5)] + [(4, 0), (3, 1), (1, 3), (0, 4)]
    square = [["0", "0"], ["1", "0"], ["1", "1"], ["0", "1"]]
    arms = [(2, 0), (0, 2), (4, 2), (2, 4)]
    xs = [
        grid_gasket(f"x5-{sub}", 5, x + list(sub), square)
        for r in range(1, 5)
        for sub in itertools.combinations(arms, r)
    ]
    return grids, xs


def test_census_every_system_has_an_energy_scale():
    """Each system gets an energy scale at the defaults, and each float
    fixed network sums to E and reproduces itself, scaled by mu, as the
    dense Schur complement of its level-1 replica (no `_refine`)."""
    grids, xs = census_systems()
    assert (len(grids), len(xs)) == (37, 15)
    floats = 0
    for ifs in grids + xs:
        res = renorm_factor(ifs)
        if res.exact:
            continue
        floats += 1
        k = len(ifs.boundary)
        fixed = res.fixed_network.conductances
        assert sum(fixed.values()) == pytest.approx(k * (k - 1) / 2, rel=1e-12)
        g1 = build_level_graph(ifs, 1)
        n = g1.vertex_count
        dense = [[0.0] * n for _ in range(n)]
        for cell in g1.cells:
            for (a, b), c in fixed.items():
                u, v = cell[a], cell[b]
                dense[u][v] -= c
                dense[v][u] -= c
                dense[u][u] += c
                dense[v][v] += c
        reduced = schur_dense(dense, g1.boundary_indices())
        mu = 1 / res.energy_scale
        for (a, b), c in fixed.items():
            assert -reduced[a][b] == pytest.approx(mu * c, rel=1e-10), ifs.name
    assert floats == 33 + 15


class TestWalkDimension:
    def test_sg_beta(self, sg):
        rep = walk_dimension(sg)
        assert rep.beta == LogRatio(5, 2)
        assert rep.beta_float == pytest.approx(2.321928094887362, abs=1e-12)

    def test_segment_beta_two(self, segment):
        rep = walk_dimension(segment)
        assert rep.beta.try_exact_rational() == 2

    def test_alpha_plus_gamma(self, sg):
        rep = walk_dimension(sg)
        # alpha and gamma share the base 1/rho, so beta's argument is
        # the product of theirs
        assert rep.alpha.base == rep.gamma.base
        assert rep.beta == LogRatio(
            rep.alpha.argument * rep.gamma.argument, rep.alpha.base
        )

    def test_from_constants_matches_geometry(self, sg):
        geo = walk_dimension(sg)
        declared = dimension_report_from_constants("k1", 3, F(1, 2), F(5, 3))
        assert geo.beta == declared.beta
        assert geo.alpha == declared.alpha

    def test_gasket_family_betas(self):
        k2 = dimension_report_from_constants("k2", 27, F(1, 8), F(295, 63))
        k3 = dimension_report_from_constants("k3", 81, F(1, 16), F(1475, 189))
        assert k2.beta == LogRatio(F(885, 7), 8)
        assert k3.beta == LogRatio(F(4425, 7), 16)
        assert k2.beta_float == pytest.approx(2.327392907637585, abs=1e-12)
        assert k3.beta_float == pytest.approx(2.3260267044500296, abs=1e-12)

    def test_float_energy_scale_is_inexact(self):
        rep = dimension_report_from_constants("rough", 3, F(1, 2), 1.6667)
        assert rep.exact is False and rep.gamma is None and rep.beta is None
        assert rep.beta_float == pytest.approx(math.log2(3 * 1.6667), abs=1e-12)

    def test_constants_validation(self):
        with pytest.raises(ValueError):
            dimension_report_from_constants("bad", 1, F(1, 2), F(5, 3))
        with pytest.raises(ValueError):
            dimension_report_from_constants("bad", 3, F(3, 2), F(5, 3))
        rep = dimension_report_from_constants("text", "3", F(1, 2), F(5, 3))
        assert rep.alpha == LogRatio(F(3), F(2))
        with pytest.raises(ValueError, match="integer"):
            dimension_report_from_constants("bad", "7/2", F(1, 2), F(5, 3))
