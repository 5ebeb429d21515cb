import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walkdim.dirichlet
import walkdim.network
from oracles import dense_laplacian, exit_time_float, solve_dense
from walkdim.dirichlet import (
    GraphFunction,
    deep_interior_vertex,
    default_time_grid,
    exit_time_profile,
    graph_energy,
    harmonic_extension,
    heat_kernel_diag,
    solve_weighted_laplacian,
)
from walkdim.errors import BudgetExceeded, FitError, ReductionError
from walkdim.ifs import compose
from walkdim.levelgraph import build_level_graph

F = Fraction

small_fractions = st.builds(F, st.integers(-20, 20), st.integers(1, 12))


class TestSolveWeightedLaplacian:
    def test_series_chain_midpoint(self):
        edges = {(0, 1): F(1), (1, 2): F(1)}
        u = solve_weighted_laplacian(3, edges, {1: F(1)}, {0: F(0), 2: F(0)})
        assert u == [F(0), F(1, 2), F(0)]

    def test_harmonic_interpolation(self):
        edges = {(0, 1): F(1), (1, 2): F(1)}
        u = solve_weighted_laplacian(3, edges, {}, {0: F(0), 2: F(1)})
        assert u == [F(0), F(1, 2), F(1)]

    def test_weighted_edge_divider(self):
        # conductances 2 and 1 in series: voltage divider at 1/3 from the
        # strong side
        edges = {(0, 1): F(2), (1, 2): F(1)}
        u = solve_weighted_laplacian(3, edges, {}, {0: F(0), 2: F(1)})
        assert u[1] == F(1, 3)

    def test_isolated_free_vertex_rejected(self):
        edges = {(0, 1): F(1)}
        with pytest.raises(ReductionError):
            solve_weighted_laplacian(3, edges, {}, {0: F(0), 1: F(1)})

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_matches_dense_oracle(self, data):
        n = data.draw(st.integers(min_value=3, max_value=7))
        edges = {}
        for v in range(1, n):
            u = data.draw(st.integers(min_value=0, max_value=v - 1))
            edges[(u, v)] = F(
                data.draw(st.integers(min_value=1, max_value=6)),
                data.draw(st.integers(min_value=1, max_value=4)),
            )
        extra = data.draw(st.integers(min_value=0, max_value=n))
        for _ in range(extra):
            i = data.draw(st.integers(min_value=0, max_value=n - 2))
            j = data.draw(st.integers(min_value=i + 1, max_value=n - 1))
            edges[(i, j)] = edges.get((i, j), F(0)) + F(
                data.draw(st.integers(min_value=1, max_value=6)),
                data.draw(st.integers(min_value=1, max_value=4)),
            )
        n_fixed = data.draw(st.integers(min_value=1, max_value=n - 1))
        fixed_vs = data.draw(
            st.lists(
                st.integers(0, n - 1),
                min_size=n_fixed,
                max_size=n_fixed,
                unique=True,
            )
        )
        fixed = {v: data.draw(small_fractions) for v in fixed_vs}
        rhs_list = [
            F(0) if v in fixed else data.draw(small_fractions) for v in range(n)
        ]
        rhs = {v: rhs_list[v] for v in range(n) if v not in fixed}
        got = solve_weighted_laplacian(n, edges, rhs, fixed)
        want = solve_dense(dense_laplacian(n, edges), rhs_list, fixed)
        assert got == want


class TestHarmonicExtension:
    def test_level_zero_returns_boundary(self, sg):
        u = harmonic_extension(sg, 0, (F(1), F(0), F(0)))
        g = u.graph
        bidx = g.boundary_indices()
        assert u.values[bidx[0]] == 1
        assert u.values[bidx[1]] == 0
        assert u.values[bidx[2]] == 0

    def test_level_one_midpoint_values(self, sg):
        u = harmonic_extension(sg, 1, (F(1), F(0), F(0)))
        g = u.graph
        b = sg.boundary

        def mid(p, q):
            return ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)

        assert u.values[g.vertex_index(mid(b[0], b[1]))] == F(2, 5)
        assert u.values[g.vertex_index(mid(b[0], b[2]))] == F(2, 5)
        assert u.values[g.vertex_index(mid(b[1], b[2]))] == F(1, 5)

    def test_boundary_values_preserved(self, sg):
        vals = (F(3, 7), F(-1, 2), F(5))
        for m in range(4):
            u = harmonic_extension(sg, m, vals)
            bidx = u.graph.boundary_indices()
            assert tuple(u.values[b] for b in bidx) == vals

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_recursive_matches_direct(self, sg, m):
        vals = (F(1), F(2, 3), F(-1, 5))
        ur = harmonic_extension(sg, m, vals, method="recursive")
        ud = harmonic_extension(sg, m, vals, method="direct")
        assert ur.values == ud.values

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_recursive_matches_direct_segment(self, segment, m):
        vals = (F(0), F(1))
        ur = harmonic_extension(segment, m, vals, method="recursive")
        ud = harmonic_extension(segment, m, vals, method="direct")
        assert ur.values == ud.values

    @pytest.mark.parametrize("corner", [0, 1, 2])
    def test_recursive_matches_direct_hook(self, hook, corner):
        # the hook's unit network is not renormalization-fixed, so each
        # depth needs its own level's interpolation matrix
        vals = tuple(F(int(a == corner)) for a in range(3))
        for m in range(5):
            ur = harmonic_extension(hook, m, vals, method="recursive")
            ud = harmonic_extension(hook, m, vals, method="direct")
            assert ur.values == ud.values

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_recursive_matches_direct_composed(self, sg, m):
        sg2 = compose(sg, sg)
        vals = (F(1), F(2, 3), F(-1, 5))
        ur = harmonic_extension(sg2, m, vals, method="recursive")
        ud = harmonic_extension(sg2, m, vals, method="direct")
        assert ur.values == ud.values

    def test_segment_extension_is_linear(self, segment):
        for m in range(4):
            u = harmonic_extension(segment, m, (F(0), F(1)))
            for p, v in zip(u.graph.vertices, u.values):
                assert v == p[0]

    def test_interior_harmonicity(self, sg):
        u = harmonic_extension(sg, 2, (F(1), F(0), F(0)))
        g = u.graph
        adj = g.adjacency()
        boundary = set(g.boundary_indices())
        for v in range(g.vertex_count):
            if v in boundary:
                continue
            assert sum(u.values[v] - u.values[w] for w in adj[v]) == 0

    @settings(max_examples=25, deadline=None)
    @given(
        b0=small_fractions,
        b1=small_fractions,
        b2=small_fractions,
    )
    def test_maximum_principle(self, sg, b0, b1, b2):
        u = harmonic_extension(sg, 2, (b0, b1, b2))
        lo, hi = min(b0, b1, b2), max(b0, b1, b2)
        assert all(lo <= v <= hi for v in u.values)

    def test_wrong_boundary_count(self, sg):
        with pytest.raises(ValueError):
            harmonic_extension(sg, 1, (F(1), F(0)))

    def test_unknown_method(self, sg):
        with pytest.raises(ValueError):
            harmonic_extension(sg, 1, (F(1), F(0), F(0)), method="magic")


class TestGraphEnergy:
    def test_level_zero_energy(self, sg):
        u = harmonic_extension(sg, 0, (F(1), F(0), F(0)))
        assert graph_energy(u, F(5, 3)) == 2

    def test_renormalized_energy_invariant(self, sg):
        for m in range(5):
            u = harmonic_extension(sg, m, (F(1), F(0), F(0)))
            assert graph_energy(u, F(5, 3)) == 2

    def test_raw_energy_decays_geometrically(self, sg):
        for m in range(5):
            u = harmonic_extension(sg, m, (F(1), F(0), F(0)))
            assert graph_energy(u, F(1)) == 2 * F(3, 5) ** m

    def test_segment_energy_invariant(self, segment):
        for m in range(5):
            u = harmonic_extension(segment, m, (F(0), F(1)))
            assert graph_energy(u, F(2)) == 1

    def test_float_scale_gives_float(self, sg):
        u = harmonic_extension(sg, 1, (F(1), F(0), F(0)))
        e = graph_energy(u, 5.0 / 3.0)
        assert isinstance(e, float)
        assert e == pytest.approx(2.0)

    def test_constant_function_zero_energy(self, sg):
        g = build_level_graph(sg, 2)
        u = GraphFunction(g, tuple(F(7) for _ in range(g.vertex_count)))
        assert graph_energy(u, F(5, 3)) == 0

    def test_value_count_checked(self, sg):
        g = build_level_graph(sg, 1)
        with pytest.raises(ValueError):
            GraphFunction(g, (F(1), F(0)))


class TestExitTimes:
    def test_exact_powers_of_five(self, sg):
        rep = exit_time_profile(sg, 4)
        assert [t for _, t in rep.rows] == [1, 5, 25, 125, 625]
        assert all(r == 5 for r in rep.ratios)
        assert rep.time_scale == 5
        assert rep.beta_hat == math.log(5.0) / math.log(2.0)

    def test_start_symmetry(self, sg):
        reports = [exit_time_profile(sg, 3, start=s) for s in range(3)]
        base = [t for _, t in reports[0].rows]
        for rep in reports[1:]:
            assert [t for _, t in rep.rows] == base

    def test_segment_exact_powers_of_four(self, segment):
        rep = exit_time_profile(segment, 4)
        assert [t for _, t in rep.rows] == [1, 4, 16, 64, 256]
        assert rep.beta_hat == 2.0

    def test_matches_dense_float_oracle(self, sg):
        rep = exit_time_profile(sg, 3)
        g = build_level_graph(sg, 3)
        bidx = g.boundary_indices()
        edges = {e: F(1) for e in g.edges}
        absorbing = {bidx[1], bidx[2]}
        want = exit_time_float(g.vertex_count, edges, absorbing, bidx[0])
        assert float(rep.rows[3][1]) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("start", [0, 1, 2])
    def test_hook_matches_level_solve(self, hook, start):
        rep = exit_time_profile(hook, 4, start=start)
        for m, steps in rep.rows:
            g = build_level_graph(hook, m)
            bidx = g.boundary_indices()
            absorbing = {bidx[a]: F(0) for a in range(3) if a != start}
            degree = [0] * g.vertex_count
            for i, j in g.edges:
                degree[i] += 1
                degree[j] += 1
            rhs = {v: F(degree[v]) for v in range(g.vertex_count) if v not in absorbing}
            edges = {e: F(1) for e in g.edges}
            u = solve_weighted_laplacian(g.vertex_count, edges, rhs, absorbing)
            assert steps == u[bidx[start]]

    def test_bad_start_rejected(self, sg):
        with pytest.raises(ValueError):
            exit_time_profile(sg, 1, start=3)

    def test_negative_level_rejected(self, sg):
        with pytest.raises(ValueError, match="level must be >= 0"):
            exit_time_profile(sg, -1)

    def test_budget_refused_before_any_elimination(self, sg, monkeypatch):
        calls = []
        real = walkdim.network._eliminate

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(walkdim.network, "_eliminate", counting)
        monkeypatch.setattr(walkdim.dirichlet, "_eliminate", counting)
        monkeypatch.setenv("WALKDIM_BUDGET", "30")
        with pytest.raises(BudgetExceeded, match="WALKDIM_BUDGET"):
            exit_time_profile(sg, 4)
        assert calls == []

    def test_json_shape(self, sg):
        payload = exit_time_profile(sg, 2).to_json()
        assert payload["expected_steps"][1] == {
            "level": 1,
            "value": "5",
            "float": 5.0,
        }
        assert payload["time_scale"] == "5"


class TestDeepInteriorVertex:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_not_a_boundary_vertex(self, sg, m):
        g = build_level_graph(sg, m)
        assert deep_interior_vertex(g) not in set(g.boundary_indices())

    def test_maximizes_hop_distance(self, sg):
        g = build_level_graph(sg, 3)
        adj = g.adjacency()
        dist = {b: 0 for b in g.boundary_indices()}
        frontier = list(dist)
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        best = deep_interior_vertex(g)
        assert dist[best] == max(dist.values())


class TestHeatKernel:
    def test_plateau_is_one_at_interior(self, sg):
        # stationary mass deg/sum(deg) equals the vertex measure weight at
        # every interior vertex, so the normalized plateau is exactly 1
        prof = heat_kernel_diag(sg, 4)
        assert prof.plateau == pytest.approx(1.0)

    def test_fitted_exponent_near_minus_alpha_over_beta(self, sg):
        prof = heat_kernel_diag(sg, 5)
        target = -math.log(3) / math.log(5)
        assert prof.fitted_exponent == pytest.approx(target, abs=0.02)
        assert prof.stderr < 0.01

    def test_diag_values_decay(self, sg):
        prof = heat_kernel_diag(sg, 4)
        assert all(p > 0 for p in prof.diag_values)
        assert prof.diag_values[0] > prof.diag_values[-1]

    def test_short_grid_rejected(self, sg):
        with pytest.raises(FitError):
            heat_kernel_diag(sg, 3, t_grid=[1, 2, 3, 4, 5])

    @pytest.mark.parametrize("lazy", [0.0, 1.0, -0.5])
    def test_laziness_range_checked(self, sg, lazy):
        with pytest.raises(ValueError):
            heat_kernel_diag(sg, 2, laziness=lazy)

    def test_base_vertex_range_checked(self, sg):
        with pytest.raises(ValueError):
            heat_kernel_diag(sg, 1, base_vertex=10_000)

    def test_time_grid_validated(self, sg):
        with pytest.raises(ValueError):
            heat_kernel_diag(sg, 2, t_grid=[0, 5, 10])


class TestDefaultTimeGrid:
    def test_endpoints_and_order(self):
        grid = default_time_grid(10, 1000, 30)
        assert grid[0] == 10
        assert grid[-1] == 1000
        assert list(grid) == sorted(set(grid))
        assert all(isinstance(t, int) and t >= 1 for t in grid)
