from fractions import Fraction

import pytest

import walkdim.levelgraph
from conftest import SLOW_GRID, VICSEK
from oracles import level_graph_wordwise
from walkdim.errors import BudgetExceeded, WalkdimError
from walkdim.ifs import IfsSpec, LatticePoints, compose, sample_measure
from walkdim.besov import (
    LipschitzMap,
    alfors_check,
    besov_functional,
    critical_exponent_fit,
    pushforward_check,
)
from walkdim.dirichlet import harmonic_extension, heat_kernel_diag
from walkdim.levelgraph import (
    build_level_graph,
    components_after_removal,
    level_vertex_count,
    vertex_measure_weights,
)

F = Fraction


def sg_counts(m):
    # standard gasket graph sizes
    return (3 ** (m + 1) + 3) // 2, 3 ** (m + 1)


class TestBuild:
    @pytest.mark.parametrize("m", range(0, 6))
    def test_sg_vertex_edge_counts(self, sg, m):
        g = build_level_graph(sg, m)
        v, e = sg_counts(m)
        assert (g.vertex_count, g.edge_count) == (v, e)
        assert len(g.cells) == 3 ** m

    @pytest.mark.parametrize("m", range(0, 5))
    def test_segment_counts(self, segment, m):
        g = build_level_graph(segment, m)
        assert g.vertex_count == 2 ** m + 1
        assert g.edge_count == 2 ** m

    def test_level_zero_is_complete_boundary(self, sg):
        g = build_level_graph(sg, 0)
        assert g.vertex_count == 3 and g.edge_count == 3
        assert sorted(g.boundary_indices()) == [0, 1, 2]

    def test_negative_level_rejected(self, sg):
        with pytest.raises(ValueError):
            build_level_graph(sg, -1)

    def test_deterministic(self, sg):
        a = build_level_graph(sg, 3)
        b = build_level_graph(sg, 3)
        assert a.vertices == b.vertices and a.edges == b.edges

    def test_vertices_nest_across_levels(self, sg):
        small = set(build_level_graph(sg, 2).vertices)
        large = set(build_level_graph(sg, 3).vertices)
        assert small <= large

    def test_boundary_indices_point_at_boundary(self, sg):
        g = build_level_graph(sg, 2)
        for bi, p in zip(g.boundary_indices(), sg.boundary):
            assert g.vertices[bi] == p

    def test_cells_are_simplices(self, sg):
        g = build_level_graph(sg, 2)
        k = len(sg.boundary)
        assert all(len(c) == k for c in g.cells)

    def test_vertex_index_lookup(self, sg):
        g = build_level_graph(sg, 1)
        for i, v in enumerate(g.vertices):
            assert g.vertex_index(v) == i
        with pytest.raises(WalkdimError):
            g.vertex_index((F(7), F(7)))

    @pytest.mark.parametrize(
        "point, text",
        [
            ((F(1, 3), F(0)), "(1/3, 0)"),  # off the lattice
            ((F(3, 4), F(3, 4)), "(3/4, 3/4)"),  # on the lattice, outside the set
            ((F(-1, 4), F(0)), "(-1/4, 0)"),  # a negative coordinate
        ],
    )
    def test_vertex_index_miss_message(self, sg, point, text):
        g = build_level_graph(sg, 2)
        with pytest.raises(WalkdimError) as exc:
            g.vertex_index(point)
        assert str(exc.value) == f"{text} is not a vertex of the level-2 graph"

    def test_equality_and_hash_follow_the_points(self, sg):
        a, b = build_level_graph(sg, 3), build_level_graph(sg, 3)
        assert a == b and hash(a) == hash(b)
        assert a != build_level_graph(sg, 2)

    def test_adjacency_symmetric(self, sg):
        g = build_level_graph(sg, 2)
        adj = g.adjacency()
        for u, nbrs in enumerate(adj):
            for v in nbrs:
                assert u in adj[v]


class TestLatticeGluing:
    @pytest.mark.parametrize("m", range(0, 6))
    @pytest.mark.parametrize("name", ["sg", "segment", "hook", "sg2", "shifted-hook"])
    def test_matches_wordwise_oracle(self, lattice_systems, name, m):
        g = build_level_graph(lattice_systems[name], m)
        assert (g.vertices, g.edges, g.cells) == level_graph_wordwise(g.ifs, m)
        assert all(type(c) is Fraction for p in g.vertices for c in p)


class TestVertexCount:
    @pytest.fixture(scope="class")
    def systems(self, lattice_systems):
        return {
            **{name: lattice_systems[name] for name in ("sg", "segment", "hook")},
            "vicsek": IfsSpec.from_json(VICSEK),
            "slow-grid": IfsSpec.from_json(SLOW_GRID),
        }

    @pytest.mark.parametrize("m", range(0, 6))
    @pytest.mark.parametrize("name", ["sg", "segment", "hook", "vicsek", "slow-grid"])
    def test_recursion_matches_build(self, systems, name, m):
        assert level_vertex_count(systems[name], m) == build_level_graph(systems[name], m).vertex_count


class TestLazyVertices:
    def test_built_once(self, sg):
        g = build_level_graph(sg, 3)
        assert "points" not in vars(g)
        first = g.vertices
        assert g.vertices is first and g.points is first
        assert vars(g)["points"] is first

    def test_estimators_never_build_vertices(self, sg, monkeypatch):
        # the float estimators and the recursive route read the numerators,
        # on level graphs and on measure samples alike
        built = []
        build_points = LatticePoints.__dict__["points"].func

        def spy(self):
            built.append(self)
            return build_points(self)

        monkeypatch.setattr(LatticePoints, "points", property(spy))
        g = build_level_graph(sg, 5)
        u = harmonic_extension(sg, 5, (F(1), F(0), F(0)), method="recursive")
        heat_kernel_diag(sg, 5)
        critical_exponent_fit(u.graph, u)
        pushforward_check(LipschitzMap(F(1, 2), (F(1, 3), F(0))), sg, u)
        s = sample_measure(sg, 8, 500, seed=1)
        x = s.float_points()[:, 0]
        besov_functional(s, x, 0.5)
        critical_exponent_fit(s, x)
        alfors_check(s, 1.0)
        assert built == []
        monkeypatch.undo()
        assert all("points" not in vars(c) for c in (g, u.graph, s))


class TestBudget:
    def test_exceeded(self, sg, monkeypatch):
        monkeypatch.setattr(walkdim.levelgraph, "MAX_CELLS", 10)
        for count_or_build in (level_vertex_count, build_level_graph):
            with pytest.raises(BudgetExceeded) as exc:
                count_or_build(sg, 5)
            assert exc.value.budget == 10
            assert "(-m)" in str(exc.value) and "levelgraph.MAX_CELLS" in str(exc.value)

    def test_within_budget_runs(self, sg, monkeypatch):
        monkeypatch.setattr(walkdim.levelgraph, "MAX_CELLS", 27)
        assert build_level_graph(sg, 3).vertex_count == 42


class TestRemoval:
    def test_midpoints_disconnect_sg(self, sg):
        g = build_level_graph(sg, 1)
        mids = [(F(1, 2), F(0)), (F(0), F(1, 2)), (F(1, 2), F(1, 2))]
        assert components_after_removal(g, mids) == 3

    def test_level2_midpoints_still_disconnect(self, sg):
        g = build_level_graph(sg, 2)
        mids = [(F(1, 2), F(0)), (F(0), F(1, 2)), (F(1, 2), F(1, 2))]
        assert components_after_removal(g, mids) == 3

    def test_no_removal_connected(self, sg):
        g = build_level_graph(sg, 2)
        assert components_after_removal(g, []) == 1

    def test_corner_removal_keeps_connected(self, sg):
        g = build_level_graph(sg, 2)
        assert components_after_removal(g, [(F(0), F(0))]) == 1

    def test_segment_interior_cut(self, segment):
        g = build_level_graph(segment, 2)
        assert components_after_removal(g, [(F(1, 2), F(0))]) == 2

    def test_unknown_point_rejected(self, sg):
        g = build_level_graph(sg, 1)
        with pytest.raises(WalkdimError):
            components_after_removal(g, [(F(9), F(9))])


class TestMeasureWeights:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sum_to_one(self, sg, m):
        w = vertex_measure_weights(build_level_graph(sg, m))
        assert sum(w) == 1

    def test_sg_level1_values(self, sg):
        g = build_level_graph(sg, 1)
        w = vertex_measure_weights(g)
        # each cell spreads 1/3 over 3 corners; shared midpoints get double
        boundary = set(g.boundary_indices())
        for i, wi in enumerate(w):
            assert wi == (F(1, 9) if i in boundary else F(2, 9))

    def test_composed_system_matches_refinement(self, sg):
        # one level of sg.sg carries the same point set as two sg levels
        c = compose(sg, sg)
        a = build_level_graph(c, 1)
        b = build_level_graph(sg, 2)
        assert set(a.vertices) == set(b.vertices)
