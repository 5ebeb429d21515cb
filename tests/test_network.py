import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import effective_resistance, effective_resistance_dense, schur_reduce_dense
from walkdim.errors import ReductionError
from walkdim.ifs import compose
from walkdim.logratio import LogRatio
from walkdim.network import (
    ConductanceNetwork,
    dimension_report_from_constants,
    reduce_boundary,
    renorm_factor,
    replicate,
    unit_complete_network,
    walk_dimension,
)

F = Fraction


class TestConductanceNetwork:
    def test_parallel_edges_merge(self):
        net = ConductanceNetwork(2, {(0, 1): F(1), (1, 0): F(2)}, (0, 1))
        assert net.edge(0, 1) == 3

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

    def test_interior(self):
        net = ConductanceNetwork(4, {(0, 1): F(1)}, (0, 3))
        assert net.interior == (1, 2)


class TestReduction:
    def test_series_halves(self):
        # 0 -1- 1 -1- 2 with interior 1: conductance 1/2 end to end
        net = ConductanceNetwork(3, {(0, 1): F(1), (1, 2): F(1)}, (0, 2))
        red = reduce_boundary(net)
        assert red.vertex_count == 2 and red.edge(0, 1) == F(1, 2)

    def test_star_to_triangle(self):
        # unit 3-star: Y-Delta gives 1/3 on each triangle edge
        net = ConductanceNetwork(
            4, {(0, 3): F(1), (1, 3): F(1), (2, 3): F(1)}, (0, 1, 2)
        )
        red = reduce_boundary(net)
        assert all(red.edge(i, j) == F(1, 3) for i, j in [(0, 1), (0, 2), (1, 2)])

    def test_boundary_relabeled_in_order(self):
        net = ConductanceNetwork(3, {(0, 1): F(1), (1, 2): F(1)}, (2, 0))
        red = reduce_boundary(net)
        # boundary order (2, 0) becomes indices (0, 1)
        assert red.boundary == (0, 1)
        assert red.edge(0, 1) == F(1, 2)

    def test_dangling_interior_rejected(self):
        net = ConductanceNetwork(3, {(0, 1): F(1)}, (0, 1))
        with pytest.raises(ReductionError):
            reduce_boundary(net)

    def test_no_interior_is_identity(self):
        net = unit_complete_network(3)
        red = reduce_boundary(net)
        assert red.conductances == net.conductances


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
        net = ConductanceNetwork(n, dict(edges), boundary)
        red = reduce_boundary(net)
        oracle = schur_reduce_dense(n, edges, boundary)
        got = {e: c for e, c in red.conductances.items()}
        assert got == oracle

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
        red = reduce_boundary(net)
        assert effective_resistance(net, 0, n - 1) == effective_resistance(
            red, 0, 1
        )


class TestEffectiveResistance:
    def test_unit_triangle(self):
        assert effective_resistance(unit_complete_network(3), 0, 1) == F(2, 3)

    def test_series_path(self):
        net = ConductanceNetwork(3, {(0, 1): F(1), (1, 2): F(1)}, (0, 2))
        assert effective_resistance(net, 0, 2) == 2

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            effective_resistance(unit_complete_network(3), 1, 1)

    def test_disconnected_pair_rejected(self):
        net = ConductanceNetwork(4, {(0, 1): F(1), (2, 3): F(1)}, (0, 3))
        with pytest.raises(ReductionError):
            effective_resistance(net, 0, 3)


class TestReplicate:
    def test_sg_one_level(self, sg):
        rep = replicate(sg, unit_complete_network(3))
        assert rep.vertex_count == 6
        assert len(rep.conductances) == 9
        assert len(rep.boundary) == 3

    def test_conductances_add_on_shared_edges(self, sg):
        # no two sg cells share an edge, so every conductance stays 1
        rep = replicate(sg, unit_complete_network(3))
        assert set(rep.conductances.values()) == {F(1)}


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
        # the unit network is not renormalization-fixed, so the float
        # route runs; its fixed direction is (s, s, 3 - 2s) with
        # s = (sqrt(33) - 3)/2
        res = renorm_factor(hook)
        assert res.exact is False and res.iterations > 0
        fixed = res.fixed_network.conductances
        assert sum(fixed.values()) == pytest.approx(3, abs=1e-12)
        s = (math.sqrt(33) - 3) / 2
        assert sum(abs(c - s) <= 1e-12 for c in fixed.values()) == 2
        mu = 1 / res.energy_scale
        reduced = reduce_boundary(replicate(hook, res.fixed_network))
        for e, c in fixed.items():
            assert reduced.edge(*e) == pytest.approx(mu * c, rel=1e-10)


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
        assert rep.alpha + rep.gamma == rep.beta

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

    def test_constants_validation(self):
        with pytest.raises(ValueError):
            dimension_report_from_constants("bad", 1, F(1, 2), F(5, 3))
        with pytest.raises(ValueError):
            dimension_report_from_constants("bad", 3, F(3, 2), F(5, 3))
