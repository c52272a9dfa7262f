"""Tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.graph import (
    GraphError,
    barabasi_albert,
    community_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    powerlaw_cluster,
    random_bipartite,
    random_regular,
    rmat,
    road_grid,
    scenario_graph,
    star_graph,
)
from repro.graph.stats import gini_coefficient


def _basic_invariants(g):
    assert g.is_symmetric()
    assert not g.has_self_loops()
    assert not g.has_duplicate_edges()


class TestRMAT:
    def test_size(self):
        g = rmat(8, 4, seed=1)
        assert g.num_vertices == 256
        # Duplicates removed, so at most 2 * edge_factor * n directed slots.
        assert 0 < g.num_edges <= 2 * 4 * 256
        _basic_invariants(g)

    def test_determinism(self):
        a, b = rmat(7, 4, seed=5), rmat(7, 4, seed=5)
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.offsets, b.offsets)

    def test_seed_changes_graph(self):
        a, b = rmat(7, 4, seed=5), rmat(7, 4, seed=6)
        assert not (
            np.array_equal(a.edges, b.edges) and np.array_equal(a.offsets, b.offsets)
        )

    def test_degree_skew(self):
        """Graph500 parameters give a heavy-tailed degree distribution."""
        g = rmat(10, 8, seed=2)
        assert gini_coefficient(g.degrees()) > 0.35

    def test_invalid_probabilities(self):
        with pytest.raises(GraphError):
            rmat(4, 2, a=0.9, b=0.2, c=0.2)
        with pytest.raises(GraphError):
            rmat(-1, 2)


class TestBarabasiAlbert:
    def test_size_and_invariants(self):
        g = barabasi_albert(200, 3, seed=1)
        assert g.num_vertices == 200
        # Each of the n - m new vertices adds m undirected edges.
        assert g.num_undirected_edges == (200 - 3) * 3
        _basic_invariants(g)

    def test_hub_emerges(self):
        g = barabasi_albert(300, 2, seed=3)
        assert g.max_degree() > 10

    def test_invalid_params(self):
        with pytest.raises(GraphError):
            barabasi_albert(3, 3)
        with pytest.raises(GraphError):
            barabasi_albert(10, 0)


class TestPowerlawCluster:
    def test_invariants(self):
        g = powerlaw_cluster(150, 4, 0.5, seed=2)
        assert g.num_vertices == 150
        _basic_invariants(g)

    def test_clustering_above_ba(self):
        """Triad closure must raise the clustering coefficient vs plain BA."""
        import networkx as nx

        plc = powerlaw_cluster(300, 4, 0.9, seed=4).to_networkx()
        ba = barabasi_albert(300, 4, seed=4).to_networkx()
        assert nx.average_clustering(plc) > nx.average_clustering(ba)

    def test_invalid_p(self):
        with pytest.raises(GraphError):
            powerlaw_cluster(50, 2, 1.5)


class TestRoadGrid:
    def test_size(self):
        g = road_grid(10, 12, seed=1)
        assert g.num_vertices == 120
        _basic_invariants(g)

    def test_bounded_degree(self):
        g = road_grid(20, 20, seed=2)
        assert g.max_degree() <= 8  # 4-grid + diagonals

    def test_no_perturbation_is_exact_grid(self):
        g = road_grid(5, 5, diag_prob=0.0, removal_prob=0.0, seed=0)
        assert g.num_undirected_edges == 2 * 5 * 4  # 2 * r * (c-1) for square
        assert g.degree(0) == 2  # corner
        assert g.degree(12) == 4  # center

    def test_invalid_dims(self):
        with pytest.raises(GraphError):
            road_grid(0, 5)


class TestCommunityGraph:
    def test_size(self):
        g = community_graph(10, 20, seed=1)
        assert g.num_vertices == 200
        _basic_invariants(g)

    def test_community_structure(self):
        """Intra-community edges dominate with the default rates."""
        g = community_graph(8, 25, p_in=0.3, p_out=0.001, seed=2)
        arr = g.edge_array()
        same = np.count_nonzero(arr[:, 0] // 25 == arr[:, 1] // 25)
        assert same / max(arr.shape[0], 1) > 0.8

    def test_invalid(self):
        with pytest.raises(GraphError):
            community_graph(0, 5)


class TestScenarioGraph:
    def test_deterministic_given_knobs(self):
        a = scenario_graph(300, 0.45, 0.5, 6, seed=3)
        b = scenario_graph(300, 0.45, 0.5, 6, seed=3)
        assert a.fingerprint() == b.fingerprint()
        _basic_invariants(a)

    def test_seed_changes_the_graph(self):
        a = scenario_graph(300, 0.45, 0.5, 6, seed=3)
        b = scenario_graph(300, 0.45, 0.5, 6, seed=4)
        assert a.fingerprint() != b.fingerprint()

    def test_density_knob_moves_realised_density(self):
        sparse = scenario_graph(1000, 0.3, 0.0, 2)
        dense = scenario_graph(1000, 0.3, 0.0, 16)
        assert dense.num_edges > 3 * sparse.num_edges

    def test_skew_knob_moves_degree_skew(self):
        # Home-quadrant probability 0.25 is uniform; 0.9 is a heavy tail.
        # Skew is the max-to-mean degree ratio.
        def skew(g):
            return g.max_degree() / (g.num_edges / g.num_vertices)

        flat = scenario_graph(2048, 0.25, 0.0, 8)
        skewed = scenario_graph(2048, 0.9, 0.0, 8)
        assert skew(skewed) > 2 * skew(flat)

    def test_community_knob_concentrates_edges(self):
        # With community=1.0 every edge lives inside a sqrt(n) block, so
        # endpoints are never more than one block apart.
        g = scenario_graph(900, 0.3, 1.0, 6)
        csize = max(4, int(np.sqrt(900)))
        arr = g.edge_array()
        assert arr.shape[0] > 0
        assert np.all(np.abs(arr[:, 0] // csize - arr[:, 1] // csize) <= 1)

    def test_colorable(self):
        from repro import color
        from repro.coloring.verify import assert_proper_coloring

        g = scenario_graph(500, 0.6, 0.4, 8, seed=1)
        assert_proper_coloring(g, color(g, "bitwise").colors)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(size=1, skew=0.3, community=0.0, density=4),
            dict(size=100, skew=0.1, community=0.0, density=4),
            dict(size=100, skew=0.3, community=1.5, density=4),
            dict(size=100, skew=0.3, community=0.0, density=0),
        ],
    )
    def test_knob_validation(self, kwargs):
        with pytest.raises(ValueError):
            scenario_graph(**kwargs)


class TestErdosRenyi:
    def test_edge_count_near_expectation(self):
        n, p = 300, 0.05
        g = erdos_renyi(n, p, seed=3)
        expect = p * n * (n - 1) / 2
        assert abs(g.num_undirected_edges - expect) < 4 * np.sqrt(expect)
        _basic_invariants(g)

    def test_p_zero_and_one(self):
        assert erdos_renyi(20, 0.0, seed=1).num_edges == 0
        g = erdos_renyi(10, 1.0, seed=1)
        assert g.num_undirected_edges == 45

    def test_invalid_p(self):
        with pytest.raises(GraphError):
            erdos_renyi(10, -0.1)


class TestRandomRegular:
    def test_degree_bound(self):
        g = random_regular(50, 4, seed=2)
        assert g.max_degree() <= 4
        _basic_invariants(g)

    def test_parity_check(self):
        with pytest.raises(GraphError):
            random_regular(5, 3)

    def test_degree_range_check(self):
        with pytest.raises(GraphError):
            random_regular(5, 5)


class TestPrimitives:
    def test_complete(self):
        g = complete_graph(5)
        assert g.num_undirected_edges == 10

    def test_star(self):
        g = star_graph(8)
        assert g.degree(0) == 7
        assert all(g.degree(v) == 1 for v in range(1, 8))

    def test_star_invalid(self):
        with pytest.raises(GraphError):
            star_graph(0)

    def test_path(self):
        g = path_graph(6)
        assert g.num_undirected_edges == 5
        assert g.degree(0) == 1
        assert g.degree(3) == 2

    def test_cycle(self):
        g = cycle_graph(7)
        assert g.num_undirected_edges == 7
        assert all(g.degree(v) == 2 for v in range(7))

    def test_cycle_too_small(self):
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_bipartite_structure(self):
        g = random_bipartite(20, 30, 0.2, seed=5)
        assert g.num_vertices == 50
        for u, v in g.iter_edges():
            assert (u < 20) != (v < 20), "edge inside one side"
