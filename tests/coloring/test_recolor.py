"""Tests for Kempe-chain and iterated-greedy color reduction."""

import warnings

import numpy as np
import pytest

from repro.coloring import assert_proper_coloring, greedy_coloring_fast, num_colors
from repro.coloring.recolor import iterated_greedy, kempe_chain, kempe_reduce
from repro.graph import CSRGraph, cycle_graph, erdos_renyi, rmat


class TestKempeChain:
    def test_simple_chain(self):
        # Path 0-1-2 colored 1,2,1: chain of 0 toward color 2 is everything.
        g = CSRGraph.from_edge_list(3, [(0, 1), (1, 2)])
        colors = np.array([1, 2, 1])
        chain = kempe_chain(g, colors, 0, 2)
        assert chain.tolist() == [0, 1, 2]

    def test_chain_stops_at_other_colors(self):
        # 0-1-2-3 colored 1,2,3,1: chain of 0 toward 2 stops at vertex 2.
        g = CSRGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
        colors = np.array([1, 2, 3, 1])
        chain = kempe_chain(g, colors, 0, 2)
        assert chain.tolist() == [0, 1]

    def test_swap_preserves_properness(self):
        g = erdos_renyi(50, 0.15, seed=3)
        colors = greedy_coloring_fast(g)
        k = num_colors(colors)
        if k >= 2:
            v = int(np.nonzero(colors == k)[0][0])
            chain = kempe_chain(g, colors, v, 1)
            swapped = colors.copy()
            mask = np.isin(np.arange(g.num_vertices), chain)
            swapped[mask & (colors == k)] = 1
            swapped[mask & (colors == 1)] = k
            assert_proper_coloring(g, swapped)

    def test_invalid_args(self):
        g = CSRGraph.from_edge_list(2, [(0, 1)])
        with pytest.raises(ValueError):
            kempe_chain(g, np.array([1, 2]), 0, 1)  # same color
        with pytest.raises(ValueError):
            kempe_chain(g, np.array([0, 2]), 0, 1)  # uncolored vertex


class TestKempeReduce:
    @pytest.mark.parametrize("seed", range(4))
    def test_proper_and_never_worse(self, seed):
        g = erdos_renyi(60, 0.15, seed=seed)
        colors = greedy_coloring_fast(g)
        res = kempe_reduce(g, colors)
        assert_proper_coloring(g, res.colors)
        assert res.colors_after <= res.colors_before

    def test_reduces_bad_cycle_coloring(self):
        """An even cycle colored with 3 colors by a bad order drops to 2."""
        g = cycle_graph(8)
        bad_order = [0, 2, 4, 6, 1, 3, 5, 7]
        colors = greedy_coloring_fast(g, order=np.array(bad_order))
        # This order 2-colors it actually; force a 3-coloring manually.
        colors = np.array([1, 2, 1, 2, 1, 2, 1, 3])
        assert colors[7] == 3
        res = kempe_reduce(g, colors)
        assert_proper_coloring(g, res.colors)
        assert res.colors_after == 2

    def test_input_unchanged(self, small_random):
        colors = greedy_coloring_fast(small_random)
        snap = colors.copy()
        kempe_reduce(small_random, colors)
        assert np.array_equal(colors, snap)


class TestIteratedGreedy:
    @pytest.mark.parametrize("seed", range(3))
    def test_never_worse(self, seed):
        g = rmat(8, 6, seed=seed)
        base = greedy_coloring_fast(g)
        res = iterated_greedy(g, colors=base, iterations=6, seed=seed)
        assert_proper_coloring(g, res.colors)
        assert res.colors_after <= num_colors(base)

    def test_improves_random_order_start(self):
        """Starting from a random-order coloring, iterated greedy usually
        recovers several colors."""
        g = rmat(9, 6, seed=10)
        gen = np.random.default_rng(4)
        bad = greedy_coloring_fast(g, order=gen.permutation(g.num_vertices))
        res = iterated_greedy(g, colors=bad, iterations=8, seed=1)
        assert res.colors_after <= num_colors(bad)

    def test_default_start(self, small_random):
        res = iterated_greedy(small_random, iterations=3)
        assert_proper_coloring(small_random, res.colors)
        assert res.iterations == 3


class TestDeprecatedNumColors:
    """The deprecated ``RecolorResult.num_colors`` alias is gone;
    ``n_colors`` (equal to ``colors_after``) is the one spelling."""

    def _check(self, res):
        assert not hasattr(res, "num_colors")
        assert res.n_colors == res.colors_after
        assert res.as_dict()["n_colors"] == res.colors_after

    def test_kempe_reduce(self, small_random):
        res = kempe_reduce(small_random, greedy_coloring_fast(small_random))
        self._check(res)

    def test_iterated_greedy(self, small_random):
        res = iterated_greedy(small_random, iterations=2, seed=0)
        self._check(res)

    def test_canonical_spellings_stay_silent(self, small_random):
        res = kempe_reduce(small_random, greedy_coloring_fast(small_random))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert res.n_colors == res.colors_after
            assert isinstance(res.improved, bool)
