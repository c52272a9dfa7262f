"""Micro-batcher: disjoint-union construction and byte-exact parity."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.graph import CSRGraph, complete_graph, erdos_renyi, star_graph
from repro.kernels import preferred_tier
from repro.service import JobRequest, batch_key, disjoint_union, run_microbatch
from repro.service.batcher import BATCHABLE_BACKENDS


class TestDisjointUnion:
    def test_structure(self):
        a = complete_graph(3)
        b = star_graph(4)
        union, spans = disjoint_union([a, b])
        assert spans == [(0, 3), (3, 7)]
        assert union.num_vertices == 7
        assert union.num_edges == a.num_edges + b.num_edges
        # Block 0 adjacency is verbatim; block 1 is shifted by 3.
        assert union.neighbors(0).tolist() == a.neighbors(0).tolist()
        assert union.neighbors(3).tolist() == (b.neighbors(0) + 3).tolist()

    def test_single_graph_is_identity(self):
        g = erdos_renyi(40, 0.1, seed=2)
        union, spans = disjoint_union([g])
        assert spans == [(0, 40)]
        assert np.array_equal(union.offsets, g.offsets)
        assert np.array_equal(union.edges, g.edges)

    def test_empty_and_edgeless_blocks(self):
        empty = CSRGraph.empty(0)
        lonely = CSRGraph.empty(3)
        g = complete_graph(2)
        union, spans = disjoint_union([empty, lonely, g])
        assert spans == [(0, 0), (0, 3), (3, 5)]
        assert union.num_vertices == 5
        assert union.num_edges == 2

    def test_requires_graphs(self):
        with pytest.raises(ValueError):
            disjoint_union([])


class TestBatchKey:
    def request(self, **kw):
        kw.setdefault("graph", complete_graph(3))
        return JobRequest(**kw)

    def test_default_bitwise_is_batchable(self):
        key = batch_key(self.request(), complete_graph(3))
        assert key == ("bitwise", preferred_tier(), ())

    def test_default_backend_fills_unpinned_key(self, prefer_tier):
        # Unpinned jobs key on the preferred software tier their
        # invocation resolves to; pinned jobs keep their own backend.
        g = complete_graph(3)
        for tier in filter(prefer_tier, ("native", "vectorized")):
            assert batch_key(self.request(), g) == ("bitwise", tier, ())
            pinned = batch_key(self.request(backend="python"), g)
            assert pinned == ("bitwise", "python", ())

    @pytest.mark.parametrize("backend", BATCHABLE_BACKENDS)
    def test_software_backends_batchable(self, backend):
        key = batch_key(self.request(backend=backend), complete_graph(3))
        assert key[1] == backend

    def test_ineligible_requests(self):
        g = complete_graph(3)
        assert batch_key(self.request(algorithm="jp"), g) is None
        assert batch_key(self.request(backend="hw"), g) is None
        assert (
            batch_key(
                self.request(backend="hw", engine="batched"), g
            )
            is None
        )
        assert batch_key(self.request(opts={"order": "degree"}), g) is None

    def test_prune_option_kept_in_key(self):
        key = batch_key(
            self.request(opts={"prune_uncolored": False}), complete_graph(3)
        )
        assert key == ("bitwise", preferred_tier(), (("prune_uncolored", False),))


class TestMicrobatchParity:
    """The load-bearing claim: union coloring == solo coloring, byte-exact."""

    @pytest.mark.parametrize("backend", BATCHABLE_BACKENDS)
    def test_random_mix(self, backend):
        graphs = [
            erdos_renyi(50 + 13 * i, 0.1, seed=20 + i) for i in range(5)
        ] + [complete_graph(6), star_graph(9)]
        key = ("bitwise", backend, ())
        results = run_microbatch(graphs, key)
        assert len(results) == len(graphs)
        for g, (colors, n_colors) in zip(graphs, results):
            solo = repro.color(g, "bitwise", backend=backend)
            assert np.array_equal(colors, solo.colors), g.name
            assert n_colors == solo.n_colors

    def test_prune_uncolored_survives_union(self):
        graphs = [erdos_renyi(60, 0.12, seed=i) for i in range(3)]
        key = ("bitwise", "vectorized", (("prune_uncolored", True),))
        for g, (colors, _) in zip(graphs, run_microbatch(graphs, key)):
            solo = repro.color(g, "bitwise", prune_uncolored=True)
            assert np.array_equal(colors, solo.colors)

    def test_result_arrays_are_independent_copies(self):
        graphs = [complete_graph(4), complete_graph(4)]
        (c1, _), (c2, _) = run_microbatch(graphs, ("bitwise", "vectorized", ()))
        c1[0] = 999
        assert c2[0] != 999
