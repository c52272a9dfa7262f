"""ResultCache: content addressing, determinism gating, LRU eviction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import CSRGraph, complete_graph, erdos_renyi
from repro.kernels import preferred_tier
from repro.service import JobRequest, ResultCache


def request(**kw) -> JobRequest:
    kw.setdefault("graph", complete_graph(3))
    return JobRequest(**kw)


def colors(n: int = 3) -> np.ndarray:
    return np.arange(1, n + 1, dtype=np.int64)


class TestContentAddressing:
    def test_hit_across_equal_graphs(self):
        """Two separately-built but identical graphs share one entry."""
        cache = ResultCache(8)
        a = CSRGraph.from_edge_list(4, [(0, 1), (1, 2)])
        b = CSRGraph.from_edge_list(4, [(0, 1), (1, 2)])
        req = request()
        cache.put(req, a, colors(), 3)
        hit = cache.get(req, b)
        assert hit is not None
        assert np.array_equal(hit[0], colors())

    def test_miss_on_different_structure(self):
        cache = ResultCache(8)
        req = request()
        cache.put(req, complete_graph(3), colors(), 3)
        assert cache.get(req, complete_graph(4)) is None

    def test_key_includes_execution_choice(self):
        cache = ResultCache(8)
        g = complete_graph(3)
        cache.put(request(backend="vectorized"), g, colors(), 3)
        assert cache.get(request(backend="python"), g) is None
        assert cache.get(request(algorithm="greedy"), g) is None
        assert (
            cache.get(request(backend="hw", engine="batched"), g) is None
        )
        assert cache.get(request(backend="vectorized"), g) is not None

    def test_opts_in_key(self):
        cache = ResultCache(8)
        g = complete_graph(3)
        cache.put(request(opts={"prune_uncolored": True}), g, colors(), 3)
        assert cache.get(request(), g) is None
        assert (
            cache.get(request(opts={"prune_uncolored": True}), g) is not None
        )


class TestDeterminismGate:
    def test_unseeded_randomized_never_cached(self):
        cache = ResultCache(8)
        g = complete_graph(3)
        req = request(algorithm="jp")
        assert not ResultCache.cacheable(req)
        assert cache.put(req, g, colors(), 3) is False
        assert cache.get(req, g) is None
        assert len(cache) == 0

    def test_seeded_randomized_cached(self):
        cache = ResultCache(8)
        g = complete_graph(3)
        req = request(algorithm="jp", opts={"seed": 7})
        assert ResultCache.cacheable(req)
        assert cache.put(req, g, colors(), 3) is True
        assert cache.get(req, g) is not None


class TestLRU:
    def test_eviction_order(self):
        cache = ResultCache(2)
        graphs = [erdos_renyi(10 + i, 0.3, seed=i) for i in range(3)]
        req = request()
        cache.put(req, graphs[0], colors(), 3)
        cache.put(req, graphs[1], colors(), 3)
        cache.get(req, graphs[0])  # refresh 0 -> 1 is now the oldest
        cache.put(req, graphs[2], colors(), 3)
        assert cache.get(req, graphs[0]) is not None
        assert cache.get(req, graphs[1]) is None
        assert cache.get(req, graphs[2]) is not None

    def test_capacity_zero_disables(self):
        cache = ResultCache(0)
        g = complete_graph(3)
        assert cache.put(request(), g, colors(), 3) is False
        assert cache.get(request(), g) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(-1)


class TestSafety:
    def test_stored_array_is_readonly_copy(self):
        cache = ResultCache(4)
        g = complete_graph(3)
        mine = colors()
        cache.put(request(), g, mine, 3)
        mine[0] = 99  # caller mutating their buffer must not corrupt cache
        stored, _ = cache.get(request(), g)
        assert stored[0] == 1
        with pytest.raises(ValueError):
            stored[0] = 5

    def test_stats(self):
        cache = ResultCache(4)
        g = complete_graph(3)
        cache.get(request(), g)
        cache.put(request(), g, colors(), 3)
        cache.get(request(), g)
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1


class TestInvocationKey:
    """The key is the resolved invocation, not the request's raw fields:
    requests that run the same code share one entry."""

    def test_equivalent_requests_share_entries(self, service_factory, prefer_tier):
        # hw with and without engine="batched" run the same engine; an
        # unpinned job shares with a pin to the tier it resolved to.  The
        # other software pin keeps its own entry, so exactly 2 of the 5
        # hit on either tier, and every result names what ran.
        for tier in filter(prefer_tier, ("native", "vectorized")):
            svc = service_factory()
            sent = [
                ({"backend": "hw"}, ("hw", "batched")),
                ({"backend": "hw", "engine": "batched"}, ("hw", "batched")),
                ({}, (tier, None)),
                ({"backend": "native"}, ("native", None)),
                ({"backend": "vectorized"}, ("vectorized", None)),
            ]
            hits = []
            for kwargs, ran in sent:
                result = svc.color(dataset="EF", **kwargs)
                assert (result.backend, result.engine) == ran, kwargs
                hits.append(result.cache_hit)
            assert hits == [False, True, False, tier == "native",
                            tier == "vectorized"]
            assert sum(hits) == 2

    def test_unpinned_shares_with_its_tier_pin(self):
        cache = ResultCache(8)
        g = complete_graph(3)
        cache.put(request(), g, colors(), 3)
        assert cache.get(request(backend=preferred_tier()), g) is not None
        assert cache.get(request(backend="python"), g) is None
