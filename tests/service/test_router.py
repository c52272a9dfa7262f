"""Router: the one routing rule and the software tiers.

The router takes the backend from the request's resolved invocation;
tests pick the preferred tier the way a deployment does, with
``REPRO_NATIVE=0`` plus ``native.refresh()`` (the ``prefer_tier``
fixture)."""

from __future__ import annotations

import pytest

from repro.graph import erdos_renyi, road_grid, star_graph
from repro.kernels import native as native_kernels
from repro.kernels import preferred_tier
from repro.service import MICROBATCH_CROSSOVER, JobRequest, Router

TIERS = ("native", "vectorized")


def route(router, graph, **kw):
    kw.setdefault("graph", graph)
    return router.route(JobRequest(**kw), graph)


class TestLanes:
    def test_small_unpinned_goes_to_batch(self, prefer_tier):
        assert prefer_tier("vectorized")
        router = Router(small_vertices=2048)
        g = erdos_renyi(100, 0.1, seed=1)
        decision = route(router, g)
        assert decision.lane == "batch"
        assert decision.backend == "vectorized"
        assert decision.batch_key is not None

    def test_small_pinned_software_still_batches(self):
        router = Router()
        g = erdos_renyi(100, 0.1, seed=1)
        decision = route(router, g, backend="python")
        assert decision.lane == "batch"
        assert decision.backend == "python"

    def test_pinned_hw_never_batches(self):
        router = Router()
        g = erdos_renyi(100, 0.1, seed=1)
        decision = route(router, g, backend="hw", engine="batched")
        assert decision.lane == "direct"
        assert decision.backend == "hw"
        assert decision.engine == "batched"

    def test_batching_disabled(self):
        router = Router(batching=False)
        g = erdos_renyi(100, 0.1, seed=1)
        assert route(router, g).lane == "direct"

    def test_seeded_algorithm_never_batches(self):
        router = Router()
        g = erdos_renyi(100, 0.1, seed=1)
        decision = route(router, g, algorithm="jp", opts={"seed": 0})
        assert decision.lane == "direct"


class TestSizeSkewHeuristics:
    """Size is the only routing input: no skew or large-size threshold
    moves an unpinned job off the software tier (hw needs a pin)."""

    def test_large_skewed_stays_on_software_tier(self, prefer_tier):
        # A star graph has max/mean degree ratio ~ n/2 — extreme skew.
        g = star_graph(60_000)
        for tier in filter(prefer_tier, TIERS):
            decision = route(Router(), g)
            assert decision.lane == "direct"
            assert decision.backend == tier
            assert decision.engine is None
            assert decision.reason == "(default)"

    def test_large_regular_stays_on_software_tier(self, prefer_tier):
        # A road grid's degree is nearly uniform (max 4, mean ~4).
        g = road_grid(250, 250, seed=1)
        assert g.num_vertices >= 50_000
        for tier in filter(prefer_tier, TIERS):
            decision = route(Router(), g)
            assert decision.lane == "direct"
            assert decision.backend == tier
            assert decision.engine is None

    def test_midsize_takes_default_backend(self, prefer_tier):
        assert prefer_tier("vectorized")
        router = Router(small_vertices=64)
        g = erdos_renyi(500, 0.02, seed=2)
        decision = route(router, g)
        assert decision.lane == "direct"
        assert decision.backend == "vectorized"
        assert "default" in decision.reason

    def test_algorithm_without_parallel_backend_stays_default(
        self, prefer_tier
    ):
        assert prefer_tier("vectorized")
        router = Router(small_vertices=64)
        g = star_graph(5000)
        decision = route(router, g, algorithm="jp", opts={"seed": 0})
        assert decision.backend == "vectorized"

    def test_pinned_large_not_rerouted(self):
        router = Router(small_vertices=64)
        g = star_graph(5000)
        decision = route(router, g, backend="vectorized")
        assert decision.backend == "vectorized"
        assert "pinned" in decision.reason


class TestSoftwareTier:
    """The per-tier micro-batch crossover and the preferred tier."""

    def test_crossover_shape(self):
        # One entry per tier preferred_tier() can name.
        assert MICROBATCH_CROSSOVER == {
            "vectorized": 2048,
            "native": 512,
        }

    def test_default_tier_follows_capability_probe(self):
        router = Router()
        assert router.software_tier == preferred_tier()
        assert (
            router.small_vertices
            == MICROBATCH_CROSSOVER[router.software_tier]
        )

    def test_pinned_tier_selects_its_crossover(self, prefer_tier):
        # The preferred tier at construction selects the crossover.
        for tier in filter(prefer_tier, TIERS):
            assert Router().small_vertices == MICROBATCH_CROSSOVER[tier]

    def test_explicit_small_vertices_wins(self):
        router = Router(small_vertices=99)
        assert router.small_vertices == 99

    def test_unknown_tier_rejected(self):
        # The invocation's name checks reject a backend no tier provides.
        g = erdos_renyi(10, 0.2, seed=1)
        with pytest.raises(ValueError, match="does not support backend 'fpga'"):
            route(Router(), g, backend="fpga")

    def test_unpinned_small_job_rides_the_tier(self, prefer_tier):
        g = erdos_renyi(100, 0.1, seed=1)
        for tier in filter(prefer_tier, TIERS):
            decision = route(Router(), g)
            assert decision.lane == "batch"
            assert decision.backend == tier
            assert decision.batch_key == ("bitwise", tier, ())

    def test_unpinned_midsize_job_rides_the_tier(self, prefer_tier):
        g = erdos_renyi(500, 0.02, seed=2)
        for tier in filter(prefer_tier, TIERS):
            decision = route(Router(small_vertices=64), g)
            assert decision.lane == "direct"
            assert decision.backend == tier

    def test_pinned_backend_never_upgraded(self):
        router = Router(small_vertices=64)
        g = erdos_renyi(500, 0.02, seed=2)
        decision = route(router, g, backend="vectorized")
        assert decision.backend == "vectorized"

    @pytest.mark.skipif(
        not native_kernels.available(),
        reason="native tier unavailable on this host",
    )
    def test_default_tier_is_native_when_available(self):
        assert preferred_tier() == "native"
        assert Router().small_vertices == MICROBATCH_CROSSOVER["native"]

    def test_default_tier_is_vectorized_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE", "0")
        native_kernels.refresh()
        try:
            assert preferred_tier() == "vectorized"
            router = Router()
            assert router.software_tier == "vectorized"
            assert router.small_vertices == MICROBATCH_CROSSOVER["vectorized"]
        finally:
            native_kernels.refresh()


def test_decision_label_mentions_everything():
    router = Router()
    g = star_graph(5000)
    decision = route(router, g, backend="hw", engine="batched")
    assert "hw" in decision.label
    assert "batched" in decision.label
