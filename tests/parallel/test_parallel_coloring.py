"""Tests for the partition-parallel coloring backend.

The load-bearing properties: every result is a proper coloring, and the
colors are byte-identical for any worker count (the shard count, not the
pool size, determines the answer).
"""

import numpy as np
import pytest

import repro
from repro.coloring import assert_proper_coloring
from repro.coloring.bitwise import bitwise_greedy_coloring
from repro.experiments.datasets import DATASET_KEYS, load_dataset
from repro.graph import (
    CSRGraph,
    complete_graph,
    erdos_renyi,
    rmat,
    road_grid,
    star_graph,
)
from repro.obs import Registry, use_registry
from repro.parallel import (
    DEFAULT_NUM_SHARDS,
    ParallelColoringResult,
    parallel_bitwise_coloring,
    resolve_workers,
)

GRAPHS = {
    "rmat": lambda: rmat(9, 6, seed=3, name="par-rmat"),
    "erdos": lambda: erdos_renyi(300, 0.05, seed=2, name="par-er"),
    "grid": lambda: road_grid(16, 16, seed=1, name="par-grid"),
    "star": lambda: star_graph(40),
    "complete": lambda: complete_graph(17, name="par-k17"),
}


@pytest.fixture(params=sorted(GRAPHS), ids=sorted(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


class TestValidity:
    def test_proper_coloring(self, graph):
        res = parallel_bitwise_coloring(graph)
        assert_proper_coloring(graph, res.colors)
        assert res.num_colors == np.unique(res.colors[res.colors != 0]).size

    @pytest.mark.parametrize("partition", ["range", "round_robin"])
    def test_partition_strategies(self, graph, partition):
        res = parallel_bitwise_coloring(graph, partition=partition)
        assert_proper_coloring(graph, res.colors)
        assert res.partition_strategy == partition

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 16])
    def test_shard_counts(self, graph, num_shards):
        res = parallel_bitwise_coloring(graph, num_shards=num_shards)
        assert_proper_coloring(graph, res.colors)
        assert res.num_shards == num_shards

    def test_single_shard_matches_vectorized(self, graph):
        """One shard means no cut edges — exactly the sequential coloring."""
        res = parallel_bitwise_coloring(graph, num_shards=1)
        ref = bitwise_greedy_coloring(graph, backend="vectorized")
        assert res.conflicts == 0
        assert res.cut_edges == 0
        assert np.array_equal(res.colors, ref.colors)

    def test_empty_graph(self):
        g = CSRGraph(
            offsets=np.zeros(1, dtype=np.int64),
            edges=np.zeros(0, dtype=np.int64),
            name="empty",
        )
        res = parallel_bitwise_coloring(g)
        assert res.colors.size == 0
        assert res.num_colors == 0

    def test_prune_uncolored_forwarded(self):
        g = rmat(8, 4, seed=9)
        res = parallel_bitwise_coloring(g, prune_uncolored=True)
        assert_proper_coloring(g, res.colors)


class TestDeterminism:
    def test_workers_do_not_change_colors(self, graph):
        base = parallel_bitwise_coloring(graph, workers=1).colors
        for workers in (2, 4):
            got = parallel_bitwise_coloring(graph, workers=workers).colors
            assert np.array_equal(base, got), f"workers={workers} diverged"

    def test_repeated_runs_identical(self, graph):
        a = parallel_bitwise_coloring(graph, workers=2)
        b = parallel_bitwise_coloring(graph, workers=2)
        assert np.array_equal(a.colors, b.colors)
        assert a.conflicts == b.conflicts
        assert a.repair_rounds == b.repair_rounds


class TestAccounting:
    def test_result_fields(self, graph):
        res = parallel_bitwise_coloring(graph, workers=2)
        assert isinstance(res, ParallelColoringResult)
        assert res.workers == 2
        assert res.num_shards == DEFAULT_NUM_SHARDS
        assert res.boundary_vertices >= 0
        assert res.cut_edges % 2 == 0  # symmetric graph, both directions
        assert 0 <= res.conflicts <= res.boundary_vertices
        if res.conflicts:
            assert res.repair_rounds >= 1
        else:
            assert res.repair_rounds == 0

    def test_n_colors_alias(self, graph):
        res = parallel_bitwise_coloring(graph)
        assert res.n_colors == res.num_colors

    def test_invalid_args(self, graph):
        with pytest.raises(ValueError):
            parallel_bitwise_coloring(graph, num_shards=0)
        with pytest.raises(ValueError):
            parallel_bitwise_coloring(graph, workers=0)
        with pytest.raises(ValueError):
            parallel_bitwise_coloring(graph, partition="metis")

    def test_resolve_workers(self):
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(ValueError):
            resolve_workers(-1)

    def test_resolve_workers_follows_cpu_affinity(self, monkeypatch):
        """An affinity-restricted host must not be oversubscribed."""
        import os

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_workers(None) == 1


class TestFacadeIntegration:
    def test_color_backend_parallel(self, graph):
        out = repro.color(graph, backend="parallel", workers=2)
        assert isinstance(out, ParallelColoringResult)
        assert_proper_coloring(graph, out.colors)
        ref = parallel_bitwise_coloring(graph, workers=1)
        assert np.array_equal(out.colors, ref.colors)

    def test_backend_listed(self):
        from repro.coloring.registry import get_algorithm

        assert "parallel" in get_algorithm("bitwise").backends


class TestObservability:
    def test_shard_spans_merged(self, graph):
        reg = Registry()
        with use_registry(reg):
            parallel_bitwise_coloring(graph, workers=2)
        snap = reg.snapshot()
        names = [s["name"] for s in snap["spans"]]
        assert "coloring.parallel" in names
        shard_spans = [
            s for s in snap["spans"] if s["name"] == "coloring.parallel.shard"
        ]
        assert len(shard_spans) == DEFAULT_NUM_SHARDS
        assert sorted(s["attrs"]["shard"] for s in shard_spans) == list(
            range(DEFAULT_NUM_SHARDS)
        )
        assert "coloring.parallel.conflicts" in snap["counters"]
        assert "coloring.parallel.colors" in snap["gauges"]

    def test_disabled_registry_stays_silent(self, graph):
        res = parallel_bitwise_coloring(graph, workers=2)
        assert_proper_coloring(graph, res.colors)

    def test_facade_obs_artifact(self, graph, tmp_path):
        """repro.color(..., backend='parallel', obs=path) writes one file
        holding the parent span and every per-shard span."""
        import json

        path = tmp_path / "parallel.jsonl"
        repro.color(graph, backend="parallel", workers=2, obs=path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        spans = [r for r in records if r.get("type") == "span"]
        names = [s["name"] for s in spans]
        assert "repro.color" in names
        assert "coloring.parallel" in names
        shards = [s for s in spans if s["name"] == "coloring.parallel.shard"]
        assert sorted(s["attrs"]["shard"] for s in shards) == list(
            range(DEFAULT_NUM_SHARDS)
        )


class TestAllRegisteredDatasets:
    """Acceptance: valid colors on every stand-in, identical for any pool."""

    @pytest.mark.parametrize("key", DATASET_KEYS)
    def test_valid_and_worker_invariant(self, key):
        g = load_dataset(key, preprocessed=True)
        base = parallel_bitwise_coloring(g, workers=1)
        assert_proper_coloring(g, base.colors)
        for workers in (2, 4):
            got = parallel_bitwise_coloring(g, workers=workers)
            assert np.array_equal(base.colors, got.colors), (key, workers)
