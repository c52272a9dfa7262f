"""Tests for incremental (streaming) coloring."""

import numpy as np
import pytest

import repro
from repro.coloring import (
    IncrementalColoring,
    IncrementalOutcome,
    assert_proper_coloring,
)
from repro.coloring.verify import UNCOLORED
from repro.graph import erdos_renyi, rmat


class TestBasicOperations:
    def test_initial_state(self):
        inc = IncrementalColoring(3)
        assert inc.num_vertices == 3
        assert inc.n_colors == 1  # everyone color 1, no edges
        inc.validate()

    def test_add_edge_no_conflict(self):
        inc = IncrementalColoring(2)
        repaired = inc.add_edge(0, 1)
        assert repaired  # both started color 1
        inc.validate()
        assert inc.color_of(0) != inc.color_of(1)

    def test_duplicate_edge_noop(self):
        inc = IncrementalColoring(2)
        inc.add_edge(0, 1)
        before = inc.stats.edges_added
        assert inc.add_edge(1, 0) is False
        assert inc.stats.edges_added == before

    def test_self_loop_rejected(self):
        inc = IncrementalColoring(2)
        with pytest.raises(ValueError):
            inc.add_edge(1, 1)

    def test_vertex_out_of_range(self):
        inc = IncrementalColoring(2)
        with pytest.raises(IndexError):
            inc.add_edge(0, 5)

    def test_add_vertex(self):
        inc = IncrementalColoring(1)
        v = inc.add_vertex()
        assert v == 1
        inc.add_edge(0, 1)
        inc.validate()

    def test_remove_edge(self):
        inc = IncrementalColoring(3)
        inc.add_edge(0, 1)
        inc.remove_edge(0, 1)
        assert inc.stats.edges_removed == 1
        inc.validate()
        # Removing a non-edge is a no-op.
        inc.remove_edge(0, 2)
        assert inc.stats.edges_removed == 1


class TestStreaming:
    def test_stream_stays_proper(self):
        g = erdos_renyi(80, 0.08, seed=4)
        inc = IncrementalColoring(g.num_vertices)
        for u, v in g.iter_edges():
            if u < v:
                inc.add_edge(u, v)
        inc.validate()
        snapshot = inc.to_graph()
        assert_proper_coloring(snapshot, inc.colors())
        assert snapshot.num_undirected_edges == g.num_undirected_edges

    def test_from_graph(self, medium_powerlaw):
        inc = IncrementalColoring.from_graph(medium_powerlaw)
        inc.validate()
        assert_proper_coloring(medium_powerlaw, inc.colors())

    def test_repair_work_far_below_rebuild(self):
        """The streaming claim: per-edge repair cost ≪ recoloring all
        vertices per edge."""
        g = rmat(8, 5, seed=6)
        inc = IncrementalColoring.from_graph(g)
        # Rebuild cost per edge would be ~|E| neighbour scans each time.
        total_edges = g.num_undirected_edges
        assert inc.stats.recolor_work < 3 * total_edges

    def test_compact_renumbers_densely(self):
        inc = IncrementalColoring(4)
        inc.add_edge(0, 1)
        inc.add_edge(0, 2)
        inc.add_edge(1, 2)  # forces a third color somewhere
        colors = inc.compact()
        used = sorted(set(colors.tolist()))
        assert used == list(range(1, len(used) + 1))
        inc.validate()

    def test_interleaved_insert_delete(self):
        gen = np.random.default_rng(9)
        inc = IncrementalColoring(30)
        present = set()
        for _ in range(600):
            u, v = int(gen.integers(30)), int(gen.integers(30))
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in present and gen.random() < 0.4:
                inc.remove_edge(u, v)
                present.discard(key)
            else:
                inc.add_edge(u, v)
                present.add(key)
            inc.validate()
        assert inc.to_graph().num_undirected_edges == len(present)


class TestEdgePaths:
    """Previously-untested edges: clash repairs, no-ops, invalid input."""

    def test_clash_recolors_smaller_neighbourhood_endpoint(self):
        inc = IncrementalColoring(4)
        inc.add_edge(0, 1)  # both color 1 -> vertex 0 repairs to color 2
        inc.add_edge(0, 2)  # 2 (color 1) vs 0 (color 2): no clash
        assert inc.color_of(2) == 1
        # Clash between 2 (degree 2 after insert) and 3 (degree 1): the
        # endpoint with the smaller neighbourhood — 3 — must repair.
        c2 = inc.color_of(2)
        assert inc.add_edge(2, 3) is True
        assert inc.color_of(2) == c2  # larger-neighbourhood endpoint kept
        assert inc.color_of(3) != c2  # smaller one moved off the clash
        inc.validate()

    def test_insert_cascade_opens_new_color(self):
        # Growing K2 -> K3 -> K4 must end at 4 distinct colors, each
        # insertion repairing exactly the colliding endpoint.
        inc = IncrementalColoring(4)
        for u in range(4):
            for v in range(u + 1, 4):
                inc.add_edge(u, v)
                inc.validate()
        assert inc.n_colors == 4
        assert inc.stats.conflicts_repaired >= 3

    def test_clash_repair_picks_first_free_color(self):
        inc = IncrementalColoring(3)
        inc.add_edge(0, 1)
        inc.add_edge(1, 2)  # 2 collides with neither or repairs cheaply
        inc.add_edge(0, 2)  # triangle: someone needs a third color
        inc.validate()
        colors = {inc.color_of(v) for v in range(3)}
        assert colors == {1, 2, 3}  # first-free never skips a color

    def test_noop_duplicate_add_keeps_stats_and_colors(self):
        inc = IncrementalColoring(3)
        inc.add_edge(0, 1)
        snapshot = (
            inc.stats.edges_added,
            inc.stats.conflicts_repaired,
            inc.stats.vertices_recolored,
            inc.stats.recolor_work,
        )
        colors_before = inc.colors().tolist()
        assert inc.add_edge(0, 1) is False
        assert inc.add_edge(1, 0) is False
        assert (
            inc.stats.edges_added,
            inc.stats.conflicts_repaired,
            inc.stats.vertices_recolored,
            inc.stats.recolor_work,
        ) == snapshot
        assert inc.colors().tolist() == colors_before

    def test_noop_remove_missing_edge(self):
        inc = IncrementalColoring(3)
        colors_before = inc.colors().tolist()
        inc.remove_edge(0, 2)
        assert inc.stats.edges_removed == 0
        assert inc.colors().tolist() == colors_before
        inc.validate()

    def test_invalid_vertices_rejected_everywhere(self):
        inc = IncrementalColoring(2)
        with pytest.raises(IndexError, match="out of range"):
            inc.add_edge(-1, 0)
        with pytest.raises(IndexError, match="out of range"):
            inc.add_edge(0, 2)
        with pytest.raises(IndexError, match="out of range"):
            inc.remove_edge(0, 2)
        with pytest.raises(IndexError, match="out of range"):
            inc.remove_edge(5, 0)
        # Failed calls must leave no half-inserted state behind.
        assert inc.stats.edges_added == 0
        assert inc.to_graph().num_undirected_edges == 0

    def test_empty_instance_operations(self):
        inc = IncrementalColoring(0)
        assert inc.num_vertices == 0
        assert inc.n_colors == 0
        assert inc.compact().tolist() == []
        inc.validate()
        v = inc.add_vertex()
        assert v == 0 and inc.color_of(0) == 1

    def test_compact_after_removals_closes_gaps(self):
        # Build a triangle (3 colors), then delete edges so color 3's
        # holder could legally wear color 1 — compact renumbers densely.
        inc = IncrementalColoring(3)
        inc.add_edge(0, 1)
        inc.add_edge(1, 2)
        inc.add_edge(0, 2)
        high = max(inc.color_of(v) for v in range(3))
        assert high == 3
        # Recolor vertex colors into a gappy set by removing and re-adding.
        inc.remove_edge(0, 1)
        inc._colors[0] = 7  # simulate a gap a long stream could produce
        inc._colors[1] = 7  # both legal: 0-1 edge is gone
        inc.validate()
        compacted = inc.compact()
        used = sorted(set(compacted.tolist()))
        assert used == list(range(1, len(used) + 1))
        inc.validate()

    def test_validate_detects_manufactured_conflict(self):
        inc = IncrementalColoring(2)
        inc.add_edge(0, 1)
        inc._colors[1] = inc._colors[0]  # corrupt on purpose
        with pytest.raises(AssertionError, match="conflict"):
            inc.validate()

    def test_repair_stats_track_scan_work(self):
        inc = IncrementalColoring(2)
        inc.add_edge(0, 1)  # both were color 1: one endpoint repairs
        assert inc.stats.conflicts_repaired == 1
        assert inc.stats.vertices_recolored == 1
        assert inc.stats.recolor_work >= 1


class TestApplyBatch:
    """The vectorized delta-batch hot path and its sparse diff."""

    def test_batch_matches_scalar_replay(self):
        g = erdos_renyi(60, 0.1, seed=7)
        pairs = g.edge_array()
        pairs = pairs[pairs[:, 0] < pairs[:, 1]]
        batched = IncrementalColoring(g.num_vertices)
        diff = batched.apply_batch(additions=pairs)
        batched.validate()
        assert diff.edges_added == pairs.shape[0]
        assert batched.to_graph().fingerprint() == g.fingerprint()

    def test_diff_lists_only_changed_vertices(self):
        inc = IncrementalColoring(4)
        diff = inc.apply_batch(additions=[(0, 1), (2, 3)])
        # Each pair collides (all start color 1): exactly one endpoint
        # per pair recolors, and the diff says which with old + new.
        assert diff.conflicts == 2
        assert diff.changed.size == 2
        assert np.array_equal(diff.old_colors, [1, 1])
        assert np.array_equal(diff.colors, inc.colors()[diff.changed])
        # A second no-op batch produces an empty diff.
        empty = inc.apply_batch(additions=[(0, 1)])
        assert empty.changed.size == 0 and empty.edges_added == 0

    def test_batch_dedups_and_skips_existing(self):
        inc = IncrementalColoring(3)
        inc.add_edge(0, 1)
        diff = inc.apply_batch(
            additions=[(0, 1), (1, 0), (1, 2), (2, 1), (1, 2)]
        )
        assert diff.edges_added == 1  # only (1, 2) was actually new
        assert inc.to_graph().num_undirected_edges == 2
        inc.validate()

    def test_batch_removals_then_additions_order(self):
        inc = IncrementalColoring(3)
        inc.add_edge(0, 1)
        # Same batch removes (0,1) and re-adds it: removal runs first, so
        # the addition really inserts and the edge survives.
        diff = inc.apply_batch(additions=[(0, 1)], removals=[(0, 1)])
        assert diff.edges_removed == 1 and diff.edges_added == 1
        assert inc.to_graph().num_undirected_edges == 1
        inc.validate()

    def test_batch_add_vertices_grows_then_connects(self):
        inc = IncrementalColoring(2)
        diff = inc.apply_batch(
            additions=[(0, 2), (1, 3)], add_vertices=2
        )
        assert inc.num_vertices == 4
        assert diff.edges_added == 2
        inc.validate()

    def test_large_random_batches_stay_proper(self):
        rng = np.random.default_rng(3)
        g = rmat(9, 6, seed=3)
        inc = IncrementalColoring.from_graph(g)
        for _ in range(8):
            adds = rng.integers(0, g.num_vertices, size=(120, 2))
            adds = adds[adds[:, 0] != adds[:, 1]]
            rem_pairs = inc.to_graph().edge_array()
            rems = rem_pairs[rng.integers(0, rem_pairs.shape[0], size=30)]
            inc.apply_batch(adds, rems)
            inc.validate()

    def test_batch_rejects_bad_shapes(self):
        inc = IncrementalColoring(4)
        with pytest.raises(ValueError, match="pairs"):
            inc.apply_batch(additions=np.arange(6))
        with pytest.raises(ValueError, match="self loops"):
            inc.apply_batch(additions=[(2, 2)])
        with pytest.raises(IndexError, match="out of range"):
            inc.apply_batch(additions=[(0, 9)])


class TestOutcomeAndRegistry:
    """The ColoringOutcome conformance + registry satellite."""

    def test_outcome_conforms(self):
        from repro.coloring.outcome import ColoringOutcome

        inc = IncrementalColoring(3)
        inc.add_edge(0, 1)
        out = inc.outcome()
        assert isinstance(out, IncrementalOutcome)
        assert isinstance(out, ColoringOutcome)
        assert out.n_colors == inc.n_colors
        assert np.array_equal(out.colors, inc.colors())
        d = out.as_dict()
        assert d["algorithm"] == "incremental"

    def test_registered_with_facade(self, small_random):
        out = repro.color(small_random, algorithm="incremental")
        assert_proper_coloring(small_random, out.colors)
        assert out.n_colors >= 1

    def test_facade_rejects_opts(self, small_random):
        with pytest.raises(TypeError):
            repro.color(small_random, algorithm="incremental", order="asc")


class TestCompactUncolored:
    """Regression: compact() must not conflate UNCOLORED with color 0."""

    def test_compact_preserves_uncolored(self):
        inc = IncrementalColoring(5)
        inc.add_edge(0, 1)
        inc.add_edge(1, 2)
        inc._colors[3] = UNCOLORED  # a partially-colored stream
        inc._colors[4] = UNCOLORED
        compacted = inc.compact()
        assert compacted[3] == UNCOLORED
        assert compacted[4] == UNCOLORED
        colored = compacted[compacted != UNCOLORED]
        assert sorted(set(colored.tolist())) == list(
            range(1, len(set(colored.tolist())) + 1)
        )

    def test_n_colors_ignores_uncolored(self):
        inc = IncrementalColoring(3)
        inc._colors[:] = UNCOLORED
        assert inc.n_colors == 0
        inc._colors[0] = 5
        assert inc.n_colors == 1

    def test_all_uncolored_compact_is_noop(self):
        inc = IncrementalColoring(3)
        inc._colors[:] = UNCOLORED
        assert inc.compact().tolist() == [UNCOLORED] * 3
