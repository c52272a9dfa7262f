"""Tests for the bandwidth-efficient edge-array layouts.

Layouts are *encodings*, never reorderings: the neighbor lists they
describe are untouched, only the bits-per-entry accounting changes.  The
load-bearing invariants pinned here:

* ``plain`` reproduces the historical ``ceil(k / edges_per_block)``
  block math bit-for-bit;
* ``EdgeLayout.prefix_blocks`` is the event engine's scalar reference
  for the block math the native run repeats in C; the profile x layout
  parity matrix (``tests/hw/test_mem_profiles.py``) checks that the two
  agree under every layout;
* compressed layouts never *increase* the total encoded bits, and
  delta-compression falls back to the plain entry width on rows whose
  neighbors are not sorted.
"""

import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    DEFAULT_LAYOUT,
    LAYOUTS,
    build_layout,
    degree_based_grouping,
    rmat,
    sort_edges,
    star_graph,
    validate_layout,
)


def preprocess(g):
    return sort_edges(degree_based_grouping(g).graph)


@pytest.fixture
def skewed():
    return preprocess(rmat(9, 8, seed=3, name="skewed"))


class TestValidation:
    def test_names(self):
        assert LAYOUTS == ("plain", "degree-sorted", "delta-compressed")
        assert DEFAULT_LAYOUT == "plain"
        for name in LAYOUTS:
            assert validate_layout(name) == name

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown layout 'csr5'"):
            validate_layout("csr5")

    def test_build_unknown(self, skewed):
        with pytest.raises(ValueError, match="unknown layout"):
            build_layout(skewed, "csr5")


class TestPlain:
    def test_reproduces_ceil_block_math(self, skewed):
        layout = build_layout(skewed, "plain")
        block_bits = 512
        edges_per_block = block_bits // 32
        degrees = np.diff(skewed.offsets)
        for v in range(skewed.num_vertices):
            deg = int(degrees[v])
            for k in {0, 1, deg // 2, deg}:
                want = -(-k // edges_per_block) if k else 0
                assert layout.prefix_blocks(v, k, block_bits) == want

    def test_full_width_everywhere(self, skewed):
        layout = build_layout(skewed, "plain")
        assert np.all(layout.entry_bits == 32)
        assert np.all(layout.header_bits == 32)
        assert layout.compression_ratio(skewed.degrees()) == 1.0


class TestCompressedLayouts:
    @pytest.mark.parametrize("name", ("degree-sorted", "delta-compressed"))
    def test_never_larger_than_plain(self, name, skewed):
        degrees = skewed.degrees()
        plain = build_layout(skewed, "plain")
        compressed = build_layout(skewed, name)
        assert compressed.total_bits(degrees) <= plain.total_bits(degrees)
        assert compressed.compression_ratio(degrees) <= 1.0

    def test_degree_sorted_widths_fit_max_id(self, skewed):
        layout = build_layout(skewed, "degree-sorted")
        assert set(np.unique(layout.entry_bits)) <= {8, 16, 32}
        offsets, edges = skewed.offsets, skewed.edges
        for v in range(0, skewed.num_vertices, 37):
            lo, hi = int(offsets[v]), int(offsets[v + 1])
            if lo == hi:
                continue
            assert int(edges[lo:hi].max()) < 2 ** int(layout.entry_bits[v])

    def test_delta_rows_fall_back_when_unsorted(self):
        # Hand-build a graph with one sorted and one unsorted row.
        g = CSRGraph(
            offsets=np.array([0, 3, 6, 6, 6, 6, 6, 6, 6, 6, 6],
                             dtype=np.int64),
            edges=np.array([0, 5, 9, 8, 2, 6], dtype=np.int64),
            name="half-sorted",
        )
        layout = build_layout(g, "delta-compressed")
        assert layout.entry_bits[0] < 32  # sorted row: delta width
        assert layout.entry_bits[1] == 32  # unsorted row: plain fallback
        assert layout.meta["rows_fallback_plain"] == 1

    def test_delta_compresses_preprocessed_graph(self, skewed):
        layout = build_layout(skewed, "delta-compressed")
        # sort_edges guarantees sorted rows, so no fallbacks...
        assert layout.meta["rows_fallback_plain"] == 0
        # ...and a skewed graph must actually compress.
        assert layout.compression_ratio(skewed.degrees()) < 0.85

    def test_zero_degree_rows_cost_nothing(self):
        g = star_graph(5)
        g = CSRGraph(  # append an isolated vertex
            offsets=np.append(g.offsets, g.offsets[-1]),
            edges=g.edges,
            name="star+isolated",
        )
        v = g.num_vertices - 1
        for name in LAYOUTS:
            layout = build_layout(g, name)
            assert layout.row_bits(g.degrees())[v] == 0
            assert layout.prefix_blocks(v, 0, 512) == 0
