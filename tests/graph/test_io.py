"""Tests for graph I/O."""

import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    GraphError,
    erdos_renyi,
    load_npz,
    parse_snap_text,
    save_npz,
    sort_edges,
    write_dimacs,
)
from repro.graph.io import load_snap_edge_list


SNAP_SAMPLE = """\
# Undirected graph: toy
# Nodes: 4 Edges: 3
10\t20
20\t30
30\t40
"""


class TestSnapParser:
    def test_basic_parse(self):
        g = parse_snap_text(SNAP_SAMPLE)
        assert g.num_vertices == 4  # IDs compacted
        assert g.num_undirected_edges == 3
        assert g.is_symmetric()

    def test_id_compaction_preserves_order(self):
        g = parse_snap_text("5 100\n100 7\n")
        # Sorted unique IDs: 5, 7, 100 -> 0, 1, 2.
        assert g.has_edge(0, 2)
        assert g.has_edge(2, 1)

    def test_percent_comments(self):
        g = parse_snap_text("% matrix-market style comment\n0 1\n")
        assert g.num_undirected_edges == 1

    def test_empty_text(self):
        g = parse_snap_text("# nothing\n")
        assert g.num_vertices == 0

    def test_malformed_line(self):
        with pytest.raises(GraphError, match="line 1"):
            parse_snap_text("justoneword\n")

    def test_non_integer(self):
        with pytest.raises(GraphError, match="non-integer"):
            parse_snap_text("a b\n")

    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "toy.txt"
        p.write_text(SNAP_SAMPLE)
        g = load_snap_edge_list(p)
        assert g.name == "toy"
        assert g.num_undirected_edges == 3


class TestNpz:
    def test_roundtrip(self, tmp_path):
        g = sort_edges(erdos_renyi(40, 0.2, seed=1, name="roundtrip"))
        p = tmp_path / "g.npz"
        save_npz(g, p)
        back = load_npz(p)
        assert back.name == "roundtrip"
        assert np.array_equal(back.offsets, g.offsets)
        assert np.array_equal(back.edges, g.edges)
        assert back.meta.get("edges_sorted") is True

    def test_meta_flags_default_false(self, tmp_path):
        g = erdos_renyi(10, 0.3, seed=2)
        p = tmp_path / "g.npz"
        save_npz(g, p)
        back = load_npz(p)
        assert "edges_sorted" not in back.meta


class TestWriters:
    def test_dimacs(self, tmp_path):
        g = CSRGraph.from_edge_list(3, [(0, 1), (1, 2)])
        p = tmp_path / "g.col"
        write_dimacs(g, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "p edge 3 2"
        assert "e 1 2" in lines
        assert "e 2 3" in lines
        # Each undirected edge appears exactly once.
        assert sum(1 for l in lines if l.startswith("e ")) == 2
