"""Graph I/O: SNAP edge-list text, binary ``.npz``, and DIMACS export.

The SNAP parser accepts the format of the datasets in the paper's Table 3
(``# comment`` lines followed by whitespace-separated ``src dst`` pairs)
so a user with the real downloads can feed them straight in.
"""

from __future__ import annotations

import io
import os
from pathlib import Path
from typing import List, Union

import numpy as np

from .csr import CSRGraph, GraphError

__all__ = [
    "load_snap_edge_list",
    "parse_snap_text",
    "save_npz",
    "load_npz",
    "write_dimacs",
]

PathLike = Union[str, os.PathLike]


def parse_snap_text(text: str, *, name: str = "snap", symmetrize: bool = True) -> CSRGraph:
    """Parse SNAP edge-list text (``# comments`` + ``src dst`` lines).

    Vertex IDs are compacted to ``0..n-1`` preserving numeric order, since
    SNAP files often have sparse ID spaces.
    """
    srcs: List[int] = []
    dsts: List[int] = []
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphError(f"line {lineno}: expected 'src dst', got {line!r}")
        try:
            srcs.append(int(parts[0]))
            dsts.append(int(parts[1]))
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-integer vertex id") from exc
    if not srcs:
        return CSRGraph.empty(0, name=name)
    src = np.asarray(srcs, dtype=np.int64)
    dst = np.asarray(dsts, dtype=np.int64)
    ids = np.unique(np.concatenate([src, dst]))
    remap = {int(v): i for i, v in enumerate(ids)}
    src = np.asarray([remap[int(v)] for v in src], dtype=np.int64)
    dst = np.asarray([remap[int(v)] for v in dst], dtype=np.int64)
    return CSRGraph.from_arrays(ids.size, src, dst, symmetrize=symmetrize, name=name)


def load_snap_edge_list(path: PathLike, *, symmetrize: bool = True) -> CSRGraph:
    """Load a SNAP-format edge-list text file."""
    p = Path(path)
    return parse_snap_text(p.read_text(), name=p.stem, symmetrize=symmetrize)


def save_npz(graph: CSRGraph, path: PathLike) -> None:
    """Save a graph to a compressed ``.npz`` file."""
    np.savez_compressed(
        Path(path),
        offsets=graph.offsets,
        edges=graph.edges,
        name=np.asarray(graph.name),
        edges_sorted=np.asarray(bool(graph.meta.get("edges_sorted", False))),
        dbg_reordered=np.asarray(bool(graph.meta.get("dbg_reordered", False))),
    )


def load_npz(path: PathLike) -> CSRGraph:
    """Load a graph saved with :func:`save_npz`."""
    with np.load(Path(path), allow_pickle=False) as data:
        g = CSRGraph(
            offsets=data["offsets"],
            edges=data["edges"],
            name=str(data["name"]),
        )
        if bool(data.get("edges_sorted", False)):
            g.meta["edges_sorted"] = True
        if bool(data.get("dbg_reordered", False)):
            g.meta["dbg_reordered"] = True
        return g


def write_dimacs(graph: CSRGraph, path: PathLike) -> None:
    """Write the graph in DIMACS ``.col`` format (1-based, undirected)."""
    lines = [f"p edge {graph.num_vertices} {graph.num_undirected_edges}"]
    for u, v in graph.iter_edges():
        if u < v:
            lines.append(f"e {u + 1} {v + 1}")
    Path(path).write_text("\n".join(lines) + "\n")
