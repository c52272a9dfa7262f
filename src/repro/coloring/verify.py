"""Coloring validation utilities.

Every algorithm and every simulator run in this repository is checked with
:func:`assert_proper_coloring`; the parallel conflict-deferral scheme in
particular is only trusted because these checks run over it in tests.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..graph.csr import CSRGraph

__all__ = [
    "ColoringError",
    "is_proper_coloring",
    "assert_proper_coloring",
    "find_conflicts",
    "num_colors",
    "color_class_sizes",
]

UNCOLORED = 0
"""Color value meaning "not yet colored" — the paper initialises the color
array to 0 and assigns colors starting from 1 (Algorithm 2 assigns
``color_result = 1`` to a vertex with no colored neighbours)."""


class ColoringError(AssertionError):
    """Raised when a coloring violates properness."""


def find_conflicts(graph: CSRGraph, colors: np.ndarray) -> List[Tuple[int, int]]:
    """All edges ``(u, v)`` with ``u < v`` whose endpoints share a color.

    Uncolored vertices (color 0) never conflict.
    """
    colors = np.asarray(colors)
    if colors.shape[0] != graph.num_vertices:
        raise ValueError("coloring length does not match vertex count")
    src = graph.source_of_edge_slots()
    dst = graph.edges
    mask = (
        (src < dst)
        & (colors[src] == colors[dst])
        & (colors[src] != UNCOLORED)
    )
    return [(int(u), int(v)) for u, v in zip(src[mask], dst[mask])]


def is_proper_coloring(
    graph: CSRGraph, colors: np.ndarray, *, require_complete: bool = True
) -> bool:
    """True when no adjacent vertices share a color.

    With ``require_complete`` (default), every vertex must have a non-zero
    color as well.
    """
    colors = np.asarray(colors)
    if colors.shape[0] != graph.num_vertices:
        return False
    if require_complete and np.any(colors == UNCOLORED):
        return False
    return not find_conflicts(graph, colors)


def assert_proper_coloring(
    graph: CSRGraph, colors: np.ndarray, *, require_complete: bool = True
) -> None:
    """Raise :class:`ColoringError` (with details) on an improper coloring."""
    colors = np.asarray(colors)
    if colors.shape[0] != graph.num_vertices:
        raise ColoringError(
            f"coloring has {colors.shape[0]} entries for {graph.num_vertices} vertices"
        )
    if require_complete:
        missing = np.nonzero(colors == UNCOLORED)[0]
        if missing.size:
            raise ColoringError(f"{missing.size} uncolored vertices, e.g. {missing[:5]}")
    conflicts = find_conflicts(graph, colors)
    if conflicts:
        u, v = conflicts[0]
        raise ColoringError(
            f"{len(conflicts)} conflicting edges, e.g. ({u}, {v}) both color {colors[u]}"
        )


def num_colors(colors: np.ndarray) -> int:
    """Number of distinct colors used (uncolored vertices excluded)."""
    colors = np.asarray(colors)
    used = np.unique(colors[colors != UNCOLORED])
    return int(used.size)


def color_class_sizes(colors: np.ndarray) -> dict:
    """Mapping color → number of vertices with that color."""
    colors = np.asarray(colors)
    vals, counts = np.unique(colors[colors != UNCOLORED], return_counts=True)
    return {int(c): int(k) for c, k in zip(vals, counts)}
