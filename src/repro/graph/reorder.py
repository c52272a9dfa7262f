"""Graph reordering — degree-based grouping (DBG) and edge sorting.

BitColor preprocesses every graph with two steps (Sections 3.2.2 and 5.1.2):

1. **Degree-based grouping (DBG)** [Faldu et al., IISWC'19]: vertices are
   reordered in *descending* order of in-degree and renamed, so a smaller
   vertex index implies a higher degree.  This makes the HDV/LDV split a
   simple threshold comparison (``v < v_t``), guarantees that LDV
   neighbours of a vertex being colored have higher indices (enabling the
   prune-uncolored-vertices optimization), and balances the work assigned
   to parallel BWPEs.

2. **Edge sorting**: each vertex's neighbour list is sorted ascending so
   that off-chip color reads of LDVs become near-sequential, enabling the
   Color Loader's DRAM read merging.

Both return a new :class:`~repro.graph.csr.CSRGraph` plus (for reordering)
the permutation applied, so colorings can be mapped back to original IDs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .csr import CSRGraph, GraphError

__all__ = [
    "ReorderResult",
    "descending_degree_order",
    "degree_based_grouping",
    "sort_edges",
    "apply_permutation",
    "invert_permutation",
    "random_permutation",
    "is_descending_degree_order",
]


def descending_degree_order(degrees: np.ndarray, *, stable: bool = True) -> np.ndarray:
    """Permutation sorting vertices by descending degree, ties by ID.

    The single implementation behind every "largest first" order in the
    codebase: DBG reordering (on in-degrees), the ``largest_first``
    coloring ordering (on out-degrees), and the degree-sorted compressed
    layout (:mod:`repro.graph.layout`).  ``stable=True`` keeps the
    original-ID tie-break the paper's preprocessing relies on.
    """
    degrees = np.asarray(degrees)
    kind = "stable" if stable else "quicksort"
    # argsort ascending on negated degree == descending on degree, stable on ID.
    return np.argsort(-degrees, kind=kind).astype(np.int64)


@dataclass(frozen=True)
class ReorderResult:
    """Outcome of a reordering pass.

    Attributes
    ----------
    graph:
        The reordered graph.
    new_to_old:
        ``new_to_old[i]`` is the original ID of the vertex now numbered ``i``.
    old_to_new:
        Inverse permutation.
    """

    graph: CSRGraph
    new_to_old: np.ndarray
    old_to_new: np.ndarray

    def map_coloring_to_original(self, colors: np.ndarray) -> np.ndarray:
        """Translate a coloring of the reordered graph back to original IDs."""
        colors = np.asarray(colors)
        if colors.shape[0] != self.graph.num_vertices:
            raise GraphError("coloring length does not match graph")
        out = np.empty_like(colors)
        out[self.new_to_old] = colors
        return out


def invert_permutation(perm: np.ndarray) -> np.ndarray:
    """Inverse of a permutation given as an index array."""
    perm = np.asarray(perm, dtype=np.int64)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=np.int64)
    return inv


def apply_permutation(graph: CSRGraph, new_to_old: np.ndarray) -> CSRGraph:
    """Renumber ``graph`` so that new vertex ``i`` is old ``new_to_old[i]``.

    Edge lists keep their relative order per (new) vertex; callers wanting
    ascending neighbours should compose with :func:`sort_edges`.
    """
    new_to_old = np.asarray(new_to_old, dtype=np.int64)
    n = graph.num_vertices
    if new_to_old.size != n or np.unique(new_to_old).size != n:
        raise GraphError("new_to_old must be a permutation of all vertices")
    old_to_new = invert_permutation(new_to_old)
    degs = graph.degrees()
    new_degs = degs[new_to_old]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_degs, out=offsets[1:])
    edges = np.empty(graph.num_edges, dtype=np.int64)
    for new_v in range(n):
        old_v = new_to_old[new_v]
        s, e = graph.offsets[old_v], graph.offsets[old_v + 1]
        edges[offsets[new_v] : offsets[new_v + 1]] = old_to_new[graph.edges[s:e]]
    out = CSRGraph(offsets=offsets, edges=edges, name=graph.name)
    out.meta.update(graph.meta)
    out.meta.pop("edges_sorted", None)  # renaming invalidates sortedness
    return out


def degree_based_grouping(graph: CSRGraph, *, stable: bool = True) -> ReorderResult:
    """DBG reordering: descending in-degree, ties broken by original ID.

    After this pass, vertex 0 has the highest in-degree and the HDV cache
    can hold exactly the color data of vertices ``[0, v_t)``.
    """
    new_to_old = descending_degree_order(graph.in_degrees(), stable=stable)
    g = apply_permutation(graph, new_to_old)
    g.meta["dbg_reordered"] = True
    return ReorderResult(
        graph=g,
        new_to_old=new_to_old,
        old_to_new=invert_permutation(new_to_old),
    )


def sort_edges(graph: CSRGraph) -> CSRGraph:
    """Edge-sorting preprocessing (ascending destination per vertex)."""
    return graph.with_sorted_edges()


def random_permutation(graph: CSRGraph, seed: Optional[int] = None) -> ReorderResult:
    """Random renumbering — used in tests/ablations to destroy DBG ordering."""
    gen = np.random.default_rng(seed)
    new_to_old = gen.permutation(graph.num_vertices).astype(np.int64)
    g = apply_permutation(graph, new_to_old)
    g.meta.pop("dbg_reordered", None)
    return ReorderResult(
        graph=g,
        new_to_old=new_to_old,
        old_to_new=invert_permutation(new_to_old),
    )


def is_descending_degree_order(graph: CSRGraph) -> bool:
    """True when in-degrees are non-increasing in vertex-ID order."""
    in_degs = graph.in_degrees()
    return bool(np.all(np.diff(in_degs) <= 0)) if in_degs.size else True
