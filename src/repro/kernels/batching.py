"""Dependency-respecting batching of a sequential coloring order.

The scalar greedy algorithms walk the ordering one vertex at a time.  Under
the sequential semantics a vertex's color depends only on its
*earlier-ordered* neighbours, so the ordering induces a DAG; any batch
schedule that (a) keeps batch members mutually non-adjacent and (b) places
every earlier-ordered neighbour of a member in an earlier batch reproduces
the sequential coloring bit for bit when each batch is colored in one
data-parallel sweep.  This is the software analogue of the paper's BWPE
task window: the dispatcher hands out vertex groups and the conflict unit
defers exactly the vertices whose neighbours are still in flight.

:func:`dependency_levels` builds such a schedule by level scheduling
(vectorised Kahn peeling of the order-DAG).  The batch count equals the
longest dependency chain, typically ``O(log n)``–ish on the paper's graph
classes, which is what makes the vectorized backend fast.

:func:`gather_ranges` is the shared multi-range gather that turns a
batch's CSR slot ranges into one index array.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..graph.csr import CSRGraph

__all__ = ["dependency_levels", "gather_ranges"]


def _resolve_ordering(graph: CSRGraph, ordering) -> np.ndarray:
    if ordering is None:
        return np.arange(graph.num_vertices, dtype=np.int64)
    return np.asarray(ordering, dtype=np.int64)


def _order_positions(graph: CSRGraph, ordering: np.ndarray) -> np.ndarray:
    pos = np.empty(graph.num_vertices, dtype=np.int64)
    pos[ordering] = np.arange(graph.num_vertices, dtype=np.int64)
    return pos


def gather_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``[starts[k], starts[k] + lengths[k])`` index ranges.

    The standard repeat/cumsum trick: one output array addressing every
    CSR slot of a batch of vertices, with no Python-level loop.
    """
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out_starts = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=out_starts[1:])
    return np.repeat(starts - out_starts, lengths) + np.arange(total, dtype=np.int64)


def dependency_levels(
    graph: CSRGraph, ordering: Optional[Sequence[int]] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Level schedule of the order-DAG (default ordering: ascending ID).

    Returns ``(batch_pos, bounds)``: ``batch_pos`` is a permutation of the
    ordering *positions* grouped by level and ascending within each level,
    and ``bounds`` delimits the levels — batch ``k`` is
    ``batch_pos[bounds[k]:bounds[k + 1]]``.  Level 0 holds the positions
    with no earlier-ordered neighbour; level ``L + 1`` the positions whose
    earlier-ordered neighbours all sit in levels ``<= L`` with at least one
    at ``L``.  Same-level positions are never adjacent (an edge between two
    vertices forces different levels), so each level is a valid
    data-parallel batch.
    """
    n = graph.num_vertices
    ordering = _resolve_ordering(graph, ordering)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    identity = bool(np.array_equal(ordering, np.arange(n, dtype=np.int64)))
    if identity:
        # The schedule is a pure function of the immutable graph, so the
        # common ascending-ID case is memoised on the instance (repeated
        # colorings — benchmarks, recoloring sweeps — skip the peeling).
        cached = graph._cache.get("dependency_levels")
        if cached is not None:
            return cached
    if identity:
        src_pos = graph.source_of_edge_slots()
        dst_pos = graph.edges
    else:
        pos = _order_positions(graph, ordering)
        src_pos = pos[graph.source_of_edge_slots()]
        dst_pos = pos[graph.edges]
    fwd = src_pos < dst_pos
    fsrc, fdst = src_pos[fwd], dst_pos[fwd]
    # Forward adjacency grouped by source position, for the Kahn peeling.
    # Edge slots are already grouped by source vertex, so the identity
    # ordering needs no sort.
    if not identity:
        perm = np.argsort(fsrc, kind="stable")
        fsrc, fdst = fsrc[perm], fdst[perm]
    fcount = np.bincount(fsrc, minlength=n)
    fbounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(fcount, out=fbounds[1:])
    indeg = np.bincount(fdst, minlength=n)

    batch_pos = np.empty(n, dtype=np.int64)
    bounds = [0]
    fill = 0
    ready = np.nonzero(indeg == 0)[0]
    while ready.size:
        batch_pos[fill : fill + ready.size] = ready
        fill += ready.size
        bounds.append(fill)
        targets = fdst[gather_ranges(fbounds[ready], fcount[ready])]
        np.subtract.at(indeg, targets, 1)
        # A position's count hits zero exactly once, but it may appear
        # several times in this level's targets — dedup (and sort).
        ready = np.unique(targets[indeg[targets] == 0])
    # The order-DAG is acyclic by construction, so peeling always completes.
    assert fill == n
    batch_pos.setflags(write=False)
    result = (batch_pos, np.asarray(bounds, dtype=np.int64))
    if identity:
        graph._cache["dependency_levels"] = result
    return result
