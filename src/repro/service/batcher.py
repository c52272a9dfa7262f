"""Micro-batching: many small coloring jobs, one software-tier kernel pass.

Small graphs are where the service's per-job overhead (queue hop,
dispatch, span bookkeeping, kernel warm-up) rivals the coloring itself.
The batcher coalesces queued small jobs into a **disjoint union** graph
— blocks laid out in submission order, vertex IDs shifted so blocks
never touch — and colors the union with a single invocation on the
jobs' shared software backend (the batch key's).

Why this is exact, not approximate: the bit-wise greedy processes
vertices in ascending ID order, and a vertex's color depends only on
already-colored *neighbours*.  Blocks are disconnected, so the union
coloring restricted to block *k* sees exactly the neighbours the solo
run of graph *k* would see, in the same order — the sliced-out colors
are byte-identical to coloring each graph alone (the parity tests pin
this).  The PUV pruning rule compares neighbour IDs within a block only,
so ``prune_uncolored`` survives the shift untouched.

Eligibility is deliberately narrow: deterministic bit-wise greedy on the
software backends, with only union-safe options.  Seeded algorithms
draw per-vertex randomness from the vertex count, which the union
changes; custom orderings do not survive renumbering; hw jobs carry
simulator state.  All of those run on the direct lane instead.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..coloring.verify import UNCOLORED
from ..graph.csr import CSRGraph
from .jobs import JobRequest

__all__ = [
    "BATCHABLE_BACKENDS",
    "BATCHABLE_OPTS",
    "batch_key",
    "disjoint_union",
    "run_microbatch",
]

BATCHABLE_BACKENDS = ("vectorized", "native", "python")
"""Software bitwise backends whose union coloring is provably identical."""

BATCHABLE_OPTS = frozenset({"prune_uncolored"})
"""Options that commute with the disjoint union (see module docstring)."""


def batch_key(request: JobRequest, graph: CSRGraph) -> Optional[tuple]:
    """The coalescing key for ``request``, or None when not batchable.

    Jobs with equal keys can share one kernel invocation.  The key pins
    everything that changes the executed code path: algorithm, the
    backend that runs (the request's resolved invocation, so an
    unpinned job keys on the preferred software tier), and the exact
    option set.
    """
    invocation = request.invocation
    if (
        invocation.algorithm != "bitwise"
        or invocation.backend not in BATCHABLE_BACKENDS
        or not set(invocation.opts) <= BATCHABLE_OPTS
    ):
        return None
    return ("bitwise", invocation.backend, tuple(sorted(invocation.opts.items())))


def disjoint_union(
    graphs: Sequence[CSRGraph],
) -> Tuple[CSRGraph, List[Tuple[int, int]]]:
    """Concatenate ``graphs`` into one block-diagonal CSR graph.

    Returns ``(union, spans)`` where ``spans[k] = (lo, hi)`` is graph
    *k*'s vertex range in the union.  Per-vertex adjacency order is
    preserved verbatim (only shifted), so every ordering-sensitive
    property of each block carries over.
    """
    if not graphs:
        raise ValueError("disjoint_union needs at least one graph")
    spans: List[Tuple[int, int]] = []
    offset_parts: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    edge_parts: List[np.ndarray] = []
    vbase = 0
    ebase = 0
    for g in graphs:
        spans.append((vbase, vbase + g.num_vertices))
        if g.num_vertices:
            offset_parts.append(g.offsets[1:] + ebase)
        if g.num_edges:
            edge_parts.append(g.edges + vbase)
        vbase += g.num_vertices
        ebase += g.num_edges
    union = CSRGraph(
        offsets=np.concatenate(offset_parts),
        edges=(
            np.concatenate(edge_parts)
            if edge_parts
            else np.zeros(0, dtype=np.int64)
        ),
        name=f"microbatch[{len(graphs)}]",
    )
    return union, spans


def run_microbatch(
    graphs: Sequence[CSRGraph], key: tuple
) -> List[Tuple[np.ndarray, int]]:
    """Color ``graphs`` in one union invocation; per-graph ``(colors, k)``.

    ``key`` is the shared :func:`batch_key` of every job in the batch.
    The returned color arrays are copies (the union buffer is sliced),
    each byte-identical to the solo run.
    """
    _, backend, opt_items = key
    from ..api import color as repro_color

    union, spans = disjoint_union(graphs)
    out = repro_color(union, "bitwise", backend=backend, **dict(opt_items))
    results: List[Tuple[np.ndarray, int]] = []
    for lo, hi in spans:
        colors = np.ascontiguousarray(out.colors[lo:hi])
        used = np.unique(colors[colors != UNCOLORED])
        results.append((colors, int(used.size)))
    return results
