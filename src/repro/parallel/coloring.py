"""Partition-parallel bit-wise coloring — the software PE array.

BitColor scales by sharding vertices across parallel bit-wise engines,
letting each engine color its own slice against its own DRAM channel and
deferring the handful of cross-engine collisions to the Data Conflict
Table.  This module is that scheme as a multi-process backend:

1. **Shard** — an edge-cut partition of the vertex set
   (:func:`repro.graph.partition.partition_vertex_ranges`); the shard
   count is a *fixed algorithm parameter*, not the worker count.
2. **Speculative shard coloring** — each worker colors the induced
   subgraph of its shard with the vectorized bit-wise kernels, reading
   the CSR arrays zero-copy out of shared memory.  Interior vertices are
   final; boundary vertices are tentative because cross-shard edges were
   invisible.
3. **Boundary repair** — cross-shard edges whose endpoints drew the same
   color are resolved exactly like the DCT resolves in-flight conflicts:
   the smaller vertex ID keeps its color, the larger is re-colored
   first-free against its *full* neighbourhood, in dependency order.

Determinism: the coloring is a pure function of
``(graph, num_shards, partition strategy, prune_uncolored)``.  Workers
only change which process colors which shard, never the shard contents
or the repair order — so any ``workers`` value yields byte-identical
colors, which the tests pin across ``workers ∈ {1, 2, 4}``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..coloring.bitwise import bitwise_greedy_coloring
from ..coloring.outcome import OutcomeMixin
from ..coloring.verify import UNCOLORED
from ..graph.csr import CSRGraph
from ..graph.partition import (
    ShardPlan,
    partition_round_robin,
    partition_vertex_ranges,
)
from ..obs import Registry, get_registry, use_registry
from .pool import fans_out, pool_map, resolve_workers
from .shm import CSRSpec, SharedCSR, attach_graph

__all__ = [
    "DEFAULT_NUM_SHARDS",
    "ParallelColoringResult",
    "find_cross_shard_conflicts",
    "parallel_bitwise_coloring",
    "partitioner_for",
    "recolor_first_free",
    "split_ready",
]

DEFAULT_NUM_SHARDS = 8
"""Default shard count — mirrors a small BWPE array and, crucially, is
independent of ``workers`` so the answer never depends on the pool size."""

_PARTITIONERS = {
    "range": partition_vertex_ranges,
    "round_robin": partition_round_robin,
}


def partitioner_for(strategy: str):
    """The partition function for ``strategy`` (raises listing options)."""
    try:
        return _PARTITIONERS[strategy]
    except KeyError:
        raise ValueError(
            f"unknown partition strategy {strategy!r}; "
            f"options: {sorted(_PARTITIONERS)}"
        ) from None


@dataclass
class ParallelColoringResult(OutcomeMixin):
    """Coloring plus scale-out accounting for the parallel backend."""

    colors: np.ndarray
    num_colors: int
    num_shards: int
    workers: int
    partition_strategy: str
    boundary_vertices: int
    """Vertices with at least one cross-shard neighbour."""
    cut_edges: int
    """Directed edge slots crossing shard boundaries."""
    conflicts: int
    """Boundary vertices whose speculative color collided and was redone."""
    repair_rounds: int
    """Dependency rounds the boundary-repair pass needed."""


def parallel_bitwise_coloring(
    graph: CSRGraph,
    *,
    workers: Optional[int] = None,
    num_shards: Optional[int] = None,
    partition: str = "range",
    prune_uncolored: bool = False,
) -> ParallelColoringResult:
    """Color ``graph`` with the partition-parallel bit-wise scheme.

    Parameters
    ----------
    workers:
        Pool width (default: usable CPUs).  ``workers=1`` runs the identical
        shard schedule inline — same colors, no pool.
    num_shards:
        Number of vertex shards (default :data:`DEFAULT_NUM_SHARDS`).
        This — not ``workers`` — is what the result depends on.
    partition:
        ``"range"`` (contiguous vertex ranges, ID-order preserving) or
        ``"round_robin"``.
    prune_uncolored:
        Forwarded to the per-shard bit-wise coloring (the paper's PUV
        rule, applied within each shard's ascending-ID walk).
    """
    workers = resolve_workers(workers)
    if num_shards is None:
        num_shards = DEFAULT_NUM_SHARDS
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    partitioner = partitioner_for(partition)

    reg = get_registry()
    with reg.span(
        "coloring.parallel",
        workers=workers,
        num_shards=num_shards,
        partition=partition,
        vertices=graph.num_vertices,
        edges=graph.num_edges,
    ) as span:
        plan = partitioner(graph, num_shards)
        colors = _color_shards(
            graph, plan, workers, prune_uncolored, reg
        )
        conflicted = find_cross_shard_conflicts(graph, plan, colors)
        repair_rounds = _repair_conflicts(graph, colors, conflicted)
        used = np.unique(colors[colors != UNCOLORED])
        span.set(conflicts=int(conflicted.size), repair_rounds=repair_rounds)

    result = ParallelColoringResult(
        colors=colors,
        num_colors=int(used.size),
        num_shards=num_shards,
        workers=workers,
        partition_strategy=partition,
        boundary_vertices=plan.num_boundary,
        cut_edges=plan.cut_edges,
        conflicts=int(conflicted.size),
        repair_rounds=repair_rounds,
    )
    if reg.enabled:
        reg.add("coloring.parallel.cut_edges", plan.cut_edges)
        reg.add("coloring.parallel.boundary_vertices", plan.num_boundary)
        reg.add("coloring.parallel.conflicts", result.conflicts)
        reg.add("coloring.parallel.repair_rounds", repair_rounds)
        reg.gauge("coloring.parallel.colors", result.num_colors)
    return result


# ----------------------------------------------------------------------
# Phase 1 — speculative shard coloring (the pool fan-out)
# ----------------------------------------------------------------------
def _color_shards(
    graph: CSRGraph,
    plan: ShardPlan,
    workers: int,
    prune_uncolored: bool,
    reg: Registry,
) -> np.ndarray:
    colors = np.zeros(graph.num_vertices, dtype=np.int64)
    if graph.num_vertices == 0:
        return colors
    pooled = fans_out(workers, plan.num_shards)
    spec = SharedCSR.for_graph(graph).spec if pooled else None
    tasks = [
        (spec, shard, plan.num_shards, plan.strategy, prune_uncolored, reg.enabled)
        for shard in range(plan.num_shards)
    ]
    if pooled:
        shard_results = pool_map(_shard_task, tasks, workers)
    else:
        shard_results = [_color_one_shard(graph, task) for task in tasks]
    for shard, vertices, shard_colors, snapshot in shard_results:
        colors[vertices] = shard_colors
        if snapshot is not None:
            reg.merge_snapshot(snapshot, shard=shard)
    return colors


def _shard_task(task: Tuple) -> Tuple[int, np.ndarray, np.ndarray, Optional[Dict]]:
    """Pool-side entry: attach the shared CSR (cached per process) and color.

    The task payload is the tiny :class:`CSRSpec` plus four scalars —
    nothing graph-sized crosses the process boundary except through
    shared memory.
    """
    return _color_one_shard(attach_graph(task[0]), task)


def _shard_vertices(n: int, shard: int, num_shards: int, strategy: str) -> np.ndarray:
    """The ascending vertex IDs of one shard, recomputed locally."""
    if strategy == "range":
        base, extra = divmod(n, num_shards)
        lo = shard * base + min(shard, extra)
        hi = lo + base + (1 if shard < extra else 0)
        return np.arange(lo, hi, dtype=np.int64)
    return np.arange(shard, n, num_shards, dtype=np.int64)


def _shard_subgraph(
    graph: CSRGraph, shard: int, num_shards: int, strategy: str
) -> Tuple[np.ndarray, CSRGraph]:
    """The shard's vertex IDs and induced subgraph, memoised on the graph.

    A pure function of the immutable graph and the shard parameters, so
    repeated colorings (benchmarks, sweeps) skip re-slicing; worker
    processes get the same effect through their cached attachment.
    """
    key = ("parallel.shard_subgraph", num_shards, strategy, shard)
    cached = graph._cache.get(key)
    if cached is None:
        vertices = _shard_vertices(graph.num_vertices, shard, num_shards, strategy)
        sub = graph.subgraph(vertices, name=f"{graph.name}-shard{shard}")
        cached = graph._cache[key] = (vertices, sub)
    return cached


def _color_one_shard(
    graph: CSRGraph, task: Tuple
) -> Tuple[int, np.ndarray, np.ndarray, Optional[Dict]]:
    _, shard, num_shards, strategy, prune_uncolored, obs_enabled = task
    shard_reg = Registry() if obs_enabled else None
    scope = use_registry(shard_reg) if shard_reg is not None else nullcontext()
    with scope:
        local_reg = get_registry()
        vertices, sub = _shard_subgraph(graph, shard, num_shards, strategy)
        with local_reg.span(
            "coloring.parallel.shard", shard=shard, vertices=int(vertices.size)
        ):
            if vertices.size == 0:
                local_colors = np.zeros(0, dtype=np.int64)
            else:
                local_colors = bitwise_greedy_coloring(
                    sub, prune_uncolored=prune_uncolored, backend="vectorized"
                ).colors
    snapshot = shard_reg.snapshot() if shard_reg is not None else None
    return shard, vertices, local_colors, snapshot


# ----------------------------------------------------------------------
# Phase 2 — conflict detection and boundary repair (the DCT's job)
# ----------------------------------------------------------------------
def find_cross_shard_conflicts(
    graph: CSRGraph, plan: ShardPlan, colors: np.ndarray
) -> np.ndarray:
    """Vertices that must recolor: the larger endpoint of each clashing cut edge.

    Smaller-ID-wins mirrors the paper's resolution rule (the BWPE with
    the smaller index completes first; the later task defers).
    """
    src = graph.source_of_edge_slots()
    dst = graph.edges
    clash = (
        (plan.owner[src] != plan.owner[dst])
        & (src < dst)
        & (colors[src] == colors[dst])
        & (colors[src] != UNCOLORED)
    )
    return np.unique(dst[clash])


def split_ready(
    graph: CSRGraph, todo: np.ndarray, pending: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One repair round's partition of ``todo`` into ``(ready, blocked)``.

    A vertex is ready when no smaller-ID neighbour is still pending.
    Ready vertices are mutually non-adjacent — for adjacent ``u < v``,
    pending ``u`` blocks ``v`` — which is what makes the batched repair
    exact: every ready vertex sees final neighbour colors.
    """
    from ..kernels import gather_ranges

    deg = graph.degrees()
    lens = deg[todo]
    dst = graph.edges[gather_ranges(graph.offsets[todo], lens)]
    rows = np.repeat(np.arange(todo.size, dtype=np.int64), lens)
    blocked = np.zeros(todo.size, dtype=bool)
    blocked[rows[pending[dst] & (dst < todo[rows])]] = True
    return todo[~blocked], todo[blocked]


def recolor_first_free(
    graph: CSRGraph, colors: np.ndarray, ready: np.ndarray
) -> None:
    """Recolor ``ready`` first-free against full neighbourhoods, in place.

    Only valid on a mutually non-adjacent set (one :func:`split_ready`
    round): first-free results then depend only on neighbour colors,
    never on other ready vertices, so one batched sweep equals the
    serial walk.
    """
    if ready.size == 0:
        return
    from ..kernels import (
        first_free_colors_packed,
        gather_ranges,
        scatter_or_colors,
        words_for_colors,
    )

    # A round's first-free results never exceed the current max color
    # plus one, but later rounds see the new colors — recompute the
    # state width per call so a repair cascade can keep growing.
    num_words = words_for_colors(int(colors.max()) + 1)
    rlens = graph.degrees()[ready]
    rdst = graph.edges[gather_ranges(graph.offsets[ready], rlens)]
    rrows = np.repeat(np.arange(ready.size, dtype=np.int64), rlens)
    state = scatter_or_colors(rrows, colors[rdst], ready.size, num_words)
    colors[ready] = first_free_colors_packed(state)


def _repair_conflicts(
    graph: CSRGraph, colors: np.ndarray, conflicted: np.ndarray
) -> int:
    """Recolor ``conflicted`` first-free against full neighbourhoods.

    Equivalent to walking the conflicted set in ascending ID order and
    recoloring sequentially, but batched: each round colors every
    conflicted vertex with no smaller-ID conflicted neighbour still
    pending (:func:`split_ready` proves round members mutually
    non-adjacent, so one scatter-OR + first-free sweep per round —
    :func:`recolor_first_free` — is exact).  Mutates ``colors``; returns
    the round count.
    """
    if conflicted.size == 0:
        return 0
    pending = np.zeros(graph.num_vertices, dtype=bool)
    pending[conflicted] = True
    colors[conflicted] = UNCOLORED
    todo = conflicted
    rounds = 0
    while todo.size:
        rounds += 1
        ready, todo = split_ready(graph, todo, pending)
        recolor_first_free(graph, colors, ready)
        pending[ready] = False
    return rounds
