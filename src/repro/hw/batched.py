"""Batched fast path of the BitColor accelerator model: one native call.

The event-driven engine (:meth:`~repro.hw.accelerator.BitColorAccelerator._run`)
steps Python loops per task and per neighbour, which caps it at
thousands of vertices a second.  :func:`run_batched` computes the *same*
model in one compiled pass over the CSR (``bc_replay_run`` in
:mod:`repro.kernels.native`), task by task in ascending order:

1. **Functional result** — the accelerator's coloring provably equals
   the sequential greedy coloring in ascending-ID order (the dependency
   protocol delivers every conflict value before it is consumed), so
   each task is colored from its lower neighbours as it is reached.
2. **Per-task inputs** — prune boundaries and comparator counts (PUV,
   with the per-row sortedness check), HDV/LDV fetch splits (HDC),
   edge-block streaming counts, and the MGR/stream structure of the
   task's LDV block sequence, all derived from its CSR row.
3. **Schedule recurrence (O(P) per task)** — dispatch order, PE binding
   and the finish-time recurrence replay exactly the event engine's
   schedule: dispatch floor, first-idle-PE selection,
   physical-DRAM-channel queueing, conflict deferral against in-flight
   lower neighbours, merge-buffer carry across tasks (with write-back
   invalidation), and stalls.

Because the recurrence replays the schedule exactly, *every* stats field
— including the timing-dependent ones (conflicts, merged_reads,
stall/queue cycles, makespan) — matches the event engine exactly; the
parity suite checks it against the event engine, the one Python
reference.  Tasks whose dispatch found a conflicting in-flight
neighbour take a scalar correction path that recomputes the task's
fetch sequence without the deferred neighbours.

Per-task trace rows and degenerate DRAM costs (:func:`degenerate_dram`)
are the event engine's alone; ``BitColorAccelerator.run`` falls back to
it for those, and when no compiler passes the native probe.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.layout import DEFAULT_LAYOUT, build_layout, validate_layout
from ..obs import get_registry
from .cache import CacheStats
from .config import HWConfig, OptimizationFlags
from .dispatcher import static_pe_binding
from .dram import DRAMStats

__all__ = ["DEFAULT_EPOCH_TASKS", "degenerate_dram", "run_batched"]

DEFAULT_EPOCH_TASKS = 4096
"""Tasks per dispatch epoch: one ``hw.batched.epoch`` span each."""


def degenerate_dram(config: HWConfig) -> bool:
    """Whether ``config``'s DRAM costs are ones the native run cannot model.

    ``dram_stream_cycles <= 1`` or ``dram_read_occupancy_cycles <= 1``
    make the event model count channel reads as "merged" (its merge test
    is ``cycles <= 1``), an accounting quirk not worth replicating in C.
    """
    return (
        config.dram_stream_cycles <= 1 or config.dram_read_occupancy_cycles <= 1
    )


def run_batched(
    graph: CSRGraph,
    config: HWConfig,
    flags: OptimizationFlags,
    *,
    epoch_size: int = DEFAULT_EPOCH_TASKS,
    layout: str = DEFAULT_LAYOUT,
):
    """Run the batched engine; returns an ``AcceleratorResult``.

    Produces byte-identical colors and an exactly matching
    ``AcceleratorStats`` relative to the event-driven engine (see module
    docstring) in one compiled call.  Needs the native kernel tier
    (:func:`repro.kernels.native.require` raises without it) and a
    non-degenerate DRAM config; :meth:`BitColorAccelerator.run
    <repro.hw.accelerator.BitColorAccelerator.run>` checks both and runs
    the event engine instead where either fails.  ``epoch_size`` only
    sets the tasks per ``hw.batched.epoch`` span.

    ``layout`` selects the edge-array encoding (repro.graph.layout);
    compressed layouts change only the per-task edge-block counts, so
    the schedule recurrence — and the parity contract with the event
    engine — is untouched.
    """
    from ..kernels import native
    from .accelerator import AcceleratorResult, AcceleratorStats

    cfg = config
    if degenerate_dram(cfg):
        raise ValueError(
            "the batched engine requires dram_stream_cycles > 1 and "
            "dram_read_occupancy_cycles > 1; run the event engine"
        )
    if epoch_size < 1:
        raise ValueError("epoch_size must be >= 1")
    validate_layout(layout)
    impl = native.require()
    edge_layout = (
        None
        if layout == DEFAULT_LAYOUT
        else build_layout(graph, layout, edge_index_bits=cfg.edge_index_bits)
    )
    n = graph.num_vertices
    v_t = cfg.v_t(n) if flags.hdc else 0
    obs = get_registry()
    pe_bind = static_pe_binding(n, v_t, cfg.parallelism)
    fin_bwc = 0
    if flags.bwc:
        from ..coloring.bitset import CascadedMuxCompressor

        fin_bwc = 1 + CascadedMuxCompressor.LATENCY_CYCLES

    # One compiled call colors every task, derives its per-task inputs
    # from its CSR row and replays its schedule; it stops at the first
    # vertex needing a color above max_colors.
    colors, totals, epoch_rows = impl.replay_epoch(
        graph, pe_bind, edge_layout,
        (
            v_t, cfg.parallelism, max(cfg.dram_physical_channels, 1),
            flags.puv, flags.mgr, flags.bwc, cfg.dispatch_interval_cycles,
            cfg.task_setup_cycles, cfg.dram_write_cycles,
            cfg.conflict_or_cycles, cfg.cache_hit_cycles - 1,
            cfg.dram_read_occupancy_cycles - 1, cfg.dram_stream_cycles - 1,
            cfg.colors_per_block, cfg.edges_per_block,
            cfg.dram_block_bits, fin_bwc, cfg.max_colors,
        ),
        epoch_size,
    )
    if colors.size and int(colors.max()) > cfg.max_colors:
        v = int(np.flatnonzero(colors > cfg.max_colors)[0])
        raise ValueError(
            f"vertex {v} needs color {colors[v]} > max {cfg.max_colors}"
        )
    if obs.enabled:
        for epoch, row in enumerate(epoch_rows):
            first_start, maxfin, conflicts, stall = row
            lo = epoch * epoch_size
            tasks = min(lo + epoch_size, n) - lo
            obs.record_span(
                "hw.batched.epoch", max(first_start, 0), maxfin, epoch=epoch,
                first_vertex=lo, tasks=tasks, conflicts=conflicts,
                stall_cycles=stall,
            )
            obs.add("hw.batched.epochs")
            obs.add("hw.batched.epoch.tasks", tasks)
    (
        maxfin, tot_comp, tot_dram, tot_wc, tot_stall, tot_queue, conflicts,
        count_a, conf_mi, conf_merged, conf_k, conf_misses, conf_ldv_base,
        conf_ldv_reads, conf_hdv_occ, sum_pruned, sum_cache, sum_ldv, sum_mi,
        sum_k, sum_blocks_needed, sum_blocks_saved,
    ) = totals

    # Fold the per-task totals and the conflict corrections into the
    # same aggregate objects the event engine reports from.
    misses_total = (sum_k - count_a) - conf_k + conf_misses
    dram_total = DRAMStats()
    dram_total.add_reads(stream=sum_blocks_needed)  # edge streaming
    dram_total.add_reads(random=misses_total)       # color reads (split by
    # stream/random only affects cycles, which the recurrence already
    # accumulated; total_reads is what the stats surface).
    dram_total.add_writes(n - v_t)
    cache_total = CacheStats()
    if flags.hdc:
        cache_total.add(reads=sum_cache - conf_hdv_occ, writes=v_t)

    stats = AcceleratorStats(num_vertices=n, num_edges=graph.num_edges)
    stats.makespan_cycles = maxfin
    stats.compute_cycles = tot_comp
    stats.dram_cycles = tot_dram + tot_wc
    stats.stall_cycles = tot_stall
    stats.dram_queue_cycles = tot_queue
    stats.hdv_tasks = v_t
    stats.ldv_tasks = n - v_t
    stats.conflicts = conflicts
    stats.pruned_edges = sum_pruned
    stats.cache_reads = cache_total.reads
    stats.cache_writes = cache_total.writes
    stats.ldv_reads = sum_ldv - conf_ldv_base + conf_ldv_reads
    stats.merged_reads = sum_mi + count_a - conf_mi + conf_merged
    stats.dram_reads = dram_total.total_reads
    stats.dram_writes = dram_total.writes
    stats.edge_blocks_fetched = sum_blocks_needed
    stats.edge_blocks_saved = sum_blocks_saved

    return AcceleratorResult(
        colors=colors,
        # Ascending first-fit uses every color from 1 to its maximum.
        num_colors=int(colors.max()) if n else 0,
        stats=stats,
        config=cfg,
        flags=flags,
        layout=layout,
    )
