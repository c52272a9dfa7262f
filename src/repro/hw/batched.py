"""Epoch-batched fast path of the BitColor accelerator model.

The event-driven engine (:meth:`~repro.hw.accelerator.BitColorAccelerator._run`)
steps Python loops per task and per neighbour, which caps the stand-ins
at thousands of vertices.  This module computes the *same* model in
three parts:

1. **Functional result** — the accelerator's coloring provably equals
   the sequential greedy coloring in ascending-ID order (the dependency
   protocol delivers every conflict value before it is consumed).  The
   Python replay takes the colors straight from the vectorized bitwise
   kernel path; the native replay colors each task from its lower
   neighbours as it reaches it.
2. **Per-task precompute** — prune boundaries and comparator counts
   (PUV, with the per-row sortedness check), HDV/LDV fetch splits (HDC),
   edge-block streaming counts, and the MGR/stream structure of each
   task's LDV block sequence — collapsed run count ``k``, internal
   merges, stream continuations, first/last block, whether run 1
   continues run 0.  The Python replay derives these in one NumPy pass
   per epoch (the :mod:`repro.kernels` segment primitives); the native
   replay derives them from each task's CSR row.
3. **Schedule recurrence (scalar, O(P) per task)** — dispatch order,
   PE binding and the finish-time recurrence are inherently sequential,
   so a lean loop replays exactly the event engine's schedule: dispatch
   floor, first-idle-PE selection, physical-DRAM-channel queueing,
   conflict deferral against in-flight lower neighbours, merge-buffer
   carry across tasks (with write-back invalidation), and stalls.  The
   ``replay=`` parameter selects the reference Python loop below or the
   native kernel tier (:mod:`repro.kernels.native`), which does parts
   1-3 for the whole run in one compiled pass over the CSR — identical
   colors, schedule and stats, used by default when the capability
   probe succeeds.

Because the recurrence replays the schedule exactly, *every* stats field
— including the timing-dependent ones (conflicts, merged_reads,
stall/queue cycles, makespan) — matches the event engine exactly; the
cycle_sim tolerance band is slack we do not need.  Tasks whose dispatch
found a conflicting in-flight neighbour are rare, so they take a scalar
correction path that recomputes the task's fetch sequence without the
deferred neighbours.

Two degenerate configurations are rejected (use the event engine):
``dram_stream_cycles <= 1`` or ``dram_read_occupancy_cycles <= 1`` make
the event model count channel reads as "merged" (its merge test is
``cycles <= 1``), an accounting quirk not worth replicating here.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.layout import DEFAULT_LAYOUT, EdgeLayout, build_layout, validate_layout
from ..kernels import (
    adjacent_pair_counts,
    prefix_block_counts,
    rows_sorted,
    run_start_mask,
)
from ..obs import get_registry
from .cache import CacheStats
from .config import HWConfig, OptimizationFlags
from .conflict import conflict_candidates
from .dispatcher import static_pe_binding
from .dram import DRAMStats
from .trace import ExecutionTrace, TaskTrace

__all__ = ["DEFAULT_EPOCH_TASKS", "run_batched"]

DEFAULT_EPOCH_TASKS = 4096
"""Tasks per dispatch epoch: one vectorized precompute + obs span each."""


class _Epoch:
    """Vectorized per-task precompute for tasks ``lo .. hi-1``."""

    __slots__ = (
        # hot per-task lists (epoch-local index)
        "comp_trav", "dram_b", "delta_a", "c0", "clast",
        # correction-path arrays (numpy, epoch-local index)
        "edge_dram", "k", "mi", "ldv_ptr", "ldv_dst", "ldv_blk",
        # conflict candidates
        "low_ptr", "low_dst",
        # epoch totals of the vectorized parts
        "sum_pruned", "sum_cache", "sum_ldv", "sum_mi", "sum_k",
        "sum_blocks_needed", "sum_blocks_saved",
    )


def _precompute_epoch(
    graph: CSRGraph,
    lo: int,
    hi: int,
    v_t: int,
    cfg: HWConfig,
    flags: OptimizationFlags,
    *,
    layout: Optional[EdgeLayout] = None,
) -> _Epoch:
    offsets = graph.offsets
    edges = graph.edges
    nloc = hi - lo
    base = int(offsets[lo])
    dst = edges[base:int(offsets[hi])]
    row_ptr = (offsets[lo:hi + 1] - base).astype(np.int64)
    deg = np.diff(row_ptr)
    src_local = np.repeat(np.arange(nloc, dtype=np.int64), deg)
    src = src_local + lo

    # --- Step 2: prune masks (PUV) ------------------------------------
    if flags.puv:
        keep = dst <= src
        n_le = np.bincount(src_local[keep], minlength=nloc)
        srt = rows_sorted(row_ptr, dst)
        has_larger = n_le < deg
        consumed = np.where(srt, n_le + has_larger, deg)
        compares = np.where(srt, has_larger.astype(np.int64), deg - n_le)
        pruned = deg - n_le
        kept = n_le
    else:
        keep = np.ones(dst.size, dtype=bool)
        consumed = deg
        compares = np.zeros(nloc, dtype=np.int64)
        pruned = compares
        kept = deg

    # --- Step 4 split: HDV cache hits vs Color-Loader reads (HDC) -----
    if flags.hdc and v_t > 0:
        is_hdv = dst < v_t
        hdv_sel = keep & is_hdv
        ldv_sel = keep & ~is_hdv
        hdv_fetch = np.bincount(src_local[hdv_sel], minlength=nloc)
    else:
        hdv_fetch = np.zeros(nloc, dtype=np.int64)
        ldv_sel = keep
    ldv_src = src_local[ldv_sel]
    ldv_dst = dst[ldv_sel]
    ldv_cnt = np.bincount(ldv_src, minlength=nloc)
    ldv_ptr = np.zeros(nloc + 1, dtype=np.int64)
    np.cumsum(ldv_cnt, out=ldv_ptr[1:])
    blocks = ldv_dst // cfg.colors_per_block

    # --- MGR collapse + stream structure of each task's block sequence
    if flags.mgr:
        starts = run_start_mask(ldv_src, blocks)
        cblocks = blocks[starts]
        cseg = ldv_src[starts]
    else:
        cblocks = blocks
        cseg = ldv_src
    k = np.bincount(cseg, minlength=nloc)
    cptr = np.zeros(nloc + 1, dtype=np.int64)
    np.cumsum(k, out=cptr[1:])
    mi = ldv_cnt - k  # merges internal to the task (0 unless MGR)
    if cblocks.size >= 2:
        s_full = adjacent_pair_counts(cseg, cblocks[1:] == cblocks[:-1] + 1, nloc)
    else:
        s_full = np.zeros(nloc, dtype=np.int64)
    # First/second/last collapsed block per task.  Sentinels: c0 = -5
    # never equals a carry value (valid carries are >= 0, the invalid
    # carry is -1); clast = -1 means "no LDV reads, keep the carry".
    c0 = np.full(nloc, -5, dtype=np.int64)
    clast = np.full(nloc, -1, dtype=np.int64)
    nz = k > 0
    c0[nz] = cblocks[cptr[:-1][nz]]
    clast[nz] = cblocks[cptr[1:][nz] - 1]
    stream1 = np.zeros(nloc, dtype=np.int64)
    k2 = k >= 2
    first2 = cptr[:-1][k2]
    stream1[k2] = cblocks[first2 + 1] == cblocks[first2] + 1

    # --- Cycle costs ---------------------------------------------------
    rc = cfg.dram_read_occupancy_cycles - 1  # extra cycles per random miss
    sc = cfg.dram_stream_cycles - 1          # extra cycles per stream miss
    # Branch B (no carry merge): k misses, s_full of them streaming.
    dram_b_color = s_full * sc + (k - s_full) * rc
    # Branch A (MGR, carry == first block): the first run merges, so k-1
    # misses; run 1's stream continuation is lost (the channel sees it
    # first, after the per-task stream reset).
    s_a = s_full - stream1
    delta_a = (s_a * sc + (k - 1 - s_a) * rc) - dram_b_color

    if layout is not None:
        # Compressed layout: per-row header/entry widths replace the
        # fixed edge_index_bits word (same math as the event engine's
        # EdgeLayout.prefix_blocks, vectorized over the epoch).
        hb = layout.header_bits[lo:hi]
        eb = layout.entry_bits[lo:hi]
        blocks_needed = prefix_block_counts(hb, eb, consumed, cfg.dram_block_bits)
        blocks_saved = (
            prefix_block_counts(hb, eb, deg, cfg.dram_block_bits) - blocks_needed
        )
    else:
        epb = cfg.edges_per_block
        blocks_needed = (consumed + epb - 1) // epb
        blocks_saved = (deg + epb - 1) // epb - blocks_needed
    edge_dram = blocks_needed * cfg.dram_stream_cycles

    comp_trav = (
        cfg.task_setup_cycles
        + kept
        + compares
        + (cfg.cache_hit_cycles - 1) * hdv_fetch
    )

    ep = _Epoch()
    low_ptr, low_dst = conflict_candidates(offsets, edges, lo, hi)
    # The Python replay loop indexes plain lists (faster than numpy
    # scalar access by ~3x in a tight loop).
    ep.comp_trav = comp_trav.tolist()
    ep.dram_b = (edge_dram + dram_b_color).tolist()
    ep.delta_a = delta_a.tolist()
    ep.c0 = c0.tolist()
    ep.clast = clast.tolist()
    ep.edge_dram = edge_dram
    ep.k = k
    ep.mi = mi
    ep.ldv_ptr = ldv_ptr.tolist()
    ep.ldv_dst = ldv_dst.tolist()
    ep.ldv_blk = blocks.tolist()
    ep.low_ptr = low_ptr.tolist()
    ep.low_dst = low_dst.tolist()
    ep.sum_pruned = int(pruned.sum())
    ep.sum_cache = int(hdv_fetch.sum())
    ep.sum_ldv = int(ldv_cnt.sum())
    ep.sum_mi = int(mi.sum())
    ep.sum_k = int(k.sum())
    ep.sum_blocks_needed = int(blocks_needed.sum())
    ep.sum_blocks_saved = int(blocks_saved.sum())
    return ep


def _check_max_colors(colors: np.ndarray, max_colors: int) -> None:
    if colors.size and int(colors.max()) > max_colors:
        v = int(np.flatnonzero(colors > max_colors)[0])
        raise ValueError(f"vertex {v} needs color {colors[v]} > max {max_colors}")


def _record_epoch(obs, epoch, epoch_size, n, first_start, maxfin, conflicts, stall):
    """One ``hw.batched.epoch`` span: the epoch's dispatch-to-finish window."""
    lo = epoch * epoch_size
    tasks = min(lo + epoch_size, n) - lo
    obs.record_span(
        "hw.batched.epoch", max(first_start, 0), maxfin, epoch=epoch,
        first_vertex=lo, tasks=tasks, conflicts=conflicts, stall_cycles=stall,
    )
    obs.add("hw.batched.epochs")
    obs.add("hw.batched.epoch.tasks", tasks)


def _replay_python(graph, cfg, flags, v_t, pe_bind_arr, fin_bwc, layout,
                   epoch_size, trace, obs):
    """The reference replay: ``(colors, totals, trace rows or None)``."""
    from ..coloring.bitwise import bitwise_greedy_coloring

    n = graph.num_vertices
    p = cfg.parallelism
    # Functional result: the accelerator's coloring equals the ascending
    # sequential greedy coloring (tests pin this for the event engine).
    colors = bitwise_greedy_coloring(
        graph, prune_uncolored=False, backend="vectorized"
    ).colors.astype(np.int64, copy=True)
    _check_max_colors(colors, cfg.max_colors)
    colors_l = colors.tolist() if not flags.bwc else None
    pe_bind = pe_bind_arr.tolist()

    # --- scalar schedule state ----------------------------------------
    mgr = flags.mgr
    bwc = flags.bwc
    interval = cfg.dispatch_interval_cycles
    wc_ldv = cfg.dram_write_cycles
    or_cyc = cfg.conflict_or_cycles
    hitx = cfg.cache_hit_cycles - 1
    rc = cfg.dram_read_occupancy_cycles - 1
    sc = cfg.dram_stream_cycles - 1
    cpb = cfg.colors_per_block

    free = [0] * p
    seen = [1] * p                      # per-PE max color seen (non-BWC)
    carry = [-1] * p                    # per-PE merged block (-1 invalid)
    finish_v = [0] * n                  # finish time by vertex
    servers = [0] * max(cfg.dram_physical_channels, 1)
    ns = len(servers)
    pending_w: List = []                # (finish, block) LDV writes awaiting commit
    floor = 0
    maxfin = 0

    # accumulators
    tot_comp = tot_dram = tot_wc = tot_stall = tot_queue = 0
    conflicts = 0
    count_a = 0                         # unconflicted tasks taking branch A
    conf_mi = conf_merged = conf_k = conf_misses = 0
    conf_ldv_base = conf_ldv_reads = conf_hdv_occ = 0
    sum_pruned = sum_cache = sum_ldv = sum_mi = sum_k = 0
    sum_blocks_needed = sum_blocks_saved = 0

    tr_rows: Optional[list] = [] if trace else None

    for lo in range(0, n, epoch_size):
        hi = min(lo + epoch_size, n)
        ep = _precompute_epoch(graph, lo, hi, v_t, cfg, flags, layout=layout)
        sum_pruned += ep.sum_pruned
        sum_cache += ep.sum_cache
        sum_ldv += ep.sum_ldv
        sum_mi += ep.sum_mi
        sum_k += ep.sum_k
        sum_blocks_needed += ep.sum_blocks_needed
        sum_blocks_saved += ep.sum_blocks_saved

        comp_l = ep.comp_trav
        dram_l = ep.dram_b
        da_l = ep.delta_a
        c0_l = ep.c0
        cl_l = ep.clast
        lptr = ep.low_ptr
        ldst = ep.low_dst
        vptr = ep.ldv_ptr
        vdst = ep.ldv_dst
        vblk = ep.ldv_blk
        ep_conflicts0 = conflicts
        ep_stall0 = tot_stall
        ep_first_start = -1

        for vl in range(hi - lo):
            v = lo + vl
            # --- dispatch: PE choice and start time -------------------
            pe = pe_bind[v]
            if pe < 0:
                pe = 0
                fpe = free[0]
                for q in range(1, p):
                    fq = free[q]
                    if fq < fpe:
                        fpe = fq
                        pe = q
            else:
                fpe = free[pe]
            t = fpe if fpe > floor else floor
            floor = t + interval
            if ep_first_start < 0:
                ep_first_start = t

            # --- commits due before this dispatch: merge-buffer
            #     invalidation by completed LDV writes ------------------
            if mgr:
                while pending_w and pending_w[0][0] <= t:
                    wb = heappop(pending_w)[1]
                    for q in range(p):
                        if carry[q] == wb:
                            carry[q] = -1

            # --- conflict deferral against in-flight lower neighbours -
            dep = 0
            deferred = None
            d_hdv_occ = 0
            if maxfin > t:
                for i in range(lptr[vl], lptr[vl + 1]):
                    w = ldst[i]
                    fw = finish_v[w]
                    if fw > t:
                        if w < v_t:
                            d_hdv_occ += 1
                        if deferred is None:
                            deferred = {w}
                            dlist = [w]
                            dep = fw
                        elif w not in deferred:
                            deferred.add(w)
                            dlist.append(w)
                            if fw > dep:
                                dep = fw

            ct = comp_l[vl]
            dr = dram_l[vl]
            if deferred is None:
                if mgr:
                    if c0_l[vl] == carry[pe]:
                        count_a += 1
                        dr += da_l[vl]
                    cl = cl_l[vl]
                    if cl >= 0:
                        carry[pe] = cl
            else:
                # --- correction path: replay the fetch sequence without
                #     the deferred neighbours -----------------------------
                conflicts += len(dlist)
                lp = vptr[vl]
                rp = vptr[vl + 1]
                cur = carry[pe]
                last_c = -1
                merged = misses = stream = reads = 0
                for i in range(lp, rp):
                    if vdst[i] in deferred:
                        continue
                    b = vblk[i]
                    reads += 1
                    if mgr and b == cur:
                        merged += 1
                    else:
                        misses += 1
                        if last_c >= 0 and b == last_c + 1:
                            stream += 1
                        last_c = b
                        cur = b
                if mgr:
                    carry[pe] = cur
                dr = int(ep.edge_dram[vl]) + stream * sc + (misses - stream) * rc
                ct -= hitx * d_hdv_occ
                conf_ldv_base += rp - lp
                conf_ldv_reads += reads
                conf_merged += merged
                conf_misses += misses
                conf_mi += int(ep.mi[vl])
                conf_k += int(ep.k[vl])
                conf_hdv_occ += d_hdv_occ

            # --- finalize cycles (Steps 6-7) ---------------------------
            if bwc:
                cf = fin_bwc
            else:
                col = colors_l[v]
                sm = seen[pe]
                cf = col + sm
                if col > sm:
                    seen[pe] = col
            if deferred is not None:
                cf += or_cyc

            # --- write-back + physical DRAM channel queueing ----------
            if v < v_t:
                wc = 1
                dd = dr
            else:
                wc = wc_ldv
                dd = dr + wc
            qd = 0
            if dd > 0:
                si = 0
                s0 = servers[0]
                for q in range(1, ns):
                    if servers[q] < s0:
                        s0 = servers[q]
                        si = q
                if s0 > t:
                    qd = s0 - t
                    servers[si] = s0 + dd
                else:
                    servers[si] = t + dd

            # --- finish recurrence ------------------------------------
            te = t + ct + qd + dr
            if dep > te:
                stall = dep - te
                fin = dep + cf + wc
            else:
                stall = 0
                fin = te + cf + wc

            free[pe] = fin
            finish_v[v] = fin
            if fin > maxfin:
                maxfin = fin
            if mgr and v >= v_t:
                heappush(pending_w, (fin, v // cpb))

            tot_comp += ct + cf
            tot_dram += dr
            tot_wc += wc
            tot_stall += stall
            tot_queue += qd
            if tr_rows is not None:
                tr_rows.append(
                    TaskTrace(
                        vertex=v,
                        pe=pe,
                        start=t,
                        finish=fin,
                        stall=stall,
                        queue_delay=qd,
                        deferred_on=tuple(dlist) if deferred is not None else (),
                    )
                )

        if obs.enabled:
            _record_epoch(
                obs, lo // epoch_size, epoch_size, n, ep_first_start, maxfin,
                conflicts - ep_conflicts0, tot_stall - ep_stall0,
            )

    totals = (
        maxfin, tot_comp, tot_dram, tot_wc, tot_stall, tot_queue, conflicts,
        count_a, conf_mi, conf_merged, conf_k, conf_misses, conf_ldv_base,
        conf_ldv_reads, conf_hdv_occ, sum_pruned, sum_cache, sum_ldv, sum_mi,
        sum_k, sum_blocks_needed, sum_blocks_saved,
    )
    return colors, totals, tr_rows


def run_batched(
    graph: CSRGraph,
    config: HWConfig,
    flags: OptimizationFlags,
    *,
    trace: bool = False,
    epoch_size: int = DEFAULT_EPOCH_TASKS,
    replay: str = "auto",
    layout: str = DEFAULT_LAYOUT,
):
    """Run the batched engine; returns an ``AcceleratorResult``.

    Produces byte-identical colors and an exactly matching
    ``AcceleratorStats`` relative to the event-driven engine (see module
    docstring), at one-to-two orders of magnitude lower wall clock.

    ``replay`` selects the implementation of the scalar schedule
    recurrence (step 3): ``"auto"`` uses the compiled native kernel tier
    when its capability probe succeeds (and the Python loop otherwise),
    ``"python"`` pins the reference loop, ``"native"`` prefers the
    compiled loop but still falls back to Python when no compiler
    backend is usable (the strict form is ``repro.kernels.native.require``).
    Both replays produce identical stats — the parity suite pins this.
    The native replay is one compiled call per run, whatever
    ``epoch_size`` is.  Trace capture records per-task rows, which only
    the Python loop emits: ``trace=True`` silently pins
    ``replay="auto"`` to Python and rejects an explicit
    ``replay="native"``.

    ``layout`` selects the edge-array encoding (repro.graph.layout);
    compressed layouts change only the per-task edge-block counts fed to
    the precompute, so the schedule recurrence — and the parity contract
    with the event engine — is untouched.
    """
    from .accelerator import AcceleratorResult, AcceleratorStats

    cfg = config
    if cfg.dram_stream_cycles <= 1 or cfg.dram_read_occupancy_cycles <= 1:
        raise ValueError(
            "engine='batched' requires dram_stream_cycles > 1 and "
            "dram_read_occupancy_cycles > 1; use engine='event' for "
            "degenerate DRAM cost settings"
        )
    if epoch_size < 1:
        raise ValueError("epoch_size must be >= 1")
    if replay not in ("auto", "python", "native"):
        raise ValueError(
            f"unknown replay {replay!r}; allowed: auto, python, native"
        )
    if trace and replay == "native":
        raise ValueError(
            "trace capture requires replay='python' (per-task rows are "
            "only recorded by the Python replay loop); drop trace= or "
            "the replay pin"
        )
    validate_layout(layout)
    edge_layout = (
        None
        if layout == DEFAULT_LAYOUT
        else build_layout(graph, layout, edge_index_bits=cfg.edge_index_bits)
    )
    native_impl = None
    if not trace and replay in ("auto", "native"):
        from ..kernels import native as _native

        if _native.available():
            native_impl = _native.require()
    n = graph.num_vertices
    v_t = cfg.v_t(n) if flags.hdc else 0
    obs = get_registry()
    pe_bind = static_pe_binding(n, v_t, cfg.parallelism)
    fin_bwc = 0
    if flags.bwc:
        from ..coloring.bitset import CascadedMuxCompressor

        fin_bwc = 1 + CascadedMuxCompressor.LATENCY_CYCLES

    tr_rows = None
    if native_impl is None:
        colors, totals, tr_rows = _replay_python(
            graph, cfg, flags, v_t, pe_bind, fin_bwc, edge_layout,
            epoch_size, trace, obs,
        )
    else:
        # One compiled call colors every task, derives its per-task
        # inputs from its CSR row and replays its schedule; it stops at
        # the first vertex needing a color above max_colors.
        colors, totals, epoch_rows = native_impl.replay_epoch(
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
        _check_max_colors(colors, cfg.max_colors)
        if obs.enabled:
            for epoch, row in enumerate(epoch_rows):
                _record_epoch(obs, epoch, epoch_size, n, *row)
    (
        maxfin, tot_comp, tot_dram, tot_wc, tot_stall, tot_queue, conflicts,
        count_a, conf_mi, conf_merged, conf_k, conf_misses, conf_ldv_base,
        conf_ldv_reads, conf_hdv_occ, sum_pruned, sum_cache, sum_ldv, sum_mi,
        sum_k, sum_blocks_needed, sum_blocks_saved,
    ) = totals

    # ------------------------------------------------------------------
    # Fold the vectorized totals and the scalar corrections into the
    # same aggregate objects the event engine reports from.
    # ------------------------------------------------------------------
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

    execution_trace = ExecutionTrace(tasks=tr_rows) if trace else None
    return AcceleratorResult(
        colors=colors,
        # Ascending first-fit uses every color from 1 to its maximum.
        num_colors=int(colors.max()) if n else 0,
        stats=stats,
        config=cfg,
        flags=flags,
        trace=execution_trace,
        layout=layout,
    )
