"""BitColor top level — functional + cycle-approximate accelerator model.

:class:`BitColorAccelerator` wires together the architecture of Figure 6:
a Task Dispatch Unit, P bit-wise processing engines each with a private
logical DRAM channel and Color Loader, the shared HDV color cache (with
its multi-port physical model), the per-PE data conflict tables and the
Writer.  :meth:`BitColorAccelerator.run` executes a whole graph and
returns the coloring (functionally exact) plus cycle-level accounting
(approximate, at vertex-task granularity).

Execution model
---------------
Tasks start in ascending vertex order (see :mod:`repro.hw.dispatcher`).
For each task the engine's traversal/finalize cycle counts are computed
exactly by the :class:`~repro.hw.bwpe.BWPE` model; across engines a
discrete-event schedule tracks when each PE frees up and how long a task
stalls waiting for conflicting peers:

    finish(v) = max(start(v) + traverse_cycles, max_dep_finish) +
                finalize_cycles + write_cycles

Dependency values (conflict partners' color bits) are resolved eagerly —
every value consumed respects the dependency order, so the resulting
coloring is a legal dataflow execution; tests verify it equals the
sequential greedy coloring and is proper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..coloring.outcome import OutcomeMixin
from ..graph.csr import CSRGraph
from ..graph.layout import DEFAULT_LAYOUT, LAYOUTS, build_layout
from ..kernels import native
from ..obs import get_registry, record_trace
from .batched import degenerate_dram
from .bwpe import BWPE, TaskExecution
from .cache import HDVColorCache
from .color_loader import ColorLoader
from .config import HWConfig, OptimizationFlags
from .conflict import DataConflictTable
from .dispatcher import TaskDispatchUnit
from .dram import ColorMemory, DRAMChannel, DRAMStats
from .multiport import BitSelectMultiPortCache
from .trace import ExecutionTrace, TaskTrace
from .writer import Writer

__all__ = ["AcceleratorStats", "AcceleratorResult", "BitColorAccelerator"]


@dataclass
class _TaskRecord:
    vertex: int
    pe: int
    seq: int
    start: int
    finish: int
    exec: TaskExecution
    write_cycles: int
    stall: int
    queue_delay: int = 0
    deferred_on: tuple = ()


@dataclass
class AcceleratorStats:
    """Aggregated run statistics (the raw material for Figs 11–13)."""

    num_vertices: int = 0
    num_edges: int = 0
    makespan_cycles: int = 0
    compute_cycles: int = 0
    dram_cycles: int = 0
    stall_cycles: int = 0
    dram_queue_cycles: int = 0
    hdv_tasks: int = 0
    ldv_tasks: int = 0
    conflicts: int = 0
    pruned_edges: int = 0
    cache_reads: int = 0
    cache_writes: int = 0
    ldv_reads: int = 0
    merged_reads: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    edge_blocks_fetched: int = 0
    edge_blocks_saved: int = 0

    @property
    def total_task_cycles(self) -> int:
        """Serial work: what a single PE would take (plus stalls excluded)."""
        return self.compute_cycles + self.dram_cycles

    def time_seconds(self, frequency_mhz: float) -> float:
        return self.makespan_cycles / (frequency_mhz * 1e6)

    def throughput_mcvs(self, frequency_mhz: float) -> float:
        """Million colored vertices per second (the paper's MCV/S)."""
        t = self.time_seconds(frequency_mhz)
        return self.num_vertices / t / 1e6 if t > 0 else float("inf")


@dataclass
class AcceleratorResult(OutcomeMixin):
    colors: np.ndarray
    num_colors: int
    stats: AcceleratorStats
    config: HWConfig
    flags: OptimizationFlags
    trace: Optional["ExecutionTrace"] = None
    """Per-task timing records; populated when ``run(..., trace=True)``."""

    layout: str = DEFAULT_LAYOUT
    """Edge-array layout the run was modeled with (repro.graph.layout)."""

    @property
    def time_seconds(self) -> float:
        return self.stats.time_seconds(self.config.frequency_mhz)

    @property
    def throughput_mcvs(self) -> float:
        return self.stats.throughput_mcvs(self.config.frequency_mhz)


class BitColorAccelerator:
    """One configured BitColor instance; :meth:`run` colors one graph.

    ``engine`` selects the execution model:

    * ``"event"`` (default) — the discrete-event simulator below: one
      Python step per task and per neighbour, driving the full component
      models (BWPE, loader, DCT, writer).  Exact, slow.
    * ``"batched"`` — the same model in one compiled call
      (:func:`repro.hw.batched.run_batched`), identical colorings and
      statistics at a fraction of the wall clock.  :meth:`run` takes it
      when the native probe passes, ``trace`` is False and the DRAM
      config is not degenerate; otherwise it runs the event engine,
      which gives the same result.  ``epoch_size`` sets the tasks per
      ``hw.batched.epoch`` span.

    ``mem_profile`` names a registered memory profile (see
    :func:`repro.hw.mem.profiles`); when given without an explicit
    ``config``, the config is built from the profile.  ``layout`` selects
    the edge-array encoding (:data:`repro.graph.layout.LAYOUTS`); both
    engines account block fetches through the same layout, so the
    ``AcceleratorStats`` parity contract holds for every
    (profile × layout) combination.
    """

    ENGINES = ("event", "batched")
    LAYOUTS = LAYOUTS

    def __init__(
        self,
        config: Optional[HWConfig] = None,
        flags: Optional[OptimizationFlags] = None,
        *,
        engine: str = "event",
        epoch_size: Optional[int] = None,
        mem_profile: Optional[str] = None,
        layout: str = DEFAULT_LAYOUT,
    ):
        if engine not in self.ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {self.ENGINES}"
            )
        if layout not in self.LAYOUTS:
            raise ValueError(
                f"unknown layout {layout!r}; expected one of {self.LAYOUTS}"
            )
        if mem_profile is not None:
            from . import mem

            mem.get_profile(mem_profile)  # eager: unknown names raise here
            if config is None:
                config = mem.profile_config(mem_profile)
            elif config.mem_profile != mem_profile:
                raise ValueError(
                    f"mem_profile={mem_profile!r} conflicts with "
                    f"config.mem_profile={config.mem_profile!r}; pass one "
                    "or build the config with repro.hw.mem.profile_config"
                )
        self.config = config or HWConfig()
        self.flags = flags or OptimizationFlags.all()
        self.engine = engine
        self.epoch_size = epoch_size
        self.layout = layout

    # ------------------------------------------------------------------
    def run(self, graph: CSRGraph, *, trace: bool = False) -> AcceleratorResult:
        """Color ``graph``; records spans/counters on the active obs registry."""
        # The one fallback rule: the batched engine is the native run
        # where that applies, and the event engine everywhere else.
        engine = self.engine
        if engine == "batched" and (
            trace or degenerate_dram(self.config) or not native.available()
        ):
            engine = "event"
        obs = get_registry()
        with obs.span(
            "hw.accelerator.run",
            vertices=graph.num_vertices,
            edges=graph.num_edges,
            parallelism=self.config.parallelism,
            hdc=self.flags.hdc,
            mgr=self.flags.mgr,
            puv=self.flags.puv,
            engine=engine,
            mem_profile=self.config.mem_profile,
            layout=self.layout,
        ) as sp:
            if engine == "batched":
                from .batched import DEFAULT_EPOCH_TASKS, run_batched

                result = run_batched(
                    graph,
                    self.config,
                    self.flags,
                    epoch_size=self.epoch_size or DEFAULT_EPOCH_TASKS,
                    layout=self.layout,
                )
            else:
                result = self._run(graph, trace=trace)
            sp.set(
                makespan_cycles=result.stats.makespan_cycles,
                n_colors=result.num_colors,
            )
        if obs.enabled:
            s = result.stats
            obs.record_span(
                "hw.accelerator.makespan", 0, s.makespan_cycles,
                parallelism=self.config.parallelism,
            )
            obs.add("hw.cycles.compute", s.compute_cycles)
            obs.add("hw.cycles.dram", s.dram_cycles)
            obs.add("hw.cycles.stall", s.stall_cycles)
            obs.add("hw.cycles.dram_queue", s.dram_queue_cycles)
            obs.add("hw.cache.reads", s.cache_reads)
            obs.add("hw.cache.writes", s.cache_writes)
            obs.add("hw.dram.ldv_reads", s.ldv_reads)
            obs.add("hw.dram.merged_reads", s.merged_reads)
            obs.add("hw.dram.reads", s.dram_reads)
            obs.add("hw.dram.writes", s.dram_writes)
            obs.add("hw.conflicts", s.conflicts)
            obs.add("hw.pruned_edges", s.pruned_edges)
            obs.add("hw.tasks.hdv", s.hdv_tasks)
            obs.add("hw.tasks.ldv", s.ldv_tasks)
            obs.gauge("hw.cycles.makespan", s.makespan_cycles)
            obs.gauge("hw.colors", result.num_colors)
            if result.trace is not None:
                record_trace(result.trace, obs)
        return result

    def _run(self, graph: CSRGraph, *, trace: bool = False) -> AcceleratorResult:
        cfg = self.config
        flags = self.flags
        n = graph.num_vertices
        p = cfg.parallelism

        if flags.puv and not graph.meta.get("dbg_reordered", False):
            # PUV is only a pure optimization under descending-degree IDs;
            # it stays *correct* for any ascending processing order, so we
            # allow it but the paper's preprocessing is expected.
            pass
        v_t = cfg.v_t(n) if flags.hdc else 0

        channels = [DRAMChannel(cfg) for _ in range(p)]
        memory = ColorMemory(n, cfg)
        cache = HDVColorCache(cfg, v_t) if flags.hdc else None
        # Physical multi-port model (port-discipline checking).  BRAMs are
        # dual-ported so the construction needs an even port count; odd
        # parallelism (not a deployable configuration, but allowed in the
        # functional simulator) skips the physical shadow model.
        multiport = (
            BitSelectMultiPortCache(v_t, p, cfg.color_bits)
            if flags.hdc and p > 1 and p % 2 == 0 and v_t > 0
            else None
        )
        loaders = [
            ColorLoader(cfg, channels[i], memory, enable_merge=flags.mgr)
            for i in range(p)
        ]
        dcts = [DataConflictTable(i, p) for i in range(p)]
        # Plain layout keeps the original closed-form block math (and the
        # original code path); compressed layouts are encoded once and
        # shared read-only by every PE.
        edge_layout = (
            None
            if self.layout == DEFAULT_LAYOUT
            else build_layout(graph, self.layout, edge_index_bits=cfg.edge_index_bits)
        )
        pes = [
            BWPE(
                i,
                cfg,
                flags,
                cache=cache,
                loader=loaders[i],
                channel=channels[i],
                dct=dcts[i],
                layout=edge_layout,
            )
            for i in range(p)
        ]
        writer = Writer(
            cfg,
            flags,
            cache=cache,
            multiport=multiport,
            memory=memory,
            channels=channels,
            v_t=v_t,
        )
        dispatcher = TaskDispatchUnit(cfg, n, v_t)

        free = [0] * p
        last_start = 0
        next_dispatch_slot = 0
        # Physical DRAM channels: logical per-PE channels share these
        # servers; queueing here is what throttles memory-bound scaling.
        dram_servers = [0] * max(cfg.dram_physical_channels, 1)
        in_flight: Dict[int, _TaskRecord] = {}
        committed: List[_TaskRecord] = []
        stats = AcceleratorStats(num_vertices=n, num_edges=graph.num_edges)

        def commit(rec: _TaskRecord) -> None:
            rec.write_cycles = writer.write_back(rec.pe, rec.exec, pes)
            dispatcher.pst.complete(rec.pe)
            del in_flight[rec.pe]
            committed.append(rec)

        def commit_until(t: int) -> None:
            # Finish-order processing keeps dependency delivery consistent.
            while True:
                due = [r for r in in_flight.values() if r.finish <= t]
                if not due:
                    return
                commit(min(due, key=lambda r: (r.finish, r.seq)))

        while True:
            nxt = dispatcher.next_task()
            if nxt is None:
                break
            v, pe = nxt
            if pe < 0:
                # LDV: first PE to go idle takes it (FCFS).
                pe = min(range(p), key=lambda i: (free[i], i))
                stats.ldv_tasks += 1
            else:
                stats.hdv_tasks += 1
            t_start = max(free[pe], last_start, next_dispatch_slot)
            last_start = t_start
            next_dispatch_slot = t_start + cfg.dispatch_interval_cycles
            commit_until(t_start)
            if pe in in_flight:  # pragma: no cover - scheduling invariant
                raise RuntimeError(f"PE {pe} dispatched while busy")

            # Configure this engine's DCT with a snapshot of running peers.
            dct = dcts[pe]
            for q in range(p):
                if q == pe:
                    continue
                rec = in_flight.get(q)
                if rec is not None:
                    dct.set_peer_task(q, rec.vertex, rec.seq)
                else:
                    dct.clear_peer_task(q)
            dispatcher.pst.start(pe, v, v)

            # Steps 1–5.
            exec_ = pes[pe].traverse(v, graph.neighbors(v), seq=v, v_t=v_t)
            comp_trav = exec_.compute_cycles
            dram_trav = exec_.dram_cycles

            # Resolve conflict dependencies eagerly (values + timing).
            dep_finish = 0
            deferred_on = []
            for q in exec_.deferred_peers:
                dep = in_flight.get(q)
                if dep is None:  # pragma: no cover - protocol invariant
                    raise RuntimeError(f"deferred peer {q} is not in flight")
                dct.deliver_result(q, dep.exec.color_bits)
                dep_finish = max(dep_finish, dep.finish)
                deferred_on.append(dep.vertex)

            # Steps 6–7.
            exec_ = pes[pe].finalize()
            comp_fin = exec_.compute_cycles - comp_trav
            hdv_write = flags.hdc and v < v_t
            write_cycles = 1 if hdv_write else cfg.dram_write_cycles

            # DRAM contention: the task's total block traffic queues on the
            # earliest-free physical channel.
            dram_demand = dram_trav + (0 if hdv_write else write_cycles)
            queue_delay = 0
            if dram_demand > 0:
                s = min(range(len(dram_servers)), key=lambda i: dram_servers[i])
                queue_delay = max(0, dram_servers[s] - t_start)
                dram_servers[s] = max(dram_servers[s], t_start) + dram_demand

            traverse_end = t_start + comp_trav + queue_delay + dram_trav
            stall = max(0, dep_finish - traverse_end)
            finish = max(traverse_end, dep_finish) + comp_fin + write_cycles

            rec = _TaskRecord(
                vertex=v,
                pe=pe,
                seq=v,
                start=t_start,
                finish=finish,
                exec=exec_,
                write_cycles=write_cycles,
                stall=stall,
                queue_delay=queue_delay,
                deferred_on=tuple(deferred_on),
            )
            in_flight[pe] = rec
            free[pe] = finish

        commit_until(max(free) + 1)
        if in_flight:  # pragma: no cover - drain invariant
            raise RuntimeError("tasks left in flight after drain")

        # ------------------------------------------------------------------
        # Aggregate statistics.
        # ------------------------------------------------------------------
        colors = memory.snapshot()
        if cache is not None and v_t > 0:
            colors[:v_t] = cache.snapshot()
        makespan = max((r.finish for r in committed), default=0)
        stats.makespan_cycles = makespan
        for r in committed:
            e = r.exec
            stats.compute_cycles += e.compute_cycles
            stats.dram_cycles += e.dram_cycles + r.write_cycles
            stats.stall_cycles += r.stall
            stats.dram_queue_cycles += r.queue_delay
            stats.conflicts += len(e.deferred_peers)
            stats.pruned_edges += e.pruned
            stats.cache_reads += e.cache_reads
            stats.ldv_reads += e.ldv_reads
            stats.merged_reads += e.merged_reads
            stats.edge_blocks_fetched += e.edge_blocks_fetched
            stats.edge_blocks_saved += e.edge_blocks_saved
        stats.cache_writes = writer.stats.cache_writes
        stats.dram_writes = writer.stats.dram_writes
        dram_total = DRAMStats()
        for ch in channels:
            dram_total = dram_total.merge(ch.stats)
        stats.dram_reads = dram_total.total_reads

        execution_trace = None
        if trace:
            execution_trace = ExecutionTrace(
                tasks=[
                    TaskTrace(
                        vertex=r.vertex,
                        pe=r.pe,
                        start=r.start,
                        finish=r.finish,
                        stall=r.stall,
                        queue_delay=r.queue_delay,
                        deferred_on=r.deferred_on,
                    )
                    for r in sorted(committed, key=lambda r: r.start)
                ]
            )

        return AcceleratorResult(
            colors=colors,
            # Ascending first-fit uses every color from 1 to its maximum.
            num_colors=int(colors.max()) if colors.size else 0,
            stats=stats,
            config=cfg,
            flags=flags,
            trace=execution_trace,
            layout=self.layout,
        )
