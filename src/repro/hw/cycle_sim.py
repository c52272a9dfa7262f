"""Cycle-stepped microsimulation of a single BWPE.

The main simulator (:mod:`repro.hw.accelerator`) accounts cycles at
vertex-task granularity.  This module steps one engine **cycle by
cycle** through explicit pipeline state — edge buffer refills, the
prune/conflict/fetch stages, an outstanding-request DRAM queue, the
OR-accumulator, and the finalize FSM — so the task-level accounting can
be cross-validated against a finer model (tests require agreement within
a tolerance band) and so pipeline behaviour can be inspected directly
(per-cycle occupancy histograms).

Scope: a single engine (the Fig 11 setting), all four optimization
flags.  Conflicts need multiple engines and stay in the event-driven
model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from collections import deque

import numpy as np

from ..coloring.bitset import CascadedMuxCompressor, Num2BitTable, first_free_bits
from ..graph.csr import CSRGraph
from ..obs import get_registry
from .config import HWConfig, OptimizationFlags

__all__ = ["CyclePhase", "CycleStats", "CycleAccurateBWPE"]


class CyclePhase:
    """What the engine did in a cycle (occupancy histogram buckets)."""

    SETUP = "setup"
    PROCESS = "process"        # a neighbour moved through the pipeline
    EDGE_WAIT = "edge_wait"    # starved for edge data
    DRAM_WAIT = "dram_wait"    # stalled on a color read
    FINALIZE = "finalize"      # Stage 6–8 FSM
    IDLE = "idle"


# Dense phase ids for the hot loop: indexing a preallocated list beats
# hashing a string per simulated cycle.  Order defines the id.
_PHASE_NAMES = (
    CyclePhase.SETUP,
    CyclePhase.PROCESS,
    CyclePhase.EDGE_WAIT,
    CyclePhase.DRAM_WAIT,
    CyclePhase.FINALIZE,
    CyclePhase.IDLE,
)
_SETUP, _PROCESS, _EDGE_WAIT, _DRAM_WAIT, _FINALIZE, _IDLE = range(
    len(_PHASE_NAMES)
)


@dataclass
class CycleStats:
    cycles: int = 0
    by_phase: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_counts(cls, counts) -> "CycleStats":
        """Build from a dense per-phase-id count array (see ``_PHASE_NAMES``).

        The dict is materialised once here, holding only phases that
        actually occurred — same shape :meth:`bump` would have produced.
        """
        by_phase = {
            _PHASE_NAMES[i]: c for i, c in enumerate(counts) if c
        }
        return cls(cycles=sum(counts), by_phase=by_phase)

    def bump(self, phase: str) -> None:
        self.cycles += 1
        self.by_phase[phase] = self.by_phase.get(phase, 0) + 1

    def fraction(self, phase: str) -> float:
        return self.by_phase.get(phase, 0) / max(self.cycles, 1)


class _EdgeStream:
    """The ping-pong edge buffer: refills in 16-edge blocks.

    The first block of a task is assumed prefetched (the dispatcher
    hands the engine a running stream); later blocks arrive every
    ``dram_stream_cycles`` once requested.
    """

    def __init__(self, cfg: HWConfig, edges: np.ndarray):
        self.cfg = cfg
        self.pending = deque(int(v) for v in edges)
        self.available = min(len(self.pending), cfg.edges_per_block)
        self.refill_timer = 0

    def tick(self) -> None:
        if self.refill_timer > 0:
            self.refill_timer -= 1
            if self.refill_timer == 0:
                self.available = min(
                    self.available + self.cfg.edges_per_block, len(self.pending)
                )
        elif self.available < len(self.pending):
            self.refill_timer = self.cfg.dram_stream_cycles

    def pop(self) -> Optional[int]:
        if self.available > 0 and self.pending:
            self.available -= 1
            return self.pending.popleft()
        return None

    @property
    def exhausted(self) -> bool:
        return not self.pending

    def drop_remaining(self) -> int:
        n = len(self.pending)
        self.pending.clear()
        self.available = 0
        return n


class CycleAccurateBWPE:
    """Single-engine, cycle-stepped coloring run."""

    def __init__(
        self,
        config: Optional[HWConfig] = None,
        flags: Optional[OptimizationFlags] = None,
    ):
        self.config = config or HWConfig(parallelism=1)
        self.flags = flags or OptimizationFlags.all()

    def run(self, graph: CSRGraph) -> tuple:
        """Color ``graph``; returns ``(colors, CycleStats)``."""
        obs = get_registry()
        with obs.span(
            "hw.cycle_sim.run",
            vertices=graph.num_vertices,
            edges=graph.num_edges,
        ):
            colors, stats = self._run(graph)
        if obs.enabled:
            obs.record_span("hw.cycle_sim.cycles", 0, stats.cycles)
            obs.add("hw.cycle_sim.cycles", stats.cycles)
            for phase, count in sorted(stats.by_phase.items()):
                obs.add(f"hw.cycle_sim.phase.{phase}", count)
        return colors, stats

    def _run(self, graph: CSRGraph) -> tuple:
        cfg = self.config
        flags = self.flags
        n = graph.num_vertices
        v_t = cfg.v_t(n) if flags.hdc else 0
        colors = np.zeros(n, dtype=np.int64)
        num2bit = Num2BitTable(cfg.max_colors)
        compressor = CascadedMuxCompressor(cfg.max_colors)
        # Dense per-phase cycle counters; turned into CycleStats once at
        # the end (dict hashing per cycle dominated profiles before).
        counts = [0] * len(_PHASE_NAMES)
        last_block: Optional[int] = None
        max_color_seen = 1

        for v in range(n):
            # --- setup phase -------------------------------------------------
            counts[_SETUP] += cfg.task_setup_cycles
            stream = _EdgeStream(cfg, graph.neighbors(v))
            state = 0
            sorted_edges = graph.meta.get("edges_sorted", False)
            dram_wait = 0

            # --- traversal loop, one cycle per iteration ---------------------
            while True:
                if dram_wait > 0:
                    dram_wait -= 1
                    counts[_DRAM_WAIT] += 1
                    stream.tick()
                    continue
                if stream.exhausted:
                    break
                w = stream.pop()
                stream.tick()
                if w is None:
                    counts[_EDGE_WAIT] += 1
                    continue
                # Prune stage.
                if flags.puv and w > v:
                    counts[_PROCESS] += 1
                    if sorted_edges:
                        stream.drop_remaining()
                        break
                    continue
                # Fetch stage.
                if flags.hdc and w < v_t:
                    color = int(colors[w])
                    counts[_PROCESS] += 1
                else:
                    block = w // cfg.colors_per_block
                    if flags.mgr and block == last_block:
                        color = int(colors[w])
                        counts[_PROCESS] += 1
                    else:
                        color = int(colors[w])
                        last_block = block
                        counts[_PROCESS] += 1
                        dram_wait = cfg.dram_read_occupancy_cycles - 1
                # OR stage (same cycle as the pipeline slot).
                state |= num2bit.decompress(color)

            # --- finalize FSM -------------------------------------------------
            if flags.bwc:
                bits = first_free_bits(state)
                color = compressor.compress(bits)
                # AND-NOT cycle + compressor latency.
                counts[_FINALIZE] += 1 + compressor.LATENCY_CYCLES
            else:
                color = 1
                while state & (1 << (color - 1)):
                    color += 1
                counts[_FINALIZE] += color + max_color_seen
            max_color_seen = max(max_color_seen, color)
            colors[v] = color
            # Write-back.
            if flags.hdc and v < v_t:
                counts[_FINALIZE] += 1
            else:
                if last_block == v // cfg.colors_per_block:
                    last_block = None  # writer invalidates the merge buffer
                counts[_FINALIZE] += cfg.dram_write_cycles

        return colors, CycleStats.from_counts(counts)
