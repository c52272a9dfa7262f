"""CPU performance model — the paper's Xeon baseline.

The paper's CPU baseline is the basic three-stage greedy algorithm
(Algorithm 1) in C on an Intel Xeon Silver 4114, single-threaded.  We run
Algorithm 1 functionally (:func:`repro.coloring.greedy.greedy_coloring`)
to obtain exact per-stage *operation counts*, then convert operations to
cycles with a small cost model:

* a Stage-0 operation is an edge-array read plus a *random* color-array
  read, whose cost grows with the color array's resident size relative to
  the cache hierarchy (graph coloring's access stream has almost no
  temporal locality — Figure 3(b) — so the array size is what matters);
* Stage-1 operations are sequential flag reads/writes on a tiny array;
* a Stage-2 operation carries the vertex-loop overhead (offset loads,
  branches) plus the color store.

Cost constants are calibrated once against the paper's reported CPU
behaviour (≈0.9 MCV/S average; Stage 1 ≈ 46 % of time) — see DESIGN.md.
The same infrastructure provides the preprocessing-time model backing
Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..coloring.greedy import GreedyResult, greedy_coloring
from ..graph.csr import CSRGraph

__all__ = ["CPUCostParams", "CPURunResult", "CPUModel"]


@dataclass(frozen=True)
class CPUCostParams:
    """Per-operation cycle costs of the Xeon baseline."""

    frequency_ghz: float = 2.2

    # Memory hierarchy thresholds (bytes of the color array).
    l1_bytes: int = 32 << 10
    l2_bytes: int = 1 << 20
    llc_bytes: int = 14 << 20

    # Random color-array read cost per residency class.
    l1_cycles: float = 6.0
    l2_cycles: float = 16.0
    llc_cycles: float = 42.0
    dram_cycles: float = 190.0

    edge_stream_cycles: float = 16.0
    """Per-edge baseline overhead beyond the color read itself: edge-array
    load, bounds/branch logic and the flag store of an unoptimized
    three-stage loop.  Calibrated against the paper's Table 2 absolute
    coloring times, which imply a few hundred cycles per edge end-to-end."""

    flag_op_cycles: float = 1.2
    """One flag scan or clear in Stage 1 (sequential, L1-resident array)."""

    vertex_overhead_cycles: float = 60.0
    """Per-vertex loop bookkeeping, offset loads, store (Stage 2)."""

    # Preprocessing (Table 2).  DBG is a degree bucketing, i.e. a counting
    # sort over degrees — linear in vertices — plus two edge passes
    # (renumber + regroup).
    counting_sort_cycles_per_vertex: float = 12.0
    edge_rewrite_cycles: float = 3.0
    """Per-edge cost of one renaming/regrouping pass (two passes run)."""

    def random_read_cycles(self, array_bytes: int) -> float:
        """Average random-read latency given the color array's size.

        A random probe into an array that spans multiple cache levels
        hits each level in proportion to its share of the array — the
        standard capacity-miss model for an access stream with no reuse.
        """
        if array_bytes <= self.l1_bytes:
            return self.l1_cycles
        probes = []
        remaining = array_bytes
        for cap, cyc in (
            (self.l1_bytes, self.l1_cycles),
            (self.l2_bytes - self.l1_bytes, self.l2_cycles),
            (self.llc_bytes - self.l2_bytes, self.llc_cycles),
        ):
            take = min(remaining, max(cap, 0))
            probes.append((take, cyc))
            remaining -= take
        probes.append((remaining, self.dram_cycles))
        total = sum(t for t, _ in probes)
        return sum(t * c for t, c in probes) / total if total else self.l1_cycles


@dataclass
class CPURunResult:
    """Modelled single-thread CPU execution of Algorithm 1."""

    cycles: float
    time_seconds: float
    stage0_cycles: float
    stage1_cycles: float
    stage2_cycles: float
    greedy: GreedyResult

    def breakdown(self) -> dict:
        """Figure 3(a): fraction of time per stage."""
        total = max(self.cycles, 1e-12)
        return {
            "stage0": self.stage0_cycles / total,
            "stage1": self.stage1_cycles / total,
            "stage2": self.stage2_cycles / total,
        }

    @property
    def throughput_mcvs(self) -> float:
        n = self.greedy.colors.shape[0]
        return n / self.time_seconds / 1e6 if self.time_seconds > 0 else float("inf")


class CPUModel:
    """Runs Algorithm 1 functionally and converts op counts to time."""

    def __init__(self, params: Optional[CPUCostParams] = None):
        self.params = params or CPUCostParams()

    def run(
        self,
        graph: CSRGraph,
        *,
        greedy: Optional[GreedyResult] = None,
        color_array_vertices: Optional[int] = None,
    ) -> CPURunResult:
        """Model a run of Algorithm 1 on ``graph``.

        ``color_array_vertices`` overrides the size used to price random
        color-array reads.  Stand-in experiments pass the corresponding
        *paper* graph's vertex count so the CPU suffers paper-scale cache
        behaviour, mirroring how the FPGA model's cache is scaled to the
        paper's HDV fraction (see :mod:`repro.experiments.datasets`).
        """
        p = self.params
        result = greedy if greedy is not None else greedy_coloring(
            graph, clear_mode="paper"
        )
        c = result.counters
        n_price = color_array_vertices or graph.num_vertices
        color_array_bytes = n_price * 2  # 16-bit colors
        rand = p.random_read_cycles(color_array_bytes)
        stage0 = c.stage0_ops * (rand + p.edge_stream_cycles)
        stage1 = c.stage1_ops * p.flag_op_cycles
        stage2 = c.stage2_ops * p.vertex_overhead_cycles
        cycles = stage0 + stage1 + stage2
        return CPURunResult(
            cycles=cycles,
            time_seconds=cycles / (p.frequency_ghz * 1e9),
            stage0_cycles=stage0,
            stage1_cycles=stage1,
            stage2_cycles=stage2,
            greedy=result,
        )

    def preprocessing_time_seconds(self, graph: CSRGraph) -> float:
        """Modelled single-thread DBG reordering time (Table 2).

        Counting sort over degrees (linear in vertices) plus a full edge
        rewrite (two passes: renumber and regroup).
        """
        p = self.params
        n = max(graph.num_vertices, 2)
        e = graph.num_edges
        cycles = (
            p.counting_sort_cycles_per_vertex * n
            + p.edge_rewrite_cycles * 2 * e
        )
        return float(cycles / (p.frequency_ghz * 1e9))
