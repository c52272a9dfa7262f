"""Calibration-sensitivity analysis.

The reproduction's headline claims (Figure 13's speedup bands, Figure
12's sublinear scaling) rest on a handful of calibrated cost constants
(DESIGN.md §4).  This module perturbs each constant and re-derives the
headline aggregates, demonstrating which conclusions are *robust* (the
orderings and rough magnitudes) and which numbers are *calibrated* (the
exact averages).

``sweep_dram_occupancy`` and ``sweep_physical_channels`` perturb the
accelerator model; ``sweep_cpu_memory`` and ``sweep_gpu_frontier_rate``
perturb the baselines.  Each returns one row per setting with the
average speedups so the bench can assert, e.g., that BitColor still beats
the CPU by >20× even with DRAM costs doubled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

from ..api import color
from ..perfmodel.cpu import CPUCostParams, CPUModel
from ..perfmodel.gpu import GPUCostParams, GPUModel
from ..perfmodel.metrics import arith_mean
from .datasets import DATASET_KEYS
from .runner import get_graph, get_spec, run_bitcolor, run_cpu, run_gpu, run_greedy

__all__ = [
    "SensitivityRow",
    "sweep_dram_occupancy",
    "sweep_physical_channels",
    "sweep_cpu_memory",
    "sweep_gpu_frontier_rate",
]

_SUBSET = ("EF", "CL", "RC", "CF")
"""A 4-dataset slice spanning the suite's regimes (small social, large
social, road, extreme-scale social) — enough for direction checks at a
fraction of the full suite's cost."""


@dataclass(frozen=True)
class SensitivityRow:
    parameter: str
    value: float
    avg_speedup_vs_cpu: float
    avg_speedup_vs_gpu: float


def _fpga_times(keys: Sequence[str], *, occupancy=None, channels=None) -> Dict[str, float]:
    out = {}
    for key in keys:
        g = get_graph(key)
        cfg = get_spec(key).config_for(16, g.num_vertices)
        if occupancy is not None:
            cfg = replace(cfg, dram_read_occupancy_cycles=occupancy)
        if channels is not None:
            cfg = replace(cfg, dram_physical_channels=channels)
        out[key] = color(g, backend="hw", config=cfg).time_seconds
    return out


def _rows_for_fpga_variant(name: str, value, fpga: Dict[str, float]) -> SensitivityRow:
    cpu = {k: run_cpu(k).time_seconds for k in fpga}
    gpu = {k: run_gpu(k).time_seconds for k in fpga}
    return SensitivityRow(
        parameter=name,
        value=float(value),
        avg_speedup_vs_cpu=arith_mean(cpu[k] / fpga[k] for k in fpga),
        avg_speedup_vs_gpu=arith_mean(gpu[k] / fpga[k] for k in fpga),
    )


def sweep_dram_occupancy(
    values: Sequence[int] = (5, 10, 20),
    keys: Sequence[str] = _SUBSET,
) -> List[SensitivityRow]:
    """Halve/double the per-read DRAM occupancy of the accelerator."""
    return [
        _rows_for_fpga_variant("dram_read_occupancy_cycles", v,
                               _fpga_times(keys, occupancy=v))
        for v in values
    ]


def sweep_physical_channels(
    values: Sequence[int] = (2, 4, 8),
    keys: Sequence[str] = _SUBSET,
) -> List[SensitivityRow]:
    """Vary the number of shared physical DRAM channels."""
    return [
        _rows_for_fpga_variant("dram_physical_channels", v,
                               _fpga_times(keys, channels=v))
        for v in values
    ]


def sweep_cpu_memory(
    scales: Sequence[float] = (0.5, 1.0, 2.0),
    keys: Sequence[str] = _SUBSET,
) -> List[SensitivityRow]:
    """Scale the CPU model's memory latencies up and down."""
    fpga = {k: run_bitcolor(k, 16).time_seconds for k in keys}
    gpu = {k: run_gpu(k).time_seconds for k in keys}
    rows = []
    base = CPUCostParams()
    for s in scales:
        params = replace(
            base,
            l2_cycles=base.l2_cycles * s,
            llc_cycles=base.llc_cycles * s,
            dram_cycles=base.dram_cycles * s,
        )
        model = CPUModel(params)
        cpu = {
            k: model.run(
                get_graph(k),
                greedy=run_greedy(k, clear_mode="paper"),
                color_array_vertices=get_spec(k).paper_nodes,
            ).time_seconds
            for k in keys
        }
        rows.append(
            SensitivityRow(
                parameter="cpu_memory_scale",
                value=s,
                avg_speedup_vs_cpu=arith_mean(cpu[k] / fpga[k] for k in keys),
                avg_speedup_vs_gpu=arith_mean(gpu[k] / fpga[k] for k in keys),
            )
        )
    return rows


def sweep_gpu_frontier_rate(
    scales: Sequence[float] = (0.5, 1.0, 2.0),
    keys: Sequence[str] = _SUBSET,
) -> List[SensitivityRow]:
    """Scale the GPU model's per-round frontier throughput."""
    fpga = {k: run_bitcolor(k, 16).time_seconds for k in keys}
    cpu = {k: run_cpu(k).time_seconds for k in keys}
    base = GPUCostParams()
    rows = []
    for s in scales:
        model = GPUModel(replace(base, frontier_rate_per_s=base.frontier_rate_per_s * s))
        gpu = {k: model.run(get_graph(k)).time_seconds for k in keys}
        rows.append(
            SensitivityRow(
                parameter="gpu_frontier_rate_scale",
                value=s,
                avg_speedup_vs_cpu=arith_mean(cpu[k] / fpga[k] for k in keys),
                avg_speedup_vs_gpu=arith_mean(gpu[k] / fpga[k] for k in keys),
            )
        )
    return rows
