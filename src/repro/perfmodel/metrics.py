"""Cross-platform metrics: speedups, MCV/S throughput, KCV/J energy.

These are the quantities the paper reports in Section 5.3: per-dataset
speedup of BitColor over CPU and GPU (Figure 13), average throughput in
million colored vertices per second, and energy efficiency in kilo
colored vertices per joule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "speedup",
    "arith_mean",
    "mcvs",
    "kcvj",
    "ComparisonRow",
]


@dataclass(frozen=True)
class ComparisonRow:
    """One Figure 13 row: BitColor's speedup over CPU and GPU."""

    dataset: str
    cpu_time_s: float
    gpu_time_s: float
    fpga_time_s: float

    @property
    def speedup_vs_cpu(self) -> float:
        return speedup(self.cpu_time_s, self.fpga_time_s)

    @property
    def speedup_vs_gpu(self) -> float:
        return speedup(self.gpu_time_s, self.fpga_time_s)


def speedup(baseline_seconds: float, accelerated_seconds: float) -> float:
    """How many times faster the accelerated run is."""
    if accelerated_seconds <= 0:
        return float("inf")
    return baseline_seconds / accelerated_seconds


def arith_mean(values: Iterable[float]) -> float:
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("mean of empty sequence")
    return float(arr.mean())


def mcvs(num_vertices: int, time_seconds: float) -> float:
    """Million colored vertices per second."""
    if time_seconds <= 0:
        return float("inf")
    return num_vertices / time_seconds / 1e6


def kcvj(num_vertices: int, time_seconds: float, watts: float) -> float:
    """Kilo colored vertices per joule."""
    joules = time_seconds * watts
    if joules <= 0:
        return float("inf")
    return num_vertices / joules / 1e3
