"""Calibrated CPU/GPU performance models and cross-platform metrics."""

from .cpu import CPUCostParams, CPUModel, CPURunResult
from .gpu import GPUCostParams, GPUModel, GPURunResult
from .metrics import (
    ComparisonRow,
    arith_mean,
    kcvj,
    mcvs,
    speedup,
)

__all__ = [
    "CPUCostParams",
    "CPUModel",
    "CPURunResult",
    "GPUCostParams",
    "GPUModel",
    "GPURunResult",
    "ComparisonRow",
    "arith_mean",
    "kcvj",
    "mcvs",
    "speedup",
]
