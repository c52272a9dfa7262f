"""Hardware model of the BitColor accelerator (functional + cycle-approximate)."""

from . import mem
from .accelerator import AcceleratorResult, AcceleratorStats, BitColorAccelerator
from .batched import DEFAULT_EPOCH_TASKS, run_batched
from .bwpe import BWPE, TaskExecution, finalize_cycles
from .cache import CacheStats, HDVColorCache
from .color_loader import ColorLoader, LoaderStats
from .config import DEFAULT_CONFIG, HWConfig, OptimizationFlags
from .conflict import ConflictProtocolError, DataConflictTable, DCTEntry
from .dispatcher import (
    DispatchStats,
    PEState,
    PEStateTable,
    TaskDispatchUnit,
    static_pe_binding,
)
from .dram import ColorMemory, DRAMChannel, DRAMStats
from .multiport import (
    BRAM_BLOCK_BITS,
    BitSelectMultiPortCache,
    LVTMultiPortCache,
    MultiPortCacheModel,
    PortViolation,
    bram_blocks_needed,
)
from .resources import (
    ResourceReport,
    U200,
    deployed_cache_bytes,
    estimate_resources,
    multiport_bram_comparison,
)
from .energy import DEFAULT_POWER, PlatformPower, energy_joules, kcv_per_joule
from .trace import (
    ExecutionTrace,
    TaskTrace,
    critical_path,
    pe_utilization,
    render_gantt,
)
from .cycle_sim import CycleAccurateBWPE, CyclePhase, CycleStats
from .mis_engine import BitwiseMISAccelerator, MISEngineResult, greedy_mis
from .writer import Writer, WriterStats

__all__ = [
    "mem",
    "AcceleratorResult",
    "AcceleratorStats",
    "BitColorAccelerator",
    "DEFAULT_EPOCH_TASKS",
    "run_batched",
    "BWPE",
    "TaskExecution",
    "finalize_cycles",
    "static_pe_binding",
    "CacheStats",
    "HDVColorCache",
    "ColorLoader",
    "LoaderStats",
    "DEFAULT_CONFIG",
    "HWConfig",
    "OptimizationFlags",
    "ConflictProtocolError",
    "DataConflictTable",
    "DCTEntry",
    "DispatchStats",
    "PEState",
    "PEStateTable",
    "TaskDispatchUnit",
    "ColorMemory",
    "DRAMChannel",
    "DRAMStats",
    "BRAM_BLOCK_BITS",
    "BitSelectMultiPortCache",
    "LVTMultiPortCache",
    "MultiPortCacheModel",
    "PortViolation",
    "bram_blocks_needed",
    "ResourceReport",
    "U200",
    "deployed_cache_bytes",
    "estimate_resources",
    "multiport_bram_comparison",
    "DEFAULT_POWER",
    "PlatformPower",
    "energy_joules",
    "kcv_per_joule",
    "Writer",
    "WriterStats",
    "BitwiseMISAccelerator",
    "MISEngineResult",
    "greedy_mis",
    "CycleAccurateBWPE",
    "CyclePhase",
    "CycleStats",
    "ExecutionTrace",
    "TaskTrace",
    "critical_path",
    "pe_utilization",
    "render_gantt",
]
