"""Writer module — routes color results to the cache or DRAM (Section 4.1).

The Writer receives completed tasks from the BWPEs and

* writes HDV results to the multi-port cache through the write port bound
  to the producing BWPE (the bit-selection scheme requires write port
  ``i`` to only see addresses with ``addr % P == i``, which the
  degree-aware dispatcher guarantees);
* writes LDV results to that BWPE's DRAM channel (posted, so the PE does
  not stall);
* forwards the result bits to every peer BWPE's data conflict table so
  stalled conflict partners can proceed (Step 8's "notify" path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .bwpe import BWPE, TaskExecution
from .cache import HDVColorCache
from .config import HWConfig, OptimizationFlags
from .dram import ColorMemory, DRAMChannel
from .multiport import BitSelectMultiPortCache

__all__ = ["WriterStats", "Writer"]


@dataclass
class WriterStats:
    cache_writes: int = 0
    dram_writes: int = 0
    forwards: int = 0


class Writer:
    """Write-back and result-forwarding stage shared by all BWPEs."""

    def __init__(
        self,
        config: HWConfig,
        flags: OptimizationFlags,
        *,
        cache: Optional[HDVColorCache],
        multiport: Optional[BitSelectMultiPortCache],
        memory: ColorMemory,
        channels: Sequence[DRAMChannel],
        v_t: int,
    ):
        self.config = config
        self.flags = flags
        self.cache = cache
        self.multiport = multiport
        self.memory = memory
        self.channels = list(channels)
        self.v_t = v_t
        self.stats = WriterStats()

    def write_back(self, pe_id: int, task: TaskExecution, pes: Sequence[BWPE]) -> int:
        """Commit ``task``'s color; returns the cycles charged to the PE.

        Also forwards the result to every peer DCT — in hardware this is a
        broadcast register update, not a memory access, hence no extra
        cycles beyond the write itself.
        """
        v, color = task.v_src, task.color
        if self.flags.hdc and self.cache is not None and v < self.v_t:
            # Functional store...
            self.cache.write(v, color)
            # ...and the port-discipline check against the physical model.
            if self.multiport is not None:
                port = v % self.config.parallelism
                self.multiport.write(port, v, color)
            self.stats.cache_writes += 1
            cycles = 1
        else:
            self.memory.write(v, color)
            self.stats.dram_writes += 1
            channel = self.channels[pe_id]
            cycles = channel.write_block(self.memory.block_of(v))
            # A write invalidates any merged block holding this vertex.
            for pe in pes:
                pe.loader.invalidate(v)
        # Forward completion to the peers' conflict tables.
        for pe in pes:
            if pe.pe_id != pe_id:
                entry = pe.dct.entries.get(pe_id)
                if entry is not None and entry.vertex == v:
                    pe.dct.deliver_result(pe_id, task.color_bits)
                    self.stats.forwards += 1
        return cycles
