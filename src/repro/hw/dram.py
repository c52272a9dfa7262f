"""Per-BWPE logical DRAM channel model.

Each BWPE connects to its own logical channel (Section 4.1), so channels
never contend in the model.  (Contention between *logical* channels that
share a physical channel — 4 on the U200's DDR4, 32 on an HBM2 stack,
see :mod:`repro.hw.mem` — is modeled by the engines' shared-server
queues, not here.)  A channel is a block-granular memory — block width
``dram_block_bits`` comes from the active memory profile — with two cost
classes:

* a **random** block read costs ``dram_latency_cycles``;
* a block read that continues a **sequential stream** (block index =
  previous + 1) costs ``dram_stream_cycles`` — the burst behaviour the
  edge reader and (after edge sorting) the color loader exploit.

The channel also holds the functional backing store for LDV colors: a
numpy array indexed by vertex ID.  HDV colors live in the on-chip cache
(:mod:`repro.hw.cache`), so positions below ``v_t`` in this array stay 0
when HDC is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import HWConfig

__all__ = ["DRAMStats", "DRAMChannel", "ColorMemory"]


@dataclass
class DRAMStats:
    """Access accounting for one channel."""

    random_reads: int = 0
    stream_reads: int = 0
    writes: int = 0
    read_cycles: int = 0
    write_cycles: int = 0

    @property
    def total_reads(self) -> int:
        return self.random_reads + self.stream_reads

    def add_reads(self, *, random: int = 0, stream: int = 0, cycles: int = 0) -> None:
        """Bulk read accounting — the batched engine folds whole epochs in
        one call instead of one :meth:`DRAMChannel.read_block` per block."""
        self.random_reads += random
        self.stream_reads += stream
        self.read_cycles += cycles

    def add_writes(self, count: int, cycles: int = 0) -> None:
        """Bulk posted-write accounting (batched-engine counterpart of
        :meth:`DRAMChannel.write_block`)."""
        self.writes += count
        self.write_cycles += cycles

    def merge(self, other: "DRAMStats") -> "DRAMStats":
        return DRAMStats(
            random_reads=self.random_reads + other.random_reads,
            stream_reads=self.stream_reads + other.stream_reads,
            writes=self.writes + other.writes,
            read_cycles=self.read_cycles + other.read_cycles,
            write_cycles=self.write_cycles + other.write_cycles,
        )


class DRAMChannel:
    """Block-granular timing model of one logical DRAM channel."""

    def __init__(self, config: HWConfig):
        self.config = config
        self.stats = DRAMStats()
        self._last_block: int | None = None

    def read_block(self, block_index: int) -> int:
        """Account one block read; returns its occupancy cost in cycles.

        The cost is the *pipelined* per-read occupancy: sequential blocks
        stream at burst rate, random blocks pay the steady-state random
        cost (latency is overlapped across the loader's outstanding
        requests, so it appears only as extra occupancy, not as a stall
        per read).
        """
        if block_index < 0:
            raise ValueError("block index must be non-negative")
        if self._last_block is not None and block_index == self._last_block + 1:
            cost = self.config.dram_stream_cycles
            self.stats.stream_reads += 1
        else:
            cost = self.config.dram_read_occupancy_cycles
            self.stats.random_reads += 1
        self._last_block = block_index
        self.stats.read_cycles += cost
        return cost

    def write_block(self, block_index: int) -> int:
        """Account one posted block write; returns occupancy cycles."""
        if block_index < 0:
            raise ValueError("block index must be non-negative")
        cost = self.config.dram_write_cycles
        self.stats.writes += 1
        self.stats.write_cycles += cost
        # A write breaks the read stream at the controller.
        self._last_block = None
        return cost

    def stream_run(self, num_blocks: int) -> int:
        """Account a burst of ``num_blocks`` sequential block reads.

        The edge reader opens one burst per task and streams the row's
        blocks back to back, so every block — including the first —
        costs the burst rate (the stream open is part of the task setup,
        not the per-block occupancy).  Zero-length runs are free no-ops;
        a single-block run is still a (degenerate) sequential burst.
        Returns the total occupancy in cycles.
        """
        if num_blocks < 0:
            raise ValueError("num_blocks must be non-negative")
        if num_blocks == 0:
            return 0
        cost = num_blocks * self.config.dram_stream_cycles
        self.stats.stream_reads += num_blocks
        self.stats.read_cycles += cost
        return cost

    def end_stream(self) -> None:
        """Forget the stream state (e.g. when a new vertex task starts)."""
        self._last_block = None

    def reset(self) -> None:
        self.stats = DRAMStats()
        self._last_block = None


class ColorMemory:
    """Functional backing store for vertex colors kept in DRAM.

    Stores compressed color numbers.  Width checking mirrors the
    hardware's fixed 16-bit slot: a color that does not fit raises.
    """

    def __init__(self, num_vertices: int, config: HWConfig):
        self.config = config
        self._colors = np.zeros(num_vertices, dtype=np.int64)

    def read(self, vertex: int) -> int:
        return int(self._colors[vertex])

    def write(self, vertex: int, color: int) -> None:
        if color < 0 or color > self.config.max_colors:
            raise ValueError(f"color {color} outside [0, {self.config.max_colors}]")
        self._colors[vertex] = color

    def read_many(self, vertices: np.ndarray) -> np.ndarray:
        return self._colors[vertices]

    def snapshot(self) -> np.ndarray:
        return self._colors.copy()

    def block_of(self, vertex: int) -> int:
        """DRAM block index that holds this vertex's color."""
        return vertex // self.config.colors_per_block

    def blocks_of(self, vertices: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`block_of` (batched MGR/stream accounting)."""
        return np.asarray(vertices) // self.config.colors_per_block

    def offset_of(self, vertex: int) -> int:
        """Word offset of this vertex's color within its block."""
        return vertex % self.config.colors_per_block
