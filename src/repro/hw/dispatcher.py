"""Task Dispatch Unit — degree-aware task scheduling (Section 4.6).

The unit owns:

* **HDV sub-FIFOs**, one per BWPE.  Vertex ``v < v_t`` is bound to BWPE
  ``v % P`` so that the bit-selection multi-port cache's write pattern
  (PE ``i`` writes addresses ``i, i+P, i+2P, …``) holds by construction.
* a shared **LDV FIFO** drained first-come-first-served by whichever
  BWPE idles first — LDV results go to DRAM, not the cache, so no port
  binding is needed and FCFS absorbs DRAM-latency imbalance.
* the **PE State Table (PST)**: per PE, the vertex in flight and a
  running flag, used to configure peer DCTs at task dispatch.

Scheduling invariant
--------------------
Tasks *start* in ascending vertex-ID order.  The offset fetcher pushes
vertices in ascending order and the paper's wave pattern (vertex ``kP+i``
on PE ``i``) keeps engines in step; this model makes the invariant
explicit because two of the paper's mechanisms are only correct under
it: PUV prunes neighbours with larger IDs assuming they cannot have been
colored yet, and the DCT resolves conflicts assuming the earlier vertex
completes logically first.  The cost of the invariant — a PE idling
until the preceding vertex has started — is exactly the scheduling/
conflict overhead that keeps the paper's P=16 speedup at 3.9–7.0× rather
than 16×.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from .config import HWConfig

__all__ = [
    "PEState",
    "PEStateTable",
    "TaskDispatchUnit",
    "DispatchStats",
    "static_pe_binding",
]


def static_pe_binding(num_vertices: int, v_t: int, parallelism: int):
    """The dispatch plan that is static under ascending-ID dispatch.

    Returns a ``numpy`` int64 array of length ``num_vertices``: vertex
    ``v < v_t`` is bound to PE ``v % P`` (the HDV port-binding rule),
    every LDV entry is ``-1`` ("first idle PE" — a timing property only
    the schedule recurrence can resolve).  This is the part of
    :class:`TaskDispatchUnit` the batched engine can precompute for a
    whole epoch; the FIFO model above exists to *check* that the real
    unit respects it.
    """
    import numpy as np

    pe = np.full(num_vertices, -1, dtype=np.int64)
    bound = min(max(v_t, 0), num_vertices)
    if bound > 0:
        pe[:bound] = np.arange(bound, dtype=np.int64) % parallelism
    return pe


@dataclass
class PEState:
    """One row of the PE State Table."""

    pe_id: int
    vertex: Optional[int] = None
    running: bool = False
    seq: int = -1


class PEStateTable:
    """Tracks what every BWPE is working on."""

    def __init__(self, num_pes: int):
        self.rows = [PEState(pe_id=i) for i in range(num_pes)]

    def start(self, pe: int, vertex: int, seq: int) -> None:
        row = self.rows[pe]
        if row.running:
            raise RuntimeError(f"PE {pe} already running vertex {row.vertex}")
        row.vertex, row.running, row.seq = vertex, True, seq

    def complete(self, pe: int) -> None:
        row = self.rows[pe]
        if not row.running:
            raise RuntimeError(f"PE {pe} is not running")
        row.vertex, row.running, row.seq = None, False, -1

    def running_tasks(self) -> List[Tuple[int, int, int]]:
        """``(pe, vertex, seq)`` for every busy PE."""
        return [
            (r.pe_id, r.vertex, r.seq) for r in self.rows if r.running
        ]

    def idle_pes(self) -> List[int]:
        return [r.pe_id for r in self.rows if not r.running]


@dataclass
class DispatchStats:
    hdv_tasks: int = 0
    ldv_tasks: int = 0
    offset_fetches: int = 0
    max_hdv_fifo_depth: int = 0
    max_ldv_fifo_depth: int = 0


class TaskDispatchUnit:
    """Degree-aware scheduler feeding the BWPEs.

    The accelerator's event loop drives it with :meth:`next_task`, which
    returns the next vertex and its target PE, honouring the ascending-
    start invariant and the HDV port binding.
    """

    def __init__(self, config: HWConfig, num_vertices: int, v_t: int):
        self.config = config
        self.num_vertices = num_vertices
        self.v_t = v_t
        self.pst = PEStateTable(config.parallelism)
        self.stats = DispatchStats()
        # The offset fetcher streams vertices in ascending order; modelled
        # as a cursor plus the FIFOs it fills.
        self._cursor = 0
        self._hdv_fifos: List[Deque[int]] = [
            deque() for _ in range(config.parallelism)
        ]
        self._ldv_fifo: Deque[int] = deque()
        self._dispatched = 0

    # ------------------------------------------------------------------
    # Offset fetch (fills FIFOs in ascending vertex order)
    # ------------------------------------------------------------------
    def _fill(self, upto: int) -> None:
        """Fetch offsets and enqueue vertices up to (and incl.) ``upto``."""
        while self._cursor <= upto and self._cursor < self.num_vertices:
            v = self._cursor
            self.stats.offset_fetches += 1
            if v < self.v_t:
                fifo = self._hdv_fifos[v % self.config.parallelism]
                fifo.append(v)
                self.stats.max_hdv_fifo_depth = max(
                    self.stats.max_hdv_fifo_depth, len(fifo)
                )
            else:
                self._ldv_fifo.append(v)
                self.stats.max_ldv_fifo_depth = max(
                    self.stats.max_ldv_fifo_depth, len(self._ldv_fifo)
                )
            self._cursor += 1

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        return self._dispatched >= self.num_vertices

    def peek_next_vertex(self) -> Optional[int]:
        """The next vertex to start (ascending invariant)."""
        if self.exhausted:
            return None
        return self._dispatched

    def next_task(self) -> Optional[Tuple[int, int]]:
        """``(vertex, pe)`` for the next dispatch, or None when done.

        HDVs go to their bound PE; LDVs report PE ``-1``, meaning
        "first idle PE" — the event loop resolves which one that is,
        because idleness is a timing property the dispatcher model does
        not own.
        """
        v = self.peek_next_vertex()
        if v is None:
            return None
        self._fill(v)
        if v < self.v_t:
            fifo = self._hdv_fifos[v % self.config.parallelism]
            assert fifo and fifo[0] == v, "HDV FIFO order violated"
            fifo.popleft()
            self.stats.hdv_tasks += 1
            pe = v % self.config.parallelism
        else:
            assert self._ldv_fifo and self._ldv_fifo[0] == v, "LDV FIFO order violated"
            self._ldv_fifo.popleft()
            self.stats.ldv_tasks += 1
            pe = -1
        self._dispatched += 1
        return v, pe
