"""Data Conflict Table (DCT) — Section 4.3.

Each BWPE carries a small register-file table with one column per *other*
BWPE and five rows: PE index, vertex being colored there, completion
valid bit, that vertex's color result (bits), and a conflict flag.  When
the BWPE meets a neighbour that is concurrently being colored elsewhere,
it marks the conflict and defers that neighbour's contribution; once all
flagged partners have raised their valid bits, a single parallel OR folds
their color bits into the state (Step 6 of Figure 7).

Resolution direction: the paper stipulates the BWPE with the smaller
index completes first, which under its dispatch pattern (vertices handed
out in ascending ID order) equals "the earlier-dispatched task wins".
This model keys on the dispatch sequence number, which is the invariant
the PE-index rule is standing in for, and is correct under any dispatch
order (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = [
    "DCTEntry",
    "DataConflictTable",
    "ConflictProtocolError",
]


class ConflictProtocolError(RuntimeError):
    """The DCT protocol was violated (e.g. OR before all valids set)."""


@dataclass
class DCTEntry:
    """One column of the table (state of one peer BWPE)."""

    pe_id: int
    vertex: Optional[int] = None
    valid: bool = False
    color_bits: int = 0
    conflict_flag: bool = False
    seq: int = -1
    """Dispatch sequence number of the peer's task (resolution key)."""

    def clear_task(self) -> None:
        self.vertex = None
        self.valid = False
        self.color_bits = 0
        self.conflict_flag = False
        self.seq = -1


class DataConflictTable:
    """The per-BWPE conflict table and its detection/deferral protocol."""

    def __init__(self, pe_id: int, num_pes: int):
        if not 0 <= pe_id < num_pes:
            raise ValueError("pe_id out of range")
        self.pe_id = pe_id
        self.entries: Dict[int, DCTEntry] = {
            pe: DCTEntry(pe_id=pe) for pe in range(num_pes) if pe != pe_id
        }
        self.conflicts_detected = 0

    # ------------------------------------------------------------------
    # Dispatcher-side updates
    # ------------------------------------------------------------------
    def set_peer_task(self, pe: int, vertex: int, seq: int) -> None:
        """Record that peer ``pe`` started coloring ``vertex`` (dispatch)."""
        entry = self._entry(pe)
        entry.vertex = vertex
        entry.valid = False
        entry.color_bits = 0
        entry.conflict_flag = False
        entry.seq = seq

    def clear_peer_task(self, pe: int) -> None:
        self._entry(pe).clear_task()

    def deliver_result(self, pe: int, color_bits: int) -> None:
        """Peer ``pe`` finished: forward its color and raise valid (Step 8)."""
        entry = self._entry(pe)
        if entry.vertex is None:
            raise ConflictProtocolError(f"peer {pe} has no task to complete")
        entry.color_bits = color_bits
        entry.valid = True

    # ------------------------------------------------------------------
    # BWPE-side protocol
    # ------------------------------------------------------------------
    def check(self, v_des: int, my_seq: int) -> bool:
        """Step 3: is ``v_des`` being colored by an earlier-dispatched peer?

        Returns True (and flags the entry) when the neighbour's
        contribution must be deferred to Step 6.  A peer working on
        ``v_des`` that was dispatched *later* than our task is ignored:
        that peer's own DCT will defer on us instead.
        """
        for entry in self.entries.values():
            if entry.vertex == v_des and entry.seq < my_seq:
                if not entry.conflict_flag:
                    entry.conflict_flag = True
                    self.conflicts_detected += 1
                return True
        return False

    def flagged(self) -> List[DCTEntry]:
        """Entries whose conflict flag is set."""
        return [e for e in self.entries.values() if e.conflict_flag]

    def all_flagged_valid(self) -> bool:
        return all(e.valid for e in self.flagged())

    def gather_conflict_bits(self) -> int:
        """Step 6: parallel OR over the flagged entries' color rows.

        One cycle in hardware (register file, not BRAM).  Raises if any
        flagged partner has not completed — the real pipeline stalls here,
        and the simulator models the stall before calling this.
        """
        acc = 0
        for entry in self.flagged():
            if not entry.valid:
                raise ConflictProtocolError(
                    f"gather before peer {entry.pe_id} (vertex {entry.vertex}) completed"
                )
            acc |= entry.color_bits
        return acc

    def reset_flags(self) -> None:
        """Start of a new task on this BWPE: forget old conflict flags."""
        for entry in self.entries.values():
            entry.conflict_flag = False

    def _entry(self, pe: int) -> DCTEntry:
        try:
            return self.entries[pe]
        except KeyError:
            raise ConflictProtocolError(
                f"PE {pe} not tracked by DCT of PE {self.pe_id}"
            ) from None
