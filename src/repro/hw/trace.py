"""Execution tracing for the accelerator simulator.

``BitColorAccelerator.run(graph, trace=True)`` attaches a
:class:`ExecutionTrace` to the result: one :class:`TaskTrace` per vertex
with start/finish cycles, the owning PE, and the stall/queue breakdown.
This module turns that into engineering views:

* :func:`pe_utilization` — busy fraction per PE over the makespan;
* :func:`render_gantt` — a text Gantt chart of PE occupancy;
* :func:`critical_path` — the dependency chain (conflict deferrals +
  PE serialization) that determines the makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["TaskTrace", "ExecutionTrace", "pe_utilization", "render_gantt", "critical_path"]


@dataclass(frozen=True)
class TaskTrace:
    """Timing record of one vertex task."""

    vertex: int
    pe: int
    start: int
    finish: int
    stall: int
    queue_delay: int
    deferred_on: tuple
    """Vertices whose results this task waited for (conflict partners)."""

    @property
    def duration(self) -> int:
        return self.finish - self.start


@dataclass
class ExecutionTrace:
    tasks: List[TaskTrace] = field(default_factory=list)

    @property
    def makespan(self) -> int:
        return max((t.finish for t in self.tasks), default=0)

    def by_pe(self) -> Dict[int, List[TaskTrace]]:
        out: Dict[int, List[TaskTrace]] = {}
        for t in self.tasks:
            out.setdefault(t.pe, []).append(t)
        for tasks in out.values():
            tasks.sort(key=lambda t: t.start)
        return out

    def task_of(self, vertex: int) -> Optional[TaskTrace]:
        for t in self.tasks:
            if t.vertex == vertex:
                return t
        return None

    def to_span_records(self, *, name: str = "hw.task") -> List:
        """The trace as cycle-clock :class:`repro.obs.SpanRecord` rows.

        One span per task, so a JSON-lines export holds simulated cycle
        intervals next to wall-clock spans in the same schema.
        """
        from ..obs.bridge import trace_to_records

        return trace_to_records(self, name=name)


def pe_utilization(trace: ExecutionTrace) -> Dict[int, float]:
    """Busy-cycle fraction per PE over the whole makespan."""
    span = max(trace.makespan, 1)
    return {
        pe: sum(t.duration for t in tasks) / span
        for pe, tasks in sorted(trace.by_pe().items())
    }


def render_gantt(trace: ExecutionTrace, *, width: int = 80) -> str:
    """Text Gantt chart: one row per PE, '#' busy, '.' idle.

    Each column is ``makespan / width`` cycles; a column is busy when any
    task on that PE overlaps it.
    """
    span = trace.makespan
    if span == 0:
        return "(empty trace)"
    lines = []
    for pe, tasks in sorted(trace.by_pe().items()):
        cells = ["."] * width
        for t in tasks:
            lo = min(width - 1, t.start * width // span)
            hi = min(width - 1, max(lo, (t.finish - 1) * width // span))
            for i in range(lo, hi + 1):
                cells[i] = "#"
        util = sum(t.duration for t in tasks) / span
        lines.append(f"PE{pe:>2} |{''.join(cells)}| {100 * util:5.1f}%")
    lines.append(f"      0{' ' * (width - len(str(span)) - 1)}{span} cycles")
    return "\n".join(lines)


def critical_path(trace: ExecutionTrace) -> List[TaskTrace]:
    """The chain of tasks ending at the last finisher, following whichever
    constraint bound each task: its conflict dependency or its PE's
    previous task."""
    if not trace.tasks:
        return []
    by_vertex = {t.vertex: t for t in trace.tasks}
    by_pe = trace.by_pe()
    prev_on_pe: Dict[int, Optional[TaskTrace]] = {}
    for pe, tasks in by_pe.items():
        prev = None
        for t in tasks:
            prev_on_pe[t.vertex] = prev
            prev = t

    path = [max(trace.tasks, key=lambda t: t.finish)]
    while True:
        cur = path[-1]
        # Which constraint bound this task's start/stall?
        candidates: List[TaskTrace] = []
        if cur.stall > 0 and cur.deferred_on:
            candidates.extend(
                by_vertex[v] for v in cur.deferred_on if v in by_vertex
            )
        prev = prev_on_pe.get(cur.vertex)
        if prev is not None:
            candidates.append(prev)
        candidates = [c for c in candidates if c.finish <= cur.finish and c is not cur]
        if not candidates:
            break
        path.append(max(candidates, key=lambda t: t.finish))
    path.reverse()
    return path
