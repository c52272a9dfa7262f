"""Algorithm 1 — the basic three-stage greedy coloring.

This is the paper's CPU baseline, implemented exactly as Algorithm 1 with
per-stage operation counters so Figure 3(a)'s execution-time breakdown can
be regenerated.  The counters record the *work model* the paper reasons
about:

* Stage 0 (neighbour traversal): one color-array read per edge slot;
* Stage 1 (color traversal): one flag read per color inspected until the
  first free flag, plus one write per flag cleared afterwards;
* Stage 2 (color update): one color-array write per vertex.

Colors are 1-based; 0 means "uncolored" (Algorithm 2's convention, also
used by Algorithm 1 since the color array is initialised to 0).

A vectorised fast path (:func:`greedy_coloring_fast`) produces the same
coloring without counters for use inside large experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..graph.csr import CSRGraph
from ..obs import get_registry
from .outcome import OutcomeMixin
from .verify import UNCOLORED

__all__ = ["StageCounters", "GreedyResult", "greedy_coloring", "greedy_coloring_fast"]


@dataclass
class StageCounters:
    """Operation counts per stage of Algorithm 1.

    ``stage1_scan_ops`` counts flag reads during the first-free search;
    ``stage1_clear_ops`` counts the flag writes that reset the array for
    the next vertex.  The paper's Stage 1 time is the sum of both.
    """

    stage0_ops: int = 0
    stage1_scan_ops: int = 0
    stage1_clear_ops: int = 0
    stage2_ops: int = 0

    @property
    def stage1_ops(self) -> int:
        return self.stage1_scan_ops + self.stage1_clear_ops

    @property
    def total_ops(self) -> int:
        return self.stage0_ops + self.stage1_ops + self.stage2_ops

    def breakdown(self) -> dict:
        """Fractions of total work per stage (Figure 3(a) series)."""
        total = max(self.total_ops, 1)
        return {
            "stage0": self.stage0_ops / total,
            "stage1": self.stage1_ops / total,
            "stage2": self.stage2_ops / total,
        }


@dataclass
class GreedyResult(OutcomeMixin):
    """Coloring plus the work accounting of the run."""

    colors: np.ndarray
    counters: StageCounters
    num_colors: int
    order: np.ndarray = field(repr=False, default=None)


def _resolve_order(graph: CSRGraph, order: Optional[Sequence[int]]) -> np.ndarray:
    if order is None:
        return np.arange(graph.num_vertices, dtype=np.int64)
    arr = np.asarray(order, dtype=np.int64)
    if arr.size != graph.num_vertices or np.unique(arr).size != arr.size:
        raise ValueError("order must be a permutation of all vertices")
    return arr


def greedy_coloring(
    graph: CSRGraph,
    *,
    order: Optional[Sequence[int]] = None,
    max_colors: Optional[int] = None,
    clear_mode: str = "touched",
    color_number: int = 1024,
) -> GreedyResult:
    """Run Algorithm 1 and return the coloring with stage counters.

    Parameters
    ----------
    order:
        Vertex processing order (default: ascending vertex ID, which after
        DBG reordering means descending degree — the paper's setting).
    max_colors:
        Optional cap; exceeding it raises, mirroring the hardware's fixed
        1024-color budget.
    clear_mode:
        How Stage 1's flag-clear cost is counted.  ``"touched"`` clears
        only the flags that were set (a tuned implementation);
        ``"paper"`` charges a full ``color_number``-entry sweep per
        vertex, which is what Algorithm 1 literally does (lines 17–19)
        and what makes the paper's CPU baseline Stage-1-bound.  The
        *coloring* is identical either way; only the counters differ.
    color_number:
        The flag-array length used by ``clear_mode="paper"`` (the paper's
        COLOR_NUMBER, 1024).
    """
    if clear_mode not in ("touched", "paper"):
        raise ValueError("clear_mode must be 'touched' or 'paper'")
    obs = get_registry()
    with obs.span(
        "coloring.greedy",
        clear_mode=clear_mode,
        vertices=graph.num_vertices,
        edges=graph.num_edges,
    ):
        result = _greedy_python(
            graph,
            order=order,
            max_colors=max_colors,
            clear_mode=clear_mode,
            color_number=color_number,
        )
    if obs.enabled:
        obs.add("coloring.greedy.stage0_ops", result.counters.stage0_ops)
        obs.add("coloring.greedy.stage1_scan_ops", result.counters.stage1_scan_ops)
        obs.add("coloring.greedy.stage1_clear_ops", result.counters.stage1_clear_ops)
        obs.add("coloring.greedy.stage2_ops", result.counters.stage2_ops)
        obs.gauge("coloring.greedy.colors", result.num_colors)
    return result


def _greedy_python(
    graph: CSRGraph,
    *,
    order: Optional[Sequence[int]],
    max_colors: Optional[int],
    clear_mode: str,
    color_number: int,
) -> GreedyResult:
    """The counted Algorithm 1 loop behind :func:`greedy_coloring`."""
    n = graph.num_vertices
    ordering = _resolve_order(graph, order)
    colors = np.zeros(n, dtype=np.int64)
    counters = StageCounters()
    # color_flag[c] for c in 0..: flag 0 is the uncolored sentinel slot and
    # is set but never chosen.  `touched` tracks set flags so clearing costs
    # only as many writes as flags were set (the realistic implementation
    # the paper's cycle example implies).
    flag_capacity = (max_colors or graph.max_degree() + 1) + 2
    color_flag = np.zeros(flag_capacity, dtype=bool)
    touched: list[int] = []

    for v in ordering:
        # Stage 0 — neighbour traversal.
        for w in graph.neighbors(int(v)):
            counters.stage0_ops += 1
            c = int(colors[w])
            if not color_flag[c]:
                color_flag[c] = True
                touched.append(c)
        # Stage 1 — color traversal: scan from color 1 for the first free flag.
        result = 1
        while True:
            counters.stage1_scan_ops += 1
            if not color_flag[result]:
                break
            result += 1
        if max_colors is not None and result > max_colors:
            raise ValueError(
                f"vertex {v} needs color {result} > max_colors {max_colors}"
            )
        # Clear the flag array.  Functionally only the set flags need
        # resetting; the cost accounting follows clear_mode.
        for c in touched:
            color_flag[c] = False
        counters.stage1_clear_ops += (
            color_number if clear_mode == "paper" else len(touched)
        )
        touched.clear()
        # Stage 2 — color update.
        colors[int(v)] = result
        counters.stage2_ops += 1

    used = np.unique(colors[colors != UNCOLORED])
    return GreedyResult(
        colors=colors,
        counters=counters,
        num_colors=int(used.size),
        order=ordering,
    )


def greedy_coloring_fast(
    graph: CSRGraph,
    *,
    order: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Counter-free greedy coloring (same result as :func:`greedy_coloring`).

    Python-level loop over vertices but with numpy set operations per
    neighbourhood; used when only the coloring matters.
    """
    n = graph.num_vertices
    ordering = _resolve_order(graph, order)
    colors = np.zeros(n, dtype=np.int64)
    with get_registry().span(
        "coloring.greedy_fast", vertices=n, edges=graph.num_edges
    ):
        _greedy_fast_loop(graph, ordering, colors)
    return colors


def _greedy_fast_loop(graph: CSRGraph, ordering: np.ndarray, colors: np.ndarray) -> None:
    for v in ordering:
        nbr_colors = colors[graph.neighbors(int(v))]
        used = np.unique(nbr_colors[nbr_colors != UNCOLORED])
        # First gap in the sorted used-color list: position where used[i] != i+1.
        gap = np.nonzero(used != np.arange(1, used.size + 1))[0]
        colors[int(v)] = int(gap[0]) + 1 if gap.size else used.size + 1
