"""Jones–Plassmann parallel greedy coloring — the GPU baseline algorithm.

The paper compares against Osama et al.'s Gunrock-based GPU coloring [22],
which is an iterative independent-set scheme in the Jones–Plassmann
family: every vertex gets a random priority; in each round, every
uncolored vertex that is a local maximum among its uncolored neighbours
colors itself with its first free color; rounds repeat until all vertices
are colored.  All vertices in a round are independent, so a GPU processes
a round in one data-parallel sweep — the *number of rounds* (typically
O(log n) for random priorities) and the per-round edge work drive the GPU
performance model in :mod:`repro.perfmodel.gpu`.

This module is fully functional (it produces valid colorings) and also
reports per-round statistics for the performance model.

``backend="vectorized"`` replaces the per-winner Python loop with one
packed-bitset sweep per round (scatter-OR of the winners' neighbour colors
into a ``(winners, words)`` state matrix, then a batch first-free-color) —
a round becomes a single data-parallel step, as on the GPU the model
describes.  Both backends produce bit-identical colorings and round
statistics; the equivalence is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..obs import get_registry
from .outcome import OutcomeMixin
from .verify import UNCOLORED

__all__ = ["JPRound", "JPResult", "jones_plassmann_coloring"]


@dataclass(frozen=True)
class JPRound:
    """Work accounting for one Jones–Plassmann round."""

    round_index: int
    active_vertices: int
    colored_vertices: int
    edges_scanned: int


@dataclass
class JPResult(OutcomeMixin):
    colors: np.ndarray
    num_colors: int
    rounds: List[JPRound] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def total_edges_scanned(self) -> int:
        return sum(r.edges_scanned for r in self.rounds)


def jones_plassmann_coloring(
    graph: CSRGraph,
    *,
    seed: int = 0,
    priorities: Optional[np.ndarray] = None,
    max_rounds: Optional[int] = None,
    backend: str = "python",
) -> JPResult:
    """Color ``graph`` with the Jones–Plassmann independent-set scheme.

    Parameters
    ----------
    priorities:
        Per-vertex priorities; default is a random permutation (ties are
        impossible).  Passing degrees gives largest-degree-first behaviour.
    max_rounds:
        Safety cap; exceeded only if priorities contain ties among
        neighbours, which would deadlock the plain scheme.
    backend:
        ``"python"`` colors each round's winners one at a time;
        ``"vectorized"`` colors them in one packed-bitset sweep
        (identical results).
    """
    if backend not in ("python", "vectorized"):
        raise ValueError(
            f"backend must be 'python' or 'vectorized', got {backend!r}"
        )
    n = graph.num_vertices
    gen = np.random.default_rng(seed)
    if priorities is None:
        prio = gen.permutation(n).astype(np.int64)
    else:
        prio = np.asarray(priorities, dtype=np.int64)
        if prio.size != n:
            raise ValueError("priorities length must equal vertex count")
        # Break ties deterministically by vertex ID so neighbours never tie.
        prio = prio * np.int64(n) + np.arange(n, dtype=np.int64)

    colors = np.zeros(n, dtype=np.int64)
    result = JPResult(colors=colors, num_colors=0)
    uncolored = np.ones(n, dtype=bool)
    src_all = graph.source_of_edge_slots()
    dst_all = graph.edges
    cap = max_rounds if max_rounds is not None else 4 * n + 16
    obs = get_registry()

    with obs.span(
        "coloring.jp", backend=backend, vertices=n, edges=graph.num_edges
    ):
        if backend == "vectorized":
            _jp_vectorized_rounds(graph, prio, colors, uncolored, result, cap)
        else:
            _jp_python_rounds(
                graph, prio, colors, uncolored, result, cap, src_all, dst_all
            )
        used = np.unique(colors[colors != UNCOLORED])
        result.num_colors = int(used.size)
    if obs.enabled:
        obs.add("coloring.jp.rounds", result.num_rounds)
        obs.add("coloring.jp.edges_scanned", result.total_edges_scanned)
        obs.gauge("coloring.jp.colors", result.num_colors)
    return result


def _jp_python_rounds(
    graph: CSRGraph,
    prio: np.ndarray,
    colors: np.ndarray,
    uncolored: np.ndarray,
    result: JPResult,
    cap: int,
    src_all: np.ndarray,
    dst_all: np.ndarray,
) -> None:
    """The reference round loop (``backend="python"``)."""
    obs = get_registry()
    rnd = 0
    while uncolored.any():
        if rnd >= cap:
            raise RuntimeError("Jones–Plassmann failed to converge (priority ties?)")
        # An uncolored vertex is selected when no uncolored neighbour has a
        # higher priority.  Vectorised: for every edge slot whose endpoints
        # are both uncolored, the lower-priority source is suppressed.
        with obs.span("coloring.jp.round", round=rnd) as sp:
            active = int(np.count_nonzero(uncolored))
            live = uncolored[src_all] & uncolored[dst_all]
            losers = src_all[live & (prio[src_all] < prio[dst_all])]
            selected = uncolored.copy()
            selected[losers] = False
            winners = np.nonzero(selected)[0]
            edges_scanned = int(np.count_nonzero(uncolored[src_all]))
            # Color all winners: they form an independent set among uncolored
            # vertices, so coloring them in any order within the round is safe.
            for v in winners:
                nbr_colors = colors[graph.neighbors(int(v))]
                used = np.unique(nbr_colors[nbr_colors != UNCOLORED])
                gap = np.nonzero(used != np.arange(1, used.size + 1))[0]
                colors[int(v)] = int(gap[0]) + 1 if gap.size else used.size + 1
            uncolored[winners] = False
            sp.set(winners=int(winners.size), edges_scanned=edges_scanned)
        result.rounds.append(
            JPRound(
                round_index=rnd,
                active_vertices=active,
                colored_vertices=int(winners.size),
                edges_scanned=edges_scanned,
            )
        )
        rnd += 1


def _jp_vectorized_rounds(
    graph: CSRGraph,
    prio: np.ndarray,
    colors: np.ndarray,
    uncolored: np.ndarray,
    result: JPResult,
    cap: int,
) -> None:
    """The round loop over the packed-bitset kernels.

    Equivalent to the scalar loop above round for round, with two
    work-saving transformations that cannot change the outcome:

    * the loser test only ever looks at edges whose endpoints are *both*
      uncolored, so those edges are kept compacted and shrink as vertices
      color themselves (the scalar path re-derives the same set from the
      full edge array each round);
    * ``edges_scanned`` counts slots with an uncolored source, which is
      the degree sum over uncolored vertices;
    * the per-winner first-free-color search becomes one scatter-OR plus a
      batch first-free over a ``(winners, words)`` state matrix — winners
      are an independent set, so the scalar loop's sequential writes never
      feed each other either.
    """
    from ..kernels import gather_ranges, resolve_tier_kernels, words_for_colors

    scatter_or_colors, first_free_colors_packed = resolve_tier_kernels("vectorized")
    n = graph.num_vertices
    deg = graph.degrees()
    # Neighbour colors never exceed the maximum assigned so far, and a
    # winner's first-free color never exceeds it plus one, so the state
    # width can track the colors actually in play.
    max_color_so_far = 0
    # Priorities are fixed across rounds, so only the losing direction of
    # each edge (lower-priority source) can ever suppress a vertex; keep
    # just those slots, compacted to the still-uncolored frontier.  All
    # vertices start uncolored, so initially that is every losing slot.
    esrc = graph.source_of_edge_slots()
    edst = graph.edges
    losing = prio[esrc] < prio[edst]
    esrc, edst = esrc[losing], edst[losing]
    obs = get_registry()
    rnd = 0
    while uncolored.any():
        if rnd >= cap:
            raise RuntimeError("Jones–Plassmann failed to converge (priority ties?)")
        with obs.span("coloring.jp.round", round=rnd) as sp:
            active = int(np.count_nonzero(uncolored))
            losers = esrc
            selected = uncolored.copy()
            selected[losers] = False
            winners = np.nonzero(selected)[0]
            edges_scanned = int(deg[uncolored].sum())
            lens = deg[winners]
            slots = gather_ranges(graph.offsets[winners], lens)
            rows = np.repeat(np.arange(winners.size, dtype=np.int64), lens)
            num_words = words_for_colors(max_color_so_far + 1)
            state = scatter_or_colors(
                rows, colors[graph.edges[slots]], winners.size, num_words
            )
            new_colors = first_free_colors_packed(state)
            colors[winners] = new_colors
            if new_colors.size:
                max_color_so_far = max(max_color_so_far, int(new_colors.max()))
            uncolored[winners] = False
            keep = uncolored[esrc] & uncolored[edst]
            esrc, edst = esrc[keep], edst[keep]
            sp.set(winners=int(winners.size), edges_scanned=edges_scanned)
        result.rounds.append(
            JPRound(
                round_index=rnd,
                active_vertices=active,
                colored_vertices=int(winners.size),
                edges_scanned=edges_scanned,
            )
        )
        rnd += 1
