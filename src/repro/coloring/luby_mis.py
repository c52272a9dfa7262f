"""Maximal-independent-set construction and MIS-based coloring (§2.4).

The paper contrasts the greedy algorithm with MIS-based coloring
(Bodlaender & Kratsch [4]): repeatedly extract a maximal independent set
from the remaining graph and give the whole set one color.  Luby's
randomized algorithm builds each MIS in expected O(log n) parallel rounds.
MIS coloring needs extra per-round state — the paper's space-complexity
argument against it on FPGAs — which we expose via ``peak_live_state``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..graph.csr import CSRGraph
from ..obs import get_registry
from .outcome import OutcomeMixin

__all__ = ["luby_mis", "MISColoringResult", "mis_coloring"]


def luby_mis(
    graph: CSRGraph,
    *,
    candidates: np.ndarray | None = None,
    seed: int = 0,
    backend: str = "python",
) -> np.ndarray:
    """Luby's algorithm: a maximal independent set among ``candidates``.

    Returns a boolean mask over all vertices.  ``candidates`` defaults to
    every vertex; vertices outside it are ignored entirely (treated as
    removed from the graph).

    ``backend="python"`` re-scans the full edge array every round;
    ``backend="vectorized"`` works on *half edges* — each undirected edge
    once, as its ``u < v`` slot — and keeps that list compacted to edges
    whose endpoints are both still alive, so every round touches half the
    slots of a directed scan and only the shrinking frontier.  (Half-edge
    form relies on the repo-wide convention that CSR graphs are
    symmetric.)  Both backends draw the same random priorities and return
    bit-identical masks.
    """
    if backend not in ("python", "vectorized"):
        raise ValueError(f"backend must be 'python' or 'vectorized', got {backend!r}")
    n = graph.num_vertices
    gen = np.random.default_rng(seed)
    alive = (
        np.ones(n, dtype=bool) if candidates is None else np.asarray(candidates, bool).copy()
    )
    if alive.size != n:
        raise ValueError("candidates mask length must equal vertex count")
    in_set = np.zeros(n, dtype=bool)
    src_all = graph.source_of_edge_slots()
    dst_all = graph.edges

    obs = get_registry()
    rounds = 0
    if backend == "vectorized":
        # Invariant: (eu, ev) hold each undirected edge once (u < v) with
        # both endpoints alive, so each round's masks shrink with the
        # frontier and never pay for the symmetric duplicate slot.
        half = src_all < dst_all
        live = half if candidates is None else half & alive[src_all] & alive[dst_all]
        eu, ev = src_all[live], dst_all[live]
        while alive.any():
            rounds += 1
            prio = gen.permutation(n).astype(np.int64)
            joins = alive.copy()
            # The lower-priority endpoint of every live edge loses; the
            # permutation has no ties, so exactly one side survives.
            u_wins = prio[eu] > prio[ev]
            joins[eu[~u_wins]] = False
            joins[ev[u_wins]] = False
            in_set |= joins
            alive &= ~joins
            # Joined vertices kill the neighbourhood on both edge sides.
            alive[ev[joins[eu]]] = False
            alive[eu[joins[ev]]] = False
            keep = alive[eu] & alive[ev]
            eu, ev = eu[keep], ev[keep]
        if obs.enabled:
            obs.add("coloring.luby.rounds", rounds)
        return in_set

    while alive.any():
        rounds += 1
        # Random priorities; a vertex joins when it beats all alive neighbours.
        prio = gen.permutation(n).astype(np.int64)
        live_edge = alive[src_all] & alive[dst_all]
        loser = src_all[live_edge & (prio[src_all] < prio[dst_all])]
        joins = alive.copy()
        joins[loser] = False
        in_set |= joins
        # Remove joined vertices and their neighbours from the candidate set.
        alive &= ~joins
        touched = dst_all[joins[src_all]]
        alive[touched] = False
    if obs.enabled:
        obs.add("coloring.luby.rounds", rounds)
    return in_set


@dataclass
class MISColoringResult(OutcomeMixin):
    colors: np.ndarray
    num_colors: int
    mis_rounds: List[int] = field(default_factory=list)
    peak_live_state: int = 0
    """Maximum number of per-vertex state words alive at once across all
    MIS extractions — the storage-pressure figure the paper cites."""


def mis_coloring(
    graph: CSRGraph, *, seed: int = 0, backend: str = "python"
) -> MISColoringResult:
    """Color by repeated MIS extraction (one color per MIS).

    ``backend`` is forwarded to :func:`luby_mis`.
    """
    n = graph.num_vertices
    colors = np.zeros(n, dtype=np.int64)
    remaining = np.ones(n, dtype=bool)
    result = MISColoringResult(colors=colors, num_colors=0)
    obs = get_registry()
    with obs.span(
        "coloring.mis", backend=backend, vertices=n, edges=graph.num_edges
    ):
        color = 0
        while remaining.any():
            color += 1
            mis = luby_mis(
                graph, candidates=remaining, seed=seed + color, backend=backend
            )
            if not mis.any():  # pragma: no cover - cannot happen on simple graphs
                raise RuntimeError("empty MIS on a non-empty candidate set")
            colors[mis] = color
            remaining &= ~mis
            result.mis_rounds.append(int(np.count_nonzero(mis)))
            # Live state: priorities + alive mask + join mask over candidates.
            result.peak_live_state = max(
                result.peak_live_state, 3 * int(np.count_nonzero(remaining | mis))
            )
        result.num_colors = color if n else 0
    if obs.enabled:
        obs.add("coloring.mis.extractions", len(result.mis_rounds))
        obs.gauge("coloring.mis.peak_live_state", result.peak_live_state)
        obs.gauge("coloring.mis.colors", result.num_colors)
    return result
