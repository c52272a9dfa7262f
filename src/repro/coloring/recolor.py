"""Color-count reduction: Kempe chains and iterated greedy.

Two classic post-processing passes that squeeze a greedy coloring toward
the chromatic number — the quality-side complement to the paper's
throughput story (its Table 4 shows preprocessing alone already buys
~9 %):

* **Kempe chains** — for a vertex of the highest color class, swap the
  two colors along the connected component of the subgraph induced by
  two color classes.  If the chain from ``v`` doesn't wrap around to
  block it, ``v`` drops to the lower color; emptying the top class
  removes a color.
* **Iterated greedy** (Culberson) — re-run greedy with vertices grouped
  by current color class; reusing classes as blocks guarantees the color
  count never increases and often decreases over a few iterations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..obs import get_registry
from .greedy import greedy_coloring_fast
from .outcome import OutcomeMixin
from .verify import UNCOLORED, num_colors

__all__ = ["kempe_chain", "kempe_reduce", "iterated_greedy", "RecolorResult"]


def kempe_chain(
    graph: CSRGraph, colors: np.ndarray, v: int, other_color: int
) -> np.ndarray:
    """Vertices of the Kempe chain of ``v`` toward ``other_color``.

    The connected component containing ``v`` of the subgraph induced by
    vertices colored ``colors[v]`` or ``other_color``.
    """
    colors = np.asarray(colors)
    base = int(colors[v])
    if base == UNCOLORED or other_color == base:
        raise ValueError("need two distinct, assigned colors")
    pair = {base, other_color}
    seen = {int(v)}
    queue = deque([int(v)])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            w = int(w)
            if w not in seen and int(colors[w]) in pair:
                seen.add(w)
                queue.append(w)
    return np.asarray(sorted(seen), dtype=np.int64)


@dataclass
class RecolorResult(OutcomeMixin):
    colors: np.ndarray
    colors_before: int
    colors_after: int
    iterations: int

    @property
    def improved(self) -> bool:
        return self.colors_after < self.colors_before

    @property
    def n_colors(self) -> int:
        return int(self.colors_after)


def kempe_reduce(
    graph: CSRGraph,
    colors: np.ndarray,
    *,
    max_rounds: int = 4,
) -> RecolorResult:
    """Try to empty the highest color class with Kempe-chain swaps.

    Each round walks the members of the current top class and, for each,
    tries every lower color: if the member's Kempe chain toward that
    color does not contain one of its own neighbours with the target
    color *after the swap* (equivalently: the chain swap is always safe —
    a Kempe swap preserves properness by construction), the swap drops
    the member out of the top class.  A round that empties the class
    reduces the count by one; rounds repeat until one fails.
    """
    colors = np.asarray(colors, dtype=np.int64).copy()
    before = num_colors(colors)
    rounds = 0
    obs = get_registry()
    with obs.span(
        "coloring.kempe_reduce",
        vertices=graph.num_vertices,
        edges=graph.num_edges,
        colors_before=before,
    ) as sp:
        colors, rounds = _kempe_rounds(graph, colors, max_rounds, rounds)
        after = num_colors(colors)
        sp.set(rounds=rounds, colors_after=after)
    if obs.enabled:
        obs.add("coloring.kempe_reduce.rounds", rounds)
        obs.gauge("coloring.kempe_reduce.colors_after", after)
    return RecolorResult(
        colors=colors,
        colors_before=before,
        colors_after=after,
        iterations=rounds,
    )


def _kempe_rounds(
    graph: CSRGraph, colors: np.ndarray, max_rounds: int, rounds: int
) -> tuple:
    for _ in range(max_rounds):
        k = num_colors(colors)
        if k <= 1:
            break
        top = k
        members = np.nonzero(colors == top)[0]
        if members.size == 0:
            # Compact color ids and retry.
            used = sorted(set(int(c) for c in colors if c != UNCOLORED))
            remap = {c: i + 1 for i, c in enumerate(used)}
            colors = np.asarray([remap.get(int(c), 0) for c in colors])
            continue
        rounds += 1
        progress = False
        for v in members:
            if colors[v] != top:
                continue
            for target in range(1, top):
                chain = kempe_chain(graph, colors, int(v), target)
                # Swap colors along the chain (always proper); success if
                # v leaves the top class.
                chain_colors = colors[chain]
                swapped = np.where(chain_colors == top, target, top)
                # Only commit when the swap shrinks the top class overall.
                if np.count_nonzero(swapped == top) < np.count_nonzero(
                    chain_colors == top
                ):
                    colors[chain] = swapped
                    progress = True
                    break
        if not np.count_nonzero(colors == top):
            continue  # emptied the class; loop reduces again
        if not progress:
            break
    # Final compaction.
    used = sorted(set(int(c) for c in colors if c != UNCOLORED))
    remap = {c: i + 1 for i, c in enumerate(used)}
    colors = np.asarray([remap.get(int(c), 0) for c in colors], dtype=np.int64)
    return colors, rounds


def iterated_greedy(
    graph: CSRGraph,
    *,
    colors: Optional[np.ndarray] = None,
    iterations: int = 8,
    seed: int = 0,
) -> RecolorResult:
    """Culberson's iterated greedy: regreedy with class-block orders.

    Reusing whole color classes as contiguous blocks guarantees the new
    coloring uses no more colors than before (each block is independent,
    so it can always reuse its slot); shuffling block order lets the
    count drop.  Blocks are visited largest-class-first on even
    iterations and in reverse-color order on odd ones.
    """
    gen = np.random.default_rng(seed)
    current = (
        np.asarray(colors, dtype=np.int64).copy()
        if colors is not None
        else greedy_coloring_fast(graph)
    )
    before = num_colors(current)
    best = current
    obs = get_registry()
    with obs.span(
        "coloring.iterated_greedy",
        vertices=graph.num_vertices,
        edges=graph.num_edges,
        iterations=iterations,
        colors_before=before,
    ) as sp:
        for it in range(iterations):
            k = num_colors(best)
            classes: List[np.ndarray] = [
                np.nonzero(best == c)[0] for c in range(1, k + 1)
            ]
            classes = [c for c in classes if c.size]
            if it % 3 == 0:
                classes.sort(key=lambda c: -c.size)
            elif it % 3 == 1:
                classes.reverse()
            else:
                gen.shuffle(classes)
            order = np.concatenate(classes) if classes else np.arange(0)
            candidate = greedy_coloring_fast(graph, order=order)
            if num_colors(candidate) <= num_colors(best):
                best = candidate
        after = num_colors(best)
        sp.set(colors_after=after)
    if obs.enabled:
        obs.add("coloring.iterated_greedy.iterations", iterations)
        obs.gauge("coloring.iterated_greedy.colors_after", after)
    return RecolorResult(
        colors=best,
        colors_before=before,
        colors_after=after,
        iterations=iterations,
    )
