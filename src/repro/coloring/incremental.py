"""Incremental coloring for growing graphs, vectorized.

The paper's motivation — "the number of vertices in the graph grows
rapidly" — implies the streaming setting: maintain a proper coloring
while vertices and edges arrive, recoloring as little as possible rather
than re-running the solver.  :class:`IncrementalColoring` keeps a
**growable CSR** (per-vertex slack capacity, amortised-doubling rebuilds)
plus a valid coloring under:

* :meth:`add_vertex` / :meth:`add_vertices` — appended with color 1;
* :meth:`add_edge` — if the endpoints collide, the *endpoint with fewer
  neighbours* is recolored to its first free color (cheapest repair);
* :meth:`remove_edge` — never invalidates the coloring (no-op repair);
* :meth:`apply_batch` — the streaming hot path: one **vectorized pass**
  over a whole batch of insertions and expirations.  Conflict detection
  is a single array compare over the inserted edges; repairs run as
  speculative rounds on the packed-bitset kernels
  (:func:`repro.kernels.scatter_or_colors` over the victims'
  neighbourhoods, then :func:`repro.kernels.first_free_colors_packed`),
  exactly the paper's Stage 0 / Stage 1 pair batched over every victim
  at once.  Adjacent victims that speculate onto the same color are
  re-repaired next round (the lower-ID endpoint keeps its color, so the
  victim set strictly shrinks and the loop terminates).

Statistics record how much repair work the stream caused, which the
streaming example and ``benchmarks/bench_streaming.py`` use to show
repair ≪ recolor-from-scratch.  :meth:`outcome` snapshots the current
coloring as a :class:`~repro.coloring.outcome.ColoringOutcome`, and the
algorithm is registered as ``repro.color(..., algorithm="incremental")``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from .outcome import OutcomeMixin
from .verify import UNCOLORED

__all__ = [
    "BatchDiff",
    "IncrementalColoring",
    "IncrementalOutcome",
    "IncrementalStats",
]

_MIN_CAP = 4
"""Smallest per-vertex slot capacity handed out by a storage rebuild."""


@dataclass
class IncrementalStats:
    edges_added: int = 0
    edges_removed: int = 0
    conflicts_repaired: int = 0
    vertices_recolored: int = 0
    recolor_work: int = 0
    """Neighbour scans performed by repairs (the cost a full re-run avoids
    paying per edge)."""
    batches_applied: int = 0
    repair_rounds: int = 0
    """Speculative repair rounds across all batches (1 per conflicting
    scalar insert; usually 1-2 per delta batch)."""


@dataclass
class BatchDiff:
    """Sparse result of one :meth:`IncrementalColoring.apply_batch` call.

    Only the vertices whose color actually changed are listed — the wire
    format of the service's session lane ships exactly this.
    """

    changed: np.ndarray
    """Vertex IDs recolored by the batch (sorted, possibly empty)."""
    colors: np.ndarray
    """New color of each vertex in ``changed`` (parallel array)."""
    old_colors: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    """Pre-batch color of each vertex in ``changed`` (parallel array) —
    what a client holding the previous state believes those vertices are."""
    edges_added: int = 0
    edges_removed: int = 0
    conflicts: int = 0
    repair_rounds: int = 0


@dataclass
class IncrementalOutcome(OutcomeMixin):
    """:class:`ColoringOutcome`-conforming snapshot of a live stream."""

    colors: np.ndarray
    num_colors: int
    algorithm: str = "incremental"
    stats: Optional[IncrementalStats] = None


class IncrementalColoring:
    """A dynamically-maintained proper coloring on a growable CSR.

    Storage is CSR with slack: ``_nbrs`` holds per-vertex neighbour
    segments at ``_starts[v] : _starts[v] + _deg[v]`` inside a reserved
    capacity ``_caps[v]``; exceeding a capacity triggers one vectorized
    rebuild that doubles the crowded segments (amortised O(1) per
    insert).  Colors live in a plain ``int64`` array so batch conflict
    checks and repairs are single NumPy expressions.
    """

    def __init__(self, num_vertices: int = 0):
        n = int(num_vertices)
        self._starts = np.zeros(n, dtype=np.int64)
        self._deg = np.zeros(n, dtype=np.int64)
        self._caps = np.zeros(n, dtype=np.int64)
        self._nbrs = np.empty(0, dtype=np.int64)
        self._colors = np.ones(n, dtype=np.int64)  # isolated vertices: color 1
        self.stats = IncrementalStats()

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls, graph: CSRGraph, colors: Optional[np.ndarray] = None
    ) -> "IncrementalColoring":
        """Adopt a CSR graph (and optionally an existing proper coloring).

        The structure is copied in one vectorized pass; when ``colors``
        is omitted a fresh first-fit greedy coloring seeds the stream
        (isolated vertices take color 1, matching the scalar semantics).
        """
        inc = cls(0)
        n = graph.num_vertices
        deg = graph.degrees().astype(np.int64, copy=True)
        # 50% slack per vertex up front: a streaming workload inserts into
        # many distinct vertices per batch, and zero-slack segments would
        # trigger a whole-heap rebuild on nearly every batch.
        caps = deg + np.maximum(deg >> 1, _MIN_CAP)
        starts = np.zeros(n, dtype=np.int64)
        if n:
            np.cumsum(caps[:-1], out=starts[1:])
        nbrs = np.empty(int(caps.sum()), dtype=np.int64)
        from ..kernels.batching import gather_ranges

        nbrs[gather_ranges(starts, deg)] = graph.edges
        inc._starts, inc._deg, inc._caps, inc._nbrs = starts, deg, caps, nbrs
        if colors is not None:
            colors = np.asarray(colors, dtype=np.int64)
            if colors.shape != (n,):
                raise ValueError(
                    f"colors must have shape ({n},), got {colors.shape}"
                )
            inc._colors = colors.copy()
        else:
            from .greedy import greedy_coloring_fast

            inc._colors = greedy_coloring_fast(graph).astype(np.int64, copy=False)
        inc.stats.edges_added = graph.num_undirected_edges
        return inc

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return int(self._deg.size)

    @property
    def num_undirected_edges(self) -> int:
        return int(self._deg.sum()) // 2

    def colors(self) -> np.ndarray:
        return self._colors.copy()

    def color_of(self, v: int) -> int:
        self._check(v)
        return int(self._colors[v])

    @property
    def n_colors(self) -> int:
        """Distinct colors in use (``UNCOLORED`` never counts)."""
        colored = self._colors[self._colors != UNCOLORED]
        if colored.size == 0:
            return 0
        return int(np.count_nonzero(np.bincount(colored)))

    def degree(self, v: int) -> int:
        self._check(v)
        return int(self._deg[v])

    def neighbors(self, v: int) -> np.ndarray:
        self._check(v)
        s = self._starts[v]
        return self._nbrs[s : s + self._deg[v]].copy()

    def outcome(self) -> IncrementalOutcome:
        """Snapshot the live coloring as a uniform ``ColoringOutcome``."""
        return IncrementalOutcome(
            colors=self.colors(), num_colors=self.n_colors, stats=self.stats
        )

    # ------------------------------------------------------------------
    # Mutation — scalar surface (delegates to the batch path)
    # ------------------------------------------------------------------
    def add_vertex(self) -> int:
        """Append a new isolated vertex; returns its ID."""
        return int(self.add_vertices(1)[0])

    def add_vertices(self, count: int) -> np.ndarray:
        """Append ``count`` isolated vertices (color 1); returns their IDs."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return np.empty(0, dtype=np.int64)
        n = self.num_vertices
        heap_end = np.int64(self._nbrs.size)
        self._starts = np.concatenate(
            [self._starts, np.full(count, heap_end, dtype=np.int64)]
        )
        self._deg = np.concatenate([self._deg, np.zeros(count, dtype=np.int64)])
        self._caps = np.concatenate([self._caps, np.zeros(count, dtype=np.int64)])
        self._colors = np.concatenate(
            [self._colors, np.ones(count, dtype=np.int64)]
        )
        return np.arange(n, n + count, dtype=np.int64)

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge (u, v); returns True when a repair was needed."""
        self._check(u)
        self._check(v)
        if u == v:
            raise ValueError("self loops are not colorable")
        diff = self.apply_batch(additions=[(u, v)])
        return bool(diff.conflicts)

    def remove_edge(self, u: int, v: int) -> None:
        self._check(u)
        self._check(v)
        self.apply_batch(removals=[(u, v)])

    # ------------------------------------------------------------------
    # Mutation — the vectorized batch hot path
    # ------------------------------------------------------------------
    def apply_batch(
        self,
        additions: Iterable[Tuple[int, int]] = (),
        removals: Iterable[Tuple[int, int]] = (),
        *,
        add_vertices: int = 0,
    ) -> BatchDiff:
        """Apply one delta batch in a single vectorized pass.

        Order within the batch: new vertices are appended first, then
        ``removals`` expire (a no-op for absent edges), then
        ``additions`` insert (duplicates of existing edges are no-ops).
        Conflicts introduced by the insertions are repaired together:
        per conflicting edge the endpoint with the smaller neighbourhood
        is the victim (ties keep the first-named endpoint, matching
        :meth:`add_edge`), every victim's first free color is computed in
        one scatter-OR + first-free kernel call, and adjacent victims
        that speculated onto the same color go another round.

        Returns the sparse :class:`BatchDiff` — only vertices whose color
        changed.
        """
        self.add_vertices(add_vertices)
        removed = self._apply_removals(removals)
        ins_u, ins_v = self._apply_additions(additions)
        n_added = int(ins_u.size)

        conflicts = 0
        rounds = 0
        touched: list = []
        touched_old: list = []
        if n_added:
            cu, cv = self._colors[ins_u], self._colors[ins_v]
            clash = (cu == cv) & (cu != UNCOLORED)
            conflicts = int(np.count_nonzero(clash))
            if conflicts:
                bu, bv = ins_u[clash], ins_v[clash]
                victims = _unique_i64(
                    np.where(self._deg[bu] <= self._deg[bv], bu, bv)
                )
                rounds = self._repair_rounds(victims, touched, touched_old)

        self.stats.edges_added += n_added
        self.stats.edges_removed += removed
        self.stats.conflicts_repaired += conflicts
        self.stats.batches_applied += 1
        self.stats.repair_rounds += rounds

        if touched:
            ids = np.concatenate(touched)
            olds = np.concatenate(touched_old)
            # First occurrence per vertex = its color before the batch.
            uniq, first = np.unique(ids, return_index=True)
            changed_mask = self._colors[uniq] != olds[first]
            changed = uniq[changed_mask]
            old_colors = olds[first][changed_mask]
        else:
            changed = np.empty(0, dtype=np.int64)
            old_colors = np.empty(0, dtype=np.int64)
        return BatchDiff(
            changed=changed,
            colors=self._colors[changed].copy(),
            old_colors=old_colors,
            edges_added=n_added,
            edges_removed=removed,
            conflicts=conflicts,
            repair_rounds=rounds,
        )

    # -- batch internals ------------------------------------------------
    def _normalize_pairs(self, pairs: Iterable[Tuple[int, int]]) -> np.ndarray:
        arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                         dtype=np.int64)
        if arr.size == 0:
            return arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edge batch must contain (u, v) pairs")
        n = self.num_vertices
        if arr.min() < 0 or arr.max() >= n:
            bad = arr[(arr < 0).any(axis=1) | (arr >= n).any(axis=1)][0]
            raise IndexError(f"vertex {int(bad.max())} out of range")
        return arr

    def _apply_removals(self, removals: Iterable[Tuple[int, int]]) -> int:
        pairs = self._normalize_pairs(removals)
        if pairs.size == 0:
            return 0
        n = self.num_vertices
        # Both directions; absent edges simply don't match any slot.
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        from ..kernels.batching import gather_ranges

        affected = _unique_i64(src)
        deg = self._deg[affected]
        idx = gather_ranges(self._starts[affected], deg)
        seg_src = np.repeat(affected, deg)
        keys = seg_src * np.int64(n) + self._nbrs[idx]
        kill = _member(keys, src * np.int64(n) + dst)
        hit = int(np.count_nonzero(kill))
        if hit == 0:
            return 0
        keep = ~kill
        ks = seg_src[keep]
        kv = self._nbrs[idx[keep]]  # materialised before the in-place write
        if ks.size:
            _, first, sizes = _group_runs(ks)
            rank = np.arange(ks.size, dtype=np.int64) - np.repeat(first, sizes)
            self._nbrs[self._starts[ks] + rank] = kv
        self._deg[affected] = deg - np.bincount(
            np.searchsorted(affected, seg_src[kill]), minlength=affected.size
        )
        return hit // 2

    def _apply_additions(
        self, additions: Iterable[Tuple[int, int]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Insert new undirected edges; returns the actually-new (u, v)."""
        pairs = self._normalize_pairs(additions)
        if pairs.size == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e
        if np.any(pairs[:, 0] == pairs[:, 1]):
            raise ValueError("self loops are not colorable")
        n = self.num_vertices
        u, v = pairs[:, 0], pairs[:, 1]
        # Dedup within the batch on the undirected key, keeping the first
        # occurrence (its orientation decides repair tie-breaks).
        und = np.minimum(u, v) * np.int64(n) + np.maximum(u, v)
        _, first_idx = np.unique(und, return_index=True)
        first_idx.sort()
        u, v = u[first_idx], v[first_idx]
        # Drop edges already present (membership via the u-side segments).
        from ..kernels.batching import gather_ranges

        srcs = _unique_i64(u)
        deg = self._deg[srcs]
        idx = gather_ranges(self._starts[srcs], deg)
        existing = np.repeat(srcs, deg) * np.int64(n) + self._nbrs[idx]
        fresh = ~_member(u * np.int64(n) + v, existing)
        u, v = u[fresh], v[fresh]
        if u.size == 0:
            e = np.empty(0, dtype=np.int64)
            return e, e
        self._insert_directed(
            np.concatenate([u, v]), np.concatenate([v, u])
        )
        return u, v

    def _insert_directed(self, src: np.ndarray, dst: np.ndarray) -> None:
        counts = np.bincount(src, minlength=self.num_vertices).astype(np.int64)
        self._reserve(counts)
        order = np.argsort(src, kind="stable")
        s, d = src[order], dst[order]
        _, first, sizes = _group_runs(s)
        rank = np.arange(s.size, dtype=np.int64) - np.repeat(first, sizes)
        self._nbrs[self._starts[s] + self._deg[s] + rank] = d
        self._deg += counts

    def _reserve(self, extra: np.ndarray) -> None:
        """Grow crowded segments (one vectorized rebuild, doubling)."""
        need = self._deg + extra
        if np.all(need <= self._caps):
            return
        grow = need > self._caps
        new_caps = np.where(
            grow, np.maximum(2 * need, _MIN_CAP), self._caps
        ).astype(np.int64)
        new_starts = np.zeros(self.num_vertices, dtype=np.int64)
        if new_caps.size:
            np.cumsum(new_caps[:-1], out=new_starts[1:])
        new_nbrs = np.empty(int(new_caps.sum()), dtype=np.int64)
        from ..kernels.batching import gather_ranges

        new_nbrs[gather_ranges(new_starts, self._deg)] = self._nbrs[
            gather_ranges(self._starts, self._deg)
        ]
        self._starts, self._caps, self._nbrs = new_starts, new_caps, new_nbrs

    def _repair_rounds(
        self, victims: np.ndarray, touched: list, touched_old: list
    ) -> int:
        """Speculative batch repair: scatter-OR + first-free per round.

        All victims recolor simultaneously; adjacent victims that landed
        on the same color re-repair next round, with the lower-ID
        endpoint of each colliding pair keeping its color.  The victim
        set strictly shrinks (the minimum always survives), so the loop
        terminates in at most ``len(victims)`` rounds — in practice 1-2.
        """
        from ..kernels.batching import gather_ranges
        from ..kernels.bitmatrix import (
            first_free_colors_packed,
            scatter_or_colors,
            words_for_colors,
        )

        rounds = 0
        while victims.size:
            rounds += 1
            deg = self._deg[victims]
            idx = gather_ranges(self._starts[victims], deg)
            rows = np.repeat(np.arange(victims.size, dtype=np.int64), deg)
            nbrs = self._nbrs[idx]
            nbr_colors = self._colors[nbrs]
            max_c = int(nbr_colors.max(initial=0))
            words = words_for_colors(max_c + 1)
            state = scatter_or_colors(rows, nbr_colors, victims.size, words)
            new_colors = first_free_colors_packed(state)
            touched.append(victims)
            touched_old.append(self._colors[victims].copy())
            self._colors[victims] = new_colors
            self.stats.vertices_recolored += int(victims.size)
            self.stats.recolor_work += int(deg.sum())
            # Victim-victim collisions: both endpoints just speculated the
            # same color.  Re-repair only the larger-ID endpoint of each.
            in_victims = np.zeros(self.num_vertices, dtype=bool)
            in_victims[victims] = True
            seg_src = np.repeat(victims, deg)
            clash = (
                in_victims[nbrs]
                & (self._colors[nbrs] == self._colors[seg_src])
                & (seg_src > nbrs)
            )
            victims = _unique_i64(seg_src[clash])
        return rounds

    # ------------------------------------------------------------------
    def compact(self) -> np.ndarray:
        """Renumber colors densely 1..k (repairs can leave gaps).

        ``UNCOLORED`` vertices are preserved as ``UNCOLORED`` — a
        partially-colored stream stays partially colored, it is never
        silently conflated with color renumbering.
        """
        colored = self._colors != UNCOLORED
        used = _unique_i64(self._colors[colored])
        remap = np.zeros(int(used.max(initial=0)) + 1, dtype=np.int64)
        remap[used] = np.arange(1, used.size + 1, dtype=np.int64)
        new_colors = self._colors.copy()
        new_colors[colored] = remap[self._colors[colored]]
        self._colors = new_colors
        return self.colors()

    def set_colors(self, colors: np.ndarray) -> None:
        """Replace the maintained coloring wholesale (e.g. after a full
        recolor pass); the caller vouches for properness."""
        colors = np.asarray(colors, dtype=np.int64)
        if colors.shape != self._colors.shape:
            raise ValueError(
                f"colors must have shape {self._colors.shape}, "
                f"got {colors.shape}"
            )
        self._colors = colors.copy()

    def to_graph(self, name: str = "incremental") -> CSRGraph:
        """Snapshot the current adjacency as a CSR graph (one pass)."""
        from ..kernels.batching import gather_ranges

        n = self.num_vertices
        src = np.repeat(np.arange(n, dtype=np.int64), self._deg)
        dst = self._nbrs[gather_ranges(self._starts, self._deg)]
        return CSRGraph.from_arrays(
            n, src, dst, symmetrize=False, dedup=False, name=name
        )

    def validate(self) -> None:
        """Raise if the maintained coloring ever becomes improper."""
        from ..kernels.batching import gather_ranges

        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self._deg)
        dst = self._nbrs[gather_ranges(self._starts, self._deg)]
        bad = (self._colors[src] == self._colors[dst]) & (
            self._colors[src] != UNCOLORED
        )
        if bad.any():
            k = int(np.argmax(bad))
            u, v = int(src[k]), int(dst[k])
            raise AssertionError(
                f"conflict on ({u}, {v}): both color {int(self._colors[u])}"
            )

    def _check(self, v: int) -> None:
        if not 0 <= v < self.num_vertices:
            raise IndexError(f"vertex {v} out of range")


def _group_runs(sorted_keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(values, first_index, run_length)`` of a sorted key array."""
    values, first = np.unique(sorted_keys, return_index=True)
    sizes = np.diff(np.append(first, sorted_keys.size))
    return values, first, sizes


def _unique_i64(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values, sort-based.

    ``np.unique`` on unsorted integers takes a hash-table path (NumPy 2.x)
    whose per-call cost dominates small delta batches; an explicit
    sort + run-collapse is several times cheaper at these sizes.
    """
    if values.size <= 1:
        return values.astype(np.int64, copy=True)
    s = np.sort(values)
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _member(needles: np.ndarray, haystack: np.ndarray) -> np.ndarray:
    """Boolean membership of ``needles`` in ``haystack``.

    Sort + binary search instead of ``np.isin``, which internally runs
    the hash-based ``np.unique`` over the haystack on every call.
    """
    if haystack.size == 0:
        return np.zeros(needles.shape, dtype=bool)
    hs = np.sort(haystack)
    pos = np.searchsorted(hs, needles)
    np.minimum(pos, hs.size - 1, out=pos)
    return hs[pos] == needles
