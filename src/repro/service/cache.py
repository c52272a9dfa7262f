"""Content-addressed result cache keyed on the canonical CSR fingerprint.

Repeated graphs are the norm for a coloring service — the same social
graph resubmitted as it grows stale, benchmark loops, dashboards — and
a coloring is a pure function of ``(graph structure, algorithm,
backend/engine, options)``.  The cache keys on exactly that:
:func:`repro.graph.csr_fingerprint` (a SHA-256 of the CSR arrays, so two
byte-identical graphs hit regardless of how they arrived) plus the
request's resolved :class:`~repro.coloring.registry.Invocation`: an
unpinned job shares with a pin to the tier it resolved to, ``hw`` with
``hw`` + ``engine="batched"``; a pin to another tier keeps its own
entry, so every result names the tier that ran.

Entries are only written for **deterministic** invocations: a seeded
randomised algorithm is deterministic once its ``seed`` is in the key;
an unseeded one is never cached.  Eviction is plain LRU.  Stored color
arrays are read-only so one shared buffer can back many hits safely.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from ..coloring.registry import get_algorithm
from ..graph.csr import CSRGraph
from .jobs import JobRequest

__all__ = ["CachedColoring", "ResultCache"]

CachedColoring = Tuple[np.ndarray, int]
"""``(colors, n_colors)`` — the result payload worth remembering."""


def _canonical_opts(opts: dict) -> str:
    """Stable, JSON-safe rendering of the option dict (sorted keys)."""
    return json.dumps(opts, sort_keys=True, default=repr)


class ResultCache:
    """Thread-safe LRU of coloring results, content-addressed by graph."""

    def __init__(self, capacity: int = 128):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[tuple, CachedColoring]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    @staticmethod
    def cacheable(request: JobRequest) -> bool:
        """True when the invocation is a pure function of its key."""
        spec = get_algorithm(request.algorithm)
        return spec.deterministic or "seed" in request.opts

    @staticmethod
    def key_for(request: JobRequest, graph: CSRGraph) -> tuple:
        invocation = request.invocation
        return (
            graph.fingerprint(),
            invocation.algorithm,
            invocation.backend or "",
            _canonical_opts(invocation.opts),
        )

    # ------------------------------------------------------------------
    def get(
        self, request: JobRequest, graph: CSRGraph
    ) -> Optional[CachedColoring]:
        """The cached ``(colors, n_colors)``, or None (also on uncacheable)."""
        if self.capacity == 0 or not self.cacheable(request):
            return None
        key = self.key_for(request, graph)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(
        self, request: JobRequest, graph: CSRGraph, colors: np.ndarray, n_colors: int
    ) -> bool:
        """Remember a result; returns False when the request is uncacheable."""
        if self.capacity == 0 or not self.cacheable(request):
            return False
        stored = np.ascontiguousarray(colors).copy()
        stored.setflags(write=False)
        key = self.key_for(request, graph)
        with self._lock:
            self._entries[key] = (stored, int(n_colors))
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return True

    def invalidate_fingerprint(self, fingerprint: str) -> int:
        """Drop every entry for one graph; returns how many were evicted.

        The session lane calls this when a registered graph mutates: only
        results keyed on the *old* structure go stale, everything else in
        the cache stays warm.
        """
        with self._lock:
            stale = [k for k in self._entries if k[0] == fingerprint]
            for k in stale:
                del self._entries[k]
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
            }
