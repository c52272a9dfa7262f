"""Session lane: dynamic-graph serving over the one-shot service core.

One-shot jobs re-ship and re-color the whole graph per request.  Real
mutation-stream traffic wants the opposite economics: register a graph
once, keep the coloring resident server-side, and ship only **edge-delta
batches** in and **sparse recolor diffs** out.

:class:`SessionManager` (mounted as ``ColoringService.sessions``) owns
that lane:

* :meth:`register` — admit a graph (content-addressed by its CSR
  fingerprint, so re-registering an identical structure reuses the
  stored arrays), compute the initial coloring through the normal job
  path (the byte-parity contract extends to sessions), and seed an
  :class:`~repro.coloring.incremental.IncrementalColoring` from it.
* :meth:`apply` — absorb one batch of insertions/expirations in a single
  vectorized pass, invalidate the result-cache entries of the
  now-mutated registered structure (only those — the rest of the cache
  stays warm), and hand back the sparse diff.  When cumulative repair
  churn since the last snapshot passes ``churn_threshold`` × vertices,
  the lane falls back to a **full recolor** routed through the service
  (router, cache and all); the session adopts that result, so
  its colors are byte-identical to ``repro.color`` on the equivalent
  snapshot graph.
* :meth:`verify` / :meth:`colors` / :meth:`close` — validity probe,
  dense resync, and teardown.

Session failures raise :class:`~repro.service.jobs.SessionError` /
:class:`~repro.service.jobs.SessionNotFound`, whose stable ``code``
fields survive the socket protocol.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Tuple

import numpy as np

from ..coloring.incremental import IncrementalColoring
from ..graph.csr import CSRGraph
from .jobs import SessionError, SessionNotFound, build_request

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .service import ColoringService

__all__ = [
    "ApplyOutcome",
    "SessionInfo",
    "SessionManager",
]


@dataclass
class SessionInfo:
    """What :meth:`SessionManager.register` hands back."""

    session_id: str
    fingerprint: str
    colors: np.ndarray
    n_colors: int
    algorithm: str
    backend: Optional[str]
    num_vertices: int
    num_edges: int
    graph_reused: bool = False
    """True when the registered structure was already resident (dedup)."""


@dataclass
class ApplyOutcome:
    """Sparse result of one delta batch — only what changed goes out."""

    epoch: int
    """Monotonic per-session batch counter (register = epoch 0)."""
    mode: str
    """``"incremental"`` (vectorized repair) or ``"full"`` (churn
    threshold tripped; colors adopted from a routed full recolor)."""
    changed: np.ndarray
    """Vertices whose color differs from the client's pre-batch view."""
    colors: np.ndarray
    """New color per vertex in ``changed`` (parallel array)."""
    n_colors: int
    num_vertices: int
    edges_added: int = 0
    edges_removed: int = 0
    conflicts: int = 0
    repair_rounds: int = 0
    churn: float = 0.0
    """Recolored fraction accumulated since the last full snapshot."""
    cache_invalidated: int = 0
    """Result-cache entries evicted for the mutated structure."""


class _Session:
    """Server-side state of one registered stream (internal)."""

    def __init__(
        self,
        session_id: str,
        inc: IncrementalColoring,
        fingerprint: str,
        algorithm: str,
        backend: Optional[str],
        client_id: str,
    ):
        self.session_id = session_id
        self.inc = inc
        self.register_fp = fingerprint
        """Fingerprint the session registered under (the dedup-store key
        to release at close; stable across fallback recolors)."""
        self.snapshot_fp = fingerprint
        """Fingerprint of the last full snapshot (registration or the
        most recent fallback recolor) — the cache key to invalidate on
        the first mutation after it."""
        self.snapshot_dirty = False
        self.algorithm = algorithm
        self.backend = backend
        self.client_id = client_id
        self.epoch = 0
        self.recolored_since_full = 0
        self.full_recolors = 0
        self.created_at = time.monotonic()
        self.lock = threading.Lock()


class SessionManager:
    """The session lane of one :class:`ColoringService`."""

    def __init__(
        self,
        service: "ColoringService",
        *,
        churn_threshold: float = 0.25,
        max_sessions: int = 64,
    ):
        if not 0.0 < churn_threshold:
            raise ValueError(
                f"churn_threshold must be > 0, got {churn_threshold}"
            )
        self._service = service
        self.churn_threshold = float(churn_threshold)
        self.max_sessions = int(max_sessions)
        self._sessions: Dict[str, _Session] = {}
        self._graphs: Dict[str, Tuple[CSRGraph, int]] = {}
        """fingerprint → (shared CSR arrays, refcount) — the server-side
        dedup store behind content-addressed registration."""
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def register(
        self,
        graph: Optional[CSRGraph] = None,
        *,
        dataset: Optional[str] = None,
        algorithm: str = "bitwise",
        backend: Optional[str] = None,
        client_id: str = "anon",
        timeout_s: Optional[float] = None,
        **opts: Any,
    ) -> SessionInfo:
        """Open a session: store the graph, color it, keep both resident.

        The initial coloring runs through the normal service job path —
        admission, routing, cache — as the same request a direct
        ``repro.color(graph, algorithm=..., backend=...)`` call resolves
        to, so the session's colors are byte-identical to that call.
        ``SessionInfo.backend`` names the backend that ran.
        """
        request = build_request(
            graph=graph,
            dataset=dataset,
            algorithm=algorithm,
            backend=backend,
            opts=opts,
            client_id=client_id,
            timeout_s=timeout_s,
        )
        job = self._service.submit(request)
        result = job.result_or_raise(timeout_s)
        resolved = job.graph
        assert resolved is not None
        fp = resolved.fingerprint()

        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                raise SessionError(
                    f"session limit reached ({self.max_sessions}); "
                    "close a session or raise max_sessions"
                )
            stored = self._graphs.get(fp)
            if stored is not None:
                resolved, refs = stored
                reused = True
            else:
                refs = 0
                reused = False
            self._graphs[fp] = (resolved, refs + 1)
            session_id = f"s{next(self._ids)}"
            inc = IncrementalColoring.from_graph(resolved, colors=result.colors)
            self._sessions[session_id] = _Session(
                session_id, inc, fp, algorithm, backend, client_id
            )
        self._service.registry.add("service.sessions.registered")
        return SessionInfo(
            session_id=session_id,
            fingerprint=fp,
            colors=np.asarray(result.colors).copy(),
            n_colors=result.n_colors,
            algorithm=algorithm,
            backend=result.backend,
            num_vertices=resolved.num_vertices,
            num_edges=resolved.num_undirected_edges,
            graph_reused=reused,
        )

    def close(self, session_id: str) -> None:
        """End a session, releasing its graph from the dedup store."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is None:
                raise SessionNotFound(f"unknown session {session_id!r}")
            self._release_graph(session.register_fp)
        self._service.registry.add("service.sessions.closed")

    def close_all(self) -> None:
        with self._lock:
            self._sessions.clear()
            self._graphs.clear()

    # ------------------------------------------------------------------
    # The delta hot path
    # ------------------------------------------------------------------
    def apply(
        self,
        session_id: str,
        additions: Iterable[Tuple[int, int]] = (),
        removals: Iterable[Tuple[int, int]] = (),
        *,
        add_vertices: int = 0,
    ) -> ApplyOutcome:
        """Absorb one delta batch; returns the sparse recolor diff."""
        session = self._get(session_id)
        with session.lock:
            inc = session.inc
            try:
                diff = inc.apply_batch(
                    additions, removals, add_vertices=add_vertices
                )
            except (ValueError, IndexError) as exc:
                raise SessionError(f"bad delta batch: {exc}") from None
            session.epoch += 1
            mutated = bool(
                diff.edges_added or diff.edges_removed or add_vertices
            )
            evicted = 0
            if mutated and not session.snapshot_dirty:
                evicted = self._service.cache.invalidate_fingerprint(
                    session.snapshot_fp
                )
                session.snapshot_dirty = True
                if evicted:
                    self._service.registry.add(
                        "service.sessions.cache_invalidated", evicted
                    )

            session.recolored_since_full += int(diff.changed.size)
            churn = session.recolored_since_full / max(1, inc.num_vertices)
            mode = "incremental"
            changed, new_colors = diff.changed, diff.colors
            if mutated and churn > self.churn_threshold:
                changed, new_colors = self._full_recolor(session, diff)
                mode = "full"
                churn = 0.0

            self._service.registry.add("service.sessions.applied")
            return ApplyOutcome(
                epoch=session.epoch,
                mode=mode,
                changed=changed,
                colors=new_colors,
                n_colors=inc.n_colors,
                num_vertices=inc.num_vertices,
                edges_added=diff.edges_added,
                edges_removed=diff.edges_removed,
                conflicts=diff.conflicts,
                repair_rounds=diff.repair_rounds,
                churn=churn,
                cache_invalidated=evicted,
            )

    def _full_recolor(
        self, session: _Session, diff
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Churn threshold tripped: recolor the snapshot through the
        service and diff against what the client last saw."""
        inc = session.inc
        # What the client currently believes: the post-repair colors with
        # this batch's incremental repairs reverted (appended vertices
        # start at color 1 on both sides of the wire).
        client_view = inc.colors()
        client_view[diff.changed] = diff.old_colors
        snapshot = inc.to_graph(name=f"session-{session.session_id}")
        request = build_request(
            graph=snapshot,
            algorithm=session.algorithm,
            backend=session.backend,
            client_id=session.client_id,
        )
        result = self._service.submit(request).result_or_raise(None)
        inc.set_colors(result.colors)
        session.snapshot_fp = snapshot.fingerprint()
        session.snapshot_dirty = False
        session.recolored_since_full = 0
        session.full_recolors += 1
        self._service.registry.add("service.sessions.full_recolors")
        changed = np.flatnonzero(
            np.asarray(result.colors) != client_view
        ).astype(np.int64)
        return changed, inc.colors()[changed]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def verify(self, session_id: str) -> Dict[str, Any]:
        """Assert the maintained coloring is proper; returns a summary."""
        session = self._get(session_id)
        with session.lock:
            inc = session.inc
            try:
                inc.validate()
            except AssertionError as exc:
                raise SessionError(f"coloring invalid: {exc}") from None
            return {
                "valid": True,
                "epoch": session.epoch,
                "n_colors": inc.n_colors,
                "num_vertices": inc.num_vertices,
                "num_edges": inc.num_undirected_edges,
            }

    def colors(self, session_id: str) -> np.ndarray:
        """Dense resync: the full current color array."""
        session = self._get(session_id)
        with session.lock:
            return session.inc.colors()

    def describe(self, session_id: str) -> Dict[str, Any]:
        session = self._get(session_id)
        with session.lock:
            inc = session.inc
            return {
                "session_id": session.session_id,
                "epoch": session.epoch,
                "algorithm": session.algorithm,
                "backend": session.backend,
                "num_vertices": inc.num_vertices,
                "num_edges": inc.num_undirected_edges,
                "n_colors": inc.n_colors,
                "churn": session.recolored_since_full
                / max(1, inc.num_vertices),
                "full_recolors": session.full_recolors,
                "uptime_s": time.monotonic() - session.created_at,
            }

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "active": len(self._sessions),
                "max_sessions": self.max_sessions,
                "registered_graphs": len(self._graphs),
                "churn_threshold": self.churn_threshold,
            }

    # ------------------------------------------------------------------
    def _get(self, session_id: str) -> _Session:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SessionNotFound(f"unknown session {session_id!r}")
        return session

    def _release_graph(self, fingerprint: str) -> None:
        stored = self._graphs.get(fingerprint)
        if stored is None:
            return
        graph, refs = stored
        if refs <= 1:
            del self._graphs[fingerprint]
        else:
            self._graphs[fingerprint] = (graph, refs - 1)
