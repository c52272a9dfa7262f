"""Zero-copy CSR transport via ``multiprocessing.shared_memory``.

Pickling a multi-hundred-thousand-slot CSR graph into every pool worker
would copy the whole structure per task — the software equivalent of
funnelling every BWPE through one DRAM channel.  Instead the parent
exports ``offsets`` and ``edges`` into two named shared-memory blocks
once (:class:`SharedCSR`), ships only the tiny :class:`CSRSpec` handle,
and each worker maps the blocks into a read-only :class:`CSRGraph` view
(:func:`attach_graph`) — no per-task serialization at all.

Lifecycle: the parent owns the blocks (``close`` + ``unlink`` via the
context manager) and its resource tracker reaps them if it crashes;
workers only ``close`` their attachments, and hold at most one graph.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Tuple

import numpy as np

from ..graph.csr import CSRGraph

__all__ = [
    "CSRSpec",
    "SharedCSR",
    "attach_graph",
    "mp_context",
]


def mp_context():
    """The preferred multiprocessing context: ``fork`` where available.

    Fork keeps worker start-up at milliseconds; platforms without it
    (Windows, macOS default) fall back to ``spawn``, which
    :func:`attach_graph` also supports.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


@dataclass(frozen=True)
class CSRSpec:
    """Everything a worker needs to re-materialise the shared graph."""

    offsets_name: str
    edges_name: str
    num_vertices: int
    num_edges: int
    graph_name: str
    meta: Tuple[Tuple[str, object], ...] = ()


class SharedCSR:
    """Parent-side owner of a graph's shared-memory blocks.

    Create one per graph (``SharedCSR.for_graph`` memoises on the graph
    instance so repeated parallel colorings export exactly once) and ship
    ``spec`` to workers.  Blocks are unlinked on :meth:`close` or when
    the owner is garbage-collected — mapped workers keep the memory alive
    until they drop their attachments (POSIX unlink semantics).
    """

    def __init__(self, graph: CSRGraph):
        self._offsets_shm = self._export(graph.offsets)
        self._edges_shm = self._export(graph.edges)
        self.spec = CSRSpec(
            offsets_name=self._offsets_shm.name,
            edges_name=self._edges_shm.name,
            num_vertices=graph.num_vertices,
            num_edges=graph.num_edges,
            graph_name=graph.name,
            meta=tuple(sorted(graph.meta.items())),
        )

    @classmethod
    def for_graph(cls, graph: CSRGraph) -> "SharedCSR":
        """The graph's shared export, created on first use and memoised.

        Lives in the graph's per-instance cache, so it is destroyed (and
        the blocks unlinked) together with the graph.
        """
        shared = graph._cache.get("parallel.shared_csr")
        if shared is None:
            shared = graph._cache["parallel.shared_csr"] = cls(graph)
        return shared

    @staticmethod
    def _export(arr: np.ndarray) -> shared_memory.SharedMemory:
        # SharedMemory refuses size 0; an empty array still gets one byte.
        shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
        view = np.ndarray(arr.shape, dtype=np.int64, buffer=shm.buf)
        view[:] = arr
        return shm

    def close(self) -> None:
        """Release this process's mapping and destroy the blocks."""
        for shm in (self._offsets_shm, self._edges_shm):
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "SharedCSR":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


# Worker-side attachment: at most one graph per process.  The value pairs
# the materialised CSRGraph view (with its memoised slot sources and shard
# subgraphs) with the SharedMemory objects keeping its buffers alive.
_ATTACHED: Dict[str, Tuple[CSRGraph, list]] = {}


def attach_graph(spec: CSRSpec) -> CSRGraph:
    """Map the shared blocks into a read-only :class:`CSRGraph` view.

    Idempotent per process: repeated calls with the same spec return the
    cached instance, so per-graph memos (slot sources, shard subgraphs)
    survive across tasks within a worker.  A new spec first releases the
    previous attachment, so a persistent pool worker maps one graph at a
    time however many graphs stream through it.

    The attachment is not unregistered from the resource tracker: pool
    workers share the owner's tracker (see
    :func:`repro.parallel.pool.pool_map`), whose registry is a set, so
    the re-registration is a no-op and the owner's entry survives — its
    ``unlink`` stays tracked, and a crashed owner's blocks are still
    reaped.
    """
    cached = _ATTACHED.get(spec.offsets_name)
    if cached is not None:
        return cached[0]
    # Drop the old view before closing its blocks: a block whose buffer
    # a live array still exports cannot close.  Closing only unmaps this
    # process's view; the owner unlinks.
    while _ATTACHED:
        _, (view, blocks) = _ATTACHED.popitem()
        del view
        for shm in blocks:
            shm.close()
    offsets_shm = shared_memory.SharedMemory(name=spec.offsets_name)
    edges_shm = shared_memory.SharedMemory(name=spec.edges_name)
    offsets = np.ndarray(spec.num_vertices + 1, dtype=np.int64, buffer=offsets_shm.buf)
    edges = np.ndarray(spec.num_edges, dtype=np.int64, buffer=edges_shm.buf)
    graph = CSRGraph(offsets=offsets, edges=edges, name=spec.graph_name)
    graph.meta.update(dict(spec.meta))
    # Keep the SharedMemory objects referenced for as long as the view
    # lives — dropping them would invalidate the buffers.
    _ATTACHED[spec.offsets_name] = (graph, [offsets_shm, edges_shm])
    return graph

