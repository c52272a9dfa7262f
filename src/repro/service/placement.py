"""Placement policy: *where* a job runs, separated from *how* it runs.

The service answers two different questions for every job, and this
module owns the first one:

* **placement** — which lane, which backend, which companions, which
  worker (decided here, from the request and cheap graph statistics);
* **execution** — actually running the unit (owned by
  :mod:`repro.service.execution`, which never makes a choice).

Keeping the split strict is what lets the single-process service and the
multi-worker mesh share one execution path: :class:`PlacementPolicy`
drives a :class:`~repro.service.service.ColoringService` dispatcher,
:class:`MeshPlacement` drives the
:class:`~repro.service.mesh.ColoringMesh` router, and both hand the
resulting units to the same
:class:`~repro.service.execution.ExecutionEngine` (directly, or inside a
worker process).

Mesh placement mirrors how GraVF-M scales one FPGA design to many: the
graph (here: the job stream) is partitioned across nodes and only small
coordination messages cross node boundaries.  The partitioning is a
**consistent hash** of the graph's canonical CSR fingerprint
(:class:`HashRing`), which buys two properties at once:

* **cache affinity** — a resubmitted graph lands on the worker whose
  result cache already holds it;
* **minimal redistribution** — when a worker dies, only the keys it
  owned move (~1/N of the space); every other graph keeps its warm home.

Saturation is handled by **spill**: when the home worker sheds with
:class:`~repro.service.jobs.RetryAfter` (its bounded admission queue is
full), the router forwards to the least-loaded live worker instead of
bouncing the shed back to the client.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..graph.csr import CSRGraph
from .jobs import Job, JobRequest
from .router import RouteDecision, Router

__all__ = [
    "HashRing",
    "MeshPlacement",
    "PlacementPolicy",
    "WorkerLoad",
    "least_loaded",
    "placement_key",
]


def placement_key(request: JobRequest, graph: Optional[CSRGraph]) -> str:
    """The affinity key one job is placed by.

    Inline graphs key on :meth:`~repro.graph.csr.CSRGraph.fingerprint`
    (content-addressed: byte-identical graphs map to the same worker no
    matter how they arrived — the result-cache contract, extended to
    worker affinity).  Dataset jobs key on the dataset name, which is a
    content address too: stand-ins are deterministic.
    """
    if graph is not None:
        return graph.fingerprint()
    return f"dataset:{request.dataset}"


# ----------------------------------------------------------------------
# Consistent hashing
# ----------------------------------------------------------------------
class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each worker owns ``replicas`` pseudo-random points on a 64-bit ring;
    a key is served by the owner of the first point at or after the
    key's own hash (wrapping).  Virtual nodes keep ownership near-uniform
    even for small worker counts, and removal moves only the dead
    worker's arcs to their ring successors — the ~1/N redistribution
    property the tests pin.
    """

    def __init__(self, workers: Iterable[str] = (), *, replicas: int = 64):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._points: List[int] = []
        self._owners: List[str] = []
        self._workers: Dict[str, List[int]] = {}
        for worker in workers:
            self.add(worker)

    @staticmethod
    def _hash(text: str) -> int:
        digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def __len__(self) -> int:
        return len(self._workers)

    def __contains__(self, worker: str) -> bool:
        return worker in self._workers

    @property
    def workers(self) -> List[str]:
        return sorted(self._workers)

    def add(self, worker: str) -> None:
        if worker in self._workers:
            return
        points = [
            self._hash(f"{worker}#{i}") for i in range(self.replicas)
        ]
        self._workers[worker] = points
        for point in points:
            at = bisect.bisect_left(self._points, point)
            self._points.insert(at, point)
            self._owners.insert(at, worker)

    def remove(self, worker: str) -> None:
        points = self._workers.pop(worker, None)
        if points is None:
            return
        for point in points:
            # Several owners may share a point value only if two workers
            # hash-collide; scan the run to drop exactly this worker's.
            at = bisect.bisect_left(self._points, point)
            while at < len(self._points) and self._points[at] == point:
                if self._owners[at] == worker:
                    del self._points[at]
                    del self._owners[at]
                    break
                at += 1

    def lookup(self, key: str) -> str:
        """The worker owning ``key``; raises when the ring is empty."""
        if not self._points:
            raise LookupError("hash ring is empty (no live workers)")
        at = bisect.bisect_right(self._points, self._hash(key))
        if at == len(self._points):
            at = 0
        return self._owners[at]


# ----------------------------------------------------------------------
# Mesh placement (ring + load-aware spill)
# ----------------------------------------------------------------------
@dataclass
class WorkerLoad:
    """The router's last view of one worker's pressure."""

    queue_depth: int = 0
    inflight: int = 0
    updated_at: float = field(default_factory=time.monotonic)

    @property
    def pressure(self) -> int:
        return self.queue_depth + self.inflight


def least_loaded(
    loads: Dict[str, WorkerLoad], *, exclude: Sequence[str] = ()
) -> Optional[str]:
    """The live worker with the lowest pressure, stably by name on ties."""
    best = None
    for worker in sorted(loads):
        if worker in exclude:
            continue
        if best is None or loads[worker].pressure < loads[best].pressure:
            best = worker
    return best


class MeshPlacement:
    """Thread-safe placement state of the mesh router.

    Tracks the live ring, per-worker load (refreshed by health checks
    and by every status/spill probe), and the placement counters the
    ``mesh-status`` verb reports.  All decisions — home worker, spill
    target, re-hash on death — go through here, so the routing policy is
    testable without any process machinery.
    """

    def __init__(self, workers: Iterable[str], *, replicas: int = 64):
        self.ring = HashRing(workers, replicas=replicas)
        self._loads: Dict[str, WorkerLoad] = {
            worker: WorkerLoad() for worker in self.ring.workers
        }
        self._dead: List[str] = []
        self._lock = threading.Lock()
        self.placed = 0
        self.spilled = 0
        self.rehashes = 0

    # -- membership -----------------------------------------------------
    @property
    def live_workers(self) -> List[str]:
        with self._lock:
            return self.ring.workers

    @property
    def dead_workers(self) -> List[str]:
        with self._lock:
            return list(self._dead)

    def mark_dead(self, worker: str) -> bool:
        """Drop ``worker`` from the ring; True when it was live."""
        with self._lock:
            if worker not in self.ring:
                return False
            self.ring.remove(worker)
            self._loads.pop(worker, None)
            self._dead.append(worker)
            self.rehashes += 1
            return True

    # -- load -----------------------------------------------------------
    def update_load(self, worker: str, queue_depth: int, inflight: int) -> None:
        with self._lock:
            if worker in self.ring:
                self._loads[worker] = WorkerLoad(
                    queue_depth=int(queue_depth), inflight=int(inflight)
                )

    def loads(self) -> Dict[str, WorkerLoad]:
        with self._lock:
            return dict(self._loads)

    # -- decisions ------------------------------------------------------
    def home(self, key: str) -> str:
        """The consistent-hash home worker for ``key``."""
        with self._lock:
            worker = self.ring.lookup(key)
            self.placed += 1
            return worker

    def spill_target(self, key: str, *, exclude: Sequence[str]) -> Optional[str]:
        """Least-loaded live worker besides ``exclude``; None when alone."""
        with self._lock:
            target = least_loaded(self._loads, exclude=exclude)
            if target is not None:
                self.spilled += 1
            return target

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "live": self.ring.workers,
                "dead": list(self._dead),
                "placed": self.placed,
                "spilled": self.spilled,
                "rehashes": self.rehashes,
                "loads": {
                    w: {"queue_depth": l.queue_depth, "inflight": l.inflight}
                    for w, l in self._loads.items()
                },
            }


# ----------------------------------------------------------------------
# Single-process placement (route + batch coalescing policy)
# ----------------------------------------------------------------------
class PlacementPolicy:
    """Every placement decision of one in-process service.

    Wraps the one-rule :class:`~repro.service.router.Router` and owns
    the micro-batch coalescing policy: which queued jobs join a batch
    leader, and whether the linger window is worth paying at all.

    The **min-coalesce threshold** (``batch_min_fill``) is the fix for
    the small-fleet regression the service bench exposed (0.58x at
    jobs=8): lingering ``batch_window_s`` for companions only pays off
    when a substantial batch is already forming.  When the initial queue
    sweep gathers fewer than ``batch_min_fill`` compatible jobs, the
    batch runs immediately with what is there — the window is bypassed,
    and a small fleet is never slower than solo dispatch by the width of
    the window.
    """

    def __init__(
        self,
        router: Router,
        *,
        batch_max_jobs: int = 16,
        batch_window_s: float = 0.002,
        batch_min_fill: Optional[int] = None,
    ):
        self.router = router
        self.batch_max_jobs = batch_max_jobs
        self.batch_window_s = batch_window_s
        self.batch_min_fill = (
            batch_max_jobs if batch_min_fill is None else batch_min_fill
        )

    def decide(self, request: JobRequest, graph: CSRGraph) -> RouteDecision:
        """Route one job (see :meth:`repro.service.router.Router.route`)."""
        return self.router.route(request, graph)

    def collect_companions(
        self,
        queue,
        decision: RouteDecision,
        *,
        exclude: Job,
        sleep: Callable[[float], None] = time.sleep,
    ) -> List[Job]:
        """Sweep the queue for batch mates of one batch-lane leader.

        Jobs whose own route shares the leader's ``batch_key`` are pulled
        (up to ``batch_max_jobs - 1``).  The linger window only opens
        when the initial sweep already gathered at least
        ``batch_min_fill`` jobs (leader included) — see the class
        docstring for why.
        """
        limit = self.batch_max_jobs - 1
        if limit <= 0:
            return []

        def matches(candidate: Job) -> bool:
            if candidate is exclude:
                return False
            mate = self.router.route(candidate.request, candidate.graph)
            return mate.lane == "batch" and mate.batch_key == decision.batch_key

        companions = queue.drain_matching(matches, limit)
        if len(companions) + 1 < self.batch_min_fill:
            return companions
        window_end = time.monotonic() + self.batch_window_s
        while len(companions) < limit:
            remaining = window_end - time.monotonic()
            if remaining <= 0:
                break
            sleep(min(remaining, 0.0005))
            companions.extend(
                queue.drain_matching(matches, limit - len(companions))
            )
        return companions
