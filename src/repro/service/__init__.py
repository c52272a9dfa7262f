"""Long-lived coloring service: queueing, micro-batching, routing, serving.

The layers, innermost out (each its own module):

* :mod:`~repro.service.jobs` — requests, job handles, results, the
  error taxonomy (``RetryAfter``, ``JobTimeout``, ``JobFailed``);
* :mod:`~repro.service.queue` — bounded priority queue with per-client
  quotas and load shedding;
* :mod:`~repro.service.router` — the one-rule backend routing and the
  degradation ladder;
* :mod:`~repro.service.batcher` — micro-batching small jobs into one
  disjoint-union vectorized kernel invocation;
* :mod:`~repro.service.cache` — content-addressed result cache keyed on
  the canonical CSR fingerprint;
* :mod:`~repro.service.executor` — retries with exponential backoff and
  backend-health-driven degradation;
* :mod:`~repro.service.sessions` — the dynamic-graph session lane:
  register once, stream edge-delta batches, receive sparse recolor
  diffs, with churn-triggered full-recolor fallback;
* :mod:`~repro.service.service` — :class:`ColoringService`, the running
  engine tying those together;
* :mod:`~repro.service.protocol` / :mod:`~repro.service.server` /
  :mod:`~repro.service.client` — the length-prefixed JSON wire format,
  the one asyncio Unix-socket frame server (behind both ``serve`` and
  ``serve_mesh``), and the unified in-process/socket :class:`Client`.

Quick start::

    from repro.service import ColoringService, Client

    with ColoringService() as svc:
        result = Client(svc).color(graph)          # in-process

    # or, across processes:
    #   $ bitcolor-repro serve --socket /tmp/repro.sock
    from repro.service import connect
    with connect("/tmp/repro.sock") as client:
        result = client.color(graph, algorithm="bitwise")
"""

from .batcher import batch_key, disjoint_union, run_microbatch
from .cache import ResultCache
from .client import Client, SessionHandle, connect
from .execution import ExecutionEngine
from .executor import BackendHealth, Executor
from .jobs import (
    Job,
    JobFailed,
    JobRequest,
    JobResult,
    JobState,
    JobTimeout,
    RetryAfter,
    ServiceClosed,
    ServiceError,
    SessionError,
    SessionNotFound,
    build_request,
)
from .mesh import ColoringMesh, MeshConfig, MeshServer, serve_mesh
from .placement import (
    HashRing,
    MeshPlacement,
    PlacementPolicy,
    WorkerLoad,
    least_loaded,
    placement_key,
)
from .sessions import ApplyOutcome, SessionInfo, SessionManager
from .queue import AdmissionQueue
from .router import (
    DEGRADATION_LADDER,
    MICROBATCH_CROSSOVER,
    RouteDecision,
    Router,
    next_rung,
    preferred_software_tier,
)
from .server import ServiceServer, serve
from .service import ColoringService, ServiceConfig

__all__ = [
    "AdmissionQueue",
    "ApplyOutcome",
    "BackendHealth",
    "Client",
    "ColoringMesh",
    "ColoringService",
    "DEGRADATION_LADDER",
    "ExecutionEngine",
    "Executor",
    "HashRing",
    "Job",
    "JobFailed",
    "JobRequest",
    "JobResult",
    "JobState",
    "JobTimeout",
    "MICROBATCH_CROSSOVER",
    "MeshConfig",
    "MeshPlacement",
    "MeshServer",
    "PlacementPolicy",
    "ResultCache",
    "RetryAfter",
    "RouteDecision",
    "Router",
    "ServiceClosed",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
    "SessionError",
    "SessionHandle",
    "SessionInfo",
    "SessionManager",
    "SessionNotFound",
    "WorkerLoad",
    "batch_key",
    "build_request",
    "connect",
    "disjoint_union",
    "least_loaded",
    "next_rung",
    "placement_key",
    "preferred_software_tier",
    "run_microbatch",
    "serve",
    "serve_mesh",
]
