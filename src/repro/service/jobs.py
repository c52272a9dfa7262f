"""Job model of the coloring service: requests, handles, results, errors.

A :class:`JobRequest` is everything a caller can say about one coloring:
the graph (inline :class:`~repro.graph.csr.CSRGraph`, or a stand-in
dataset key resolved server-side), the algorithm/backend/engine choice,
algorithm options, and the service-level knobs — priority, client id
(for per-client admission quotas), and a deadline.

Submitting yields a :class:`Job`: a thread-safe handle the caller waits
on while the service queues, routes, batches and executes behind it.
The terminal states carry either a :class:`JobResult` (the colors,
byte-identical to a direct :func:`repro.color` call with the same
arguments) or one of the :class:`ServiceError` subclasses —
:class:`RetryAfter` when admission sheds the job, :class:`JobTimeout`
when its deadline passes, :class:`JobFailed` when the backend it was
routed to raises (there is no retry: the backend's error is the job's
error).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Any, Dict, Optional

import numpy as np

from ..coloring.registry import Invocation, check_hw_options, resolve
from ..graph.csr import CSRGraph

__all__ = [
    "Job",
    "JobFailed",
    "JobRequest",
    "JobResult",
    "JobState",
    "JobTimeout",
    "RetryAfter",
    "ServiceClosed",
    "ServiceError",
    "SessionError",
    "SessionNotFound",
    "build_request",
]


class ServiceError(RuntimeError):
    """Base class for every error the coloring service raises.

    Every subclass carries a stable machine-readable :attr:`code` that
    the socket protocol ships alongside the message, so remote clients
    reconstruct the exact typed error instead of string-matching.
    """

    code = "service_error"


class RetryAfter(ServiceError):
    """Admission control shed the job; retry after ``retry_after_s``.

    Raised instead of blocking or silently queueing past the configured
    depth/quota — the load-shedding contract that keeps a saturated
    service answering in bounded time.
    """

    code = "retry_after"

    def __init__(self, message: str, retry_after_s: float):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class JobTimeout(ServiceError):
    """The job's deadline passed before a result was produced."""

    code = "job_timeout"


class JobFailed(ServiceError):
    """The job's one execution attempt raised; carries the backend's error."""

    code = "job_failed"


class ServiceClosed(ServiceError):
    """Submitted to a service that is draining or already shut down."""

    code = "service_closed"


class SessionError(ServiceError):
    """A session-lane request was invalid (bad delta batch, over quota...)."""

    code = "session_error"


class SessionNotFound(SessionError):
    """The session id is unknown (never registered, or already closed)."""

    code = "session_not_found"


class JobState(Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    TIMED_OUT = "timed_out"


_request_ids = itertools.count(1)


@dataclass
class JobRequest:
    """One coloring to perform, plus its service-level envelope."""

    graph: Optional[CSRGraph] = None
    dataset: Optional[str] = None
    """Stand-in dataset key (``repro.experiments.DATASET_KEYS``) resolved
    by the service with the standard preprocessing, exactly as the CLI
    does — mutually exclusive with ``graph``."""
    algorithm: str = "bitwise"
    backend: Optional[str] = None
    engine: Optional[str] = None
    """Accelerator engine; only meaningful with ``backend="hw"``."""
    opts: Dict[str, Any] = field(default_factory=dict)
    """Forwarded to :func:`repro.color` (``seed=``, ``parallelism=``, ...)."""
    priority: int = 0
    """Higher runs earlier; ties break FIFO."""
    client_id: str = "anon"
    timeout_s: Optional[float] = None
    """Deadline measured from submission; ``None`` uses the service default."""
    job_id: int = field(default_factory=lambda: next(_request_ids))

    def validate(self) -> None:
        """Shape checks and the hw-option table (no native-tier probe);
        the algorithm and backend are checked when resolved, at submit."""
        if (self.graph is None) == (self.dataset is None):
            raise ValueError("exactly one of graph= or dataset= is required")
        if self.graph is not None and not isinstance(self.graph, CSRGraph):
            raise TypeError(f"graph must be a CSRGraph, got {type(self.graph)!r}")
        check_hw_options(self.algorithm, self.backend, self.engine, self.opts)

    @cached_property
    def invocation(self) -> Invocation:
        """What this request runs, resolved once (the service does so at
        submit; resolving may probe the native tier)."""
        return resolve(self.algorithm, self.backend, self.engine, self.opts)


def build_request(
    *,
    graph: Optional[CSRGraph] = None,
    dataset: Optional[str] = None,
    algorithm: str = "bitwise",
    backend: Optional[str] = None,
    engine: Optional[str] = None,
    opts: Optional[Dict[str, Any]] = None,
    priority: int = 0,
    client_id: str = "anon",
    timeout_s: Optional[float] = None,
) -> JobRequest:
    """Build and validate a :class:`JobRequest`.

    The one shared constructor behind every request path — in-process
    submission, the socket client's one-shot ``color``, the server's
    wire decoding, and the session lane's full-recolor fallback — so the
    graph/dataset exclusivity and the registry's name checks run on
    every path, with the same messages as :func:`repro.color`.
    """
    request = JobRequest(
        graph=graph,
        dataset=dataset,
        algorithm=algorithm,
        backend=backend,
        engine=engine,
        opts=dict(opts or {}),
        priority=priority,
        client_id=client_id,
        timeout_s=timeout_s,
    )
    request.validate()
    return request


@dataclass
class JobResult:
    """What the service hands back for a completed job.

    ``colors`` is byte-identical to the direct :func:`repro.color` call
    with the job's (algorithm, backend, engine, opts) — the service
    parity contract.
    """

    colors: np.ndarray
    n_colors: int
    algorithm: str
    backend: Optional[str]
    """The backend that ran (the request's resolved invocation)."""
    engine: Optional[str]
    """The hw engine that ran; None off the accelerator model."""
    route: str = ""
    """Human-readable routing decision (lane + reason)."""
    cache_hit: bool = False
    batched: int = 0
    """Micro-batch size this job rode in (0 = executed alone)."""
    timings: Dict[str, float] = field(default_factory=dict)
    """Per-stage seconds: ``queue``, ``route``, ``execute``, ``total``."""

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe rendering (colors as a list) for the wire protocol."""
        return {
            "n_colors": self.n_colors,
            "colors": [int(c) for c in self.colors],
            "algorithm": self.algorithm,
            "backend": self.backend,
            "engine": self.engine,
            "route": self.route,
            "cache_hit": self.cache_hit,
            "batched": self.batched,
            "timings": dict(self.timings),
        }


class Job:
    """Thread-safe handle for one submitted request."""

    def __init__(
        self,
        request: JobRequest,
        *,
        graph: Optional[CSRGraph] = None,
        deadline: Optional[float] = None,
    ):
        self.request = request
        self.graph = graph
        """The resolved input graph (service-internal; set at admission)."""
        self.deadline = deadline
        """Absolute ``time.monotonic()`` deadline, or ``None``."""
        self.state = JobState.QUEUED
        self.result: Optional[JobResult] = None
        self.error: Optional[ServiceError] = None
        self.submitted_at = time.monotonic()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._done = threading.Event()

    # -- service side ---------------------------------------------------
    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline

    def complete(self, result: JobResult) -> None:
        self.result = result
        self.state = JobState.DONE
        self.finished_at = time.monotonic()
        self._done.set()

    def fail(self, error: ServiceError) -> None:
        self.error = error
        self.state = (
            JobState.TIMED_OUT if isinstance(error, JobTimeout) else JobState.FAILED
        )
        self.finished_at = time.monotonic()
        self._done.set()

    # -- caller side ----------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job reaches a terminal state; True when it did."""
        return self._done.wait(timeout)

    def result_or_raise(self, timeout: Optional[float] = None) -> JobResult:
        """The job's result; raises its terminal error, or :class:`JobTimeout`
        when ``timeout`` elapses first (the job itself keeps running)."""
        if not self._done.wait(timeout):
            raise JobTimeout(
                f"job {self.request.job_id} still {self.state.value} "
                f"after waiting {timeout}s"
            )
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result
