"""The long-lived coloring service: queue → place → batch → execute.

:class:`ColoringService` is the in-process engine behind both entry
points (the asyncio socket server and the in-process
:class:`~repro.service.client.Client`).  One dispatcher thread pulls
admitted jobs off the priority queue and asks its
:class:`~repro.service.placement.PlacementPolicy` where each should run
— lane, backend, micro-batch companions — then hands the decided unit
to a small thread pool where the shared
:class:`~repro.service.execution.ExecutionEngine` runs it (cache lookup,
the deadline check, one call on the routed backend, completion
accounting).

The placement/execution split is deliberate: the multi-worker mesh
(:mod:`repro.service.mesh`) reuses the exact same
:class:`~repro.service.execution.ExecutionEngine` inside each worker
process, so single-process and mesh deployments share one execution
code path and differ only in placement.

Lifecycle: construct → ``submit``/``color`` freely from any thread →
``close()``.  ``close(drain=True)`` (the default) stops admission, lets
every queued and in-flight job finish, then tears the pool down —
clean drain-on-shutdown is part of the service contract and is tested.

Observability: every stage feeds the service's
:class:`~repro.obs.Registry` — ``service.queue_depth`` gauge,
``service.latency.{queue,route,execute,total}_s`` histograms,
``service.shed`` and cache/batch counters — and
:meth:`ColoringService.status` is the ``/healthz``-style snapshot the
server exposes as an op (taken atomically under the accounting lock, so
mesh health checks never see torn inflight/queue-depth pairs).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from .. import __version__
from ..graph.csr import CSRGraph
from ..obs import JsonlExporter, Registry
from .cache import ResultCache
from .execution import ExecutionEngine
from .jobs import Job, JobFailed, JobRequest, JobResult, ServiceClosed
from .placement import PlacementPolicy
from .queue import AdmissionQueue
from .router import Router
from .sessions import SessionManager

__all__ = ["ColoringService", "ServiceConfig"]


@dataclass
class ServiceConfig:
    """Every tunable of the service, with serving-friendly defaults."""

    # admission
    max_queue_depth: int = 256
    client_quota: Optional[int] = None
    """Max queued jobs per ``client_id``; None = unlimited."""
    retry_after_s: float = 0.05
    """Base backoff hint carried by shed responses."""
    # execution
    executors: int = 2
    """Worker threads draining execution units."""
    default_timeout_s: Optional[float] = None
    """Deadline for jobs that do not bring their own; None = none."""
    # micro-batching
    batching: bool = True
    batch_max_jobs: int = 16
    batch_window_s: float = 0.002
    """How long the dispatcher lingers for companions after the first
    batchable job; 0 batches only what is already queued."""
    batch_min_fill: Optional[int] = None
    """Min jobs (leader included) the initial queue sweep must gather
    before the linger window is worth paying; fewer run immediately.
    None resolves to ``batch_max_jobs`` — linger only when the sweep
    already filled a whole batch's worth of demand."""
    # routing
    small_vertices: Optional[int] = None
    """Micro-batch crossover; None resolves to the router's per-tier
    constant (:data:`repro.service.router.MICROBATCH_CROSSOVER`)."""
    # caching
    cache_capacity: int = 128
    # sessions (the dynamic-graph lane)
    session_churn_threshold: float = 0.25
    """Fraction of vertices recolored (since the last full snapshot)
    past which a session's next mutating batch triggers a full recolor."""
    max_sessions: int = 64
    # observability
    registry: Optional[Registry] = None
    """Collect into this registry (default: a fresh enabled one)."""
    obs_path: Optional[Union[str, Path]] = None
    """Export the registry as JSON-lines here on close (flush-safe)."""
    # chaos / testing
    fault_hook: Optional[Callable[[JobRequest], None]] = field(
        default=None, repr=False
    )
    """Called with the request just before its backend runs; raising
    fails the job as a backend error would.  Test/chaos use only."""


class ColoringService:
    """A running coloring service (in-process)."""

    def __init__(self, config: Optional[ServiceConfig] = None):
        self.config = config or ServiceConfig()
        cfg = self.config
        self.registry = cfg.registry if cfg.registry is not None else Registry()
        self.queue = AdmissionQueue(
            max_depth=cfg.max_queue_depth,
            client_quota=cfg.client_quota,
            retry_after_s=cfg.retry_after_s,
            registry=self.registry,
        )
        self.router = Router(
            small_vertices=cfg.small_vertices, batching=cfg.batching
        )
        self.placement = PlacementPolicy(
            self.router,
            batch_max_jobs=cfg.batch_max_jobs,
            batch_window_s=cfg.batch_window_s,
            batch_min_fill=cfg.batch_min_fill,
        )
        self.cache = ResultCache(cfg.cache_capacity)
        self.engine = ExecutionEngine(
            registry=self.registry,
            cache=self.cache,
            default_timeout_s=cfg.default_timeout_s,
            fault_hook=cfg.fault_hook,
            on_finish=self._on_job_finish,
        )
        self.sessions = SessionManager(
            self,
            churn_threshold=cfg.session_churn_threshold,
            max_sessions=cfg.max_sessions,
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, cfg.executors),
            thread_name_prefix="repro-service-exec",
        )
        self._unit_slots = threading.Semaphore(max(1, cfg.executors))
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._idle = threading.Condition(self._inflight_lock)
        self._draining = False
        self._closed = False
        self._started_at = time.monotonic()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop,
            name="repro-service-dispatch",
            daemon=True,
        )
        self._stop = threading.Event()
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: JobRequest) -> Job:
        """Admit one job; returns its handle immediately.

        Raises :class:`ServiceClosed` after shutdown began,
        :class:`RetryAfter` when admission sheds, and plain
        ``ValueError``/``KeyError`` for malformed requests (bad dataset
        key, missing graph, an option :func:`repro.color` would reject
        by name) — validation is eager so garbage never occupies queue
        depth.
        """
        if self._draining or self._closed:
            raise ServiceClosed("service is shutting down; no new jobs accepted")
        request.validate()
        request.invocation  # resolve the backend once, before admission
        graph = self._resolve_graph(request)
        timeout = (
            request.timeout_s
            if request.timeout_s is not None
            else self.config.default_timeout_s
        )
        deadline = None if timeout is None else time.monotonic() + timeout
        job = Job(request, graph=graph, deadline=deadline)
        self.queue.push(job)  # may raise RetryAfter
        self.registry.add("service.jobs.submitted")
        return job

    def color(
        self,
        graph: Optional[CSRGraph] = None,
        *,
        dataset: Optional[str] = None,
        algorithm: str = "bitwise",
        backend: Optional[str] = None,
        engine: Optional[str] = None,
        priority: int = 0,
        client_id: str = "anon",
        timeout_s: Optional[float] = None,
        wait_s: Optional[float] = None,
        **opts: Any,
    ) -> JobResult:
        """Submit and wait — the blocking convenience around :meth:`submit`."""
        job = self.submit(
            JobRequest(
                graph=graph,
                dataset=dataset,
                algorithm=algorithm,
                backend=backend,
                engine=engine,
                opts=opts,
                priority=priority,
                client_id=client_id,
                timeout_s=timeout_s,
            )
        )
        return job.result_or_raise(wait_s)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """The ``/healthz``-style snapshot (JSON-safe).

        The whole snapshot is assembled under the accounting lock so the
        (inflight, queue_depth, state) triple is never torn — a mesh
        health check acting on "queue full but nothing in flight" must
        be seeing one instant, not two.
        """
        with self._inflight_lock:
            counters = dict(self.registry.counters)
            inflight = self._inflight
            queue_depth = self.queue.depth
            if self._closed:
                state = "closed"
            elif self._draining:
                state = "draining"
            else:
                state = "ok"
        return {
            "status": state,
            "version": __version__,
            "uptime_s": time.monotonic() - self._started_at,
            "queue_depth": queue_depth,
            "inflight": inflight,
            "jobs": {
                key.rsplit(".", 1)[1]: counters.get(key, 0)
                for key in (
                    "service.jobs.submitted",
                    "service.jobs.completed",
                    "service.jobs.failed",
                    "service.jobs.timed_out",
                    "service.shed",
                )
            },
            "batching": {
                "batches": counters.get("service.batch.batches", 0),
                "batched_jobs": counters.get("service.batch.jobs", 0),
            },
            "routing": {
                "software_tier": self.router.software_tier,
                "microbatch_crossover": self.router.small_vertices,
            },
            "cache": self.cache.stats(),
            "sessions": self.sessions.stats(),
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until queue and in-flight work are empty; True on success."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self.queue.depth > 0 or self._inflight > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                # Poll: queue-depth changes do not notify this condition,
                # and the pop -> inflight handoff has a tiny unlocked window.
                self._idle.wait(0.1 if remaining is None else min(remaining, 0.1))
        return True

    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the service; with ``drain`` every accepted job finishes first."""
        if self._closed:
            return
        self._draining = True
        if drain:
            self.drain(timeout)
        self.sessions.close_all()
        self._stop.set()
        self.queue.close()
        self._dispatcher.join(timeout=5)
        self._pool.shutdown(wait=drain)
        self._closed = True
        if self.config.obs_path is not None:
            with JsonlExporter(self.config.obs_path) as exporter:
                exporter.export(self.registry)

    def __enter__(self) -> "ColoringService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve_graph(self, request: JobRequest) -> CSRGraph:
        if request.graph is not None:
            return request.graph
        from ..experiments import DATASET_KEYS, load_dataset

        if request.dataset not in DATASET_KEYS:
            raise ValueError(
                f"unknown dataset {request.dataset!r}; options: {DATASET_KEYS}"
            )
        return load_dataset(request.dataset, preprocessed=True)

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            # Backpressure: never pop past executor capacity.  Waiting
            # jobs stay in the admission queue — where depth and quotas
            # are measured and shedding happens — instead of piling into
            # an unbounded pool backlog, and priority keeps meaning
            # something while the executors are busy.
            if not self._unit_slots.acquire(timeout=0.05):
                continue
            job = self.queue.pop(timeout=0.05)
            if job is None:
                self._unit_slots.release()
                continue
            self._mark_inflight(+1)
            try:
                self._dispatch_one(job)
            except Exception as exc:  # defensive: dispatcher must survive
                self.engine.fail(job, JobFailed(f"dispatch error: {exc!r}"))
                self._unit_slots.release()

    def _dispatch_one(self, job: Job) -> None:
        t0 = time.monotonic()
        decision = self.placement.decide(job.request, job.graph)
        self.registry.observe("service.latency.route_s", time.monotonic() - t0)
        if decision.lane == "batch":
            batch = [job] + self.placement.collect_companions(
                self.queue, decision, exclude=job
            )
            for extra in batch[1:]:
                self._mark_inflight(+1)
            self._pool.submit(self._run_unit, self.engine.run_batch, batch, decision)
        else:
            self._pool.submit(self._run_unit, self.engine.run_single, job, decision)

    def _run_unit(self, fn, *args) -> None:
        """One pool task = one execution slot; release it no matter what."""
        try:
            fn(*args)
        finally:
            self._unit_slots.release()

    def _on_job_finish(self, job: Job) -> None:
        self._mark_inflight(-1)

    def _mark_inflight(self, delta: int) -> None:
        with self._idle:
            self._inflight += delta
            if self._inflight <= 0:
                self._idle.notify_all()
