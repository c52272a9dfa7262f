"""Execution engine: *how* a routed unit runs, with no policy of its own.

:class:`ExecutionEngine` is the other half of the placement/execution
split (see :mod:`repro.service.placement`).  It receives fully-decided
units — a single job with its
:class:`~repro.service.router.RouteDecision`, or a coalesced micro-batch
— and carries them through cache lookup, the deadline check, one
:func:`repro.color` call on the routed backend, result assembly, and
completion accounting.  A job is admitted (begun, deadline-checked and
looked up in the cache) exactly once, and runs at most once: the error
its backend raises is the job's error.  The engine never chooses a
lane, a backend, or a companion: by the time a job reaches it, every
choice has been made.

Both deployment shapes drive the same engine instance semantics:

* single-process — :class:`~repro.service.service.ColoringService`'s
  dispatcher hands units straight to its engine;
* mesh — each worker process *is* a ``ColoringService``, so a job
  forwarded by the :class:`~repro.service.mesh.ColoringMesh` router
  lands in an identical engine inside the worker.

That identity is the mesh's byte-parity guarantee: routing a job through
N processes changes where it runs, never what runs.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional

from ..obs import Registry
from .batcher import run_microbatch
from .cache import ResultCache
from .jobs import Job, JobFailed, JobRequest, JobResult, JobState, JobTimeout
from .router import RouteDecision

__all__ = ["ExecutionEngine"]


class ExecutionEngine:
    """Runs decided execution units; owns completion accounting.

    ``on_finish(job)`` is invoked exactly once per job after it reaches
    a terminal state (the service uses it to release its in-flight
    slot); the engine's own accounting (completed/failed/timing
    counters) happens just before.  ``fault_hook(request)``, when set,
    is called inside the ``service.attempt`` span before the backend
    runs; raising from it fails the job like a backend error would (the
    chaos seam the robustness tests drive).
    """

    def __init__(
        self,
        *,
        registry: Registry,
        cache: ResultCache,
        default_timeout_s: Optional[float] = None,
        fault_hook: Optional[Callable[[JobRequest], None]] = None,
        on_finish: Optional[Callable[[Job], None]] = None,
    ):
        self.registry = registry
        self.cache = cache
        self.default_timeout_s = default_timeout_s
        self.fault_hook = fault_hook
        self._on_finish = on_finish or (lambda job: None)

    # ------------------------------------------------------------------
    # Units
    # ------------------------------------------------------------------
    def run_single(self, job: Job, decision: RouteDecision) -> None:
        if self._admit(job, decision):
            self._execute(job, decision)

    def run_batch(self, batch: List[Job], decision: RouteDecision) -> None:
        """One micro-batch: shared union coloring, per-job completion.

        Cache hits and expired jobs peel off first; if the union run
        itself fails, every remaining job runs alone on the batch's
        backend, without being admitted (or counted) a second time.
        """
        runnable = [job for job in batch if self._admit(job, decision)]
        try:
            if not runnable:
                return
            t0 = time.monotonic()
            with self.registry.span(
                "service.microbatch",
                jobs=len(runnable),
                key=str(decision.batch_key),
            ):
                results = run_microbatch(
                    [job.graph for job in runnable], decision.batch_key
                )
            execute_s = time.monotonic() - t0
            self.registry.add("service.batch.batches")
            self.registry.add("service.batch.jobs", len(runnable))
            self.registry.observe("service.batch.size", len(runnable))
            self.registry.observe("service.latency.execute_s", execute_s)
            for job, (colors, n_colors) in zip(runnable, results):
                self.cache.put(job.request, job.graph, colors, n_colors)
                job.complete(
                    self._result(
                        job,
                        colors=colors,
                        n_colors=n_colors,
                        backend=decision.backend,
                        engine=None,
                        route=decision.label,
                        execute_s=execute_s,
                        batched=len(runnable),
                    )
                )
                self._finish(job)
        except Exception:
            # The shared run failed; give each job its own solo run.
            self.registry.add("service.batch.fallbacks")
            for job in runnable:
                if not job.done:
                    self._execute(job, decision)

    def fail(self, job: Job, error: JobFailed) -> None:
        """End a job that never reached a unit (its dispatch failed)
        through the same terminal accounting as every other job."""
        job.fail(error)
        self._finish(job)

    # ------------------------------------------------------------------
    # Per-job stages
    # ------------------------------------------------------------------
    def _admit(self, job: Job, decision: RouteDecision) -> bool:
        """Begin ``job``; True when it still needs executing.

        An expired job, a cache hit, or an error while admitting ends
        the job here, so a batch never strands a job with its in-flight
        accounting still held.
        """
        try:
            self._begin(job)
            if not (
                self._fail_if_expired(job)
                or self._complete_from_cache(job, decision)
            ):
                return True
        except Exception as exc:  # pragma: no cover - defensive
            job.fail(JobFailed(f"admission error: {exc!r}"))
        self._finish(job)
        return False

    def _execute(self, job: Job, decision: RouteDecision) -> None:
        """The job's one attempt on its routed backend; always ends the job.

        Whatever the backend (or the fault hook) raises becomes the
        job's :class:`JobFailed`; there is no retry and no other backend.
        """
        from ..api import color as repro_color

        request = job.request
        invocation = request.invocation
        try:
            t0 = time.monotonic()
            with self.registry.span(
                "service.attempt",
                job=request.job_id,
                algorithm=request.algorithm,
                backend=decision.backend or "",
            ):
                if self.fault_hook is not None:
                    self.fault_hook(request)
                out = repro_color(
                    job.graph,
                    invocation.algorithm,
                    backend=invocation.backend,
                    **invocation.opts,
                )
            execute_s = time.monotonic() - t0
            self.registry.observe("service.latency.execute_s", execute_s)
            self.cache.put(request, job.graph, out.colors, out.n_colors)
            job.complete(
                self._result(
                    job,
                    colors=out.colors,
                    n_colors=out.n_colors,
                    backend=decision.backend,
                    engine=decision.engine,
                    route=decision.label,
                    execute_s=execute_s,
                )
            )
        except Exception as exc:
            job.fail(
                JobFailed(
                    f"job {request.job_id} failed on backend "
                    f"{decision.backend!r}: {exc!r}"
                )
            )
        finally:
            self._finish(job)

    def _begin(self, job: Job) -> None:
        job.state = JobState.RUNNING
        job.started_at = time.monotonic()
        self.registry.observe(
            "service.latency.queue_s", job.started_at - job.submitted_at
        )

    def _complete_from_cache(self, job: Job, decision: RouteDecision) -> bool:
        cached = self.cache.get(job.request, job.graph)
        if cached is None:
            if ResultCache.cacheable(job.request):
                self.registry.add("service.cache.misses")
            return False
        self.registry.add("service.cache.hits")
        colors, n_colors = cached
        job.complete(
            self._result(
                job,
                colors=colors,
                n_colors=n_colors,
                backend=decision.backend,
                engine=decision.engine,
                route=decision.label + " (cached)",
                execute_s=0.0,
                cache_hit=True,
            )
        )
        return True

    def _fail_if_expired(self, job: Job) -> bool:
        if job.expired():
            job.fail(
                JobTimeout(
                    f"job {job.request.job_id} spent its "
                    f"{job.request.timeout_s or self.default_timeout_s}s "
                    "budget before execution"
                )
            )
            return True
        return False

    def _result(
        self,
        job: Job,
        *,
        colors,
        n_colors: int,
        backend: Optional[str],
        engine: Optional[str],
        route: str,
        execute_s: float,
        cache_hit: bool = False,
        batched: int = 0,
    ) -> JobResult:
        now = time.monotonic()
        return JobResult(
            colors=colors,
            n_colors=n_colors,
            algorithm=job.request.algorithm,
            backend=backend,
            engine=engine,
            route=route,
            cache_hit=cache_hit,
            batched=batched,
            timings={
                "queue": (job.started_at or now) - job.submitted_at,
                "execute": execute_s,
                "total": now - job.submitted_at,
            },
        )

    def _finish(self, job: Job) -> None:
        if job.state == JobState.DONE:
            self.registry.add("service.jobs.completed")
        elif job.state == JobState.TIMED_OUT:
            self.registry.add("service.jobs.timed_out")
        else:
            self.registry.add("service.jobs.failed")
        if job.finished_at is not None:
            self.registry.observe(
                "service.latency.total_s", job.finished_at - job.submitted_at
            )
        self._on_finish(job)
