"""Execution engine: *how* a routed unit runs, with no policy of its own.

:class:`ExecutionEngine` is the other half of the placement/execution
split (see :mod:`repro.service.placement`).  It receives fully-decided
units — a single job with its
:class:`~repro.service.router.RouteDecision`, or a coalesced micro-batch
— and carries them through cache lookup, deadline checks, the
fault-tolerant :class:`~repro.service.executor.Executor`, result
assembly, and completion accounting.  It never chooses a lane, a
backend, or a companion: by the time a job reaches the engine, every
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
from .executor import Executor
from .jobs import Job, JobFailed, JobResult, JobState, JobTimeout
from .router import RouteDecision

__all__ = ["ExecutionEngine"]


class ExecutionEngine:
    """Runs decided execution units; owns completion accounting.

    ``on_finish(job)`` is invoked exactly once per job after it reaches
    a terminal state (the service uses it to release its in-flight
    slot); the engine's own accounting (completed/failed/timing
    counters) happens just before.
    """

    def __init__(
        self,
        *,
        registry: Registry,
        cache: ResultCache,
        executor: Executor,
        default_timeout_s: Optional[float] = None,
        on_finish: Optional[Callable[[Job], None]] = None,
    ):
        self.registry = registry
        self.cache = cache
        self.executor = executor
        self.default_timeout_s = default_timeout_s
        self._on_finish = on_finish or (lambda job: None)

    # ------------------------------------------------------------------
    # Units
    # ------------------------------------------------------------------
    def run_single(self, job: Job, decision: RouteDecision) -> None:
        try:
            self._begin(job)
            if self._fail_if_expired(job):
                return
            if self._complete_from_cache(job, decision):
                return
            t0 = time.monotonic()
            colors, n_colors, backend, engine, attempts = (
                self.executor.run_request(
                    job.request,
                    job.graph,
                    decision.backend,
                    decision.engine,
                    deadline=job.deadline,
                )
            )
            execute_s = time.monotonic() - t0
            self.registry.observe("service.latency.execute_s", execute_s)
            # A degraded job ran on a different rung than its cache key
            # pins; keep such results out of the cache so a pinned-backend
            # entry always means "computed by that backend".
            if backend == (job.request.backend or backend):
                self.cache.put(job.request, job.graph, colors, n_colors)
            job.attempts = attempts
            job.complete(
                self._result(
                    job,
                    colors=colors,
                    n_colors=n_colors,
                    backend=backend,
                    engine=engine,
                    route=decision.label,
                    attempts=attempts,
                    execute_s=execute_s,
                )
            )
        except (JobTimeout, JobFailed) as exc:
            job.fail(exc)
        except Exception as exc:  # pragma: no cover - defensive
            job.fail(JobFailed(f"unexpected service error: {exc!r}"))
        finally:
            self._finish(job)

    def run_batch(self, batch: List[Job], decision: RouteDecision) -> None:
        """One micro-batch: shared union coloring, per-job completion.

        Cache hits and expired jobs peel off first; if the union run
        itself fails, every remaining job falls back to the single-job
        path (with its full retry/degradation machinery) rather than
        failing the whole batch.
        """
        runnable: List[Job] = []
        for job in batch:
            # Per-job guard: a failure peeling one job (cache lookup,
            # bookkeeping) must fail that job alone, never strand the
            # rest of the batch with in-flight accounting still held.
            try:
                self._begin(job)
                if self._fail_if_expired(job):
                    self._finish(job)
                elif self._complete_from_cache(job, decision):
                    self._finish(job)
                else:
                    runnable.append(job)
            except Exception as exc:  # pragma: no cover - defensive
                job.fail(JobFailed(f"batch admission error: {exc!r}"))
                self._finish(job)
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
                job.attempts = 1
                job.complete(
                    self._result(
                        job,
                        colors=colors,
                        n_colors=n_colors,
                        backend=decision.backend,
                        engine=None,
                        route=decision.label,
                        attempts=1,
                        execute_s=execute_s,
                        batched=len(runnable),
                    )
                )
                self._finish(job)
        except Exception:
            # The shared run failed; give each job its own fair shot.
            self.registry.add("service.batch.fallbacks")
            for job in runnable:
                if not job.done:
                    self.run_single(job, decision)

    def fail(self, job: Job, error: JobFailed) -> None:
        """End a job that never reached a unit (its dispatch failed)
        through the same terminal accounting as every other job."""
        job.fail(error)
        self._finish(job)

    # ------------------------------------------------------------------
    # Per-job stages
    # ------------------------------------------------------------------
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
                backend=job.request.backend,
                engine=job.request.engine,
                route=decision.label + " (cached)",
                attempts=0,
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
        attempts: int,
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
            attempts=attempts,
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
