"""Job routing: which execution lane does a job take?

The router turns one job (plus its resolved graph) into a
:class:`RouteDecision`.  It never picks a backend: the job's
:attr:`~repro.service.jobs.JobRequest.invocation` (resolved once by
:func:`repro.coloring.registry.resolve`, the same rule
:func:`repro.color` applies) already names the backend and engine that
run.  The router picks only the lane, by one rule:

* a pinned job keeps its backend (and, for ``backend="hw"``, its
  engine) — pinning never changes what runs;
* a small job with a micro-batch key
  (:func:`~repro.service.batcher.batch_key`: bit-wise greedy on a
  software tier with union-safe options) of at most the **micro-batch
  crossover** (:data:`MICROBATCH_CROSSOVER` of the preferred tier)
  vertices takes the batch lane, where the batcher coalesces it with
  its queue neighbours into one kernel invocation — color-identical by
  construction, pinned or not;
* every other job runs solo on its invocation's backend: the caller's
  pin, or for an unpinned job the preferred software tier (``"native"``
  when the compiled kernels are available, else ``"vectorized"``).

Both lanes follow the sequential greedy order, so routing decides only
*where* a job runs, never its colors.

A routed job runs on its decided backend only: if that backend raises,
the job fails with its error (there is no fallback backend).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..graph.csr import CSRGraph
from ..kernels import preferred_tier
from .batcher import batch_key
from .jobs import JobRequest

__all__ = [
    "MICROBATCH_CROSSOVER",
    "RouteDecision",
    "Router",
]

MICROBATCH_CROSSOVER = {
    "vectorized": 2048,
    "native": 512,
}
"""Micro-batch crossover (max vertices) per preferred software tier: below
it, an unpinned job is worth coalescing with queue companions; above it,
a solo kernel invocation amortises its own dispatch overhead.  Measured
on the kernel bench smoke graphs: the native tier's per-call overhead is
a fraction of NumPy dispatch, so its crossover sits ~4x lower — exactly
the tier's rationale (small jobs stop paying dispatch overhead)."""


@dataclass(frozen=True)
class RouteDecision:
    """Where one job executes."""

    lane: str
    """``"batch"`` (micro-batch coalescing) or ``"direct"``."""
    backend: Optional[str]
    engine: Optional[str]
    reason: str
    batch_key: Optional[tuple] = None
    """Coalescing key for the batch lane (jobs with equal keys may share
    one kernel invocation); None on the direct lane."""

    @property
    def label(self) -> str:
        parts = [self.lane]
        if self.backend:
            parts.append(f"backend={self.backend}")
        if self.engine:
            parts.append(f"engine={self.engine}")
        parts.append(self.reason)
        return " ".join(parts)


class Router:
    """The one routing rule (see the module docstring).

    ``software_tier`` is :func:`repro.kernels.preferred_tier` at
    construction; it selects the micro-batch crossover from
    :data:`MICROBATCH_CROSSOVER` when ``small_vertices`` is left at None.
    """

    def __init__(
        self,
        *,
        small_vertices: Optional[int] = None,
        batching: bool = True,
    ):
        self.software_tier = preferred_tier()
        self.small_vertices = (
            small_vertices
            if small_vertices is not None
            else MICROBATCH_CROSSOVER[self.software_tier]
        )
        self.batching = batching

    def route(self, request: JobRequest, graph: CSRGraph) -> RouteDecision:
        invocation = request.invocation
        key = batch_key(request, graph) if self.batching else None
        if key is not None and graph.num_vertices <= self.small_vertices:
            return RouteDecision(
                lane="batch",
                backend=invocation.backend,
                engine=None,
                reason="(pinned, batchable)" if invocation.pinned else "(small)",
                batch_key=key,
            )
        return RouteDecision(
            lane="direct",
            backend=invocation.backend,
            engine=invocation.engine,
            reason="(pinned)" if invocation.pinned else "(default)",
        )
