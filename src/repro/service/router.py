"""Backend routing: which execution lane should a job take?

The router turns one job (plus its resolved graph) into a
:class:`RouteDecision` by one rule:

* a **pinned** job — the caller named a backend and/or engine — keeps it
  verbatim: parity with a direct :func:`repro.color` call is the
  contract, so routing never overrides an explicit choice (small pinned
  ``vectorized``/``python`` bitwise jobs may still ride a micro-batch,
  which is color-identical by construction);
* an unpinned job with at most the **per-tier micro-batch crossover**
  (:data:`MICROBATCH_CROSSOVER`) vertices goes to the micro-batch lane,
  where the batcher coalesces it with its queue neighbours into one
  kernel invocation;
* every other unpinned job runs solo on the preferred software tier
  (``"native"`` when the compiled kernels are available, else
  ``"vectorized"``).

Every lane an unpinned job can take follows the sequential greedy
order, so routing decides only *which* engine runs, never the colors.
The scenario sweep (:mod:`repro.experiments.scenario_sweep`) is the
evidence that these two lanes are the whole candidate set: on every
point of the recorded matrix the fastest parity-neutral backend is the
micro-batch lane or the software tier.  ``backend="parallel"`` and
``backend="hw"`` stay reachable by pinning.

The router also owns the **degradation ladder** the executor climbs
down when a backend keeps failing: ``parallel → vectorized → python``
(and ``hw → vectorized``, ``native → vectorized``), each rung trading
speed for a simpler, more isolated execution path that cannot be broken
by pool workers dying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..coloring.registry import get_algorithm
from ..graph.csr import CSRGraph
from .batcher import batch_key
from .jobs import JobRequest

__all__ = [
    "DEGRADATION_LADDER",
    "MICROBATCH_CROSSOVER",
    "RouteDecision",
    "Router",
    "next_rung",
    "preferred_software_tier",
]

DEGRADATION_LADDER = {
    "parallel": "vectorized",
    "hw": "vectorized",
    "native": "vectorized",
    "vectorized": "python",
}
"""``backend -> next rung`` when a backend repeatedly fails; ``python``
(absent) is the floor — the pure in-process reference loop."""

MICROBATCH_CROSSOVER = {
    "python": 256,
    "vectorized": 2048,
    "native": 512,
}
"""Micro-batch crossover (max vertices) per software kernel tier: below
it, an unpinned job is worth coalescing with queue companions; above it,
a solo kernel invocation amortises its own dispatch overhead.  Measured
on the kernel bench smoke graphs: the native tier's per-call overhead is
a fraction of NumPy dispatch, so its crossover sits ~4x lower — exactly
the tier's rationale (small jobs stop paying dispatch overhead)."""


def preferred_software_tier() -> str:
    """The software tier the router prefers for unpinned jobs.

    ``"native"`` when the compiled kernel tier's capability probe
    succeeds, else ``"vectorized"`` (detection is cached after the first
    call).
    """
    from ..kernels import preferred_tier

    return preferred_tier()


def next_rung(backend: Optional[str]) -> Optional[str]:
    """The fallback backend one rung down, or None at the floor."""
    if backend is None:
        return None
    return DEGRADATION_LADDER.get(backend)


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

    ``software_tier`` is the kernel tier unpinned software jobs run on
    (``"native"`` when available, else ``"vectorized"`` — see
    :func:`preferred_software_tier`); it also selects the micro-batch
    crossover from :data:`MICROBATCH_CROSSOVER` when ``small_vertices``
    is left at None.
    """

    def __init__(
        self,
        *,
        small_vertices: Optional[int] = None,
        batching: bool = True,
        software_tier: Optional[str] = None,
    ):
        self.software_tier = software_tier or preferred_software_tier()
        if self.software_tier not in MICROBATCH_CROSSOVER:
            raise ValueError(
                f"unknown software tier {self.software_tier!r}; "
                f"known: {', '.join(MICROBATCH_CROSSOVER)}"
            )
        self.small_vertices = (
            small_vertices
            if small_vertices is not None
            else MICROBATCH_CROSSOVER[self.software_tier]
        )
        self.batching = batching

    def route(self, request: JobRequest, graph: CSRGraph) -> RouteDecision:
        spec = get_algorithm(request.algorithm)
        pinned = request.backend is not None or request.engine is not None
        backend = request.backend or spec.default_backend
        # Unpinned jobs whose spec default is the vectorized tier ride
        # the preferred software tier instead (pinned choices are kept
        # verbatim — parity with a direct repro.color call).
        if (
            request.backend is None
            and backend == "vectorized"
            and self.software_tier in spec.backends
        ):
            backend = self.software_tier
        key = (
            batch_key(request, graph, default_backend=self.software_tier)
            if self.batching
            else None
        )
        if key is not None and graph.num_vertices <= self.small_vertices:
            reason = "(pinned, batchable)" if pinned else "(small)"
            return RouteDecision(
                lane="batch",
                backend=backend,
                engine=None,
                reason=reason,
                batch_key=key,
            )
        return RouteDecision(
            lane="direct",
            backend=backend,
            engine=request.engine,
            reason="(pinned)" if pinned else "(default)",
        )
