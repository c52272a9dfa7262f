"""Persistent worker pools shared by the parallel backend and sweep fan-out.

The PE-array analogy matters here: hardware engines exist once and tasks
stream through them, so the software pool is *persistent* too — created
on first use per worker count, reused by every later parallel call, and
reaped at interpreter exit.  Re-forking a pool per coloring would bury
millisecond-scale shard work under process start-up.

One entry point, :func:`pool_map`: run ``fn`` over ``items`` on a
``workers``-wide pool, falling back to a plain inline map when a pool
cannot help (one worker, zero/one item, or already inside a pool worker
— daemonic children cannot fork grandchildren).  The inline path is not
an optimisation detail: it is what makes ``workers=1`` a true serial
reference run, which the determinism tests compare the pooled runs
against.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from multiprocessing import resource_tracker
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from .shm import mp_context

__all__ = [
    "fans_out",
    "pool_map",
    "resolve_workers",
    "shutdown_pools",
    "usable_cpus",
]

T = TypeVar("T")
R = TypeVar("R")

_POOLS: Dict[int, object] = {}


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the host total).

    A container pinned to 2 of a host's 64 cores can only ever scale to
    2; platforms without ``os.sched_getaffinity`` fall back to the CPU
    count.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``workers`` argument: ``None`` → usable CPUs, floor 1."""
    if workers is None:
        workers = usable_cpus()
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def fans_out(workers: int, count: int) -> bool:
    """Whether :func:`pool_map` would use a pool for ``count`` items."""
    return (
        workers > 1
        and count > 1
        and not multiprocessing.current_process().daemon
    )


def _shared_pool(workers: int):
    pool = _POOLS.get(workers)
    if pool is None:
        if mp_context().get_start_method() == "fork":
            # A forked worker without a running tracker would start its
            # own on its first shared-memory attach, and that tracker
            # would unlink the parent's blocks when the worker exits.
            # Started here, every worker shares the parent's tracker.
            resource_tracker.ensure_running()
        pool = _POOLS[workers] = mp_context().Pool(processes=workers)
    return pool


def shutdown_pools() -> None:
    """Terminate every persistent pool (normally run at interpreter exit)."""
    for pool in _POOLS.values():
        try:
            pool.terminate()
            pool.join()
        except Exception:  # pragma: no cover - teardown best effort
            pass
    _POOLS.clear()


atexit.register(shutdown_pools)


def pool_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    workers: int,
) -> List[R]:
    """Map ``fn`` over ``items``, preserving item order.

    Results come back in item order regardless of completion order, so
    callers see identical output for any ``workers`` value.  ``chunksize``
    is pinned to 1: shard/sweep tasks are few and coarse, and eager
    hand-out keeps the pool busy when task costs are skewed.
    """
    items = list(items)
    if not fans_out(workers, len(items)):
        return [fn(item) for item in items]
    return _shared_pool(workers).map(fn, items, chunksize=1)
