"""Process helpers for the mesh: its start method and the host's CPU count."""

from __future__ import annotations

import multiprocessing
import os

__all__ = ["mp_context", "usable_cpus"]


def mp_context():
    """The preferred multiprocessing context: ``fork`` where available.

    Fork keeps worker start-up at milliseconds; platforms without it
    (Windows, macOS default) fall back to ``spawn``.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, not the host total).

    A container pinned to 2 of a host's 64 cores can only ever scale to
    2; platforms without ``os.sched_getaffinity`` fall back to the CPU
    count.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
