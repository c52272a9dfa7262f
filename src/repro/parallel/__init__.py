"""Process helpers for the mesh, in :mod:`repro.parallel.shm`.

* :func:`mp_context` — the start method of the mesh's worker processes;
* :func:`usable_cpus` — the affinity mask, not the host total, behind
  the mesh gate's skip reason and the recorded host size.

Coloring itself is single-process: every backend colors in the
sequential greedy order, so colors never depend on how a job ran.
"""

from .shm import mp_context, usable_cpus

__all__ = [
    "mp_context",
    "usable_cpus",
]
