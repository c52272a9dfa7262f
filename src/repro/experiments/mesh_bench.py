"""Mesh throughput benchmark — N worker processes vs one (wall clock).

The mesh (:mod:`repro.service.mesh`) runs N full coloring services as
separate processes behind a consistent-hash router, which is the only
way past the single process's GIL-bound dispatch loop.  Whether that
actually buys throughput is host-dependent — on a 1-CPU container the
extra processes just time-slice — so this module measures it: the same
closed-loop fleet of small jobs pushed through meshes of 1, 2, and 4
workers, best-of-repeats, written to ``BENCH_mesh.json`` at the repo
root with ``host_cpus`` recorded alongside (the same honesty rule as
the kernel bench's worker-scaling block).

Before any timing is kept, byte parity with direct ``repro.color`` is
asserted across **all ten** registry stand-ins, for unpinned jobs and for
jobs pinned to ``backend="parallel"`` — both forward to one worker.

Entry points mirror :mod:`repro.experiments.service_bench`:

* :func:`run_mesh_bench` — the worker-count sweep, driven by
  ``benchmarks/bench_mesh.py``;
* :func:`run_mesh_smoke` — the fixed 2-vs-1-worker workload behind the
  ``mesh`` row of :mod:`repro.experiments.gates`, an absolute floor
  (the failure mode is the mesh silently serializing, which reads as
  ~1x on any host).  The row **skips with** :func:`mesh_skip_reason` on
  hosts with fewer than :data:`MESH_SMOKE_MIN_CPUS` usable CPUs, where
  process scaling is not measurable.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..graph import erdos_renyi
from ..obs import Registry
from .datasets import DATASET_KEYS, load_dataset
from ..parallel.pool import usable_cpus
from .kernel_bench import _best_of

__all__ = [
    "MESH_SCALING_FLOOR",
    "MESH_SMOKE_MIN_CPUS",
    "MESH_SMOKE_SPEC",
    "mesh_skip_reason",
    "run_mesh_bench",
    "run_mesh_parity",
    "run_mesh_smoke",
]

MESH_SMOKE_SPEC = (
    "64 x erdos_renyi(~120, p=0.08), closed loop via 16 client threads, "
    "workers 1 vs 2 (executors=2 each, caching off)"
)

_SMOKE_JOBS = 64
_CLIENT_THREADS = 16
MESH_SCALING_FLOOR = 1.3
"""The ``mesh`` row's floor: 2 workers must beat 1 by this much on
multi-CPU hosts."""

MESH_SMOKE_MIN_CPUS = 4
"""Usable CPUs the ``mesh`` row needs: the 2-worker measurement keeps
four processes busy at once (client, router and two workers), so on
fewer cores the workers time-slice and scaling cannot show."""


def mesh_skip_reason() -> Optional[str]:
    """Why mesh scaling cannot be measured on this host; None when it can."""
    host_cpus = usable_cpus()
    if host_cpus >= MESH_SMOKE_MIN_CPUS:
        return None
    return (
        f"{host_cpus} usable CPU(s), need {MESH_SMOKE_MIN_CPUS}: client, "
        "router and two workers would time-slice the cores, so the "
        f"workers=2 >= {MESH_SCALING_FLOOR}x workers=1 floor is not "
        "measurable here"
    )


def _mesh_fleet(count: int) -> List:
    """Distinct small graphs — distinct fingerprints spread them over
    the hash ring, and caching is off so every job pays a kernel run."""
    return [
        erdos_renyi(100 + 7 * (i % 11), 0.08, seed=900 + i, name=f"mesh{i}")
        for i in range(count)
    ]


def _build_mesh(workers: int, *, queue_depth: int = 512):
    from ..service import ColoringMesh, MeshConfig, ServiceConfig

    return ColoringMesh(
        MeshConfig(
            workers=workers,
            service=ServiceConfig(
                executors=2,
                cache_capacity=0,
                max_queue_depth=queue_depth,
                registry=Registry(enabled=False),
            ),
            health_interval_s=0.25,
        )
    )


def _closed_loop_mesh_s(graphs, *, workers: int) -> float:
    """Push every graph through a fresh N-worker mesh; seconds.

    Closed loop like the service bench: all jobs submitted up front from
    a pool of client threads, clock stops when the last completes.  Mesh
    construction (process spawn) happens before the clock starts — the
    sweep measures steady-state throughput, not cold start.
    """
    from concurrent.futures import ThreadPoolExecutor

    mesh = _build_mesh(workers, queue_depth=max(4 * len(graphs), 64))
    try:
        # Warm each worker's kernels/route before the timed pass.
        for g in graphs[: 2 * workers]:
            mesh.color(g, retries=64)
        with ThreadPoolExecutor(max_workers=_CLIENT_THREADS) as pool:
            start = time.perf_counter()
            futures = [
                pool.submit(mesh.color, g, retries=64) for g in graphs
            ]
            for f in futures:
                f.result()
            elapsed = time.perf_counter() - start
    finally:
        mesh.close()
    return elapsed


def run_mesh_parity() -> Dict[str, object]:
    """Assert mesh colors equal direct ``repro.color`` on every stand-in.

    One 2-worker mesh, all ten registry stand-ins, byte-exact:

    * **unpinned** dataset jobs hashed to one worker must equal plain
      ``repro.color(graph)``;
    * inline graphs **pinned to** ``backend="parallel"`` forward the
      same way and must equal ``repro.color(graph, "bitwise",
      backend="parallel")`` — the worker runs the shards inline, and the
      colors never depend on how many processes ran them.

    Any mismatch raises.
    """
    from .. import color as direct_color

    checked: List[str] = []
    with _build_mesh(2) as mesh:
        for key in DATASET_KEYS:
            graph = load_dataset(key, preprocessed=True)
            served = mesh.color(dataset=key, retries=64)
            if not np.array_equal(served.colors, direct_color(graph).colors):
                raise AssertionError(
                    f"mesh colors of an unpinned job diverged from direct "
                    f"repro.color on {key}"
                )
            expected = direct_color(graph, "bitwise", backend="parallel")
            served = mesh.color(graph, backend="parallel", retries=64)
            if not np.array_equal(served.colors, expected.colors):
                raise AssertionError(
                    f"mesh colors of a parallel pin diverged from direct "
                    f"repro.color on {key}"
                )
            checked.append(key)
    return {
        "datasets": checked,
        "forward_path_exact": True,
        "parallel_pin_exact": True,
    }


def run_mesh_bench(
    worker_counts: Iterable[int] = (1, 2, 4),
    *,
    fleet: int = _SMOKE_JOBS,
    repeats: int = 3,
) -> Dict[str, object]:
    """Time the closed-loop fleet behind 1/2/4-worker meshes.

    Parity across all stand-ins is asserted before any timing is kept.
    ``host_cpus`` is recorded because worker counts beyond the physical
    core count cannot help — on a 1-CPU host every multi-worker entry
    measures pure routing overhead, and the scaling gate records itself
    as skipped rather than asserting a floor the host cannot meet.
    """
    host_cpus = usable_cpus()
    parity = run_mesh_parity()
    graphs = _mesh_fleet(fleet)
    entries: List[Dict[str, object]] = []
    for n in worker_counts:
        seconds = _best_of(
            lambda n=n: _closed_loop_mesh_s(graphs, workers=n), repeats
        )
        entries.append(
            {
                "workers": n,
                "seconds": seconds,
                "jobs_per_s": fleet / seconds if seconds else 0.0,
            }
        )
    base_s = float(entries[0]["seconds"])
    for e in entries:
        e["scaling_vs_1"] = base_s / float(e["seconds"]) if e["seconds"] else 0.0
    reason = mesh_skip_reason()
    scaling_gate: Dict[str, object] = {"skipped": reason is not None}
    if reason is not None:
        scaling_gate["reason"] = reason
    scaling_gate["floor"] = MESH_SCALING_FLOOR
    return {
        "unit": "seconds, best of repeats (closed-loop fleet wall clock)",
        "repeats": repeats,
        "fleet": fleet,
        "client_threads": _CLIENT_THREADS,
        "host_cpus": host_cpus,
        "parity": parity,
        "entries": entries,
        "scaling_gate": scaling_gate,
        "smoke": run_mesh_smoke(repeats=repeats),
    }


def run_mesh_smoke(*, repeats: int = 3) -> Dict[str, object]:
    """The fixed 2-vs-1-worker workload (see ``MESH_SMOKE_SPEC``).

    ``baseline_speedup`` is workers=2 over workers=1 throughput.
    """
    graphs = _mesh_fleet(_SMOKE_JOBS)
    one_s = _best_of(lambda: _closed_loop_mesh_s(graphs, workers=1), repeats)
    two_s = _best_of(lambda: _closed_loop_mesh_s(graphs, workers=2), repeats)
    return {
        "workload": MESH_SMOKE_SPEC,
        "jobs": _SMOKE_JOBS,
        "workers1_s": one_s,
        "workers2_s": two_s,
        "host_cpus": usable_cpus(),
        "baseline_speedup": one_s / two_s if two_s > 0 else float("inf"),
    }
