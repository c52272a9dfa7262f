"""Uniform experiment harness.

Each paper experiment needs some subset of: the preprocessed stand-in
graph, a BitColor simulation at some parallelism/flag setting, the CPU
model run and the GPU model run.  This module provides those as memoised
single calls so the per-figure entry points in :mod:`repro.experiments.figures`
and :mod:`repro.experiments.tables` stay declarative and cheap to combine.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from ..coloring.greedy import GreedyResult, greedy_coloring
from ..graph.csr import CSRGraph
from ..hw.accelerator import AcceleratorResult, BitColorAccelerator
from ..hw.config import HWConfig, OptimizationFlags
from ..obs import Registry, get_registry, use_registry
from ..perfmodel.cpu import CPUModel, CPURunResult
from ..perfmodel.gpu import GPUModel, GPURunResult
from .datasets import REGISTRY, DatasetSpec, load_dataset

__all__ = [
    "SweepRun",
    "get_spec",
    "get_graph",
    "run_bitcolor",
    "run_cpu",
    "run_gpu",
    "run_greedy",
    "run_sweep",
]


def get_spec(key: str) -> DatasetSpec:
    try:
        return REGISTRY[key]
    except KeyError:
        raise KeyError(f"unknown dataset {key!r}") from None


def get_graph(key: str, *, preprocessed: bool = True, tier: str = "standin") -> CSRGraph:
    with get_registry().span(
        "experiment.load_graph", dataset=key, preprocessed=preprocessed, tier=tier
    ) as sp:
        graph = load_dataset(key, preprocessed=preprocessed, tier=tier)
        sp.set(vertices=graph.num_vertices, edges=graph.num_edges)
    return graph


@lru_cache(maxsize=None)
def run_bitcolor(
    key: str,
    parallelism: int = 16,
    flags: OptimizationFlags = OptimizationFlags.all(),
    engine: str = "event",
    tier: str = "standin",
) -> AcceleratorResult:
    """Simulate BitColor on a stand-in with paper-faithful cache scaling.

    ``engine="batched"`` routes through the epoch-vectorized fast path
    (identical results); ``tier="paper"`` runs the ~10× stand-in size
    tier, which is only practical together with the batched engine.
    """
    spec = get_spec(key)
    with get_registry().span(
        "experiment.bitcolor", dataset=key, parallelism=parallelism,
        engine=engine, tier=tier,
    ):
        graph = get_graph(key, tier=tier)
        config = spec.config_for(parallelism, graph.num_vertices)
        return BitColorAccelerator(config, flags, engine=engine).run(graph)


@lru_cache(maxsize=None)
def run_greedy(
    key: str, *, preprocessed: bool = True, clear_mode: str = "touched"
) -> GreedyResult:
    """Sequential Algorithm 1 with counters on a stand-in."""
    with get_registry().span(
        "experiment.greedy", dataset=key, clear_mode=clear_mode
    ):
        return greedy_coloring(
            get_graph(key, preprocessed=preprocessed), clear_mode=clear_mode
        )


@lru_cache(maxsize=None)
def run_cpu(key: str) -> CPURunResult:
    """CPU-model run (Algorithm 1 work converted to Xeon time).

    Uses the paper-literal flag clear (Algorithm 1 lines 17–19) and
    prices memory at the paper graph's scale — see CPUModel.run.
    """
    with get_registry().span("experiment.cpu", dataset=key):
        return CPUModel().run(
            get_graph(key),
            greedy=run_greedy(key, clear_mode="paper"),
            color_array_vertices=get_spec(key).paper_nodes,
        )


@lru_cache(maxsize=None)
def run_gpu(key: str, seed: int = 0) -> GPURunResult:
    """GPU-model run (Jones–Plassmann work converted to Titan V time)."""
    with get_registry().span("experiment.gpu", dataset=key, seed=seed):
        return GPUModel().run(get_graph(key), seed=seed)


# ----------------------------------------------------------------------
# Dataset × algorithm sweeps over the shared process pool
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepRun:
    """One (dataset, algorithm) cell of a sweep."""

    dataset: str
    algorithm: str
    backend: Optional[str]
    n_colors: int
    seconds: float


def _sweep_task(task: Tuple) -> Tuple[str, str, Optional[str], int, float, Optional[dict]]:
    """Pool-side entry: load the dataset (memoised per worker) and color it.

    Datasets are synthetic and regenerate from their registry seeds, so
    each worker materialises its own copy via the ``lru_cache`` on
    :func:`load_dataset` — no graph crosses the process boundary.
    """
    from .. import color as repro_color
    from ..coloring.registry import get_algorithm, resolve

    key, algorithm, seed, preprocessed, obs_enabled = task
    spec = get_algorithm(algorithm)
    opts = {}
    if spec.supports_seed:
        opts["seed"] = seed
    backend = resolve(algorithm).backend
    reg = Registry() if obs_enabled else None
    scope = use_registry(reg) if reg is not None else nullcontext()
    start = time.perf_counter()
    with scope:
        out = repro_color(
            load_dataset(key, preprocessed=preprocessed), algorithm, **opts
        )
    seconds = time.perf_counter() - start
    snapshot = reg.snapshot() if reg is not None else None
    return key, algorithm, backend, int(out.n_colors), seconds, snapshot


def run_sweep(
    datasets: Sequence[str],
    algorithms: Sequence[str],
    *,
    workers: Optional[int] = None,
    seed: int = 0,
    preprocessed: bool = True,
) -> List[SweepRun]:
    """Color every dataset with every algorithm, fanned over the shared pool.

    The cell list is the Cartesian product in ``(dataset, algorithm)``
    order, and results come back in that same order for any ``workers``
    value (:func:`repro.parallel.pool.pool_map` preserves item order).
    Per-cell spans and counters recorded in workers are merged into the
    ambient registry, stamped with ``dataset=``/``algorithm=`` so the
    flat artifact stays attributable.
    """
    from ..parallel.pool import pool_map, resolve_workers

    for key in datasets:
        get_spec(key)  # fail fast on typos before forking anything
    reg = get_registry()
    workers = resolve_workers(workers)
    tasks = [
        (key, algorithm, seed, preprocessed, reg.enabled)
        for key in datasets
        for algorithm in algorithms
    ]
    with reg.span(
        "experiment.sweep",
        datasets=len(datasets),
        algorithms=len(algorithms),
        workers=workers,
    ):
        rows = pool_map(_sweep_task, tasks, workers)
        runs = []
        for key, algorithm, backend, n_colors, seconds, snapshot in rows:
            if snapshot is not None:
                reg.merge_snapshot(snapshot, dataset=key, algorithm=algorithm)
            runs.append(
                SweepRun(
                    dataset=key,
                    algorithm=algorithm,
                    backend=backend,
                    n_colors=n_colors,
                    seconds=seconds,
                )
            )
    return runs
