"""Event-vs-batched accelerator engine benchmark (wall clock, measured).

The two engines of :class:`~repro.hw.accelerator.BitColorAccelerator` are
parity-tested to be exactly equal — colorings and statistics — so the
only open question is speed.  The batched engine is one native call
(:func:`repro.hw.batched.run_batched`); without a compiler it runs the
event engine, so the speedups below read ~1x on such a host.  This
module times both over the stand-in suite at the paper settings
(``flags.all()``, P=16, paper-faithful cache scaling) and writes
``BENCH_hw.json`` at the repo root.  Parity is re-asserted inside the
benchmark before any timing is kept: a fast wrong engine must fail
here, not report a speedup.

Entry points mirror :mod:`repro.experiments.kernel_bench`:

* :func:`run_hw_bench` — the full dataset matrix, driven by
  ``benchmarks/bench_hw.py``;
* :func:`run_hw_smoke` — one small fixed graph timed the same way, the
  measure of the ``hw`` row in :mod:`repro.experiments.gates` (which
  skips when the native probe fails) so an engine regression fails
  fast in CI.

Timings are best-of-``repeats`` wall clock (minimum: noise is strictly
additive in micro-benchmarks).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Tuple

import numpy as np

from ..graph import degree_based_grouping, sort_edges
from ..hw import BitColorAccelerator, HWConfig, OptimizationFlags
from .datasets import DATASET_KEYS, REGISTRY, load_dataset
from .kernel_bench import _best_of, smoke_graph

__all__ = [
    "DEFAULT_HW_DATASETS",
    "HW_FLOOR_SPEEDUP",
    "LARGEST_STANDIN",
    "run_hw_bench",
    "run_hw_smoke",
]

DEFAULT_HW_DATASETS: Tuple[str, ...] = tuple(DATASET_KEYS)
"""All ten stand-ins: the parity claim is suite-wide, so the timing is too."""

LARGEST_STANDIN = "RC"
"""The stand-in with the most vertices — the acceptance target carries a
>=10x speedup requirement there (see ISSUE/EXPERIMENTS notes)."""

HW_SMOKE_SPEC = "powerlaw_cluster(1200, 6, 0.3, seed=7), preprocessed, P=16"

HW_FLOOR_SPEEDUP = 62.0
"""The ``hw`` gate's floor on the smoke speedup (event over batched): the
product of the two rows it replaced (Python replay over event at half
its recorded ~12x, native over Python replay at 10x)."""


def _engines_for(key: str, parallelism: int):
    """(graph, event accelerator, batched accelerator) at paper settings."""
    graph = load_dataset(key, preprocessed=True)
    config = REGISTRY[key].config_for(parallelism, graph.num_vertices)
    flags = OptimizationFlags.all()
    return (
        graph,
        BitColorAccelerator(config, flags),
        BitColorAccelerator(config, flags, engine="batched"),
    )


def _assert_engine_parity(graph, event_acc, batched_acc) -> None:
    ev = event_acc.run(graph)
    ba = batched_acc.run(graph)
    if not np.array_equal(ev.colors, ba.colors):
        raise AssertionError("accelerator colors diverged (batched vs event)")
    if dataclasses.asdict(ev.stats) != dataclasses.asdict(ba.stats):
        raise AssertionError("accelerator stats diverged (batched vs event)")


def run_hw_bench(
    datasets: Iterable[str] = DEFAULT_HW_DATASETS,
    *,
    parallelism: int = 16,
    repeats: int = 3,
) -> Dict[str, object]:
    """Time both engines on every stand-in; returns the JSON-ready document.

    Each entry records the best-of-``repeats`` wall clock per engine, the
    speedup, and that exact parity held (asserted, so its presence means
    it passed).
    """
    from ..kernels import native

    entries: List[Dict[str, object]] = []
    for key in datasets:
        graph, event_acc, batched_acc = _engines_for(key, parallelism)
        _assert_engine_parity(graph, event_acc, batched_acc)  # also warms both
        event_s = _best_of(lambda: event_acc.run(graph), repeats)
        batched_s = _best_of(lambda: batched_acc.run(graph), repeats)
        entries.append({
            "dataset": key,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "event_s": event_s,
            "batched_s": batched_s,
            "speedup": event_s / batched_s if batched_s > 0 else float("inf"),
            "exact_parity": True,
        })
    return {
        "unit": "seconds, best of repeats",
        "repeats": repeats,
        "parallelism": parallelism,
        "flags": OptimizationFlags.all().label(),
        "largest_standin": LARGEST_STANDIN,
        "native_backend": native.backend_info(),
        "entries": entries,
        "smoke": run_hw_smoke(repeats=repeats),
    }


def run_hw_smoke(*, repeats: int = 3) -> Dict[str, object]:
    """Time both engines on the fixed smoke graph (see ``HW_SMOKE_SPEC``).

    ``baseline_speedup`` (event over batched) is the ``hw`` gate's measure.
    """
    graph = sort_edges(degree_based_grouping(smoke_graph()).graph)
    config = HWConfig(parallelism=16, cache_bytes=graph.num_vertices)
    flags = OptimizationFlags.all()
    event_acc = BitColorAccelerator(config, flags)
    batched_acc = BitColorAccelerator(config, flags, engine="batched")
    _assert_engine_parity(graph, event_acc, batched_acc)  # also warms both
    event_s = _best_of(lambda: event_acc.run(graph), repeats)
    batched_s = _best_of(lambda: batched_acc.run(graph), repeats)
    return {
        "graph": HW_SMOKE_SPEC,
        "event_s": event_s,
        "batched_s": batched_s,
        "baseline_speedup": event_s / batched_s if batched_s > 0 else float("inf"),
    }
