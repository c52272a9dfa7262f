"""Event-vs-batched accelerator engine benchmark (wall clock, measured).

The two engines of :class:`~repro.hw.accelerator.BitColorAccelerator` are
parity-tested to be exactly equal — colorings, statistics, traces — so
the only open question is speed.  This module times both over the
stand-in suite at the paper settings (``flags.all()``, P=16,
paper-faithful cache scaling) and writes ``BENCH_hw.json`` at the repo
root.  Parity is re-asserted inside the benchmark before any timing is
kept: a fast wrong engine must fail here, not report a speedup.

Entry points mirror :mod:`repro.experiments.kernel_bench`:

* :func:`run_hw_bench` — the full dataset matrix, driven by
  ``benchmarks/bench_hw.py``;
* :func:`run_hw_smoke` — one small fixed graph timed the same way, the
  measure of the ``hw`` row in :mod:`repro.experiments.gates` so an
  engine regression fails fast in CI;
* :func:`run_hw_native_smoke` — the batched engine's Python replay vs
  the optional compiled replay (:mod:`repro.kernels.native`), the
  ``native-replay`` row; reports itself unavailable when no backend is
  usable.
  The event-vs-batched baseline itself is pinned to ``replay="python"``
  so its recorded numbers compare the same code paths on every host.

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
    "LARGEST_STANDIN",
    "run_hw_bench",
    "run_hw_native_smoke",
    "run_hw_smoke",
]

DEFAULT_HW_DATASETS: Tuple[str, ...] = tuple(DATASET_KEYS)
"""All ten stand-ins: the parity claim is suite-wide, so the timing is too."""

LARGEST_STANDIN = "RC"
"""The stand-in with the most vertices — the acceptance target carries a
>=10x speedup requirement there (see ISSUE/EXPERIMENTS notes)."""

HW_SMOKE_SPEC = "powerlaw_cluster(1200, 6, 0.3, seed=7), preprocessed, P=16"

def _engines_for(key: str, parallelism: int):
    """(graph, event accelerator, batched accelerator) at paper settings.

    The batched engine is pinned to ``replay="python"`` so the recorded
    event-vs-batched baseline means the same thing on every host,
    with or without a compiler; the native replay is timed separately.
    """
    graph = load_dataset(key, preprocessed=True)
    config = REGISTRY[key].config_for(parallelism, graph.num_vertices)
    flags = OptimizationFlags.all()
    return (
        graph,
        BitColorAccelerator(config, flags),
        BitColorAccelerator(config, flags, engine="batched", replay="python"),
    )


def _assert_engine_parity(graph, reference_acc, candidate_acc) -> None:
    ev = reference_acc.run(graph)
    ba = candidate_acc.run(graph)
    what = (
        f"{candidate_acc.engine}/{candidate_acc.replay} vs "
        f"{reference_acc.engine}/{reference_acc.replay}"
    )
    if not np.array_equal(ev.colors, ba.colors):
        raise AssertionError(f"accelerator colors diverged ({what})")
    if dataclasses.asdict(ev.stats) != dataclasses.asdict(ba.stats):
        raise AssertionError(f"accelerator stats diverged ({what})")


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

    use_native = native.available()
    entries: List[Dict[str, object]] = []
    for key in datasets:
        graph, event_acc, batched_acc = _engines_for(key, parallelism)
        _assert_engine_parity(graph, event_acc, batched_acc)  # also warms both
        event_s = _best_of(lambda: event_acc.run(graph), repeats)
        batched_s = _best_of(lambda: batched_acc.run(graph), repeats)
        entry = {
            "dataset": key,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "event_s": event_s,
            "batched_s": batched_s,
            "speedup": event_s / batched_s if batched_s > 0 else float("inf"),
            "exact_parity": True,
        }
        if use_native:
            native_acc = BitColorAccelerator(
                batched_acc.config, batched_acc.flags,
                engine="batched", replay="native",
            )
            _assert_engine_parity(graph, batched_acc, native_acc)
            native_s = _best_of(lambda: native_acc.run(graph), repeats)
            entry["native_s"] = native_s
            entry["native_speedup"] = (
                batched_s / native_s if native_s > 0 else float("inf")
            )
        entries.append(entry)
    return {
        "unit": "seconds, best of repeats",
        "repeats": repeats,
        "parallelism": parallelism,
        "flags": OptimizationFlags.all().label(),
        "largest_standin": LARGEST_STANDIN,
        "native_backend": native.backend_info() if use_native else None,
        "entries": entries,
        "smoke": run_hw_smoke(repeats=repeats),
        "native_smoke": run_hw_native_smoke(repeats=repeats),
    }


def run_hw_smoke(*, repeats: int = 3) -> Dict[str, object]:
    """Time both engines on the fixed smoke graph (see ``HW_SMOKE_SPEC``).

    The recorded ``baseline_speedup`` is the ``hw`` gate's baseline.
    """
    graph = sort_edges(degree_based_grouping(smoke_graph()).graph)
    config = HWConfig(parallelism=16, cache_bytes=graph.num_vertices)
    flags = OptimizationFlags.all()
    event_acc = BitColorAccelerator(config, flags)
    # Python replay, pinned: the recorded baseline must compare the same
    # two code paths on every host, with or without a compiler.
    batched_acc = BitColorAccelerator(
        config, flags, engine="batched", replay="python"
    )
    _assert_engine_parity(graph, event_acc, batched_acc)  # also warms both
    event_s = _best_of(lambda: event_acc.run(graph), repeats)
    batched_s = _best_of(lambda: batched_acc.run(graph), repeats)
    return {
        "graph": HW_SMOKE_SPEC,
        "event_s": event_s,
        "batched_s": batched_s,
        "baseline_speedup": event_s / batched_s if batched_s > 0 else float("inf"),
    }


def run_hw_native_smoke(*, repeats: int = 3) -> Dict[str, object]:
    """Time the batched engine's Python vs native replay on the smoke graph.

    Returns ``{"available": False, "reason": ...}`` when no compiled
    backend is usable, else the timing document with ``baseline_speedup``
    (python replay / native replay, whole batched run) and the compiler
    backend.  Exact parity — colors and every
    :class:`~repro.hw.accelerator.AcceleratorStats` field — is asserted
    before any timing is kept.
    """
    from ..kernels import native

    if not native.available():
        return {"available": False, "reason": native.unavailable_reason()}
    graph = sort_edges(degree_based_grouping(smoke_graph()).graph)
    config = HWConfig(parallelism=16, cache_bytes=graph.num_vertices)
    flags = OptimizationFlags.all()
    python_acc = BitColorAccelerator(
        config, flags, engine="batched", replay="python"
    )
    native_acc = BitColorAccelerator(
        config, flags, engine="batched", replay="native"
    )
    _assert_engine_parity(graph, python_acc, native_acc)  # also warms both
    python_s = _best_of(lambda: python_acc.run(graph), repeats)
    native_s = _best_of(lambda: native_acc.run(graph), repeats)
    return {
        "available": True,
        "graph": HW_SMOKE_SPEC,
        "python_replay_s": python_s,
        "native_replay_s": native_s,
        "baseline_speedup": python_s / native_s if native_s > 0 else float("inf"),
        "backend": native.backend_info(),
    }
