"""Uniform experiment harness.

Each paper experiment needs some subset of: the preprocessed stand-in
graph, a BitColor simulation at some parallelism/flag setting, the CPU
model run and the GPU model run.  This module provides those as memoised
single calls so the per-figure entry points in :mod:`repro.experiments.figures`
and :mod:`repro.experiments.tables` stay declarative and cheap to combine.
"""

from __future__ import annotations

from functools import lru_cache

from ..api import color
from ..coloring.greedy import GreedyResult, greedy_coloring
from ..graph.csr import CSRGraph
from ..hw.accelerator import AcceleratorResult
from ..hw.config import OptimizationFlags
from ..obs import get_registry
from ..perfmodel.cpu import CPUModel, CPURunResult
from ..perfmodel.gpu import GPUModel, GPURunResult
from .datasets import REGISTRY, DatasetSpec, load_dataset

__all__ = [
    "get_spec",
    "get_graph",
    "run_bitcolor",
    "run_cpu",
    "run_gpu",
    "run_greedy",
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
    tier: str = "standin",
) -> AcceleratorResult:
    """Simulate BitColor on a stand-in with paper-faithful cache scaling.

    Runs ``repro.color(backend="hw")``, so the registry's resolver picks
    the engine (the batched one, whose stats equal the event engine's);
    ``tier="paper"`` runs the ~10× stand-in size tier.
    """
    spec = get_spec(key)
    with get_registry().span(
        "experiment.bitcolor", dataset=key, parallelism=parallelism, tier=tier
    ):
        graph = get_graph(key, tier=tier)
        config = spec.config_for(parallelism, graph.num_vertices)
        return color(graph, backend="hw", config=config, flags=flags)


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
