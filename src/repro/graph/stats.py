"""Graph statistics used by the paper's motivation study (Section 3.1).

The key quantity is the **neighbourhood overlap ratio** of Figure 3(b):
for each vertex ``v`` and an *iteration interval* ``k``, collect the
neighbour sets of the ``k`` vertices processed immediately before ``v``
(``v-1 .. v-k``) and compute

    overlap = |N(v) ∩ (N(v-1) ∪ … ∪ N(v-k))| / |N(v)|

averaged over all vertices.  The paper measures this to show color-array
reuse is tiny (≤ 10 %, average 4.96 %), which motivates the HDV cache over
a conventional temporal-locality cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .csr import CSRGraph

__all__ = [
    "DegreeStats",
    "degree_stats",
    "degree_histogram",
    "neighborhood_overlap_ratio",
    "overlap_ratio_sweep",
    "hdv_coverage",
    "gini_coefficient",
]


@dataclass(frozen=True)
class DegreeStats:
    """Summary of a graph's degree distribution."""

    num_vertices: int
    num_directed_edges: int
    min_degree: int
    max_degree: int
    mean_degree: float
    median_degree: float
    std_degree: float
    gini: float


def degree_stats(graph: CSRGraph) -> DegreeStats:
    degs = graph.degrees()
    if degs.size == 0:
        return DegreeStats(0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0)
    return DegreeStats(
        num_vertices=graph.num_vertices,
        num_directed_edges=graph.num_edges,
        min_degree=int(degs.min()),
        max_degree=int(degs.max()),
        mean_degree=float(degs.mean()),
        median_degree=float(np.median(degs)),
        std_degree=float(degs.std()),
        gini=gini_coefficient(degs),
    )


def gini_coefficient(values: np.ndarray) -> float:
    """Gini coefficient of a non-negative array — degree-skew summary.

    0 = perfectly uniform degrees (e.g. a regular grid), → 1 = extreme skew
    (e.g. a star).  Social graphs in the paper sit around 0.5–0.7.
    """
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0 or v.sum() == 0:
        return 0.0
    n = v.size
    cum = np.cumsum(v)
    return float((n + 1 - 2 * (cum / cum[-1]).sum()) / n)


def degree_histogram(graph: CSRGraph) -> np.ndarray:
    """``hist[d]`` = number of vertices with degree ``d``."""
    degs = graph.degrees()
    if degs.size == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(degs)


def neighborhood_overlap_ratio(
    graph: CSRGraph,
    interval: int,
    *,
    sample: int | None = None,
    seed: int = 0,
) -> float:
    """Average neighbourhood overlap ratio at a given iteration interval.

    Parameters
    ----------
    interval:
        How many immediately-preceding vertices contribute their neighbour
        sets (the paper's "iteration interval").
    sample:
        If set, only this many uniformly-sampled vertices are measured —
        the ratio converges quickly and full sweeps on big graphs are
        unnecessary.
    """
    if interval < 1:
        raise ValueError("interval must be >= 1")
    n = graph.num_vertices
    if n <= interval:
        return 0.0
    if sample is not None and sample < n - interval:
        gen = np.random.default_rng(seed)
        candidates = gen.choice(np.arange(interval, n), size=sample, replace=False)
    else:
        candidates = np.arange(interval, n)
    total = 0.0
    counted = 0
    for v in candidates:
        nbrs = graph.neighbors(int(v))
        if nbrs.size == 0:
            continue
        prev: List[np.ndarray] = [
            graph.neighbors(int(v) - j) for j in range(1, interval + 1)
        ]
        window = np.unique(np.concatenate(prev)) if prev else np.zeros(0, dtype=np.int64)
        if window.size == 0:
            counted += 1
            continue
        overlap = np.intersect1d(nbrs, window, assume_unique=False).size
        total += overlap / nbrs.size
        counted += 1
    return total / counted if counted else 0.0


def overlap_ratio_sweep(
    graph: CSRGraph,
    intervals: Sequence[int] = (1, 2, 4, 8, 16, 32),
    *,
    sample: int | None = 2000,
    seed: int = 0,
) -> Dict[int, float]:
    """Figure 3(b): overlap ratio for several iteration intervals."""
    return {
        k: neighborhood_overlap_ratio(graph, k, sample=sample, seed=seed)
        for k in intervals
    }


def hdv_coverage(graph: CSRGraph, v_t: int) -> float:
    """Fraction of edge endpoints that land on high-degree vertices.

    Given a DBG-reordered graph and HDV threshold ``v_t`` (vertices
    ``< v_t`` are cached on chip), this is the fraction of neighbour color
    reads that the HDV cache can serve — the paper's rationale for HDC.
    """
    if graph.num_edges == 0:
        return 0.0
    return float(np.count_nonzero(graph.edges < v_t) / graph.num_edges)
