"""Python-vs-vectorized kernel benchmark (the ``backend`` flag, measured).

The coloring algorithms expose two backends: the reference scalar Python
loops and the packed-bitset kernel layer (:mod:`repro.kernels`).  They are
property-tested to be bit-identical, so the only question left is speed —
this module times both on the synthetic dataset suite and writes
``BENCH_kernels.json`` at the repo root.

Entry points:

* :func:`run_kernel_bench` — the full matrix (datasets × algorithms),
  driven by ``benchmarks/bench_kernels.py``;
* :func:`run_smoke` — a tiny fixed graph timed the same way; its
  recorded speedup is the baseline of the ``kernels`` row in
  :mod:`repro.experiments.gates`, which re-times it through
  :func:`run_obs_overhead_pair` so a kernel-layer regression fails fast
  in tier-1 without the cost (or flakiness) of the full suite;
* :func:`run_native_smoke` — the raw scatter-OR + first-free kernels,
  vectorized vs the optional compiled tier (:mod:`repro.kernels.native`);
  reports itself unavailable when no C compiler is present.  When a
  native backend is detected, :func:`_measure` also times the bitwise
  greedy with ``backend="native"`` and records ``native_s`` /
  ``native_speedup`` columns.

Timings are best-of-``repeats`` wall clock: the minimum is the standard
robust statistic for micro-benchmarks because noise is strictly additive.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Tuple

from ..coloring import bitwise_greedy_coloring, jones_plassmann_coloring, luby_mis
from ..graph import CSRGraph, powerlaw_cluster
from ..obs import Registry, use_registry
from .datasets import load_dataset

__all__ = [
    "ALGORITHMS",
    "DEFAULT_DATASETS",
    "run_kernel_bench",
    "run_native_smoke",
    "run_obs_overhead_pair",
    "run_smoke",
    "smoke_graph",
]

DEFAULT_DATASETS: Tuple[str, ...] = ("EF", "GD", "RC", "CL")
"""One stand-in per topology class: small social, default power-law social
(the acceptance target), road grid, R-MAT."""

ALGORITHMS: Tuple[str, ...] = ("bitwise", "jones_plassmann", "luby_mis")

SMOKE_SPEC = "powerlaw_cluster(1200, 6, 0.3, seed=7)"
"""Human-readable description of :func:`smoke_graph`, recorded in the JSON."""

NATIVE_SMOKE_SPEC = (
    "scatter-OR + first-free, 65536 updates into a 4096x4-word color state"
)
"""Human-readable description of the raw native kernel micro-benchmark."""


def _runner(algorithm: str, graph: CSRGraph, backend: str) -> Callable[[], object]:
    """A zero-argument callable running one (algorithm, backend) pair."""
    if algorithm == "bitwise":
        return lambda: bitwise_greedy_coloring(
            graph, prune_uncolored=True, backend=backend
        )
    if algorithm == "jones_plassmann":
        return lambda: jones_plassmann_coloring(graph, seed=0, backend=backend)
    if algorithm == "luby_mis":
        return lambda: luby_mis(graph, seed=0, backend=backend)
    raise ValueError(f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _measure(graph: CSRGraph, algorithm: str, repeats: int) -> Dict[str, float]:
    python_fn = _runner(algorithm, graph, "python")
    vector_fn = _runner(algorithm, graph, "vectorized")
    # Warm both paths once (first-call overheads: schedule memoisation,
    # lazy imports) so the timed runs compare steady-state kernels.
    python_fn()
    vector_fn()
    python_s = _best_of(python_fn, repeats)
    vectorized_s = _best_of(vector_fn, repeats)
    timing = {
        "python_s": python_s,
        "vectorized_s": vectorized_s,
        "speedup": python_s / vectorized_s if vectorized_s > 0 else float("inf"),
    }
    from ..kernels import native

    # Only Algorithm 2 has a native tier: Luby MIS never touches the
    # packed-bitset kernels, and Jones–Plassmann's native tier measured
    # no faster than its vectorized one.
    if native.available() and algorithm == "bitwise":
        native_fn = _runner(algorithm, graph, "native")
        native_fn()
        native_s = _best_of(native_fn, repeats)
        timing["native_s"] = native_s
        timing["native_speedup"] = (
            vectorized_s / native_s if native_s > 0 else float("inf")
        )
    return timing


def run_kernel_bench(
    datasets: Iterable[str] = DEFAULT_DATASETS,
    algorithms: Iterable[str] = ALGORITHMS,
    *,
    repeats: int = 3,
) -> Dict[str, object]:
    """Time every (dataset, algorithm) pair on both backends.

    Returns the JSON-ready result document behind ``BENCH_kernels.json``.
    """
    entries: List[Dict[str, object]] = []
    for key in datasets:
        graph = load_dataset(key, preprocessed=True)
        for algorithm in algorithms:
            timing = _measure(graph, algorithm, repeats)
            entries.append(
                {
                    "dataset": key,
                    "algorithm": algorithm,
                    "num_vertices": graph.num_vertices,
                    "num_edges": graph.num_edges,
                    **timing,
                }
            )
    from ..kernels import native

    return {
        "unit": "seconds, best of repeats",
        "repeats": repeats,
        "native_backend": native.backend_info() if native.available() else None,
        "entries": entries,
        "smoke": run_smoke(repeats=repeats),
        "native_smoke": run_native_smoke(repeats=repeats),
    }


def smoke_graph() -> CSRGraph:
    """The fixed tiny graph the smoke check times (see :data:`SMOKE_SPEC`)."""
    return powerlaw_cluster(1200, 6, 0.3, seed=7, name="smoke")


def run_smoke(*, repeats: int = 3) -> Dict[str, object]:
    """Time the bitwise backends on the smoke graph.

    The recorded ``baseline_speedup`` is the ``kernels`` gate's baseline.
    """
    timing = _measure(smoke_graph(), "bitwise", repeats)
    doc = {
        "algorithm": "bitwise",
        "graph": SMOKE_SPEC,
        "baseline_speedup": timing["speedup"],
        "python_s": timing["python_s"],
        "vectorized_s": timing["vectorized_s"],
    }
    if "native_s" in timing:
        doc["native_s"] = timing["native_s"]
        doc["native_speedup"] = timing["native_speedup"]
    return doc


def _native_workload() -> Tuple[object, object, int, int]:
    """A fixed scatter-OR workload: heavy enough that kernel time dominates.

    65536 (row, color) updates into a 4096-row, 4-word (256-color) state
    matrix — the shape the accelerator's Stage 0 sees on a mid-size graph.
    Deterministic (seeded) so both tiers chew identical bytes.
    """
    import numpy as np

    rng = np.random.default_rng(1234)
    num_rows, num_words, n_updates = 4096, 4, 65536
    rows = rng.integers(0, num_rows, size=n_updates, dtype=np.int64)
    colors = rng.integers(1, num_words * 64 + 1, size=n_updates, dtype=np.int64)
    return rows, colors, num_rows, num_words


def run_native_smoke(*, repeats: int = 3) -> Dict[str, object]:
    """Time the raw scatter-OR + first-free kernels, vectorized vs native.

    Returns ``{"available": False, "reason": ...}`` when no compiled
    backend is usable, else the timing document with ``baseline_speedup``
    (vectorized / native on the combined scatter + first-free pass) and
    the compiler backend that produced it.  Bit-identity of both kernels'
    outputs is asserted before any timing is kept.
    """
    import numpy as np

    from ..kernels import native, resolve_tier_kernels

    if not native.available():
        return {"available": False, "reason": native.unavailable_reason()}
    vec_scatter, vec_ff = resolve_tier_kernels("vectorized")
    nat_scatter, nat_ff = resolve_tier_kernels("native")
    rows, colors, num_rows, num_words = _native_workload()

    vec_states = vec_scatter(rows, colors, num_rows, num_words)
    nat_states = nat_scatter(rows, colors, num_rows, num_words)
    if not np.array_equal(vec_states, nat_states):
        raise AssertionError("native scatter-OR diverged from vectorized")
    if not np.array_equal(vec_ff(vec_states), nat_ff(nat_states)):
        raise AssertionError("native first-free diverged from vectorized")

    vec_fn = lambda: vec_ff(  # noqa: E731
        vec_scatter(rows, colors, num_rows, num_words)
    )
    nat_fn = lambda: nat_ff(  # noqa: E731
        nat_scatter(rows, colors, num_rows, num_words)
    )
    vectorized_s = _best_of(vec_fn, repeats)
    native_s = _best_of(nat_fn, repeats)
    return {
        "available": True,
        "workload": NATIVE_SMOKE_SPEC,
        "vectorized_s": vectorized_s,
        "native_s": native_s,
        "baseline_speedup": (
            vectorized_s / native_s if native_s > 0 else float("inf")
        ),
        "backend": native.backend_info(),
    }


def run_obs_overhead_pair(*, repeats: int = 5) -> Tuple[float, float]:
    """Obs-disabled ``(vectorized_s, python_s)`` smoke times, same process.

    Measuring both backends back to back gives a machine-speed-free
    ratio: host slowness shifts numerator and denominator together.
    """
    graph = smoke_graph()
    vec = _runner("bitwise", graph, "vectorized")
    py = _runner("bitwise", graph, "python")
    with use_registry(Registry(enabled=False)):
        vec()  # warm: schedule memoisation, lazy imports
        py()
        return _best_of(vec, repeats), _best_of(py, repeats)
