"""GraphWorld-style scenario sweep: generator parameter space → backend matrix.

GraphWorld's insight (PAPERS.md) is that benchmarking on a handful of
named datasets samples a few isolated points of graph space, while the
quantity that actually decides which engine wins — degree skew, density,
community structure, size — varies *continuously*.  This module samples
that space with one parameterised generator and times **every fast
backend** at each sampled point, producing the versioned results table
that shows which lanes the router ever needs
(:mod:`repro.experiments.router_bench`).

The four axes:

* ``size`` — vertex count (the latency scale);
* ``skew`` — the RMAT home-quadrant probability ``a`` (``0.25`` =
  uniform/ER-like, ``0.6`` = heavy power-law tail);
* ``community`` — fraction of edges planted inside √n-sized
  communities (the planted-partition strength knob);
* ``density`` — target mean degree.

Each point records the *measured* :class:`GraphFeatures` (not the
nominal knobs — the knobs are sampling coordinates, the features are
the shape the graph actually has), per-backend best-of-repeats wall
clock, per-backend obs counters, and the coloring width.  Backends in
:data:`PARITY_NEUTRAL_BACKENDS` must produce **byte-identical**
colorings at every point (a fast wrong backend must fail the sweep, not
skew the record); the ``parallel`` backend is
deterministic but may legally settle on a different proper coloring
(its contract is identity across worker counts, not identity with the
sequential order), so it is instead verified for properness and its
width recorded separately in ``n_colors_by_backend``.

Besides scoring the routing rule, the table is an optimization roadmap:
:func:`slow_regions` flags parameter regions where **every** backend is
slow relative to the sweep-wide per-edge cost — the points no routing
decision can save, i.e. the next kernel-work targets.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..coloring.verify import assert_proper_coloring
from ..graph.csr import CSRGraph
from ..obs import Registry, use_registry
from ..parallel.pool import usable_cpus

__all__ = [
    "FULL_AXES",
    "GraphFeatures",
    "MICROBATCH_MAX_VERTICES",
    "MINI_AXES",
    "PARITY_NEUTRAL_BACKENDS",
    "SWEEP_TABLE_VERSION",
    "default_backends",
    "load_sweep_table",
    "run_scenario_sweep",
    "scenario_graph",
    "slow_regions",
    "sweep_report",
    "write_sweep_table",
]

SWEEP_TABLE_VERSION = 1
"""Bump when the table layout changes; fitters reject other versions."""

FULL_AXES: Dict[str, Tuple] = {
    "sizes": (512, 2048, 8192, 65536),
    "skews": (0.3, 0.45, 0.6),
    "communities": (0.0, 0.6),
    "densities": (4, 12),
}
"""The default 48-point grid behind ``BENCH_router.json``.  The size
axis reaches past 50k vertices, where graphs are large enough that a
sharded or accelerator lane could in principle pay off."""

MINI_AXES: Dict[str, Tuple] = {
    "sizes": (256, 1024),
    "skews": (0.3, 0.6),
    "communities": (0.0,),
    "densities": (4, 8),
}
"""The 2×2×2 CI grid (``repro sweep --mini``): seconds, not minutes."""

MICROBATCH_MAX_VERTICES = 4096
"""The ``microbatch`` pseudo-backend is only measured at or below this
size — above it no crossover constant would ever batch."""

_MICROBATCH_COMPANIONS = 8
"""Union width the microbatch measurement assumes: per-job latency is
one coalesced run of this many same-shape jobs, divided out."""


PARITY_NEUTRAL_BACKENDS: Tuple[str, ...] = (
    "python",
    "vectorized",
    "native",
    "hw",
    "microbatch",
)
"""Backends that reproduce the sequential bitwise greedy byte-exactly.

``parallel`` is deliberately absent: its determinism contract is
*across worker counts* — boundary repair may legally settle on a
different (equally proper) coloring than the sequential order, which is
why the router never sends an unpinned job there."""


@dataclass(frozen=True)
class GraphFeatures:
    """The measured shape of one sweep graph."""

    num_vertices: int
    num_edges: int
    """Directed edge slots (each undirected edge counted twice), matching
    :attr:`repro.graph.csr.CSRGraph.num_edges`."""
    max_degree: int
    mean_degree: float
    degree_skew: float
    """Max-to-mean degree ratio (0 for edgeless graphs)."""
    density: float
    """``mean_degree / (num_vertices - 1)``: fraction of possible
    neighbours the average vertex actually has (0 for trivial graphs)."""

    @classmethod
    def compute(cls, graph: CSRGraph) -> "GraphFeatures":
        n = graph.num_vertices
        m = graph.num_edges
        if n == 0 or m == 0:
            return cls(n, m, 0, 0.0, 0.0, 0.0)
        mean = m / n
        return cls(
            num_vertices=n,
            num_edges=m,
            max_degree=graph.max_degree(),
            mean_degree=mean,
            degree_skew=graph.max_degree() / mean,
            density=mean / (n - 1) if n > 1 else 0.0,
        )

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


# ----------------------------------------------------------------------
# The parameterised generator
# ----------------------------------------------------------------------
def scenario_graph(
    size: int,
    skew: float,
    community: float,
    density: float,
    *,
    seed: int = 0,
    name: Optional[str] = None,
) -> CSRGraph:
    """One sampled point of graph space, deterministic given the knobs.

    Edges are a mixture: ``community`` of them are planted inside
    √n-sized communities, the rest follow an RMAT quadrant walk with
    home-quadrant probability ``skew`` (the remaining mass split evenly,
    so ``skew = 0.25`` degenerates to a uniform random graph).  Target
    edge count is ``size * density / 2`` undirected pairs; duplicates
    and self-loops are canonicalised away by the CSR constructor, so the
    realised density lands slightly below the knob — which is why the
    sweep records measured features, not nominal ones.
    """
    if size < 2:
        raise ValueError("size must be >= 2")
    if not 0.25 <= skew <= 0.95:
        raise ValueError("skew (RMAT home-quadrant probability) must be in [0.25, 0.95]")
    if not 0.0 <= community <= 1.0:
        raise ValueError("community must be in [0, 1]")
    if density <= 0:
        raise ValueError("density must be positive")
    gen = np.random.default_rng(
        np.random.SeedSequence([seed, size, int(skew * 1000),
                                int(community * 1000), int(density * 1000)])
    )
    m = max(1, int(size * density / 2))
    m_comm = int(round(m * community))
    m_skew = m - m_comm
    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    if m_skew:
        # RMAT quadrant walk over the next power of two, folded onto
        # [0, size) — preserves the heavy tail for any vertex count.
        scale = max(1, int(np.ceil(np.log2(size))))
        rest = (1.0 - skew) / 3.0
        a, b, c = skew, rest, rest
        src = np.zeros(m_skew, dtype=np.int64)
        dst = np.zeros(m_skew, dtype=np.int64)
        for level in range(scale):
            r = gen.random(m_skew)
            bit = np.int64(1 << (scale - 1 - level))
            go_right = ((r >= a) & (r < a + b)) | (r >= a + b + c)
            go_down = r >= a + b
            src += bit * go_down.astype(np.int64)
            dst += bit * go_right.astype(np.int64)
        src_parts.append(src % size)
        dst_parts.append(dst % size)
    if m_comm:
        csize = max(4, int(np.sqrt(size)))
        u = gen.integers(0, size, size=m_comm)
        base = (u // csize) * csize
        w = base + gen.integers(0, csize, size=m_comm)
        src_parts.append(u)
        dst_parts.append(np.minimum(w, size - 1))
    return CSRGraph.from_arrays(
        size,
        np.concatenate(src_parts),
        np.concatenate(dst_parts),
        name=name
        or f"scenario[n={size},a={skew},c={community},d={density},s={seed}]",
    )


# ----------------------------------------------------------------------
# Backend measurement
# ----------------------------------------------------------------------
def default_backends() -> Tuple[str, ...]:
    """Every fast lane the router can pick on this host.

    ``native`` joins when the compiled tier's capability probe succeeds;
    ``microbatch`` is the coalesced batch lane measured per job at the
    software tier (see :data:`MICROBATCH_MAX_VERTICES`).
    """
    from ..kernels import preferred_tier

    backends = ["vectorized"]
    if preferred_tier() == "native":
        backends.append("native")
    backends.extend(["parallel", "hw", "microbatch"])
    return tuple(backends)


def _software_tier(backends: Sequence[str]) -> str:
    return "native" if "native" in backends else "vectorized"


def _run_backend(graph: CSRGraph, backend: str, tier: str) -> np.ndarray:
    """One coloring on ``backend``; returns the color array."""
    from ..api import color as repro_color
    from ..service.batcher import run_microbatch

    if backend == "microbatch":
        results = run_microbatch(
            [graph] * _MICROBATCH_COMPANIONS, ("bitwise", tier, ())
        )
        return np.asarray(results[0][0])
    if backend == "hw":
        return np.asarray(
            repro_color(graph, "bitwise", backend="hw", engine="batched").colors
        )
    return np.asarray(repro_color(graph, "bitwise", backend=backend).colors)


def _time_backend(
    graph: CSRGraph, backend: str, tier: str, repeats: int
) -> Tuple[float, np.ndarray]:
    """Best-of-``repeats`` seconds (per job) and the color array."""
    best = float("inf")
    colors = np.zeros(graph.num_vertices, dtype=np.int64)
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        colors = _run_backend(graph, backend, tier)
        seconds = time.perf_counter() - start
        best = min(best, seconds)
    if backend == "microbatch":
        best /= _MICROBATCH_COMPANIONS
    return best, colors


def _counters_for(graph: CSRGraph, backend: str, tier: str) -> Dict[str, float]:
    """Obs counters of one instrumented (untimed) run."""
    reg = Registry()
    with use_registry(reg):
        _run_backend(graph, backend, tier)
    return {k: v for k, v in sorted(reg.counters.items())}


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def run_scenario_sweep(
    *,
    sizes: Sequence[int] = FULL_AXES["sizes"],
    skews: Sequence[float] = FULL_AXES["skews"],
    communities: Sequence[float] = FULL_AXES["communities"],
    densities: Sequence[float] = FULL_AXES["densities"],
    backends: Optional[Sequence[str]] = None,
    repeats: int = 2,
    seed: int = 0,
    obs_counters: bool = True,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Time every backend over the scenario grid; returns the table.

    Points are the Cartesian product of the four axes in
    ``(size, skew, community, density)`` order.  Per point, every
    parity-neutral backend's coloring is asserted byte-identical before
    its timing is kept — a fast wrong backend must fail the sweep, not
    skew the record.  Parity-divergent backends (``parallel``) are instead
    checked for properness; their widths land in ``n_colors_by_backend``.
    """
    backends = tuple(backends) if backends is not None else default_backends()
    tier = _software_tier(backends)
    points: List[Dict[str, object]] = []
    grid = [
        (size, skew, comm, dens)
        for size in sizes
        for skew in skews
        for comm in communities
        for dens in densities
    ]
    for i, (size, skew, comm, dens) in enumerate(grid):
        graph = scenario_graph(size, skew, comm, dens, seed=seed)
        features = GraphFeatures.compute(graph)
        seconds: Dict[str, float] = {}
        counters: Dict[str, Dict[str, float]] = {}
        n_colors_by_backend: Dict[str, int] = {}
        reference: Optional[np.ndarray] = None
        for backend in backends:
            if backend == "microbatch" and size > MICROBATCH_MAX_VERTICES:
                continue
            best, colors = _time_backend(graph, backend, tier, repeats)
            n_colors_by_backend[backend] = int(
                np.unique(colors[colors != 0]).size
            )
            if backend in PARITY_NEUTRAL_BACKENDS:
                if reference is None:
                    reference = colors
                elif not np.array_equal(colors, reference):
                    raise AssertionError(
                        f"backend {backend!r} diverged from the parity-neutral "
                        f"reference coloring on {graph.name} — parity broken"
                    )
            else:
                assert_proper_coloring(graph, colors)
            seconds[backend] = best
            if obs_counters:
                counters[backend] = _counters_for(graph, backend, tier)
        fastest = min(seconds, key=seconds.get)
        n_colors = int(
            np.unique(reference[reference != 0]).size
        ) if reference is not None else 0
        points.append(
            {
                "params": {
                    "size": int(size),
                    "skew": float(skew),
                    "community": float(comm),
                    "density": float(dens),
                    "seed": int(seed),
                },
                "features": features.as_dict(),
                "seconds": seconds,
                "counters": counters,
                "n_colors": n_colors,
                "n_colors_by_backend": n_colors_by_backend,
                "fastest": fastest,
            }
        )
        if progress is not None:
            progress(
                f"[{i + 1}/{len(grid)}] n={size} skew={skew} comm={comm} "
                f"dens={dens}: fastest={fastest} "
                f"({seconds[fastest] * 1e3:.2f} ms)"
            )
    return {
        "kind": "router-scenario-sweep",
        "version": SWEEP_TABLE_VERSION,
        "axes": {
            "sizes": [int(s) for s in sizes],
            "skews": [float(s) for s in skews],
            "communities": [float(c) for c in communities],
            "densities": [float(d) for d in densities],
        },
        "backends": list(backends),
        "software_tier": tier,
        "repeats": int(repeats),
        "seed": int(seed),
        "host_cpus": usable_cpus(),
        "microbatch_companions": _MICROBATCH_COMPANIONS,
        "points": points,
    }


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------
def write_sweep_table(
    table: Dict[str, object], path: Union[str, Path]
) -> Path:
    path = Path(path)
    path.write_text(json.dumps(table, indent=2) + "\n")
    return path


def load_sweep_table(path: Union[str, Path]) -> Dict[str, object]:
    table = json.loads(Path(path).read_text())
    if table.get("kind") != "router-scenario-sweep":
        raise ValueError(
            f"{path}: not a scenario sweep table (kind={table.get('kind')!r})"
        )
    if int(table.get("version", -1)) != SWEEP_TABLE_VERSION:
        raise ValueError(
            f"{path}: sweep table version {table.get('version')!r} "
            f"unsupported (expected {SWEEP_TABLE_VERSION})"
        )
    return table


# ----------------------------------------------------------------------
# The "everything is slow here" report
# ----------------------------------------------------------------------
def slow_regions(
    table: Dict[str, object], *, factor: float = 3.0
) -> List[Dict[str, object]]:
    """Points whose *best* backend is slow for the work it does.

    Latency is normalised per directed edge (the natural unit of
    coloring work) and compared against the sweep-wide median: a point
    whose best-backend cost exceeds ``factor ×`` the median ns/edge is
    one no routing decision can save — flagged, descending by slowdown,
    as the next optimization targets.
    """
    points = list(table.get("points", ()))
    if not points:
        return []
    costs = []
    for p in points:
        best = min(p["seconds"].values())
        edges = max(1, int(p["features"]["num_edges"]))
        costs.append(best / edges)
    median = float(np.median(costs))
    flagged = []
    for p, cost in zip(points, costs):
        if median > 0 and cost > factor * median:
            flagged.append(
                {
                    "params": dict(p["params"]),
                    "fastest": p["fastest"],
                    "best_s": min(p["seconds"].values()),
                    "ns_per_edge": cost * 1e9,
                    "slowdown_vs_median": cost / median,
                }
            )
    flagged.sort(key=lambda r: r["slowdown_vs_median"], reverse=True)
    return flagged


def sweep_report(table: Dict[str, object], *, factor: float = 3.0) -> str:
    """Human-readable summary: grid shape, wins per backend, slow regions."""
    points = list(table.get("points", ()))
    lines = [
        f"scenario sweep: {len(points)} points, "
        f"backends: {', '.join(table.get('backends', ()))} "
        f"(software tier: {table.get('software_tier')})",
    ]
    wins: Dict[str, int] = {}
    for p in points:
        wins[p["fastest"]] = wins.get(p["fastest"], 0) + 1
    for backend in table.get("backends", ()):
        if backend in wins:
            lines.append(f"  fastest on {wins[backend]:3d} points: {backend}")
    flagged = slow_regions(table, factor=factor)
    if flagged:
        lines.append(
            f"slow regions (best backend > {factor:.1f}x median ns/edge) — "
            "no routing decision saves these; they are kernel-work targets:"
        )
        for r in flagged:
            p = r["params"]
            lines.append(
                f"  n={p['size']:>6} skew={p['skew']:.2f} "
                f"comm={p['community']:.1f} dens={p['density']:.0f}: "
                f"best={r['fastest']} {r['best_s'] * 1e3:.2f} ms "
                f"({r['ns_per_edge']:.0f} ns/edge, "
                f"{r['slowdown_vs_median']:.1f}x median)"
            )
    else:
        lines.append(
            f"no slow regions at {factor:.1f}x median ns/edge — every grid "
            "point has at least one well-matched backend"
        )
    return "\n".join(lines)
