"""HBM crossover sweep — where the DRAM-read merge stops paying.

The MGR optimization (Fig 11's ``mgr`` flag) merges consecutive LDV
color reads that hit the same DRAM block.  On the DDR4 baseline its
value is obvious: four physical channels are shared by every PE, so
each read it removes also removes queueing.  An HBM part changes the
economics — 32 pseudo-channels mean a read often costs *only* its own
occupancy, and the merge buffer's win shrinks toward the bare per-task
stream cycles it saves.  This module maps that surface:

    merge_gain = makespan(mgr off) / makespan(mgr on)

swept over **datasets x physical channels x parallelism x edge layout**
on the ``hbm2`` memory profile at ``tier="paper"``.  A cell where
``merge_gain <= MERGE_PAYS_THRESHOLD`` is one where the merge no longer
pays; the smallest such channel count per (dataset, P, layout) row is
the crossover.  On the measured stand-ins the surface spans the whole
range: CF (RMAT, avg degree 28) keeps a 1.3-1.6x win even at 32
channels, CO holds 5-13%, while CL and EF cross almost immediately.

The sweep deliberately scales the HDV cache down to
``BANDWIDTH_STRESS_CACHE_SCALE`` of the paper's hdv-fraction sizing:
at the full fraction the cache absorbs nearly all color reads and every
memory profile looks identical (gains < 0.1%), which would say nothing
about the memory system.  The scaled cache keeps the LDV read stream
alive so channel count actually matters; the scale is recorded in the
result document.

Colorings are asserted byte-identical across every cell of a dataset —
layouts are encodings and MGR is a timing optimization, so neither may
ever change colors.

The smoke half (the ``hbm`` row of :mod:`repro.experiments.gates`) is
fully deterministic — modeled cycles, no wall-clock timing:

* **engine parity** — event vs batched stats/colors must match exactly
  on both memory profiles under all three edge layouts;
* **compression floor** — the delta-compressed layout must cut modeled
  edge-read cycles (``edge_blocks_fetched * dram_stream_cycles``) by at
  least ``SMOKE_MIN_DELTA_REDUCTION`` on every skewed stand-in.

Running ``benchmarks/bench_hbm.py`` regenerates the checked-in
``BENCH_hbm.json``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from ..graph.layout import DEFAULT_LAYOUT, LAYOUTS
from ..hw import BitColorAccelerator, OptimizationFlags, mem
from .datasets import REGISTRY, load_dataset
from .kernel_bench import smoke_graph

__all__ = [
    "BANDWIDTH_STRESS_CACHE_SCALE",
    "MERGE_PAYS_THRESHOLD",
    "MINI_SWEEP",
    "PAPER_SWEEP",
    "SMOKE_DATASETS",
    "SMOKE_MIN_DELTA_REDUCTION",
    "render_hbm_figure",
    "run_hbm_smoke",
    "run_hbm_sweep",
]

#: Merge gain at or below which the merge buffer "stops paying" — a
#: <= 2% makespan win does not buy the MGR buffer + sorted-edge
#: requirement on a real part.
MERGE_PAYS_THRESHOLD = 1.02

#: HDV cache scale used by the sweep (fraction of the paper's
#: hdv-fraction sizing) so the LDV read stream survives and the memory
#: profile actually matters.  See the module docstring.
BANDWIDTH_STRESS_CACHE_SCALE = 0.1

#: Floor for the delta-compressed layout's modeled edge-read-cycle
#: reduction on the skewed stand-ins (the ``hbm`` gate).  Measured
#: reductions sit at 25-45%, so 15% has real headroom without being
#: vacuous.
SMOKE_MIN_DELTA_REDUCTION = 0.15

#: Skewed stand-ins for the compression gate: the power-law/RMAT
#: datasets whose sorted neighbor runs delta-compression exploits.
SMOKE_DATASETS: Tuple[str, ...] = ("EF", "CL", "CO", "CF")

#: The checked-in sweep: full channel ladder at two parallelism points.
PAPER_SWEEP: Dict[str, Tuple] = {
    "datasets": ("EF", "CL", "CO", "CF"),
    "channels": (4, 8, 16, 32),
    "parallelisms": (16, 64),
    "tier": "paper",
}

#: CI-sized axes: one dataset, the channel extremes, standin tier.
MINI_SWEEP: Dict[str, Tuple] = {
    "datasets": ("CO",),
    "channels": (4, 32),
    "parallelisms": (16,),
    "tier": "standin",
}

_SWEEP_PROFILE = "hbm2"


def _stress_config(key: str, graph, *, channels: int, parallelism: int):
    """The sweep's HWConfig: hbm2 with a channel override and the
    bandwidth-stress HDV cache (paper hdv-fraction x the stress scale)."""
    spec = REGISTRY[key]
    cache_vertices = max(
        1,
        int(round(spec.hdv_fraction * graph.num_vertices
                  * BANDWIDTH_STRESS_CACHE_SCALE)),
    )
    return mem.profile_config(
        _SWEEP_PROFILE,
        dram_physical_channels=channels,
        parallelism=parallelism,
        cache_bytes=cache_vertices * 2,
    )


def _run(graph, config, *, layout: str, mgr: bool, engine: str = "batched"):
    flags = OptimizationFlags(mgr=mgr)
    acc = BitColorAccelerator(config, flags, engine=engine, layout=layout)
    return acc.run(graph)


def run_hbm_sweep(
    *,
    datasets: Iterable[str] = PAPER_SWEEP["datasets"],
    channels: Sequence[int] = PAPER_SWEEP["channels"],
    parallelisms: Sequence[int] = PAPER_SWEEP["parallelisms"],
    layouts: Sequence[str] = LAYOUTS,
    tier: str = PAPER_SWEEP["tier"],
    engine: str = "batched",
    threshold: float = MERGE_PAYS_THRESHOLD,
) -> Dict[str, object]:
    """Run the channels x layout x P sweep; returns the result document.

    Every cell runs twice (MGR on / MGR off) and records the merge gain;
    colorings are asserted byte-identical across all cells of a dataset.
    Deterministic — modeled cycles only, no timing.
    """
    datasets = tuple(datasets)
    entries = []
    for key in datasets:
        graph = load_dataset(key, tier=tier)
        reference_colors = None
        for parallelism in parallelisms:
            for ch in channels:
                config = _stress_config(
                    key, graph, channels=ch, parallelism=parallelism
                )
                for layout in layouts:
                    on = _run(graph, config, layout=layout, mgr=True,
                              engine=engine)
                    off = _run(graph, config, layout=layout, mgr=False,
                               engine=engine)
                    for label, res in (("mgr on", on), ("mgr off", off)):
                        if reference_colors is None:
                            reference_colors = res.colors
                        elif not np.array_equal(reference_colors, res.colors):
                            raise AssertionError(
                                f"colors diverged on {key} "
                                f"(ch={ch}, P={parallelism}, "
                                f"layout={layout}, {label}) — layouts and "
                                "MGR must never change the coloring"
                            )
                    gain = off.stats.makespan_cycles / on.stats.makespan_cycles
                    entries.append({
                        "dataset": key,
                        "num_vertices": graph.num_vertices,
                        "num_edges": graph.num_edges,
                        "channels": ch,
                        "parallelism": parallelism,
                        "layout": layout,
                        "sharing_divisor": mem.sharing_divisor(parallelism, ch),
                        "makespan_mgr_on": on.stats.makespan_cycles,
                        "makespan_mgr_off": off.stats.makespan_cycles,
                        "merge_gain": round(gain, 6),
                        "merge_pays": gain > threshold,
                        "merged_reads": on.stats.merged_reads,
                        "edge_blocks_fetched": on.stats.edge_blocks_fetched,
                        "edge_read_cycles": (
                            on.stats.edge_blocks_fetched
                            * config.dram_stream_cycles
                        ),
                        "dram_queue_cycles_on": on.stats.dram_queue_cycles,
                        "dram_queue_cycles_off": off.stats.dram_queue_cycles,
                        "num_colors": on.num_colors,
                    })

    crossover = []
    for key in datasets:
        for parallelism in parallelisms:
            for layout in layouts:
                row = [
                    e for e in entries
                    if e["dataset"] == key
                    and e["parallelism"] == parallelism
                    and e["layout"] == layout
                ]
                row.sort(key=lambda e: e["channels"])
                gains = {str(e["channels"]): e["merge_gain"] for e in row}
                stops = [e["channels"] for e in row if not e["merge_pays"]]
                crossover.append({
                    "dataset": key,
                    "parallelism": parallelism,
                    "layout": layout,
                    "gains_by_channels": gains,
                    "merge_stops_paying_at": min(stops) if stops else None,
                })

    results: Dict[str, object] = {
        "benchmark": "hbm-sweep",
        "profile": _SWEEP_PROFILE,
        "tier": tier,
        "engine": engine,
        "cache_scale": BANDWIDTH_STRESS_CACHE_SCALE,
        "merge_pays_threshold": threshold,
        "axes": {
            "datasets": list(datasets),
            "channels": list(channels),
            "parallelisms": list(parallelisms),
            "layouts": list(layouts),
        },
        "colors_identical_across_cells": True,
        "entries": entries,
        "crossover": crossover,
    }
    results["figure"] = render_hbm_figure(results)
    return results


def render_hbm_figure(results: Dict[str, object]) -> str:
    """ASCII crossover surface: one block per (dataset, P), rows =
    channel counts, columns = layouts; ``*`` marks cells where the merge
    stopped paying (gain <= threshold)."""
    axes = results["axes"]
    threshold = results["merge_pays_threshold"]
    layouts = list(axes["layouts"])
    lines = [
        f"merge gain = makespan(mgr off) / makespan(mgr on) "
        f"[{results['profile']}, tier={results['tier']}, "
        f"cache x{results['cache_scale']}]",
        f"* = merge stops paying (gain <= {threshold})",
    ]
    width = max(len(name) for name in layouts) + 2
    for key in axes["datasets"]:
        for parallelism in axes["parallelisms"]:
            lines.append(f"\n{key}  P={parallelism}")
            header = "  channels" + "".join(f"{name:>{width}}"
                                            for name in layouts)
            lines.append(header)
            for ch in axes["channels"]:
                cells = []
                for layout in layouts:
                    match = [
                        e for e in results["entries"]
                        if e["dataset"] == key
                        and e["parallelism"] == parallelism
                        and e["channels"] == ch
                        and e["layout"] == layout
                    ]
                    if not match:
                        cells.append(f"{'-':>{width}}")
                        continue
                    e = match[0]
                    mark = " " if e["merge_pays"] else "*"
                    cells.append(f"{e['merge_gain']:>{width - 2}.3f}x{mark}")
                lines.append(f"  {ch:>8}" + "".join(cells))
    return "\n".join(lines)


def _parity_check(graph, *, profile: str, layout: str) -> None:
    config = mem.profile_config(profile, parallelism=16)
    event = BitColorAccelerator(
        config, OptimizationFlags.all(), engine="event", layout=layout
    ).run(graph)
    batched = BitColorAccelerator(
        config, OptimizationFlags.all(), engine="batched", layout=layout
    ).run(graph)
    what = f"profile={profile}, layout={layout}"
    if not np.array_equal(event.colors, batched.colors):
        raise AssertionError(f"engine colors diverged ({what})")
    if dataclasses.asdict(event.stats) != dataclasses.asdict(batched.stats):
        raise AssertionError(f"engine stats diverged ({what})")


def run_hbm_smoke(
    *,
    datasets: Iterable[str] = SMOKE_DATASETS,
    profiles: Sequence[str] = mem.PROFILE_NAMES,
) -> Dict[str, object]:
    """The ``hbm`` gate's deterministic smoke: engine parity on every
    (profile x layout), then the delta-compressed edge-read-cycle
    reduction per skewed stand-in.  No timing anywhere."""
    graph = smoke_graph()
    parity_checks = 0
    for profile in profiles:
        for layout in LAYOUTS:
            _parity_check(graph, profile=profile, layout=layout)
            parity_checks += 1

    reductions: Dict[str, float] = {}
    for key in datasets:
        g = load_dataset(key, tier="standin")
        spec = REGISTRY[key]
        cache_vertices = max(
            1, int(round(spec.hdv_fraction * g.num_vertices))
        )
        config = mem.profile_config(
            _SWEEP_PROFILE, parallelism=16, cache_bytes=cache_vertices * 2
        )
        cycles = {}
        for layout in (DEFAULT_LAYOUT, "delta-compressed"):
            res = _run(graph=g, config=config, layout=layout, mgr=True)
            cycles[layout] = (
                res.stats.edge_blocks_fetched * config.dram_stream_cycles
            )
        reductions[key] = round(
            1.0 - cycles["delta-compressed"] / cycles[DEFAULT_LAYOUT], 4
        )

    return {
        "parity_checks": parity_checks,
        "parity_profiles": list(profiles),
        "parity_layouts": list(LAYOUTS),
        "metric": "edge_blocks_fetched * dram_stream_cycles",
        "delta_reduction": reductions,
        "min_delta_reduction": min(reductions.values()),
        "floor": SMOKE_MIN_DELTA_REDUCTION,
    }
