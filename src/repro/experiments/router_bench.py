"""Routing benchmark: is the one routing rule's candidate set complete?

The router (:mod:`repro.service.router`) sends an unpinned job to one of
two lanes: the micro-batch lane at or below the per-tier crossover, the
software kernel tier above it.  The scenario sweep
(:mod:`repro.experiments.scenario_sweep`) times every fast backend over
the sampled generator parameter space, so it can say whether any other
lane would ever be worth routing to.  This module scores the rule on
that matrix:

* **candidate set** — on every point, the measured-fastest
  parity-neutral backend must be ``microbatch`` or the software tier.
  Scored against the *recorded* seconds, so the check is deterministic
  given the matrix: ``scripts/bench_smoke.py`` gate 9 re-scores the
  checked-in ``BENCH_router.json`` without re-timing anything.
* **live parity** — one default service colors a few probe graphs,
  including a >= 50k-vertex skewed graph and a >= 50k-vertex regular
  one, and every result must be byte-identical to a direct
  :func:`repro.color` call: routing may only change which engine runs,
  never the colors.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .kernel_bench import usable_cpus
from .scenario_sweep import (
    FULL_AXES,
    PARITY_NEUTRAL_BACKENDS,
    run_scenario_sweep,
    scenario_graph,
    slow_regions,
)

__all__ = [
    "DEFAULT_ROUTER_RESULT_PATH",
    "check_router_smoke",
    "load_router_results",
    "off_rule_points",
    "run_router_bench",
    "run_router_parity",
    "write_router_results",
]

DEFAULT_ROUTER_RESULT_PATH = (
    Path(__file__).resolve().parents[3] / "BENCH_router.json"
)
"""Checked-in routing results (the scenario-sweep matrix)."""

_PARITY_PROBES = (
    (200, 0.3, 0.0, 4),
    (700, 0.6, 0.0, 8),
    (3000, 0.45, 0.6, 6),
    (65536, 0.6, 0.0, 4),
)
"""Scenario points the live parity check colors through one service;
the last is a large, heavily skewed graph (max/mean degree in the
hundreds)."""


def off_rule_points(table: Dict[str, object]) -> List[Dict[str, object]]:
    """Matrix points whose fastest parity-neutral backend the rule never picks.

    The rule's candidates are ``microbatch`` and the table's software
    tier; an empty list means they cover every recorded point.
    """
    points = list(table.get("points", ()))
    if not points:
        raise ValueError("sweep table has no points to score")
    candidates = {"microbatch", str(table.get("software_tier", "vectorized"))}
    off = []
    for p in points:
        neutral = {
            b: float(s) for b, s in p["seconds"].items()
            if b in PARITY_NEUTRAL_BACKENDS
        }
        fastest = min(neutral, key=neutral.get)
        if fastest not in candidates:
            off.append({"params": dict(p["params"]), "fastest": fastest})
    return off


def run_router_parity() -> int:
    """Color the probe graphs through one default service.

    Every result must be byte-identical to direct :func:`repro.color`;
    returns the number of colorings checked.
    """
    from .. import color as direct_color
    from ..graph import road_grid
    from ..service import ColoringService, ServiceConfig

    graphs = [
        scenario_graph(*params, seed=11, name=f"router-probe{i}")
        for i, params in enumerate(_PARITY_PROBES)
    ]
    graphs.append(road_grid(256, 256, seed=11))
    checked = 0
    with ColoringService(ServiceConfig(cache_capacity=0)) as svc:
        for g in graphs:
            routed = svc.color(g)
            if not np.array_equal(routed.colors, direct_color(g).colors):
                raise AssertionError(
                    f"routing changed the colors of {g.name} "
                    f"(route: {routed.route})"
                )
            checked += 1
    return checked


def run_router_bench(
    *,
    axes: Optional[Dict[str, tuple]] = None,
    repeats: int = 2,
    seed: int = 0,
    progress=None,
) -> Dict[str, object]:
    """The full routing record behind ``BENCH_router.json``.

    Runs the scenario sweep (default: the 48-point
    :data:`~repro.experiments.scenario_sweep.FULL_AXES` grid), scores the
    rule's candidate set against it, runs the live parity check, and
    returns the JSON-ready document.
    """
    axes = dict(FULL_AXES if axes is None else axes)
    table = run_scenario_sweep(
        **axes, repeats=repeats, seed=seed, progress=progress
    )
    return {
        "unit": (
            "seconds, best of repeats (per-backend wall clock over the "
            "scenario grid)"
        ),
        "repeats": int(repeats),
        "host_cpus": usable_cpus(),
        "matrix": table,
        "slow_regions": slow_regions(table),
        "smoke": {
            "points": len(table["points"]),
            "off_rule_points": len(off_rule_points(table)),
            "parity_colorings_checked": run_router_parity(),
        },
    }


def check_router_smoke(
    baseline: Dict[str, object], *, live_parity: bool = True
) -> Tuple[bool, Dict[str, object]]:
    """Re-score the rule's candidate set on the checked-in matrix.

    Returns ``(ok, current)`` where ``current`` carries the scored
    point count, the ``off_rule`` points (empty when ``ok``) and the live
    parity count.  The scoring is deterministic — a failure means the
    matrix or the rule changed, not that the host is slow.
    ``live_parity`` adds the byte-parity probe through a real service.
    """
    matrix = baseline.get("matrix")
    if not isinstance(matrix, dict):
        raise ValueError("router baseline has no sweep matrix")
    off = off_rule_points(matrix)
    current = {
        "points": len(matrix["points"]),
        "off_rule": off,
        "parity_colorings_checked": run_router_parity() if live_parity else 0,
    }
    return not off, current


def write_router_results(
    results: Dict[str, object], path: Optional[Path] = None
) -> Path:
    """Write the result document as pretty-printed JSON; returns the path."""
    path = DEFAULT_ROUTER_RESULT_PATH if path is None else Path(path)
    path.write_text(json.dumps(results, indent=2) + "\n")
    return path


def load_router_results(path: Optional[Path] = None) -> Dict[str, object]:
    """Read a previously written result document."""
    path = DEFAULT_ROUTER_RESULT_PATH if path is None else Path(path)
    return json.loads(path.read_text())
