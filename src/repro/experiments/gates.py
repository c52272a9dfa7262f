"""The bench gates: one table of rows behind ``scripts/bench_smoke.py``.

Each :class:`Gate` row names a checked-in baseline (``BENCH_<name>.json``,
read through :func:`load_baseline`), a measure, a kind and a skip
predicate.  :func:`run_gate` turns a row into a :class:`GateResult` —
``pass``, ``fail`` or ``skip``, always with a reason — and never stops at
a failure, so the script and tier-1 report every row.

Kinds:

* ``ratio`` — passes while the measured speedup stays at or above the
  baseline's recorded ``smoke.baseline_speedup`` divided by ``bound``;
* ``floor`` — passes while the measured speedup is at least ``bound``.
  Used where the failure mode reads as ~1x on any host (a compiled or
  incremental path silently falling back);
* ``deterministic`` — like ``floor``, but the measure takes no wall
  clock, so ``repeats`` is ignored.

A contract violation inside a measure (colors or stats diverging
between paths) raises :class:`AssertionError`; the row then fails with
that message.

The ``run_*_smoke`` producers the rows call also write the ``smoke``
block of each baseline, so a row and its baseline always measure the
same workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Literal, NamedTuple, Optional, Tuple

from ..kernels import native
from .hbm_sweep import SMOKE_MIN_DELTA_REDUCTION, run_hbm_smoke
from .hw_bench import HW_FLOOR_SPEEDUP, run_hw_smoke
from .kernel_bench import run_native_smoke, run_obs_overhead_pair
from .mesh_bench import MESH_SCALING_FLOOR, mesh_skip_reason, run_mesh_smoke
from .service_bench import run_service_smoke
from .streaming_bench import STREAMING_FLOOR_SPEEDUP, run_streaming_smoke

__all__ = [
    "GATES",
    "Gate",
    "GateResult",
    "load_baseline",
    "run_gate",
    "write_baseline",
]

_REPO_ROOT = Path(__file__).resolve().parents[3]

Kind = Literal["ratio", "floor", "deterministic"]
Baseline = Optional[Dict[str, object]]


def _path(name: str) -> Path:
    return _REPO_ROOT / f"BENCH_{name}.json"


def load_baseline(name: str) -> Dict[str, object]:
    """Read the checked-in ``BENCH_<name>.json`` at the repo root."""
    return json.loads(_path(name).read_text())


def write_baseline(
    name: str, doc: Dict[str, object], path: Optional[Path] = None
) -> Path:
    """Write ``doc`` as pretty-printed JSON to ``path`` (default: the
    checked-in ``BENCH_<name>.json``); returns the path written."""
    path = _path(name) if path is None else Path(path)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _runs_anywhere() -> Optional[str]:
    return None


@dataclass(frozen=True)
class Gate:
    """One bench gate; see the module docstring for the three kinds."""

    name: str
    kind: Kind
    measure: Callable[[Baseline, int], float]
    """``(baseline document or None, repeats) -> current value``."""
    bound: float
    baseline: Optional[str] = None
    """Name passed to :func:`load_baseline`; ``None`` for rows that
    read no checked-in document."""
    skip: Callable[[], Optional[str]] = _runs_anywhere
    """Returns why the row cannot be measured on this host, else None."""


class GateResult(NamedTuple):
    """One row's outcome; ``current`` and ``threshold`` are None when the
    row skipped or failed before a value was measured."""

    name: str
    status: Literal["pass", "fail", "skip"]
    current: Optional[float]
    threshold: Optional[float]
    reason: str


def run_gate(gate: Gate, *, repeats: int = 3) -> GateResult:
    """Measure one row; a missing baseline or a raised contract violation
    fails that row only."""
    reason = gate.skip()
    if reason:
        return GateResult(gate.name, "skip", None, None, reason)
    doc = None
    if gate.baseline is not None:
        try:
            doc = load_baseline(gate.baseline)
        except FileNotFoundError:
            return GateResult(
                gate.name, "fail", None, None,
                f"run benchmarks/bench_{gate.baseline}.py",
            )
    try:
        current = float(gate.measure(doc, repeats))
    except AssertionError as e:
        return GateResult(gate.name, "fail", None, None, str(e))
    if gate.kind == "ratio":
        recorded = float(doc["smoke"]["baseline_speedup"])
        threshold = recorded / gate.bound
        reason = f"recorded {recorded:.3g} / {gate.bound:g}"
    else:
        threshold = gate.bound
        reason = "absolute floor" if gate.kind == "floor" else "deterministic"
    status = "pass" if current >= threshold else "fail"
    return GateResult(gate.name, status, current, threshold, reason)


def _kernels(doc: Baseline, repeats: int) -> float:
    # Python/vectorized speedup of the bitwise smoke run under a disabled
    # obs registry, both backends timed back to back in one process so
    # host speed cancels out.  Per-run instrumentation cost is near
    # constant and the vectorized run is ~10x shorter, so disabled
    # instrumentation creeping in shows up ~10x amplified.  Best of three
    # windows: contention only ever slows a window.
    windows = (run_obs_overhead_pair(repeats=repeats) for _ in range(3))
    return max(python_s / vectorized_s for vectorized_s, python_s in windows)


def _smoke_speedup(run_smoke: Callable[..., Dict[str, object]]):
    return lambda doc, repeats: run_smoke(repeats=repeats)["baseline_speedup"]


def _hbm(doc: Baseline, repeats: int) -> float:
    # Engine parity on every profile x layout raises inside the smoke
    # (skipped with the probe's reason without the native tier).
    return run_hbm_smoke()["min_delta_reduction"]


GATES: Tuple[Gate, ...] = (
    Gate("kernels", "ratio", _kernels, 1.05, baseline="kernels"),
    # Whole accelerator run, event engine vs the one-call native run:
    # ~220-360x on a 2-vCPU host.  The batched engine falling back to the
    # event engine reads as ~1x.
    Gate("hw", "floor", _smoke_speedup(run_hw_smoke), HW_FLOOR_SPEEDUP,
         skip=native.unavailable_reason),
    # Closed-loop service timings carry scheduler noise that kernel
    # micro-benchmarks do not; what the row catches is the batch lane
    # falling apart (every job solo again).
    Gate("service", "ratio", _smoke_speedup(run_service_smoke), 4.0,
         baseline="service"),
    Gate("streaming", "floor", _smoke_speedup(run_streaming_smoke),
         STREAMING_FLOOR_SPEEDUP),
    Gate("mesh", "floor", _smoke_speedup(run_mesh_smoke), MESH_SCALING_FLOOR,
         skip=mesh_skip_reason),
    Gate("hbm", "deterministic", _hbm, SMOKE_MIN_DELTA_REDUCTION),
    # Raw scatter-OR + first-free, vectorized vs compiled.  Raw kernel
    # speedups vary widely across hosts; the native tier silently
    # degrading to the vectorized fallback reads as ~1x.
    Gate("native", "floor", _smoke_speedup(run_native_smoke), 3.0,
         skip=native.unavailable_reason),
)
