"""Vectorized packed-bitset kernels for the coloring hot paths.

The batch counterpart of :mod:`repro.coloring.bitset`: color states live in
``(rows, words)`` uint64 bit-matrices and every primitive — scatter-OR
accumulation, batch first-free-color, one-hot conversion, popcount — runs
over all rows at once.  The coloring algorithms select this layer with
``backend="vectorized"``; see ``docs/performance.md``.

On top of the NumPy tier sits an opt-in **native tier**
(:mod:`repro.kernels.native`): compiled implementations of the two
hottest kernels (plus the batched accelerator engine's whole run)
behind a capability probe.  :func:`capabilities` reports
what is available, :func:`preferred_tier` names the fastest usable
software tier, and :func:`resolve_tier_kernels` hands back the
``(scatter_or, first_free)`` pair for a tier with transparent fallback
to the vectorized kernels when no compiler backend works.
"""

from typing import Callable, Tuple

from .batching import contiguous_independent_runs, dependency_levels, gather_ranges
from .bitmatrix import (
    WORD_BITS,
    bit_index_u64,
    colors_to_onehot,
    first_free_colors_packed,
    onehot_to_colors,
    popcount_u64,
    scatter_or_colors,
    words_for_colors,
)
from .native import NativeUnavailable
from .segments import (
    prefix_block_counts,
    rows_sorted,
    segment_ids,
    segment_max,
)

__all__ = [
    "WORD_BITS",
    "NativeUnavailable",
    "bit_index_u64",
    "capabilities",
    "colors_to_onehot",
    "contiguous_independent_runs",
    "dependency_levels",
    "first_free_colors_packed",
    "gather_ranges",
    "onehot_to_colors",
    "popcount_u64",
    "preferred_tier",
    "prefix_block_counts",
    "resolve_tier_kernels",
    "rows_sorted",
    "scatter_or_colors",
    "segment_ids",
    "segment_max",
    "words_for_colors",
]


def capabilities() -> dict:
    """What kernel tiers this installation can run.

    Returns ``{"tiers", "native_available", "native_backend",
    "native_reason"}``: ``tiers`` lists the usable kernel tiers in
    preference order; ``native_backend`` is the selected compiled
    backend's ``{"name", "version", "compiler"}`` (None when
    unavailable, with ``native_reason`` saying why).  Detection is lazy
    and cached — the first call may compile.
    """
    from . import native

    ok = native.available()
    return {
        "tiers": ("native", "vectorized", "python") if ok else ("vectorized", "python"),
        "native_available": ok,
        "native_backend": native.backend_info(),
        "native_reason": native.unavailable_reason(),
    }


def preferred_tier() -> str:
    """The fastest usable software kernel tier (``native`` or ``vectorized``)."""
    from . import native

    return "native" if native.available() else "vectorized"


def resolve_tier_kernels(tier: str) -> Tuple[Callable, Callable]:
    """The ``(scatter_or_colors, first_free_colors_packed)`` pair of ``tier``.

    ``tier="native"`` resolves to the compiled kernels when the
    capability probe succeeds and **falls back to the vectorized pair
    transparently** otherwise — callers that must fail instead use
    ``repro.color(..., native_strict=True)`` or
    :func:`repro.kernels.native.require` directly.
    """
    if tier == "native":
        from . import native

        if native.available():
            return native.scatter_or_colors, native.first_free_colors_packed
        return scatter_or_colors, first_free_colors_packed
    if tier == "vectorized":
        return scatter_or_colors, first_free_colors_packed
    raise ValueError(
        f"unknown kernel tier {tier!r}; expected 'native' or 'vectorized'"
    )
