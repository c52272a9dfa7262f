"""Opt-in native (compiled) kernel tier behind a capability probe.

``backend="native"`` compiles the three hottest loops of the repo — the
Stage-0 scatter-OR, the Stage-1 batch first-free-color, and a whole
batched accelerator run (coloring, per-task precompute and the scalar
replay recurrence in one pass over the CSR) — and is **never a hard
dependency**: importing this package touches no compiler, and detection
only runs when a caller first asks (:func:`available`, :func:`require`,
or one of the drop-in kernels below).

Detection loads the ``cc`` backend (an embedded C translation unit
built with the system C compiler and loaded via ctypes) and
**golden-checks** it against the vectorized kernels on a fixed input
before selecting it, so a present-but-broken toolchain is disqualified
instead of corrupting results.  When it is
unusable, the higher layers fall back to the vectorized tier transparently
(``repro.kernels.resolve_tier_kernels``), and :func:`unavailable_reason`
says why.

The ``REPRO_NATIVE`` environment variable overrides detection:
``0``/``off``/``false``/``none``/``disabled`` turns the tier off
entirely (the CI fallback leg uses this, since GitHub runners do have a
C compiler); ``cc``, unset or ``auto`` probes the backend; any other
value leaves the tier unavailable with the reason recorded.

The drop-in wrappers :func:`scatter_or_colors` and
:func:`first_free_colors_packed` reproduce the vectorized kernels'
validation order, exception types/messages, and observability counters
exactly; bit-identity is property-tested in ``tests/kernels``.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from ...obs import get_registry

__all__ = [
    "NativeUnavailable",
    "available",
    "backend_info",
    "first_free_colors_packed",
    "refresh",
    "require",
    "scatter_or_colors",
    "unavailable_reason",
]

_BACKEND = "cc"
_DISABLED_VALUES = ("0", "off", "false", "none", "disabled")

_DETECTED = False
_IMPL = None
_REASON: Optional[str] = None


class NativeUnavailable(RuntimeError):
    """No native kernel backend could be loaded (see the message for why)."""


def _self_check(impl) -> None:
    """Golden-check a candidate backend against the vectorized kernels.

    A tiny fixed input exercising the semantics corners that matter:
    dead slots (color 0), the word-boundary colors 64/65, duplicate rows,
    and NumPy's negative-row wraparound.  Any mismatch disqualifies the
    backend (the whole-run replay is covered by the batched-engine
    parity suite instead — it needs a whole engine run to exercise).
    """
    from ..bitmatrix import first_free_colors_packed as ff_ref
    from ..bitmatrix import scatter_or_colors as sc_ref

    rows = np.array([0, 2, 1, 2, 0, -1], dtype=np.int64)
    colors = np.array([1, 64, 65, 0, 3, 130], dtype=np.int64)
    ref = sc_ref(rows, colors, 3, 3)
    got = np.zeros((3, 3), dtype=np.uint64)
    status, _ = impl.scatter_or(rows, colors, got, 3, 3)
    if status != 5 or not np.array_equal(got, ref):
        raise RuntimeError("scatter-OR golden check failed")

    states = np.array(
        [[0, 0], [0xFFFFFFFFFFFFFFFF, 0b1011], [0b111, 1 << 63]],
        dtype=np.uint64,
    )
    expect = ff_ref(states)
    out = np.zeros(3, dtype=np.int64)
    if impl.first_free(states, out) != 0 or not np.array_equal(out, expect):
        raise RuntimeError("first-free golden check failed")


def _detect():
    global _DETECTED, _IMPL, _REASON
    if _DETECTED:
        return _IMPL
    _DETECTED = True
    _IMPL = None
    env = os.environ.get("REPRO_NATIVE", "auto").strip().lower()
    if env in _DISABLED_VALUES:
        _REASON = f"disabled via REPRO_NATIVE={env!r}"
        return None
    if env not in ("", "auto", _BACKEND):
        _REASON = (
            f"REPRO_NATIVE={env!r} names no known backend "
            f"(known: {_BACKEND}, or 0/auto)"
        )
        return None
    try:
        from . import _cc

        impl = _cc.load()
        _self_check(impl)
    except Exception as exc:  # any failure disqualifies the backend
        _REASON = f"{_BACKEND} backend unusable — {type(exc).__name__}: {exc}"
        return None
    _IMPL = impl
    _REASON = None
    return impl


def refresh() -> None:
    """Forget the cached detection result (tests flip ``REPRO_NATIVE``)."""
    global _DETECTED, _IMPL, _REASON
    _DETECTED = False
    _IMPL = None
    _REASON = None


def available() -> bool:
    """Whether a compiled backend passed detection and the golden check."""
    return _detect() is not None


def unavailable_reason() -> Optional[str]:
    """Why the native tier is unavailable; None when it is available."""
    _detect()
    return _REASON


def backend_info() -> Optional[dict]:
    """``{"name", "version", "compiler"}`` of the selected backend."""
    impl = _detect()
    if impl is None:
        return None
    return {
        "name": impl.name,
        "version": impl.version,
        "compiler": impl.compiler,
    }


def require():
    """The selected backend object, or :class:`NativeUnavailable`."""
    impl = _detect()
    if impl is None:
        raise NativeUnavailable(
            "native kernel tier unavailable: "
            + (_REASON or "no backend detected")
            + ". Ensure a system C compiler (cc/gcc/clang) is on PATH; "
            "or drop native_strict/backend='native' to fall back to the "
            "vectorized tier."
        )
    return impl


# ----------------------------------------------------------------------
# Drop-in kernels (the vectorized contract, compiled)
# ----------------------------------------------------------------------

def scatter_or_colors(
    rows: np.ndarray,
    colors: np.ndarray,
    num_rows: int,
    num_words: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Native Stage-0 scatter-OR; drop-in for the vectorized kernel."""
    impl = require()
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    colors = np.ascontiguousarray(colors, dtype=np.int64)
    if rows.shape != colors.shape:
        raise ValueError("rows and colors must have the same length")
    accumulate = None
    if out is None:
        buf = np.zeros((num_rows, num_words), dtype=np.uint64)
    elif (
        out.dtype == np.uint64
        and out.flags["C_CONTIGUOUS"]
        and out.shape == (num_rows, num_words)
    ):
        buf = out
    else:
        # OR into a fresh buffer, then fold into the caller's view so
        # non-contiguous/odd-layout outputs still accumulate in place.
        accumulate = out
        buf = np.zeros((num_rows, num_words), dtype=np.uint64)
    status, detail = impl.scatter_or(rows, colors, buf, num_rows, num_words)
    if status == -1:
        raise ValueError(
            f"color {detail} does not fit in {num_words} state words"
        )
    if status == -2:
        raise IndexError(
            f"index {detail} is out of bounds for axis 0 with size {num_rows}"
        )
    if accumulate is not None:
        np.bitwise_or(accumulate, buf, out=accumulate)
        buf = accumulate
    obs = get_registry()
    if obs.enabled:
        obs.add("kernels.scatter_or.calls")
        obs.add("kernels.scatter_or.words_ored", status)
        obs.observe("kernels.batch_rows", num_rows)
    return out if out is not None else buf


def first_free_colors_packed(states: np.ndarray) -> np.ndarray:
    """Native Stage-1 batch first-free-color; drop-in for the vectorized kernel."""
    impl = require()
    states = np.ascontiguousarray(states, dtype=np.uint64)
    if states.ndim != 2:
        raise ValueError("states must be a (rows, words) matrix")
    obs = get_registry()
    if obs.enabled:
        obs.add("kernels.first_free.rows", states.shape[0])
    result = np.empty(states.shape[0], dtype=np.int64)
    bad = impl.first_free(states, result)
    if bad:
        if states.shape[1] == 1:
            raise OverflowError("state word saturated; need wider color state")
        raise OverflowError(
            f"state row saturated across all {states.shape[1]} words; "
            "need wider color state"
        )
    return result
