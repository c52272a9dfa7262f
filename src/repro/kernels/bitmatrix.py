"""Packed-bitset kernels over ``(rows, words)`` uint64 bit-matrices.

The paper's Observation 1 (Section 3.2.1) represents a vertex's neighbour
colors as a bit string so that the first free color is one expression,
``(~state) & (state + 1)``.  :mod:`repro.coloring.bitset` models that with
arbitrary-precision Python ints — exact, but one vertex at a time.  This
module is the batch counterpart: a color state is one *row* of a
``(rows, W)`` ``uint64`` matrix (``W`` words of 64 color bits each, so any
color budget works, not just the 63 colors of the single-word helper), and
every primitive operates on all rows at once:

* :func:`scatter_or_colors` — Stage 0 for a whole batch: OR the one-hot of
  each neighbour color into its owner's row (a segment reduction over CSR
  edge slots via ``np.bitwise_or.at``);
* :func:`first_free_colors_packed` — Stage 1 for a whole batch: the first
  word with a zero bit, then the single-word bit trick inside it
  (delegating to :func:`repro.coloring.bitset.first_free_colors_u64` in
  the one-word case);
* :func:`popcount_u64` — vectorised set-bit counts.

The Num2Bit table and cascaded-mux compressor of Figure 4 are modelled
once, in :mod:`repro.coloring.bitset`; here the two conversions are
folded into the kernels (color → one-hot inside the scatter-OR, bit →
color inside the first-free scan).

Everything here is pure NumPy; the coloring algorithms select it via their
``backend="vectorized"`` parameter and are property-tested to produce
bit-identical results to the scalar Python paths.
"""

from __future__ import annotations

import numpy as np

from ..coloring.bitset import first_free_colors_u64
from ..obs import get_registry

__all__ = [
    "WORD_BITS",
    "words_for_colors",
    "popcount_u64",
    "scatter_or_colors",
    "first_free_colors_packed",
]

WORD_BITS = 64
"""Bits per state word — one DRAM/engine word of color flags."""

_FULL_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)


def words_for_colors(max_colors: int) -> int:
    """Number of 64-bit state words needed to track ``max_colors`` colors."""
    if max_colors < 1:
        raise ValueError("max_colors must be positive")
    return -(-max_colors // WORD_BITS)


def _popcount_swar(words: np.ndarray) -> np.ndarray:
    """Branch-free SWAR popcount for NumPy builds without ``bitwise_count``."""
    x = words.copy()
    x -= (x >> _ONE) & np.uint64(0x5555555555555555)
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((x * np.uint64(0x0101010101010101)) >> np.uint64(56)).astype(np.int64)


def popcount_u64(words: np.ndarray) -> np.ndarray:
    """Set-bit count of each uint64 word (vectorised :func:`bitset.popcount`)."""
    words = np.asarray(words, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words).astype(np.int64)
    return _popcount_swar(words)  # pragma: no cover - exercised directly in tests


def scatter_or_colors(
    rows: np.ndarray,
    colors: np.ndarray,
    num_rows: int,
    num_words: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Stage 0 as a segment reduction: OR one-hot colors into state rows.

    ``rows[k]`` is the state row that edge slot ``k`` accumulates into and
    ``colors[k]`` the neighbour color read through that slot.  Uncolored
    neighbours (color 0) contribute nothing, exactly like the scalar OR of
    ``num_to_bits`` words.
    """
    rows = np.asarray(rows, dtype=np.int64)
    colors = np.asarray(colors, dtype=np.int64)
    if rows.shape != colors.shape:
        raise ValueError("rows and colors must have the same length")
    if out is None:
        out = np.zeros((num_rows, num_words), dtype=np.uint64)
    live = colors > 0
    words_ored = 0
    if live.any():
        idx = colors[live] - 1
        if idx.max() >= num_words * WORD_BITS:
            raise ValueError(
                f"color {int(idx.max()) + 1} does not fit in {num_words} state words"
            )
        onehot = _ONE << (idx & 63).astype(np.uint64)
        words_ored = int(onehot.size)
        if num_words == 1:
            np.bitwise_or.at(out[:, 0], rows[live], onehot)
        else:
            np.bitwise_or.at(out, (rows[live], idx >> 6), onehot)
    obs = get_registry()
    if obs.enabled:
        obs.add("kernels.scatter_or.calls")
        obs.add("kernels.scatter_or.words_ored", words_ored)
        obs.observe("kernels.batch_rows", num_rows)
    return out


def first_free_colors_packed(states: np.ndarray) -> np.ndarray:
    """Stage 1 for a whole batch: first free 1-based color per state row.

    For single-word states this is exactly
    :func:`repro.coloring.bitset.first_free_colors_u64`; for wider states
    the first non-saturated word is located per row and the one-word bit
    trick applied inside it.  Raises :class:`OverflowError` when a row has
    every word saturated — the batch equivalent of the scalar helper's
    saturation guard.
    """
    states = np.ascontiguousarray(states, dtype=np.uint64)
    if states.ndim != 2:
        raise ValueError("states must be a (rows, words) matrix")
    obs = get_registry()
    if obs.enabled:
        obs.add("kernels.first_free.rows", states.shape[0])
    if states.shape[1] == 1:
        return first_free_colors_u64(states[:, 0])
    open_word = states != _FULL_WORD
    if not np.all(open_word.any(axis=1)):
        raise OverflowError(
            f"state row saturated across all {states.shape[1]} words; "
            "need wider color state"
        )
    word = np.argmax(open_word, axis=1)
    w = states[np.arange(states.shape[0]), word]
    lowest_zero = (~w) & (w + _ONE)
    return word * WORD_BITS + popcount_u64(lowest_zero - _ONE) + 1
