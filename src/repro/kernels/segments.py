"""Segmented (per-CSR-row) array primitives.

The edge-layout builder (:mod:`repro.graph.layout`) sizes per-row
encodings as reductions over *segments* of one flat edge array, where a
segment is the CSR row of one vertex.  Every function takes flat arrays
plus either an ``offsets`` array (CSR convention: segment ``i`` is
``values[offsets[i]:offsets[i+1]]``) or a precomputed per-element
segment-id array, and returns per-segment or per-element results without
any Python-level loop over segments.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "segment_ids",
    "rows_sorted",
    "segment_max",
    "prefix_block_counts",
]


def segment_ids(offsets: np.ndarray) -> np.ndarray:
    """Per-element segment id for a CSR ``offsets`` array.

    ``segment_ids([0, 2, 2, 5]) == [0, 0, 2, 2, 2]``.
    """
    offsets = np.asarray(offsets)
    counts = np.diff(offsets)
    return np.repeat(np.arange(counts.size, dtype=np.int64), counts)


def rows_sorted(offsets: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-segment flag: is the segment non-decreasing?

    Matches the per-task check the event-driven BWPE performs on each
    neighbour list (``size < 2`` counts as sorted).  Vectorized as one
    pass over adjacent pairs: a pair only disqualifies the row that
    contains *both* its elements.
    """
    offsets = np.asarray(offsets)
    values = np.asarray(values)
    n = offsets.size - 1
    ok = np.ones(n, dtype=bool)
    if values.size >= 2:
        seg = segment_ids(offsets)
        bad = (values[1:] < values[:-1]) & (seg[1:] == seg[:-1])
        ok[seg[1:][bad]] = False
    return ok


def segment_max(
    offsets: np.ndarray, values: np.ndarray, *, initial: int = 0
) -> np.ndarray:
    """Per-segment maximum, with ``initial`` for empty segments.

    The compressed-layout builder (:mod:`repro.graph.layout`) uses this
    to size per-row entry widths: max neighbour ID per row for the
    degree-sorted encoding, max adjacent delta per row for the
    delta-compressed one.
    """
    offsets = np.asarray(offsets)
    values = np.asarray(values)
    n = offsets.size - 1
    counts = np.diff(offsets)
    out = np.full(n, initial, dtype=np.int64)
    if values.size == 0 or n == 0:
        return out
    # reduceat misbehaves on empty segments (returns values[start]) and
    # rejects start == len(values); clamp, then overwrite empties.
    starts = np.minimum(offsets[:-1], values.size - 1)
    reduced = np.maximum.reduceat(values.astype(np.int64), starts)
    nonempty = counts > 0
    out[nonempty] = np.maximum(reduced[nonempty], initial)
    return out


def prefix_block_counts(
    header_bits: np.ndarray,
    entry_bits: np.ndarray,
    counts: np.ndarray,
    block_bits: int,
) -> np.ndarray:
    """Blocks fetched for a ``counts``-entry prefix of each encoded row.

    The layout layer's cost model: row ``i`` is stored as a
    ``header_bits[i]``-bit first entry followed by ``entry_bits[i]``-bit
    entries, packed tight and block-aligned per row.  Reading the first
    ``counts[i]`` entries therefore touches
    ``ceil((header + (counts-1) * entry) / block_bits)`` sequential
    blocks; a zero-count prefix touches none.  With header = entry =
    ``edge_index_bits`` this reduces exactly to the plain-CSR
    ``ceil(counts / edges_per_block)`` the engines used before layouts
    existed.
    """
    if block_bits < 1:
        raise ValueError("block_bits must be positive")
    header_bits = np.asarray(header_bits, dtype=np.int64)
    entry_bits = np.asarray(entry_bits, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    bits = header_bits + np.maximum(counts - 1, 0) * entry_bits
    blocks = -(-bits // block_bits)
    return np.where(counts > 0, blocks, 0)
