"""Bandwidth-efficient edge-array layouts (GraphScale-style).

The accelerator streams each task's neighbour row from off-chip memory.
With the **plain** CSR layout every edge index occupies a fixed
``edge_index_bits`` word, so a row of ``d`` edges costs
``ceil(d / edges_per_block)`` block fetches.  FPGA graph engines
(GraphScale in PAPERS.md) pack rows tighter and spend the saved
bandwidth on more vertices per second; this module models two such
encodings and exposes the one number the engines need: *how many blocks
does a prefix of this row occupy?*

A layout is an **encoding, never a reordering** — vertex IDs, neighbour
order and the processing schedule are untouched, so the produced
coloring is byte-identical across layouts by construction; only the
modeled edge-fetch traffic changes.

Three layouts are registered:

* ``plain`` — fixed ``edge_index_bits`` per entry.  Reproduces the
  original ``ceil(consumed / edges_per_block)`` accounting bit-for-bit.
* ``degree-sorted`` — per-row fixed-width IDs: each row stores its
  neighbours in the narrowest of {8, 16, 32} bits that fits the row's
  largest neighbour ID.  This exploits degree-based grouping (the
  paper's own preprocessing, :func:`repro.graph.reorder.descending_degree_order`):
  after DBG the hubs — which dominate edge endpoints in skewed graphs —
  carry the *smallest* IDs, so most rows fit 8- or 16-bit entries.
* ``delta-compressed`` — first neighbour at full width, then
  delta-encoded gaps at the narrowest of {4, 8, 16, 32} bits that fits
  the row's largest gap.  Requires sorted rows (the paper's edge-sorting
  pass); unsorted rows fall back to the plain encoding, so the layout is
  safe on any graph.

Rows stay individually block-aligned (each task's burst starts on a
block boundary), which is why the per-row cost is a pure function of
``(header_bits, entry_bits, prefix_length)`` and composes with the PUV
prune: a pruned row fetches only the blocks its consumed prefix
occupies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from ..kernels import rows_sorted, segment_ids, segment_max
from .csr import CSRGraph
from .reorder import is_descending_degree_order

__all__ = [
    "LAYOUTS",
    "DEFAULT_LAYOUT",
    "EdgeLayout",
    "build_layout",
    "validate_layout",
]

LAYOUTS: Tuple[str, ...] = ("plain", "degree-sorted", "delta-compressed")
DEFAULT_LAYOUT = "plain"

_ID_WIDTHS = (8, 16, 32)
_DELTA_WIDTHS = (4, 8, 16, 32)


def validate_layout(name: str) -> str:
    if name not in LAYOUTS:
        raise ValueError(f"unknown layout {name!r}; expected one of {LAYOUTS}")
    return name


def _fit_widths(row_max: np.ndarray, choices: Tuple[int, ...]) -> np.ndarray:
    """Narrowest width in ``choices`` that holds each row's max value."""
    widths = np.full(row_max.shape, choices[-1], dtype=np.int64)
    for w in reversed(choices[:-1]):
        widths[row_max < (1 << w)] = w
    return widths


@dataclass(frozen=True)
class EdgeLayout:
    """Per-row encoded widths of one graph under one layout.

    Row ``v`` is stored as one ``header_bits[v]``-bit entry (the first
    neighbour) followed by ``entry_bits[v]``-bit entries, packed tight
    and block-aligned per row.  All fetch-cost questions reduce to
    :meth:`prefix_blocks`, which both accelerator engines use — the
    event engine scalar per task, the batched engine's native run in C
    with the same integer math (hence the parity contract survives
    every layout).
    """

    name: str
    edge_index_bits: int
    header_bits: np.ndarray
    entry_bits: np.ndarray
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def num_rows(self) -> int:
        return int(self.header_bits.shape[0])

    def prefix_bits(self, vertex: int, count: int) -> int:
        """Encoded bits occupied by the first ``count`` entries of a row."""
        if count <= 0:
            return 0
        return int(self.header_bits[vertex]) + (count - 1) * int(self.entry_bits[vertex])

    def prefix_blocks(self, vertex: int, count: int, block_bits: int) -> int:
        """Blocks fetched for a ``count``-entry prefix of row ``vertex``."""
        bits = self.prefix_bits(vertex, count)
        return -(-bits // block_bits) if bits else 0

    def row_bits(self, degrees: np.ndarray) -> np.ndarray:
        """Encoded size in bits of every full row."""
        degrees = np.asarray(degrees, dtype=np.int64)
        bits = self.header_bits + np.maximum(degrees - 1, 0) * self.entry_bits
        return np.where(degrees > 0, bits, 0)

    def total_bits(self, degrees: np.ndarray) -> int:
        return int(self.row_bits(degrees).sum())

    def compression_ratio(self, degrees: np.ndarray) -> float:
        """Encoded size relative to plain CSR (1.0 = no saving)."""
        plain = int(np.asarray(degrees, dtype=np.int64).sum()) * self.edge_index_bits
        if plain == 0:
            return 1.0
        return self.total_bits(degrees) / plain


def build_layout(
    graph: CSRGraph, name: str = DEFAULT_LAYOUT, *, edge_index_bits: int = 32
) -> EdgeLayout:
    """Encode ``graph``'s edge array under the named layout.

    ``edge_index_bits`` is the plain entry width (``HWConfig.edge_index_bits``);
    compressed widths never exceed it.
    """
    validate_layout(name)
    n = graph.num_vertices
    offsets = np.asarray(graph.offsets, dtype=np.int64)
    edges = np.asarray(graph.edges, dtype=np.int64)
    meta: Dict[str, object] = {
        "ids_degree_sorted": bool(is_descending_degree_order(graph)),
    }

    if name == "plain":
        header = np.full(n, edge_index_bits, dtype=np.int64)
        entry = header.copy()
        return EdgeLayout(name, edge_index_bits, header, entry, meta)

    if name == "degree-sorted":
        row_max = segment_max(offsets, edges, initial=0)
        widths = np.minimum(_fit_widths(row_max, _ID_WIDTHS), edge_index_bits)
        return EdgeLayout(name, edge_index_bits, widths, widths.copy(), meta)

    # delta-compressed
    sorted_rows = rows_sorted(offsets, edges)
    header = np.full(n, edge_index_bits, dtype=np.int64)
    if edges.size >= 2:
        seg = segment_ids(offsets)
        deltas = edges[1:] - edges[:-1]
        # Pairs crossing a row boundary are not deltas; neutralise them.
        deltas = np.where(seg[1:] == seg[:-1], deltas, 0)
        # Per-row max delta via segment_max over the pair array: row r's
        # pairs are deltas[offsets[r]-1 : offsets[r+1]-1], which includes
        # its (zeroed) leading cross-boundary pair — harmless under max.
        pair_offsets = np.clip(offsets - 1, 0, deltas.size)
        row_max_delta = segment_max(pair_offsets, deltas, initial=0)
        widths = np.minimum(_fit_widths(row_max_delta, _DELTA_WIDTHS), edge_index_bits)
        entry = np.where(sorted_rows, widths, edge_index_bits)
    else:
        # Degenerate graph: every row has at most one edge, so the entry
        # width is unused; keep the minimal delta width for sorted rows.
        entry = np.where(sorted_rows, _DELTA_WIDTHS[0], edge_index_bits)
    meta["rows_delta_encoded"] = int(np.count_nonzero(sorted_rows))
    meta["rows_fallback_plain"] = int(n - np.count_nonzero(sorted_rows))
    return EdgeLayout(name, edge_index_bits, header, entry, meta)
