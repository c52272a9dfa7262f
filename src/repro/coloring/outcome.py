"""The shared result surface of every coloring entry point.

Historically each algorithm grew its own result dataclass
(``BitwiseResult``, ``GreedyResult``, ``JPResult``, ``MISColoringResult``,
``GunrockResult``, ``RecolorResult`` — plus the accelerator's
``AcceleratorResult``) with divergent spellings for the same two facts:
the color array and how many colors it uses.  :class:`ColoringOutcome`
is the uniform protocol they all satisfy now:

* ``.colors`` — the 1-based color array (0 = uncolored);
* ``.n_colors`` — the number of distinct colors used;
* ``.as_dict()`` — the whole result as one JSON-safe dict.

Algorithm-specific fields (stage counters, round records, prune stats)
remain available on the concrete classes, but generic consumers — the
:func:`repro.color` facade, exporters, report generators — should code
against the protocol instead of spelunking per-class fields.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Protocol, runtime_checkable

import numpy as np

__all__ = ["ColoringOutcome", "OutcomeMixin", "PlainColoringResult"]


@runtime_checkable
class ColoringOutcome(Protocol):
    """What every coloring result guarantees, regardless of algorithm."""

    @property
    def colors(self) -> np.ndarray: ...

    @property
    def n_colors(self) -> int: ...

    def as_dict(self) -> Dict[str, object]: ...


def _jsonable(value):
    """Recursively convert a result field into JSON-safe primitives."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


class OutcomeMixin:
    """Default :class:`ColoringOutcome` implementation for result dataclasses.

    Assumes the concrete dataclass stores its color count in a
    ``num_colors`` field; classes with a different spelling override
    :attr:`n_colors` (see ``RecolorResult``).
    """

    @property
    def n_colors(self) -> int:
        return int(self.num_colors)

    def as_dict(self) -> Dict[str, object]:
        """Every dataclass field, JSON-safe, plus the canonical ``n_colors``."""
        out = {
            f.name: _jsonable(getattr(self, f.name))
            for f in dataclasses.fields(self)
        }
        out["n_colors"] = self.n_colors
        return out


@dataclasses.dataclass
class PlainColoringResult(OutcomeMixin):
    """Adapter outcome for algorithms that return a bare color array.

    ``dsatur_coloring`` (and any future array-returning baseline) gains
    the uniform surface through this wrapper without changing its own
    signature.
    """

    colors: np.ndarray
    num_colors: int
    algorithm: str = ""

    @classmethod
    def from_colors(cls, colors: np.ndarray, *, algorithm: str = "") -> "PlainColoringResult":
        colors = np.asarray(colors)
        used = np.unique(colors[colors != 0])
        return cls(colors=colors, num_colors=int(used.size), algorithm=algorithm)
