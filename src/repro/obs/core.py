"""Hierarchical spans and metric registries — the observability core.

A :class:`Registry` collects three kinds of signal from an instrumented
run:

* **spans** — named, nested time intervals.  Wall-clock spans come from
  the :meth:`Registry.span` context manager (or the :meth:`Registry.timed`
  decorator); externally-timed intervals — e.g. simulated cycle ranges
  from the accelerator model — enter through :meth:`Registry.record_span`
  with ``clock=CYCLE_CLOCK``.  Both land in the same
  :class:`SpanRecord` format, so one exported artifact can hold real
  wall-clock and simulated cycles side by side.
* **counters / gauges** — monotonic totals (:meth:`Registry.add`) and
  last-value measurements (:meth:`Registry.gauge`).
* **histograms** — running count/total/min/max summaries
  (:meth:`Registry.observe`).

The module keeps a **process-global default registry**, reachable via
:func:`get_registry`; library code is instrumented against whatever that
returns.  It starts *disabled*: every instrumentation point then reduces
to one attribute check (spans hand back a shared inert context manager,
metric calls return immediately), so the hot paths pay effectively
nothing — tier-1 enforces an overhead budget on the kernel benchmark.
Enable it with :func:`enable`, install a fresh collecting registry with
:func:`set_registry`, or scope one to a block with :func:`use_registry`.

Everything here is standard library only; exporters (JSON-lines file,
console table, in-memory sink) live in :mod:`repro.obs.exporters`.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "CYCLE_CLOCK",
    "WALL_CLOCK",
    "HistogramStat",
    "Registry",
    "SpanRecord",
    "disable",
    "enable",
    "get_registry",
    "set_registry",
    "use_registry",
]

WALL_CLOCK = "wall"
"""Clock tag for real elapsed time (``time.perf_counter`` seconds)."""

CYCLE_CLOCK = "cycles"
"""Clock tag for simulated accelerator cycles."""


@dataclass
class SpanRecord:
    """One completed span: a named interval on some clock.

    ``span_id``/``parent_id`` encode the nesting tree (ids are assigned
    at span *entry*, so a parent's id is always smaller than its
    children's); ``depth`` is the nesting level at entry.  Records are
    appended at span *exit*, so children precede their parent in a
    registry's span list — the conventional trace ordering.
    """

    name: str
    start: float
    end: float
    span_id: int
    parent_id: Optional[int] = None
    depth: int = 0
    clock: str = WALL_CLOCK
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "clock": self.clock,
            "attrs": dict(self.attrs),
        }


@dataclass
class HistogramStat:
    """Running summary of observed values (no buckets — count/total/extrema)."""

    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else builtins_min(self.min, value)
        self.max = value if self.max is None else builtins_max(self.max, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


# ``min``/``max`` are shadowed by the dataclass fields inside methods above.
builtins_min = min
builtins_max = max


class _NullSpan:
    """The shared inert span handle returned while a registry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _Span:
    """A live span handle; becomes a :class:`SpanRecord` on exit."""

    __slots__ = ("_registry", "name", "attrs", "span_id", "parent_id", "depth", "_start")

    def __init__(self, registry: "Registry", name: str, attrs: Dict[str, object]):
        self._registry = registry
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> "_Span":
        """Attach attributes to the span while it is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        reg = self._registry
        stack = reg._stack()
        parent = stack[-1] if stack else None
        self.span_id = next(reg._ids)
        self.parent_id = parent.span_id if parent is not None else None
        self.depth = len(stack)
        stack.append(self)
        self._start = reg._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        reg = self._registry
        end = reg._clock()
        stack = reg._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        reg.spans.append(
            SpanRecord(
                name=self.name,
                start=self._start,
                end=end,
                span_id=self.span_id,
                parent_id=self.parent_id,
                depth=self.depth,
                clock=WALL_CLOCK,
                attrs=self.attrs,
            )
        )
        return False


class Registry:
    """A collector for spans, counters, gauges and histograms.

    A freshly constructed registry is enabled; the process-global default
    starts disabled so instrumented library code is a no-op until a
    caller opts in.
    """

    def __init__(self, *, enabled: bool = True, clock: Callable[[], float] = time.perf_counter):
        self.enabled = enabled
        self._clock = clock
        self.spans: List[SpanRecord] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, HistogramStat] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- spans ----------------------------------------------------------
    def _stack(self) -> List[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs):
        """Open a wall-clock span as a context manager.

        Returns the shared :data:`NULL_SPAN` when disabled, so the call
        costs one branch and no allocation on the hot path.
        """
        if not self.enabled:
            return NULL_SPAN
        return _Span(self, name, attrs)

    def timed(self, name: Optional[str] = None, **attrs):
        """Decorator form of :meth:`span` (span named after the function)."""

        def deco(fn):
            label = name or fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(label, **attrs):
                    return fn(*args, **kwargs)

            return wrapper

        return deco

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        *,
        clock: str = CYCLE_CLOCK,
        parent_id: Optional[int] = None,
        depth: int = 0,
        **attrs,
    ) -> Optional[SpanRecord]:
        """Record an externally-timed interval (e.g. simulated cycles)."""
        if not self.enabled:
            return None
        rec = SpanRecord(
            name=name,
            start=float(start),
            end=float(end),
            span_id=next(self._ids),
            parent_id=parent_id,
            depth=depth,
            clock=clock,
            attrs=attrs,
        )
        self.spans.append(rec)
        return rec

    # -- metrics --------------------------------------------------------
    def add(self, name: str, value: float = 1) -> None:
        """Increment the counter ``name`` (created at zero on first use)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set the gauge ``name`` to its latest value."""
        if not self.enabled:
            return
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Feed one observation into the histogram ``name``."""
        if not self.enabled:
            return
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = HistogramStat()
        hist.observe(value)

    # -- introspection / export ----------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The collected state as one JSON-safe dict."""
        return {
            "spans": [s.to_dict() for s in self.spans],
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: h.to_dict() for k, h in self.histograms.items()},
        }

    def to_records(self) -> List[Dict[str, object]]:
        """The collected state as a flat list of typed records (JSONL rows)."""
        records: List[Dict[str, object]] = []
        for s in self.spans:
            records.append({"type": "span", **s.to_dict()})
        for name in sorted(self.counters):
            records.append(
                {"type": "counter", "name": name, "value": self.counters[name]}
            )
        for name in sorted(self.gauges):
            records.append({"type": "gauge", "name": name, "value": self.gauges[name]})
        for name in sorted(self.histograms):
            records.append(
                {"type": "histogram", "name": name, **self.histograms[name].to_dict()}
            )
        return records

    def clear(self) -> None:
        """Drop all collected data (the enabled flag is untouched)."""
        self.spans.clear()
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    def export(self, exporter) -> object:
        """Hand this registry to an exporter; returns whatever it returns."""
        return exporter.export(self)


_default = Registry(enabled=False)


def get_registry() -> Registry:
    """The process-global default registry (disabled until opted in)."""
    return _default


def set_registry(registry: Registry) -> Registry:
    """Install ``registry`` as the process-global default; returns it."""
    global _default
    _default = registry
    return registry


def enable() -> Registry:
    """Enable the current default registry and return it."""
    _default.enabled = True
    return _default


def disable() -> Registry:
    """Disable the current default registry and return it."""
    _default.enabled = False
    return _default


@contextmanager
def use_registry(registry: Registry) -> Iterator[Registry]:
    """Swap ``registry`` in as the process-global default for a block.

    The previous default is restored on exit, even on error.  This is
    how :func:`repro.color` scopes a per-call registry without touching
    ambient state.
    """
    global _default
    previous = _default
    _default = registry
    try:
        yield registry
    finally:
        _default = previous
