"""Span recorder for the benchmark's traced run.

The traced run times calls into each layer's public functions from the
outside: :func:`install` replaces module and class attributes of the
program with timing wrappers, so no program file changes.  Wrappers are
installed before the serving stack forks, so forked servers and mesh
workers inherit them.

A span records its name, start, end, parent span and request id.  Spans
live in memory; :meth:`Tracer.flush` appends them to one JSON-lines file
per process (mesh workers leave through ``os._exit``, so each process
flushes its own file before it exits) and :func:`collect` merges the
files after the run.  All processes read the same system-wide monotonic
clock (``time.perf_counter``), so spans of one request compare across
processes.

Request ids cross the wire as an extra ``trace_rid`` key in the color
message, which the program ignores; inside a process the id follows the
request through ``JobRequest.job_id`` and the ``JobResult`` object.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """In-memory span buffer of one process (reset in forked children)."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[tuple] = []
        self.rid_by_job: Dict[int, str] = {}
        self.rid_by_result: Dict[int, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_rid(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][1] if stack else None

    @contextmanager
    def span(self, name: str, rid: Optional[str] = None):
        """Time the enclosed block; the innermost open span is its parent
        and lends it its request id when ``rid`` is None."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid = parent[1]
        sid = next(self._ids)
        stack.append((sid, rid))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, parent[0] if parent else None, name, rid, start, end)
            )

    def record(self, name: str, rid: str, start: float, end: float) -> None:
        """A root span timed by the caller (for overlapping requests that
        one thread keeps in flight at once)."""
        self.spans.append((next(self._ids), None, name, rid, start, end))

    def traced(
        self,
        name: str,
        fn: Callable,
        rid_of: Optional[Callable[..., Optional[str]]] = None,
        on_result: Optional[Callable[[Any, Optional[str]], None]] = None,
    ) -> Callable:
        """``fn`` recording one span per call.  ``rid_of(*args)`` names the
        call's request; ``on_result(result, rid)`` sees what it returned."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rid = rid_of(*args, **kwargs) if rid_of is not None else None
            with self.span(name, rid):
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result, rid if rid is not None else self.current_rid())
            return result

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` with its :meth:`traced` version."""
        setattr(owner, attr, self.traced(name, getattr(owner, attr), **kwargs))

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Append this process's spans to its own file."""
        spans, self.spans = self.spans, []
        path = self.out_dir / f"{self.pid}.jsonl"
        with open(path, "a") as fh:
            for sid, parent, name, rid, start, end in spans:
                fh.write(json.dumps({
                    "pid": self.pid, "id": sid, "parent": parent, "name": name,
                    "rid": rid, "start": start, "end": end,
                }) + "\n")


def collect(out_dir: Path) -> List[dict]:
    """Merge every process's file into one span list."""
    return [
        json.loads(line)
        for path in sorted(Path(out_dir).glob("*.jsonl"))
        for line in path.read_text().splitlines()
    ]


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""
    import repro.graph.csr as csr
    import repro.hw.batched as hw_batched
    import repro.kernels as kernels
    from repro.kernels import native
    from repro.service import (
        client,
        execution,
        jobs,
        mesh,
        router,
        server,
        service,
        sessions,
    )

    def rid_of_message(message, *args, **kwargs):
        return message.get("trace_rid")

    def remember_job(request, rid):
        if rid is not None:
            tracer.rid_by_job[request.job_id] = rid

    def stamp_message(message, rid):
        if rid is not None:
            message["trace_rid"] = rid

    def remember_result(result, rid):
        if rid is not None:
            tracer.rid_by_result[id(result)] = rid

    # service.protocol, as bound in the modules that call it
    tracer.wrap(client, "request_to_wire", "protocol.request_to_wire",
                on_result=stamp_message)
    tracer.wrap(client, "write_frame", "protocol.write_frame")
    tracer.wrap(client, "result_from_wire", "protocol.result_from_wire")
    tracer.wrap(server, "request_from_wire", "protocol.request_from_wire",
                rid_of=rid_of_message, on_result=remember_job)
    tracer.wrap(server, "result_to_wire", "protocol.result_to_wire",
                rid_of=lambda result: tracer.rid_by_result.pop(id(result), None))
    tracer.wrap(mesh, "request_from_wire", "mesh.request_from_wire",
                rid_of=rid_of_message)
    # service.service / service.jobs / service.router / service.batcher
    tracer.wrap(service.ColoringService, "submit", "service.submit",
                rid_of=lambda self, request: tracer.rid_by_job.get(request.job_id))
    tracer.wrap(jobs.Job, "result_or_raise", "service.wait",
                rid_of=lambda self, *a, **k: tracer.rid_by_job.get(self.request.job_id),
                on_result=remember_result)
    tracer.wrap(router.Router, "route", "router.route",
                rid_of=lambda self, request, graph: tracer.rid_by_job.get(request.job_id))
    tracer.wrap(execution, "run_microbatch", "batcher.run_microbatch")
    # service.sessions / service.mesh
    tracer.wrap(sessions.SessionManager, "apply", "sessions.apply")
    tracer.wrap(mesh.ColoringMesh, "handle_color_message", "mesh.handle_color_message",
                rid_of=lambda self, message: message.get("trace_rid"))
    tracer.wrap(mesh.ColoringMesh, "forward", "mesh.forward",
                rid_of=lambda self, message, key: message.get("trace_rid"))
    # graph.csr
    tracer.wrap(csr, "csr_fingerprint", "graph.csr_fingerprint")
    # kernels: the tier pair handed to every coloring call
    resolve = kernels.resolve_tier_kernels

    @functools.wraps(resolve)
    def resolve_traced(tier):
        scatter_or, first_free = resolve(tier)
        return (tracer.traced("kernels.scatter_or", scatter_or),
                tracer.traced("kernels.first_free", first_free))

    kernels.resolve_tier_kernels = resolve_traced
    # hw
    tracer.wrap(hw_batched, "run_batched", "hw.run_batched")
    if native.available():
        impl = type(native.require())
        tracer.wrap(impl, "replay_epoch", "hw.replay_epoch")

    # Mesh workers run ``serve`` and then ``os._exit``: flush on the way out.
    serve = mesh.serve

    @functools.wraps(serve)
    def serve_then_flush(*args, **kwargs):
        try:
            return serve(*args, **kwargs)
        finally:
            tracer.flush()

    mesh.serve = serve_then_flush


def self_seconds(span: dict, children: List[dict]) -> float:
    """A span's duration minus the part of it its children cover."""
    return (span["end"] - span["start"]) - covered(span, children)


def covered(span: dict, others: List[dict]) -> float:
    """Length of the union of ``others`` clipped to ``span``'s interval."""
    lo, hi = span["start"], span["end"]
    intervals = sorted(
        (max(lo, o["start"]), min(hi, o["end"]))
        for o in others
        if o["end"] > lo and o["start"] < hi
    )
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in intervals:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def nesting_violations(spans: List[dict]) -> int:
    """Spans that leave their parent's interval or, for a request's spans
    in other threads and processes, the client's round trip."""
    eps = 1e-6
    by_id = {(s["pid"], s["id"]): s for s in spans}
    roots = {s["rid"]: s for s in spans if s["name"] == "client.roundtrip"}
    bad = 0
    for s in spans:
        outer = by_id.get((s["pid"], s["parent"])) if s["parent"] else None
        if outer is None and s["rid"] in roots and roots[s["rid"]] is not s:
            outer = roots[s["rid"]]
        if outer is not None and (
            s["start"] < outer["start"] - eps or s["end"] > outer["end"] + eps
        ):
            bad += 1
    return bad
