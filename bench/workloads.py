"""The benchmark's workloads: seeded inputs, set-up, timed phase, checks.

Every workload drives the program the way a caller does, through the
public entry points: ``repro.color``, the in-process
``ColoringService``, the Unix socket of ``serve`` and the mesh router of
``serve_mesh``.  The load comes from this one client process, with at
most two threads and two connections.

A workload's ``run`` returns a :class:`Phase`: the set-up samples, the
latency of every headline operation timed at the client from send to
reply, and what the untimed checks need afterwards.  Inputs are made
from the seed before any clock starts.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

import repro
from repro.coloring.verify import is_proper_coloring
from repro.experiments import REGISTRY, load_dataset
from repro.graph import CSRGraph, degree_based_grouping, erdos_renyi, rmat, sort_edges
from repro.parallel.shm import mp_context
from repro.service import (
    ColoringService,
    MeshConfig,
    ServiceError,
    build_request,
    connect,
    serve,
    serve_mesh,
)
from repro.service.protocol import request_to_wire

SAMPLE_REPLIES = 16
"""Replies per workload re-colored directly and compared byte for byte."""


def relabel(graph: CSRGraph, new_to_old: np.ndarray, name: str = "") -> CSRGraph:
    """``graph`` renumbered so new vertex ``i`` is old ``new_to_old[i]``
    (vectorized; ``repro.graph.random_permutation`` loops per vertex)."""
    deg = np.diff(graph.offsets)
    new_deg = deg[new_to_old]
    offsets = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    np.cumsum(new_deg, out=offsets[1:])
    old_to_new = np.empty_like(new_to_old)
    old_to_new[new_to_old] = np.arange(new_to_old.size)
    slots = np.repeat(graph.offsets[new_to_old] - offsets[:-1], new_deg)
    slots += np.arange(offsets[-1])
    return CSRGraph(offsets=offsets, edges=old_to_new[graph.edges[slots]],
                    name=name or graph.name)


@dataclass
class Phase:
    """What one timed phase measured and what its checks need."""

    setup_s: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    """Seconds per headline operation, client side."""
    window: tuple = (0.0, 0.0)
    """Start and end of the measured window (the clock's, in seconds)."""
    attempted: int = 0
    failed: int = 0
    replies: Dict[Any, np.ndarray] = field(default_factory=dict)
    """First colors seen per input key; later replies compare against it."""
    mismatched: int = 0
    results: list = field(default_factory=list)
    """``JobResult`` of every headline color reply."""
    outcomes: list = field(default_factory=list)
    """``ApplyOutcome`` of every session batch."""
    hw_stats: list = field(default_factory=list)
    """``AcceleratorStats`` per input of one pass (``direct-hw``)."""
    violations: List[str] = field(default_factory=list)
    request_bytes: float = 0.0
    """Mean size of a sampled color request frame (wire workloads)."""
    graphs: list = field(default_factory=list)
    """Preprocessed inputs (``direct-*``: they are made during set-up)."""

    def reply(self, key: Any, colors: np.ndarray) -> None:
        first = self.replies.get(key)
        if first is None:
            self.replies[key] = colors
        elif not np.array_equal(first, colors):
            self.mismatched += 1

    def record(self, start: float, end: float) -> None:
        self.latencies.append(end - start)

    def finish(self, clock: "Clock") -> None:
        self.window = (clock.start, clock.last)

    @property
    def ops(self) -> int:
        return len(self.latencies)

    @property
    def elapsed(self) -> float:
        return self.window[1] - self.window[0]


class Clock:
    """Stops a closed loop after ``seconds``; remembers the last finish."""

    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.deadline = self.start + seconds
        self.last = self.start

    def running(self) -> bool:
        return time.perf_counter() < self.deadline

    def done(self, t: float) -> None:
        self.last = max(self.last, t)


def _span(tracer, rid: str):
    """The client's round-trip span of request ``rid`` (traced runs only)."""
    return nullcontext() if tracer is None else tracer.span("client.roundtrip", rid)


# ----------------------------------------------------------------------
# Serving stacks: forked the way ``repro.cli serve`` runs them
# ----------------------------------------------------------------------
def _stack_main(socket_path: str, mesh_dir: Optional[str], tracer) -> None:
    try:
        if mesh_dir is None:
            serve(socket_path)
        else:
            serve_mesh(socket_path, MeshConfig(socket_dir=mesh_dir))
    finally:
        if tracer is not None:
            tracer.flush()
        os._exit(0)


class Stack:
    """One forked ``serve``/``serve_mesh`` process and its socket."""

    def __init__(self, workdir: Path, mesh: bool, tracer):
        # Relative paths keep the socket names short whatever the
        # checkout path is (Unix socket paths are capped near 108 bytes).
        self.dir = Path(os.path.relpath(workdir)) / f"stack{time.perf_counter_ns()}"
        self.dir.mkdir(parents=True)
        self.socket_path = str(self.dir / "s.sock")
        mesh_dir = str(self.dir / "mesh") if mesh else None
        self.clients: list = []
        self.process = mp_context().Process(
            target=_stack_main, args=(self.socket_path, mesh_dir, tracer)
        )
        self.process.start()

    def connect(self, timeout: float = 60.0):
        deadline = time.perf_counter() + timeout
        while True:
            if os.path.exists(self.socket_path):
                try:
                    client = connect(self.socket_path, client_id="bench")
                    self.clients.append(client)
                    return client
                except ServiceError:
                    pass
            if not self.process.is_alive() or time.perf_counter() > deadline:
                raise RuntimeError(f"serving stack at {self.socket_path} did not come up")
            time.sleep(0.002)

    def stop(self) -> None:
        for client in self.clients:
            client.close()
        self.process.terminate()  # SIGTERM: drain, then exit
        self.process.join(60)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(10)
        shutil.rmtree(self.dir, ignore_errors=True)


def boot_stacks(workdir, mesh, tracer, boots, first_request):
    """Boot ``boots`` times, each timed from fork to the first reply;
    all but the last are stopped.  Returns (stack, client, first, samples)."""
    samples = []
    for b in range(boots):
        t0 = time.perf_counter()
        stack = Stack(workdir, mesh, tracer)
        try:
            client = stack.connect()
            first = first_request(client)
        except BaseException:
            stack.stop()
            raise
        samples.append(time.perf_counter() - t0)
        if b < boots - 1:
            stack.stop()
    return stack, client, first, samples


# ----------------------------------------------------------------------
# Checks shared by the color workloads
# ----------------------------------------------------------------------
def check_color_replies(phase: Phase, graph_of: Callable, seed: int,
                        wire: bool = True) -> None:
    """Every distinct reply is a proper coloring; a seeded sample equals
    a direct ``repro.color`` call byte for byte.  On the wire workloads
    the sample also gives the mean request frame size."""
    if phase.mismatched:
        phase.violations.append(
            f"{phase.mismatched} replies differ from an earlier reply of the same input"
        )
    keys = list(phase.replies)
    for key in keys:
        if not is_proper_coloring(graph_of(key), phase.replies[key]):
            phase.violations.append(f"improper coloring for input {key!r}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(keys), size=min(SAMPLE_REPLIES, len(keys)), replace=False)
    sizes = []
    for i in picks:
        key = keys[int(i)]
        graph = graph_of(key)
        direct = repro.color(graph).colors
        if direct.tobytes() != np.asarray(phase.replies[key], dtype=direct.dtype).tobytes():
            phase.violations.append(f"reply for input {key!r} differs from repro.color")
        if wire:
            message = request_to_wire(build_request(graph=graph, client_id="bench"))
            sizes.append(len(json.dumps(message, sort_keys=True).encode()))
    phase.request_bytes = float(np.mean(sizes)) if sizes else 0.0


# ----------------------------------------------------------------------
# Session stream: one registered graph, batches of edge deltas
# ----------------------------------------------------------------------
SESSION_BATCHES = 64
SESSION_ADDS = 160
SESSION_EXPIRY = 8
"""Each batch removes the edges added this many batches earlier, so the
graph keeps its size however long the stream runs."""


def session_inputs(seed: int):
    graph = rmat(13, 8, seed=seed, name="session")
    rng = np.random.default_rng(seed + 1)
    n = graph.num_vertices
    adds = []
    for _ in range(SESSION_BATCHES):
        u = rng.integers(0, n, SESSION_ADDS)
        v = (u + rng.integers(1, n, SESSION_ADDS)) % n
        adds.append(np.stack([u, v], axis=1).astype(np.int64))
    batches = [(adds[i], adds[(i - SESSION_EXPIRY) % SESSION_BATCHES])
               for i in range(SESSION_BATCHES)]
    return graph, batches


def stream_session(handle, batches, clock: Clock, phase: Phase, tracer) -> None:
    """Closed loop of delta batches on one session until the clock stops;
    fills ``phase`` with the batch latencies and outcomes."""
    i = 0
    while clock.running():
        additions, removals = batches[i % len(batches)]
        i += 1
        phase.attempted += 1
        t0 = time.perf_counter()
        try:
            with _span(tracer, f"a{i}"):
                outcome = handle.apply(additions, removals)
        except ServiceError:
            phase.failed += 1
            continue
        t1 = time.perf_counter()
        phase.record(t0, t1)
        clock.done(t1)
        phase.outcomes.append(outcome)


def check_session(handle, phase: Phase) -> None:
    mirror = handle.colors.copy()
    try:
        handle.verify()
    except ServiceError as exc:
        phase.violations.append(f"session coloring invalid: {exc}")
    if not np.array_equal(mirror, handle.resync()):
        phase.violations.append("client session mirror differs from the server colors")


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""
    tail = 95
    """Tail percentile reported as ``tail_ms`` (fixed per workload; each
    leaves at least ten samples beyond it at the default run length)."""
    needs_fork = False
    boots = 5
    """Set-ups per untraced run; ``setup_s`` is their median."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def inputs(self, seed: int):
        raise NotImplementedError

    def run(self, inputs, seconds: float, boots: int, tracer) -> Phase:
        raise NotImplementedError

    def check(self, inputs, phase: Phase, seed: int) -> None:
        raise NotImplementedError


class SocketMixed(Workload):
    """Inline CL/EF-class graphs over the socket, a session stream beside."""

    name = "socket-mixed"
    tail = 90
    needs_fork = True
    DISTINCT = 192  # > the default 128-entry result cache: it never hits

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        # 1 EF : 2 CL keeps the median inside the CL latency mode.
        classes = ["EF"] * (self.DISTINCT // 3) + ["CL"] * (self.DISTINCT - self.DISTINCT // 3)
        order = rng.permutation(self.DISTINCT)
        keys = [(classes[j], int(rng.integers(2**62))) for j in order]
        bases = {k: load_dataset(k) for k in ("EF", "CL")}
        # Every boot's first request is the same class of graph, outside
        # the rotation, so set-up time does not depend on the seed.
        boot = ("CL", int(rng.integers(2**62)))
        return {"keys": keys, "bases": bases, "boot": boot, "session": session_inputs(seed)}

    def graph_of(self, inputs, key):
        cls, perm_seed = key
        base = inputs["bases"][cls]
        perm = np.random.default_rng(perm_seed).permutation(base.num_vertices)
        return relabel(base, perm, name=f"{cls}-{perm_seed}")

    def run(self, inputs, seconds, boots, tracer):
        keys = inputs["keys"]
        first = self.graph_of(inputs, inputs["boot"])
        stack, client, _, setup = boot_stacks(
            self.workdir, False, tracer, boots, lambda c: c.color(first)
        )
        phase = Phase(setup_s=setup)
        try:
            graph, batches = inputs["session"]
            writer_client = stack.connect()
            handle = writer_client.register(graph)
            clock = Clock(seconds)
            writes = Phase()
            writer = threading.Thread(
                target=stream_session,
                args=(handle, batches, Clock(seconds), writes, tracer),
            )
            writer.start()
            i = 0
            while clock.running():
                key = keys[i % len(keys)]
                i += 1
                g = self.graph_of(inputs, key)
                phase.attempted += 1
                rid = f"c{i}"
                t0 = time.perf_counter()
                try:
                    with _span(tracer, rid):
                        result = client.color(g)
                except ServiceError:
                    phase.failed += 1
                    continue
                t1 = time.perf_counter()
                phase.record(t0, t1)
                clock.done(t1)
                phase.results.append(result)
                phase.reply(key, result.colors)
            writer.join()
            phase.finish(clock)
            phase.attempted += writes.attempted
            phase.failed += writes.failed
            phase.outcomes = writes.outcomes
            check_session(handle, phase)
        finally:
            stack.stop()
        return phase

    def check(self, inputs, phase, seed):
        check_color_replies(phase, lambda key: self.graph_of(inputs, key), seed)


class SessionStream(Workload):
    """The session lane alone: small delta frames, incremental repair."""

    name = "session-stream"
    tail = 95  # p99 would land among the ~3% churn-triggered full recolors
    needs_fork = True

    def inputs(self, seed):
        return session_inputs(seed)

    def run(self, inputs, seconds, boots, tracer):
        graph, batches = inputs
        stack, client, handle, setup = boot_stacks(
            self.workdir, False, tracer, boots, lambda c: c.register(graph)
        )
        phase = Phase(setup_s=setup)
        try:
            clock = Clock(seconds)
            stream_session(handle, batches, clock, phase, tracer)
            phase.finish(clock)
            check_session(handle, phase)
        finally:
            stack.stop()
        return phase

    def check(self, inputs, phase, seed):
        pass  # check_session ran while the stack was up


class MeshZipf(Workload):
    """Zipf-popular graphs through a 2-worker mesh: cache hits, so the
    router's decode → re-encode → forward path dominates."""

    name = "mesh-zipf"
    tail = 95
    needs_fork = True
    DISTINCT = 64
    DRAWS = 50_000

    def inputs(self, seed):
        # Graph i has popularity rank i and 2**(8 + i % 6) vertices, so the
        # mix of frame sizes is the same for every seed; the seed picks
        # the graphs' edges and the draw sequence.
        graphs = [
            rmat(8 + i % 6, 8, seed=seed * 1000 + i, name=f"zipf{i}")
            for i in range(self.DISTINCT)
        ]
        rng = np.random.default_rng(seed)
        weights = 1.0 / np.arange(1, self.DISTINCT + 1) ** 1.1
        draws = [
            rng.choice(self.DISTINCT, size=self.DRAWS, p=weights / weights.sum())
            for _ in range(2)
        ]
        return {"graphs": graphs, "draws": draws}

    def run(self, inputs, seconds, boots, tracer):
        graphs = inputs["graphs"]
        stack, client, _, setup = boot_stacks(
            self.workdir, True, tracer, boots, lambda c: c.color(graphs[0])
        )
        phase = Phase(setup_s=setup)
        lock = threading.Lock()
        try:
            for g in graphs:  # warm the workers' caches before the clock
                client.color(g)
            clients = [client, stack.connect()]
            clock = Clock(seconds)

            def loop(t: int) -> None:
                draws = inputs["draws"][t]
                i = 0
                while clock.running() and i < len(draws):
                    key = int(draws[i])
                    i += 1
                    rid = f"c{t}-{i}"
                    t0 = time.perf_counter()
                    try:
                        with _span(tracer, rid):
                            result = clients[t].color(graphs[key])
                        error = False
                    except ServiceError:
                        error = True
                    t1 = time.perf_counter()
                    with lock:
                        phase.attempted += 1
                        if error:
                            phase.failed += 1
                            continue
                        phase.record(t0, t1)
                        clock.done(t1)
                        phase.results.append(result)
                        phase.reply(key, result.colors)

            other = threading.Thread(target=loop, args=(1,))
            other.start()
            loop(0)
            other.join()
            phase.finish(clock)
        finally:
            stack.stop()
        return phase

    def check(self, inputs, phase, seed):
        check_color_replies(phase, lambda key: inputs["graphs"][key], seed)


class InprocSmall(Workload):
    """Small graphs through an in-process service: no wire, so admission,
    dispatch, routing and the micro-batch lane do the work."""

    name = "inproc-small"
    tail = 95
    DISTINCT = 1024
    WINDOW = 32

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return [
            erdos_renyi(int(rng.integers(100, 171)), 0.08,
                        seed=int(rng.integers(2**62)), name=f"er{i}")
            for i in range(self.DISTINCT)
        ]

    def run(self, inputs, seconds, boots, tracer):
        setup = []
        svc = None
        for b in range(boots):
            t0 = time.perf_counter()
            svc = ColoringService()
            svc.color(inputs[0])
            setup.append(time.perf_counter() - t0)
            if b < boots - 1:
                svc.close()
        phase = Phase(setup_s=setup)
        try:
            clock = Clock(seconds)
            pending: deque = deque()
            i = 0

            def finish() -> None:
                key, job, rid, t0 = pending.popleft()
                try:
                    result = job.result_or_raise()
                except ServiceError:
                    phase.failed += 1
                    return
                t1 = time.perf_counter()
                phase.record(t0, t1)
                clock.done(t1)
                phase.results.append(result)
                phase.reply(key, result.colors)
                if tracer is not None:
                    tracer.record("client.roundtrip", rid, t0, t1)

            while clock.running():
                key = (i + 1) % len(inputs)
                i += 1
                rid = f"c{i}"
                request = build_request(graph=inputs[key], client_id="bench")
                if tracer is not None:
                    tracer.rid_by_job[request.job_id] = rid
                phase.attempted += 1
                t0 = time.perf_counter()
                try:
                    job = svc.submit(request)
                except ServiceError:
                    phase.failed += 1
                    continue
                pending.append((key, job, rid, t0))
                if len(pending) >= self.WINDOW:
                    finish()
            while pending:
                finish()
            phase.finish(clock)
        finally:
            svc.close()
        return phase

    def check(self, inputs, phase, seed):
        check_color_replies(phase, lambda key: inputs[key], seed, wire=False)


class Direct(Workload):
    """``repro.color`` on the CL and RC paper-tier stand-ins, no service."""

    tail = 90
    boots = 3  # each set-up preprocesses two paper-tier graphs (~1.2 s)
    GRAPHS = ("CL", "RC")

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        raw = []
        for key in self.GRAPHS:
            g = REGISTRY[key].build_raw("paper")
            raw.append(relabel(g, rng.permutation(g.num_vertices), name=f"{key}-paper"))
        return raw

    def color(self, graph):
        raise NotImplementedError

    def run(self, inputs, seconds, boots, tracer):
        setup = []
        for _ in range(boots):
            t0 = time.perf_counter()
            graphs = [sort_edges(degree_based_grouping(g).graph) for g in inputs]
            setup.append(time.perf_counter() - t0)
        phase = Phase(setup_s=setup, graphs=graphs)
        clock = Clock(seconds)
        i = 0
        while clock.running():
            i += 1
            rid = f"p{i}"
            outs = []
            phase.attempted += 1
            t0 = time.perf_counter()
            with _span(tracer, rid):
                for g in graphs:
                    outs.append(self.color(g))
            t1 = time.perf_counter()
            phase.record(t0, t1)
            clock.done(t1)
            for k, out in enumerate(outs):
                phase.reply(k, out.colors)
            if not phase.hw_stats and hasattr(outs[0], "stats"):
                phase.hw_stats = [out.stats for out in outs]
        phase.finish(clock)
        return phase

    def check(self, inputs, phase, seed):
        if phase.mismatched:
            phase.violations.append(f"{phase.mismatched} passes changed colors")
        for k, g in enumerate(phase.graphs):
            if not is_proper_coloring(g, phase.replies[k]):
                phase.violations.append(f"improper coloring of {g.name}")


class DirectSw(Direct):
    name = "direct-sw"

    def color(self, graph):
        return repro.color(graph)


class DirectHw(Direct):
    name = "direct-hw"
    tail = 75

    def color(self, graph):
        return repro.color(graph, backend="hw", engine="batched")

    def check(self, inputs, phase, seed):
        super().check(inputs, phase, seed)
        for k, g in enumerate(phase.graphs):
            if not np.array_equal(repro.color(g).colors, phase.replies[k]):
                phase.violations.append(f"hw colors of {g.name} differ from software")


WORKLOADS = {
    cls.name: cls
    for cls in (SocketMixed, SessionStream, MeshZipf, InprocSmall, DirectSw, DirectHw)
}
