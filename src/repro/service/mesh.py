"""Multi-worker service mesh: N coloring services behind one router.

The single-process service tops out at one GIL-bound dispatch loop no
matter how fast the kernels get.  The mesh is the scale-out story for
many jobs: N full :class:`~repro.service.service.ColoringService`
workers run as separate **processes** (each with its own Unix socket,
admission queue, executor pool, and result cache), fronted by a router
that owns only placement.  Every job runs whole on one worker, on the
backend it was routed to; a pinned job (``backend="hw"`` included) gets
that backend from its worker like any other.

Placement (:mod:`repro.service.placement`):

* jobs are **consistent-hashed** by canonical CSR fingerprint, so a
  resubmitted graph lands on the worker whose cache already holds it;
* when the home worker sheds (:class:`~repro.service.jobs.RetryAfter`
  from its bounded admission queue), the router **spills** the job to
  the least-loaded live worker instead of bouncing the shed upstream;
* a health thread pings every worker; a dead worker is removed from the
  ring (**re-hash**) and its key range redistributes to the survivors —
  in-flight jobs on the dead worker fail over transparently, resident
  sessions on it are lost (``SessionNotFound`` on next touch).

Execution inside each worker is the unmodified
:class:`~repro.service.execution.ExecutionEngine`: the mesh changes
where a job runs, never what runs.

The router is a thin relay.  Its socket is :class:`MeshServer`, the
same :class:`~repro.service.server.FrameServer` that fronts a single
service, with a :meth:`~MeshServer.handle` that passes each message to
:class:`ColoringMesh`; each worker is a plain
:func:`~repro.service.server.serve` process.  Framing, malformed-frame
replies, signals and shutdown are therefore the single service's.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Optional, Union

from ..graph.csr import CSRGraph
from ..parallel.shm import mp_context
from .client import Client
from .jobs import (
    JobResult,
    RetryAfter,
    ServiceClosed,
    ServiceError,
    SessionNotFound,
    build_request,
)
from .placement import MeshPlacement, placement_key
from .protocol import (
    error_reply,
    request_from_wire,
    request_to_wire,
    result_from_wire,
    wire_to_error,
)
from .server import FrameServer, serve
from .service import ServiceConfig

__all__ = ["ColoringMesh", "MeshConfig", "MeshServer", "serve_mesh"]


@dataclass
class MeshConfig:
    """Tunables of one mesh deployment."""

    workers: int = 2
    """Worker processes behind the router."""
    service: Optional[ServiceConfig] = None
    """Per-worker service template (registry/obs fields are reset per
    worker — each process collects its own).  None = defaults."""
    socket_dir: Optional[Union[str, Path]] = None
    """Directory for worker sockets; None = a fresh temp dir."""
    replicas: int = 64
    """Virtual nodes per worker on the consistent-hash ring."""
    health_interval_s: float = 0.5
    """Cadence of the worker health/load probe."""
    spawn_timeout_s: float = 20.0
    """How long to wait for a worker's socket to come up."""


def _worker_main(socket_path: str, config: ServiceConfig) -> None:
    """Entry point of one worker process: serve until SIGTERM, then die.

    ``serve`` installs the clean-drain signal handlers, so the router's
    ``terminate()`` drains queued and in-flight jobs before exit.  The
    trailing ``os._exit`` is defensive: a forked child inherits the
    parent's module state (open exporters and their atexit hook) and must
    never run teardown that belongs to the parent.
    """
    try:
        serve(socket_path, config)
    except Exception:  # pragma: no cover - worker crash path
        pass
    finally:
        os._exit(0)


class _WorkerLink:
    """Connection pool onto one worker's socket.

    The plain :class:`~repro.service.client.Client` serializes round
    trips under a lock; the router needs concurrent in-flight forwards
    per worker, so the link keeps a LIFO free-list of clients and opens
    another when all are busy.  Transport failures close the failing
    connection and propagate — the mesh treats them as worker death.
    """

    def __init__(self, socket_path: Union[str, Path]):
        self.socket_path = Path(socket_path)
        self._idle: deque = deque()
        self._lock = threading.Lock()
        self._closed = False

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with self._lock:
            if self._closed:
                raise ServiceError(f"link to {self.socket_path} is closed")
            client = self._idle.pop() if self._idle else None
        if client is None:
            client = Client(socket_path=self.socket_path)
        try:
            response = client.call(message)
        except BaseException:
            client.close()
            raise
        with self._lock:
            if self._closed:
                client.close()
            else:
                self._idle.append(client)
        return response

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = list(self._idle), deque()
        for client in idle:
            client.close()


class _Worker:
    """One spawned worker: its process, socket, and link."""

    def __init__(self, name: str, process, socket_path: Path):
        self.name = name
        self.process = process
        self.socket_path = socket_path
        self.link = _WorkerLink(socket_path)


class ColoringMesh:
    """N worker processes + consistent-hash routing, one color() surface."""

    def __init__(self, config: Optional[MeshConfig] = None):
        self.config = config or MeshConfig()
        if self.config.workers < 1:
            raise ValueError(
                f"mesh needs >= 1 worker, got {self.config.workers}"
            )
        if self.config.socket_dir is not None:
            self._socket_dir = Path(self.config.socket_dir)
            self._socket_dir.mkdir(parents=True, exist_ok=True)
            self._owns_socket_dir = False
        else:
            self._socket_dir = Path(tempfile.mkdtemp(prefix="repro-mesh-"))
            self._owns_socket_dir = True
        self._workers: Dict[str, _Worker] = {}
        self._session_homes: Dict[str, str] = {}
        self._closed = False
        self._started_at = time.monotonic()
        names = [f"w{i}" for i in range(self.config.workers)]
        for name in names:
            self._workers[name] = self._spawn(name)
        self.placement = MeshPlacement(names, replicas=self.config.replicas)
        self._stop = threading.Event()
        self._health = threading.Thread(
            target=self._health_loop, name="repro-mesh-health", daemon=True
        )
        self._health.start()

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _worker_config(self) -> ServiceConfig:
        template = self.config.service or ServiceConfig()
        # Each worker process collects its own observability and must
        # not share (or double-export) the router's registry.
        return replace(template, registry=None, obs_path=None)

    def _spawn(self, name: str) -> _Worker:
        socket_path = self._socket_dir / f"{name}.sock"
        process = mp_context().Process(
            target=_worker_main,
            args=(str(socket_path), self._worker_config()),
            name=f"repro-mesh-{name}",
            daemon=True,
        )
        process.start()
        worker = _Worker(name, process, socket_path)
        deadline = time.monotonic() + self.config.spawn_timeout_s
        while time.monotonic() < deadline:
            if socket_path.exists():
                try:
                    if worker.link.call({"op": "ping"}).get("pong"):
                        return worker
                except Exception:
                    pass
            if not process.is_alive():
                raise ServiceError(f"mesh worker {name} died during startup")
            time.sleep(0.02)
        raise ServiceError(
            f"mesh worker {name} did not bind {socket_path} within "
            f"{self.config.spawn_timeout_s}s"
        )

    def _on_worker_death(self, name: str) -> None:
        if self.placement.mark_dead(name):
            worker = self._workers.get(name)
            if worker is not None:
                worker.link.close()
                with contextlib.suppress(Exception):
                    worker.process.join(timeout=0)
                with contextlib.suppress(OSError):
                    worker.socket_path.unlink()
            # Sessions resident on the dead worker are gone; forget the
            # routes so the next touch raises SessionNotFound directly.
            lost = [
                sid for sid, home in self._session_homes.items() if home == name
            ]
            for sid in lost:
                self._session_homes.pop(sid, None)

    def _health_loop(self) -> None:
        while not self._stop.wait(self.config.health_interval_s):
            self.check_workers()

    def check_workers(self) -> None:
        """One health/load sweep (the health thread's body, callable
        directly from tests and the CLI)."""
        for name in self.placement.live_workers:
            worker = self._workers.get(name)
            if worker is None:
                continue
            if not worker.process.is_alive():
                self._on_worker_death(name)
                continue
            try:
                response = worker.link.call({"op": "status"})
            except Exception:
                self._on_worker_death(name)
                continue
            if response.get("ok"):
                snapshot = response["status"]
                self.placement.update_load(
                    name,
                    snapshot.get("queue_depth", 0),
                    snapshot.get("inflight", 0),
                )

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    @staticmethod
    def _is_shed(response: Dict[str, Any]) -> bool:
        return (
            not response.get("ok")
            and response.get("error", {}).get("code") == "retry_after"
        )

    def _call_worker(
        self, name: str, message: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """One raw call; None (after marking dead) on transport failure."""
        worker = self._workers.get(name)
        if worker is None:
            return None
        try:
            return worker.link.call(message)
        except Exception:
            self._on_worker_death(name)
            return None

    def forward(self, message: Dict[str, Any], key: str) -> Dict[str, Any]:
        """Route one wire message by ``key``: home → spill → relay.

        The home worker is the consistent-hash owner.  A shed from the
        home spills once to the least-loaded other live worker; a second
        shed is relayed to the caller (whose retry hint still applies).
        Transport failures re-hash and retry until a worker answers or
        none are left.
        """
        return self._forward_traced(message, key)[0]

    def _forward_traced(self, message: Dict[str, Any], key: str):
        """:meth:`forward` plus the name of the worker that answered."""
        if self._closed:
            raise ServiceClosed("mesh is shutting down")
        while True:
            try:
                home = self.placement.home(key)
            except LookupError:
                raise ServiceClosed("no live mesh workers") from None
            response = self._call_worker(home, message)
            if response is None:
                continue  # home died; the ring has re-hashed
            if self._is_shed(response):
                target = self.placement.spill_target(key, exclude=[home])
                if target is not None and target != home:
                    spilled = self._call_worker(target, message)
                    if spilled is not None:
                        return spilled, target
            return response, home

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    def color(
        self,
        graph: Optional[CSRGraph] = None,
        *,
        dataset: Optional[str] = None,
        algorithm: str = "bitwise",
        backend: Optional[str] = None,
        engine: Optional[str] = None,
        priority: int = 0,
        client_id: str = "mesh",
        timeout_s: Optional[float] = None,
        retries: int = 0,
        **opts: Any,
    ) -> JobResult:
        """Submit one job to the mesh and wait (mirrors ``Client.color``).

        ``retries`` reacts to a shed that survived the spill: sleep the
        hint and resubmit, same contract as the single-service client.
        """
        request = build_request(
            graph=graph,
            dataset=dataset,
            algorithm=algorithm,
            backend=backend,
            engine=engine,
            opts=opts,
            priority=priority,
            client_id=client_id,
            timeout_s=timeout_s,
        )
        attempts = max(0, retries) + 1
        for attempt in range(attempts):
            response = self.handle_color_message(request_to_wire(request))
            if response.get("ok"):
                return result_from_wire(response["result"])
            error = wire_to_error(response.get("error", {}))
            if isinstance(error, RetryAfter) and attempt + 1 < attempts:
                time.sleep(error.retry_after_s)
                continue
            raise error

    def handle_color_message(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Place one decoded-once ``op="color"`` message; returns the frame."""
        try:
            request = request_from_wire(message)
        except BaseException as exc:
            return error_reply(exc)
        return self.forward(message, placement_key(request, request.graph))

    # ------------------------------------------------------------------
    # Sessions (forwarded whole to the session's home worker)
    # ------------------------------------------------------------------
    def forward_session(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = str(message.get("op", ""))
        if op == "session.register":
            try:
                request = request_from_wire(message)
            except BaseException as exc:
                return error_reply(exc)
            response, worker = self._forward_traced(
                message, placement_key(request, request.graph)
            )
            if response.get("ok"):
                # Remember the worker that actually answered (spill may
                # have moved it off the hash home) so later ops follow.
                session_id = response["session"]["session_id"]
                self._session_homes[session_id] = worker
            return response
        session_id = str(message.get("session_id", ""))
        home = self._session_homes.get(session_id)
        if home is None or home not in self.placement.live_workers:
            return error_reply(
                SessionNotFound(
                    f"unknown session {session_id!r} (no live owner "
                    "in the mesh — its worker may have died)"
                )
            )
        response = self._call_worker(home, message)
        if response is None:
            return error_reply(
                SessionNotFound(f"session {session_id!r} lost: its worker died")
            )
        if op == "session.close" and response.get("ok"):
            self._session_homes.pop(session_id, None)
        return response

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """Aggregated mesh snapshot (the router's ``status`` op)."""
        placement = self.placement.stats()
        workers: Dict[str, Any] = {}
        queue_depth = 0
        inflight = 0
        for name in placement["live"]:
            worker = self._workers.get(name)
            if worker is None:
                continue
            try:
                response = worker.link.call({"op": "status"})
            except Exception:
                workers[name] = {"status": "unreachable"}
                continue
            if response.get("ok"):
                snapshot = response["status"]
                workers[name] = snapshot
                queue_depth += snapshot.get("queue_depth", 0)
                inflight += snapshot.get("inflight", 0)
            else:  # pragma: no cover - worker-side status failure
                workers[name] = {"status": "error"}
        for name in placement["dead"]:
            workers[name] = {"status": "dead"}
        return {
            "status": "ok" if placement["live"] else "degraded",
            "mode": "mesh",
            "uptime_s": time.monotonic() - self._started_at,
            "queue_depth": queue_depth,
            "inflight": inflight,
            "placement": placement,
            "workers": workers,
            "sessions": {"routed": len(self._session_homes)},
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, *, timeout: float = 30.0) -> None:
        """Stop the mesh: drain every worker (SIGTERM), then reap."""
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        self._health.join(timeout=5)
        for worker in self._workers.values():
            worker.link.close()
            if worker.process.is_alive():
                worker.process.terminate()  # SIGTERM → clean drain
        deadline = time.monotonic() + timeout
        for worker in self._workers.values():
            worker.process.join(
                timeout=max(0.1, deadline - time.monotonic())
            )
            if worker.process.is_alive():  # pragma: no cover - hung worker
                worker.process.kill()
                worker.process.join(timeout=5)
            with contextlib.suppress(OSError):
                worker.socket_path.unlink()
        if self._owns_socket_dir:
            with contextlib.suppress(OSError):
                self._socket_dir.rmdir()

    def __enter__(self) -> "ColoringMesh":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MeshServer(FrameServer):
    """Unix-socket front-end over a :class:`ColoringMesh` router.

    The same :class:`~repro.service.server.FrameServer` as the
    single-service server, so the existing ``submit``/``submit-deltas``
    CLI verbs and :func:`~repro.service.client.connect` work unchanged
    against a mesh socket; :meth:`handle` adds the ``mesh.status`` op
    behind the ``mesh-status`` verb and otherwise relays each message to
    the router.
    """

    def __init__(
        self,
        mesh: ColoringMesh,
        socket_path: Union[str, Path],
        *,
        owns_mesh: bool = False,
    ):
        super().__init__(socket_path)
        self.mesh = mesh
        self.owns_mesh = owns_mesh
        """Whether :meth:`stop` also closes (drains) the mesh."""

    def close_owned(self) -> None:
        if self.owns_mesh:
            self.mesh.close()

    def handle(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = str(message.get("op", ""))
        if op in ("status", "mesh.status"):
            return {"ok": True, "status": self.mesh.status()}
        if op == "color":
            return self.mesh.handle_color_message(message)
        if op.startswith("session."):
            return self.mesh.forward_session(message)
        raise ServiceError(f"unknown op {op!r}")


def serve_mesh(
    socket_path: Union[str, Path],
    config: Optional[MeshConfig] = None,
    *,
    mesh: Optional[ColoringMesh] = None,
    ready: Optional[threading.Event] = None,
) -> None:
    """Run a mesh router on ``socket_path`` until interrupted.

    The mesh analog of :func:`repro.service.server.serve`: builds the
    workers (or adopts ``mesh``), binds the router socket, and blocks.
    ``SIGINT``/``SIGTERM`` run the clean path — unbind, then drain every
    worker (their own SIGTERM handlers finish queued and in-flight jobs)
    before exit.
    """
    owns = mesh is None
    router = mesh if mesh is not None else ColoringMesh(config)
    MeshServer(router, socket_path, owns_mesh=owns).serve_forever(ready)
