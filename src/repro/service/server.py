"""Asyncio socket front-end over :class:`~repro.service.service.ColoringService`.

The server listens on a **Unix domain socket** (local by construction —
no TCP surface) and speaks the length-prefixed JSON protocol of
:mod:`repro.service.protocol`.  Each connection is one asyncio task;
many requests may be in flight per connection and across connections,
because the blocking submit-and-wait against the in-process service runs
in the event loop's thread pool — the loop itself only frames bytes.

Embedding options, outermost first:

* :func:`serve` — build a service, bind the socket, run until
  interrupted, then drain and shut down.  This is the CLI's
  ``repro serve`` verb.
* :class:`ServiceServer` with :meth:`ServiceServer.run_in_thread` — a
  running server on a background thread, for tests and applications
  that embed serving next to other work.
* :class:`ServiceServer` ``start``/``stop`` coroutines for callers with
  their own event loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import struct
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .jobs import ServiceError
from .protocol import (
    MAX_FRAME_BYTES,
    apply_outcome_to_wire,
    decode_edge_pairs,
    encode_colors,
    error_to_wire,
    request_from_wire,
    result_to_wire,
    session_info_to_wire,
)
from .service import ColoringService, ServiceConfig

__all__ = ["ServiceServer", "serve"]

_LEN = struct.Struct(">I")


class ServiceServer:
    """One Unix-socket listener bound to one :class:`ColoringService`."""

    def __init__(
        self,
        service: ColoringService,
        socket_path: Union[str, Path],
        *,
        owns_service: bool = False,
    ):
        self.service = service
        self.socket_path = Path(socket_path)
        self.owns_service = owns_service
        """Whether :meth:`stop` also closes (drains) the service."""
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    # ------------------------------------------------------------------
    # Async lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            raise ServiceError("server already started")
        self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        if self.socket_path.exists():
            self.socket_path.unlink()
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path=str(self.socket_path)
        )
        self._started.set()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        with contextlib.suppress(OSError):
            self.socket_path.unlink()
        if self.owns_service:
            # Drain in a worker thread: close() blocks on in-flight jobs.
            await asyncio.get_running_loop().run_in_executor(
                None, self.service.close
            )
        self._started.clear()

    # ------------------------------------------------------------------
    # Threaded lifecycle (tests, embedding)
    # ------------------------------------------------------------------
    def run_in_thread(self, *, timeout: float = 10.0) -> "ServiceServer":
        """Start the server on a dedicated event-loop thread; returns self."""

        def runner() -> None:
            asyncio.run(self._run_until_stopped())

        self._stop_event: Optional[asyncio.Event] = None
        self._thread = threading.Thread(
            target=runner, name="repro-service-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise ServiceError(
                f"server did not bind {self.socket_path} within {timeout}s"
            )
        return self

    async def _run_until_stopped(self) -> None:
        self._stop_event = asyncio.Event()
        await self.start()
        await self._stop_event.wait()
        await self.stop()

    def shutdown(self, *, timeout: float = 30.0) -> None:
        """Stop a threaded server: unbind, optionally drain, join."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise ServiceError("server thread did not stop in time")
        self._thread = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    header = await reader.readexactly(_LEN.size)
                except asyncio.IncompleteReadError:
                    break  # clean EOF
                (length,) = _LEN.unpack(header)
                if length > MAX_FRAME_BYTES:
                    await self._send(
                        writer,
                        {
                            "ok": False,
                            "error": {
                                "type": "ServiceError",
                                "message": "frame exceeds protocol cap",
                            },
                        },
                    )
                    break
                body = await reader.readexactly(length)
                response = await self._dispatch(json.loads(body.decode()))
                await self._send(writer, response)
        except asyncio.CancelledError:
            # Loop teardown cancels handlers whose peer (e.g. a mesh
            # router's pooled link) is still connected at shutdown; end
            # quietly instead of logging a cancellation traceback.
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _send(
        self, writer: asyncio.StreamWriter, payload: Dict[str, Any]
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        writer.write(_LEN.pack(len(body)) + body)
        await writer.drain()

    async def _dispatch(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        try:
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "status":
                return {"ok": True, "status": self.service.status()}
            if op == "color":
                return await self._handle_color(message)
            if op == "session.register":
                return await self._handle_session_register(message)
            if op == "session.apply":
                return await self._handle_session_apply(message)
            if op == "session.verify":
                session_id = str(message.get("session_id", ""))
                summary = await self._offload(
                    self.service.sessions.verify, session_id
                )
                return {"ok": True, "verify": summary}
            if op == "session.colors":
                session_id = str(message.get("session_id", ""))
                colors = await self._offload(
                    self.service.sessions.colors, session_id
                )
                return {"ok": True, "colors_i64": encode_colors(colors)}
            if op == "session.describe":
                session_id = str(message.get("session_id", ""))
                info = await self._offload(
                    self.service.sessions.describe, session_id
                )
                return {"ok": True, "session": info}
            if op == "session.close":
                session_id = str(message.get("session_id", ""))
                await self._offload(self.service.sessions.close, session_id)
                return {"ok": True, "closed": session_id}
            raise ServiceError(f"unknown op {op!r}")
        except BaseException as exc:  # every failure becomes a frame
            return {"ok": False, "error": error_to_wire(exc)}

    async def _offload(self, fn, *args):
        """Run blocking service work on the loop's default thread pool —
        never on the loop itself, which only frames bytes."""
        return await asyncio.get_running_loop().run_in_executor(
            None, fn, *args
        )

    async def _handle_color(self, message: Dict[str, Any]) -> Dict[str, Any]:
        request = request_from_wire(message)

        def submit_and_wait():
            job = self.service.submit(request)  # RetryAfter propagates
            return job.result_or_raise()

        result = await self._offload(submit_and_wait)
        return {"ok": True, "result": result_to_wire(result)}

    async def _handle_session_register(
        self, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        # Reuse the color-envelope decoding (graph/dataset, algorithm,
        # backend, opts) — register's knobs are a superset of color's.
        request = request_from_wire(message)

        def do_register():
            return self.service.sessions.register(
                request.graph,
                dataset=request.dataset,
                algorithm=request.algorithm,
                backend=request.backend,
                client_id=request.client_id,
                timeout_s=request.timeout_s,
                **request.opts,
            )

        info = await self._offload(do_register)
        return {"ok": True, "session": session_info_to_wire(info)}

    async def _handle_session_apply(
        self, message: Dict[str, Any]
    ) -> Dict[str, Any]:
        session_id = str(message.get("session_id", ""))
        additions = decode_edge_pairs(message.get("additions_i64", ""))
        removals = decode_edge_pairs(message.get("removals_i64", ""))
        add_vertices = int(message.get("add_vertices", 0))

        def do_apply():
            return self.service.sessions.apply(
                session_id,
                additions=additions,
                removals=removals,
                add_vertices=add_vertices,
            )

        outcome = await self._offload(do_apply)
        return {"ok": True, "apply": apply_outcome_to_wire(outcome)}


def serve(
    socket_path: Union[str, Path],
    config: Optional[ServiceConfig] = None,
    *,
    service: Optional[ColoringService] = None,
    ready: Optional[threading.Event] = None,
) -> None:
    """Run a coloring service on ``socket_path`` until interrupted.

    Builds a fresh :class:`ColoringService` from ``config`` (or adopts
    ``service``), binds the socket, and blocks.  ``SIGINT``/``SIGTERM``
    (or :meth:`ServiceServer.shutdown` from another thread) trigger the
    clean path: stop accepting, drain queued and in-flight jobs, close
    the service.  SIGTERM matters operationally: supervisors (systemd,
    CI) send it, and processes backgrounded by non-interactive shells
    inherit SIGINT ignored, so ctrl-C semantics alone are not enough.
    ``ready`` is set once the socket is bound (used by embedding tests
    to know when to connect).
    """
    owns = service is None
    svc = service if service is not None else ColoringService(config)
    server = ServiceServer(svc, socket_path, owns_service=owns)

    async def main() -> None:
        server._stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                loop.add_signal_handler(sig, server._stop_event.set)
        await server.start()
        if ready is not None:
            ready.set()
        try:
            await server._stop_event.wait()
        except asyncio.CancelledError:  # pragma: no cover - loop teardown
            # Swallowing a cancel leaves the task in a cancelling state
            # where every further await re-raises; undo it so the clean
            # stop (drain!) below can actually run its awaits.
            task = asyncio.current_task()
            if task is not None and hasattr(task, "uncancel"):
                task.uncancel()
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        if owns:
            svc.close()
