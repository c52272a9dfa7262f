"""Asyncio socket front-end: one frame server behind ``serve`` and ``serve_mesh``.

:class:`FrameServer` is the whole socket side of the service.  It
listens on a **Unix domain socket** (local by construction — no TCP
surface), reads the length-prefixed JSON frames of
:mod:`repro.service.protocol`, and answers each one:

* ``ping`` is answered on the event loop itself;
* every other op runs through one blocking :meth:`FrameServer.handle`
  on the loop's thread pool, which returns the response frame — the
  loop never decodes a graph, waits on a job or encodes a result;
* any failure — a malformed body, an unknown op, a rejected job — comes
  back as an ``ok: false`` frame with a typed error, and the connection
  keeps serving (the length prefix keeps the stream in sync).  Only a
  length prefix over the protocol cap ends the connection, after one
  error frame.

Two subclasses differ only in :meth:`~FrameServer.handle` and in what
:meth:`~FrameServer.stop` closes: :class:`ServiceServer` here fronts one
in-process :class:`~repro.service.service.ColoringService`, and
:class:`~repro.service.mesh.MeshServer` fronts a mesh router.

Embedding options, outermost first:

* :func:`serve` — build a service, bind the socket, run until
  ``SIGINT``/``SIGTERM``, then drain and shut down.  This is the CLI's
  ``repro serve`` verb (:func:`~repro.service.mesh.serve_mesh` is the
  mesh twin, through the same :meth:`FrameServer.serve_forever`).
* :meth:`FrameServer.run_in_thread` — a running server on a background
  thread, for tests and applications that embed serving next to other
  work; :meth:`FrameServer.shutdown` stops it.
* :meth:`FrameServer.start`/:meth:`FrameServer.stop` coroutines for
  callers with their own event loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Union

from .jobs import ServiceError
from .protocol import (
    HEADER_BYTES,
    apply_outcome_to_wire,
    decode_body,
    decode_edge_pairs,
    encode_colors,
    encode_frame,
    error_reply,
    frame_length,
    request_from_wire,
    result_to_wire,
    session_info_to_wire,
)
from .service import ColoringService, ServiceConfig

__all__ = ["FrameServer", "ServiceServer", "serve"]

_PONG = encode_frame({"ok": True, "pong": True})


class FrameServer:
    """One Unix-socket listener answering frames through :meth:`handle`."""

    def __init__(self, socket_path: Union[str, Path]):
        self.socket_path = Path(socket_path)
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started = threading.Event()

    # ------------------------------------------------------------------
    # What subclasses provide
    # ------------------------------------------------------------------
    def handle(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one decoded non-``ping`` message (blocking; runs on the
        loop's thread pool).  Raising is fine: the error becomes the
        reply frame."""
        raise NotImplementedError

    def close_owned(self) -> None:
        """Close what this server owns once it stops listening (blocking)."""

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
        # Off the loop: closing a service drains its in-flight jobs.
        await asyncio.get_running_loop().run_in_executor(None, self.close_owned)
        self._started.clear()

    async def _run_until_stopped(
        self, *, signals: bool = False, ready: Optional[threading.Event] = None
    ) -> None:
        self._stop_event = asyncio.Event()
        if signals:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                    loop.add_signal_handler(sig, self._stop_event.set)
        await self.start()
        if ready is not None:
            ready.set()
        try:
            await self._stop_event.wait()
        except asyncio.CancelledError:  # pragma: no cover - loop teardown
            # Swallowing a cancel leaves the task in a cancelling state
            # where every further await re-raises; undo it so the clean
            # stop (drain!) below can actually run its awaits.
            task = asyncio.current_task()
            if task is not None and hasattr(task, "uncancel"):
                task.uncancel()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # Blocking entry points
    # ------------------------------------------------------------------
    def serve_forever(self, ready: Optional[threading.Event] = None) -> None:
        """Serve on this thread until ``SIGINT``/``SIGTERM``, then stop.

        SIGTERM matters operationally: supervisors (systemd, CI) send
        it, and processes backgrounded by non-interactive shells inherit
        SIGINT ignored, so ctrl-C semantics alone are not enough.
        ``ready`` is set once the socket is bound.
        """
        try:
            asyncio.run(self._run_until_stopped(signals=True, ready=ready))
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            self.close_owned()

    def run_in_thread(self, *, timeout: float = 10.0) -> "FrameServer":
        """Start the server on a dedicated event-loop thread; returns self."""
        self._stop_event = None
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._run_until_stopped()),
            name=f"repro-{type(self).__name__}",
            daemon=True,
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise ServiceError(
                f"server did not bind {self.socket_path} within {timeout}s"
            )
        return self

    def shutdown(self, *, timeout: float = 60.0) -> None:
        """Stop a threaded server: unbind, close what it owns, join."""
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
                    header = await reader.readexactly(HEADER_BYTES)
                except asyncio.IncompleteReadError:
                    break  # clean EOF
                try:
                    length = frame_length(header)
                except ServiceError as exc:
                    # Past the cap the stream cannot be resynced: answer
                    # once, then hang up.
                    writer.write(encode_frame(error_reply(exc)))
                    await writer.drain()
                    break
                body = await reader.readexactly(length)
                writer.write(await self._answer(body))
                await writer.drain()
        except (asyncio.CancelledError, asyncio.IncompleteReadError, ConnectionError):
            # The peer left mid-frame, or loop teardown cancelled a
            # handler whose peer (e.g. a mesh router's pooled link) is
            # still connected: nothing is left to answer.
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _answer(self, body: bytes) -> bytes:
        try:
            message = decode_body(body)
        except ServiceError as exc:
            return encode_frame(error_reply(exc))
        if message.get("op") == "ping":
            return _PONG
        return await asyncio.get_running_loop().run_in_executor(
            None, self._handle_frame, message
        )

    def _handle_frame(self, message: Dict[str, Any]) -> bytes:
        try:
            return encode_frame(self.handle(message))
        except Exception as exc:  # every failure becomes a frame
            return encode_frame(error_reply(exc))


class ServiceServer(FrameServer):
    """One Unix-socket listener bound to one :class:`ColoringService`."""

    def __init__(
        self,
        service: ColoringService,
        socket_path: Union[str, Path],
        *,
        owns_service: bool = False,
    ):
        super().__init__(socket_path)
        self.service = service
        self.owns_service = owns_service
        """Whether :meth:`stop` also closes (drains) the service."""

    def close_owned(self) -> None:
        if self.owns_service:
            self.service.close()

    def handle(self, message: Dict[str, Any]) -> Dict[str, Any]:
        op = message.get("op")
        service = self.service
        sessions = service.sessions
        if op == "status":
            return {"ok": True, "status": service.status()}
        if op == "color":
            job = service.submit(request_from_wire(message))  # RetryAfter propagates
            return {"ok": True, "result": result_to_wire(job.result_or_raise())}
        if op == "session.register":
            # Reuse the color-envelope decoding (graph/dataset, algorithm,
            # backend, opts) — register's knobs are a superset of color's.
            request = request_from_wire(message)
            info = sessions.register(
                request.graph,
                dataset=request.dataset,
                algorithm=request.algorithm,
                backend=request.backend,
                client_id=request.client_id,
                timeout_s=request.timeout_s,
                **request.opts,
            )
            return {"ok": True, "session": session_info_to_wire(info)}
        session_id = str(message.get("session_id", ""))
        if op == "session.apply":
            outcome = sessions.apply(
                session_id,
                additions=decode_edge_pairs(message.get("additions_i64", "")),
                removals=decode_edge_pairs(message.get("removals_i64", "")),
                add_vertices=int(message.get("add_vertices", 0)),
            )
            return {"ok": True, "apply": apply_outcome_to_wire(outcome)}
        if op == "session.verify":
            return {"ok": True, "verify": sessions.verify(session_id)}
        if op == "session.colors":
            colors = sessions.colors(session_id)
            return {"ok": True, "colors_i64": encode_colors(colors)}
        if op == "session.describe":
            return {"ok": True, "session": sessions.describe(session_id)}
        if op == "session.close":
            sessions.close(session_id)
            return {"ok": True, "closed": session_id}
        raise ServiceError(f"unknown op {op!r}")


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
    the service.  ``ready`` is set once the socket is bound (used by
    embedding tests to know when to connect).
    """
    owns = service is None
    svc = service if service is not None else ColoringService(config)
    ServiceServer(svc, socket_path, owns_service=owns).serve_forever(ready)
