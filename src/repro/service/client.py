"""Clients of the coloring service: in-process and socket, one surface.

``Client`` fronts both deployment shapes with the same calls —
:meth:`Client.color`, :meth:`Client.register`, :meth:`Client.status`,
:meth:`Client.ping` — so application code does not care whether the
service lives in its process or behind a Unix socket:

* ``Client(service=svc)`` wraps a running
  :class:`~repro.service.service.ColoringService` directly (zero-copy,
  no serialization);
* ``Client(socket_path=...)`` (or :func:`connect`) speaks the
  length-prefixed JSON protocol to a :func:`repro.service.server.serve`
  instance.  One persistent connection per client; requests on a single
  client are serialized (use one client per thread for concurrency —
  they are cheap).

Either way the error surface is identical: admission shedding raises
:class:`~repro.service.jobs.RetryAfter`, deadlines raise
:class:`~repro.service.jobs.JobTimeout`, exhausted retries raise
:class:`~repro.service.jobs.JobFailed` — over the socket the stable
``code`` field reconstructs the exact subclass.  ``color(retries=N)``
is the canonical reaction to shedding: sleep the hinted backoff and
resubmit, up to N sheds.

Dynamic graphs use the session lane: :meth:`Client.register` opens a
:class:`SessionHandle` that keeps a client-side color mirror, ships
delta batches with :meth:`SessionHandle.apply`, and folds the returned
sparse diffs back in — the dense array crosses the wire exactly once,
at registration.
"""

from __future__ import annotations

import socket
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Tuple, Union

import numpy as np

from ..graph.csr import CSRGraph
from .jobs import JobResult, RetryAfter, ServiceError, build_request
from .protocol import (
    apply_outcome_from_wire,
    decode_colors,
    encode_edge_pairs,
    read_frame,
    request_to_wire,
    result_from_wire,
    session_info_from_wire,
    wire_to_error,
    write_frame,
)
from .service import ColoringService
from .sessions import ApplyOutcome, SessionInfo

__all__ = ["Client", "SessionHandle", "connect"]


class Client:
    """A handle for submitting coloring jobs to a service."""

    def __init__(
        self,
        service: Optional[ColoringService] = None,
        *,
        socket_path: Optional[Union[str, Path]] = None,
        client_id: str = "client",
        connect_timeout: float = 5.0,
    ):
        if (service is None) == (socket_path is None):
            raise ValueError(
                "exactly one of service= or socket_path= is required"
            )
        self.client_id = client_id
        self._service = service
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()
        if socket_path is not None:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(connect_timeout)
            try:
                self._sock.connect(str(socket_path))
            except OSError as exc:
                self._sock.close()
                raise ServiceError(
                    f"cannot connect to service at {socket_path}: {exc}"
                ) from exc
            self._sock.settimeout(None)

    # ------------------------------------------------------------------
    @property
    def remote(self) -> bool:
        return self._sock is not None

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
        timeout_s: Optional[float] = None,
        retries: int = 0,
        **opts: Any,
    ) -> JobResult:
        """Submit one job and wait for its result (errors raise).

        ``retries`` re-submits on :class:`RetryAfter` shedding, sleeping
        each shed's ``retry_after_s`` hint; the final shed re-raises so
        a permanently saturated service still fails loudly.  The default
        ``retries=0`` surfaces the first shed untouched.
        """
        request = build_request(
            graph=graph,
            dataset=dataset,
            algorithm=algorithm,
            backend=backend,
            engine=engine,
            opts=opts,
            priority=priority,
            client_id=self.client_id,
            timeout_s=timeout_s,
        )
        for _ in range(max(0, retries)):
            try:
                return self._color_once(request)
            except RetryAfter as shed:
                time.sleep(shed.retry_after_s)
        return self._color_once(request)

    def _color_once(self, request) -> JobResult:
        if self._service is not None:
            job = self._service.submit(request)
            return job.result_or_raise(None)
        payload = self._roundtrip(request_to_wire(request))
        return result_from_wire(payload["result"])

    # ------------------------------------------------------------------
    # Session lane
    # ------------------------------------------------------------------
    def register(
        self,
        graph: Optional[CSRGraph] = None,
        *,
        dataset: Optional[str] = None,
        algorithm: str = "bitwise",
        backend: Optional[str] = None,
        timeout_s: Optional[float] = None,
        **opts: Any,
    ) -> "SessionHandle":
        """Open a dynamic-graph session; returns its handle.

        The service stores the graph (content-addressed — an identical
        structure registered twice is kept once), colors it through the
        normal job path, and keeps the coloring resident.  Subsequent
        :meth:`SessionHandle.apply` calls ship only edge deltas in and
        sparse recolor diffs out.
        """
        request = build_request(
            graph=graph,
            dataset=dataset,
            algorithm=algorithm,
            backend=backend,
            opts=opts,
            client_id=self.client_id,
            timeout_s=timeout_s,
        )
        if self._service is not None:
            info = self._service.sessions.register(
                request.graph,
                dataset=request.dataset,
                algorithm=request.algorithm,
                backend=request.backend,
                client_id=request.client_id,
                timeout_s=request.timeout_s,
                **request.opts,
            )
        else:
            message = request_to_wire(request)
            message["op"] = "session.register"
            info = session_info_from_wire(
                self._roundtrip(message)["session"]
            )
        return SessionHandle(self, info)

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        """The service's ``/healthz`` snapshot."""
        if self._service is not None:
            return self._service.status()
        return self._roundtrip({"op": "status"})["status"]

    def ping(self) -> bool:
        if self._service is not None:
            return True
        return bool(self._roundtrip({"op": "ping"}).get("pong"))

    def call(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One raw protocol round trip; returns the full response frame.

        Unlike the typed helpers this does **not** raise on
        ``ok: false`` — the whole frame (including any error payload)
        comes back verbatim.  The mesh router forwards decoded-once
        client messages to workers through this, so error frames (e.g. a
        shed worker's ``retry_after``) stay inspectable before the
        router decides whether to spill or relay.  Socket clients only.
        """
        if self._sock is None:
            raise ServiceError("raw call requires a socket client")
        with self._lock:
            write_frame(self._sock, message)
            response = read_frame(self._sock)
        if response is None:
            raise ServiceError("server closed the connection")
        return response

    # ------------------------------------------------------------------
    def _roundtrip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """:meth:`call`, raising the typed error of an ``ok: false`` frame."""
        response = self.call(message)
        if not response.get("ok"):
            raise wire_to_error(response.get("error", {}))
        return response


class SessionHandle:
    """Client side of one dynamic-graph session.

    Mirrors the session's coloring locally (``colors``): registration
    ships the dense array once, every :meth:`apply` folds the returned
    sparse diff back in, so the handle always knows the full current
    coloring without re-reading it.  Appended vertices start at color 1
    on both sides of the wire.
    """

    def __init__(self, client: Client, info: SessionInfo):
        self._client = client
        self.info = info
        self.session_id = info.session_id
        self.colors = info.colors.copy()
        self.n_colors = info.n_colors
        self.epoch = 0
        self._closed = False

    # ------------------------------------------------------------------
    def apply(
        self,
        additions: Iterable[Tuple[int, int]] = (),
        removals: Iterable[Tuple[int, int]] = (),
        *,
        add_vertices: int = 0,
    ) -> ApplyOutcome:
        """Ship one delta batch; folds the sparse diff into ``colors``."""
        client = self._client
        if client._service is not None:
            outcome = client._service.sessions.apply(
                self.session_id,
                additions=additions,
                removals=removals,
                add_vertices=add_vertices,
            )
        else:
            message = {
                "op": "session.apply",
                "session_id": self.session_id,
                "additions_i64": encode_edge_pairs(additions),
                "removals_i64": encode_edge_pairs(removals),
                "add_vertices": int(add_vertices),
            }
            outcome = apply_outcome_from_wire(
                client._roundtrip(message)["apply"]
            )
        if outcome.num_vertices > self.colors.size:
            self.colors = np.concatenate(
                [
                    self.colors,
                    np.ones(
                        outcome.num_vertices - self.colors.size,
                        dtype=np.int64,
                    ),
                ]
            )
        self.colors[outcome.changed] = outcome.colors
        self.n_colors = outcome.n_colors
        self.epoch = outcome.epoch
        return outcome

    def verify(self) -> Dict[str, Any]:
        """Ask the service to assert the resident coloring is proper."""
        client = self._client
        if client._service is not None:
            return client._service.sessions.verify(self.session_id)
        return client._roundtrip(
            {"op": "session.verify", "session_id": self.session_id}
        )["verify"]

    def resync(self) -> np.ndarray:
        """Re-fetch the dense color array and replace the local mirror."""
        client = self._client
        if client._service is not None:
            self.colors = client._service.sessions.colors(self.session_id)
        else:
            payload = client._roundtrip(
                {"op": "session.colors", "session_id": self.session_id}
            )
            self.colors = decode_colors(payload["colors_i64"])
        return self.colors

    def describe(self) -> Dict[str, Any]:
        client = self._client
        if client._service is not None:
            return client._service.sessions.describe(self.session_id)
        return client._roundtrip(
            {"op": "session.describe", "session_id": self.session_id}
        )["session"]

    def close(self) -> None:
        """End the session server-side (idempotent client-side)."""
        if self._closed:
            return
        self._closed = True
        client = self._client
        if client._service is not None:
            client._service.sessions.close(self.session_id)
        else:
            client._roundtrip(
                {"op": "session.close", "session_id": self.session_id}
            )

    def __enter__(self) -> "SessionHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def connect(
    socket_path: Union[str, Path], *, client_id: str = "client", **kwargs: Any
) -> Client:
    """Open a socket :class:`Client` to a served coloring service."""
    return Client(socket_path=socket_path, client_id=client_id, **kwargs)
