"""Wire protocol of the coloring service's socket front-end.

Deliberately boring: every message is a **4-byte big-endian length
prefix followed by one UTF-8 JSON object**, in both directions.  This
module owns that frame format: :func:`encode_frame` builds a frame,
:func:`frame_length` checks a length prefix against the cap, and
:func:`decode_body` turns a body into a message or raises
:class:`~repro.service.jobs.ServiceError`.  The blocking
:func:`write_frame`/:func:`read_frame` pair and the asyncio front-end of
:mod:`repro.service.server` both frame bytes through them.  Graphs
and color arrays ride inside the JSON as base64-encoded little-endian
``int64`` buffers — the same arrays a :class:`~repro.graph.csr.CSRGraph`
holds, so decoding is a zero-parse ``np.frombuffer`` and a round-tripped
graph fingerprints identically to the original (the cache contract
survives the wire).

Request shapes (``op`` selects):

``{"op": "color", "algorithm": ..., "backend": ..., "engine": ...,
  "opts": {...}, "priority": ..., "client_id": ..., "timeout_s": ...,
  "graph": {...encoded...}}`` — or ``"dataset": "GD"`` instead of
``"graph"``.  ``{"op": "status"}`` — the ``/healthz`` snapshot.
``{"op": "ping"}`` — liveness.

Session lane (dynamic graphs; see :mod:`repro.service.sessions`):
``{"op": "session.register", ...color envelope...}`` opens a session
and returns the initial coloring; ``{"op": "session.apply",
"session_id": ..., "additions_i64": ..., "removals_i64": ...,
"add_vertices": ...}`` ships one delta batch and returns the **sparse
diff** (changed vertex IDs + new colors only); ``session.verify``,
``session.colors``, ``session.describe`` and ``session.close`` complete
the lifecycle.

Responses are ``{"ok": true, ...payload...}`` or ``{"ok": false,
"error": {"code": ..., "type": ..., "message": ...,
"retry_after_s": ...}}``; the client rehydrates the stable ``code``
into the matching :class:`~repro.service.jobs.ServiceError` subclass so
socket callers and in-process callers see identical typed exceptions.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
from typing import Any, Dict, Optional

import numpy as np

from ..graph.csr import CSRGraph
from .jobs import (
    JobFailed,
    JobRequest,
    JobResult,
    JobTimeout,
    RetryAfter,
    ServiceClosed,
    ServiceError,
    SessionError,
    SessionNotFound,
    build_request,
)

__all__ = [
    "HEADER_BYTES",
    "MAX_FRAME_BYTES",
    "apply_outcome_from_wire",
    "apply_outcome_to_wire",
    "decode_body",
    "decode_colors",
    "decode_edge_pairs",
    "decode_graph",
    "encode_colors",
    "encode_edge_pairs",
    "encode_frame",
    "encode_graph",
    "error_reply",
    "error_to_wire",
    "frame_length",
    "read_frame",
    "request_from_wire",
    "request_to_wire",
    "result_from_wire",
    "result_to_wire",
    "session_info_from_wire",
    "session_info_to_wire",
    "wire_to_error",
    "write_frame",
]

_LEN = struct.Struct(">I")

HEADER_BYTES = _LEN.size
"""Length of the big-endian ``uint32`` prefix in front of every body."""

MAX_FRAME_BYTES = 256 << 20
"""Refuse frames past 256 MiB — a corrupt length prefix must not turn
into an allocation bomb."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(payload: Dict[str, Any]) -> bytes:
    """Length prefix + UTF-8 JSON body of one message."""
    body = json.dumps(payload, sort_keys=True).encode()
    return _LEN.pack(len(body)) + body


def frame_length(header: bytes) -> int:
    """Body length announced by a length prefix, checked against the cap."""
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ServiceError(f"frame of {length} bytes exceeds the protocol cap")
    return length


def decode_body(body: bytes) -> Dict[str, Any]:
    """One frame body as a message; anything but a UTF-8 JSON object
    raises :class:`ServiceError`."""
    try:
        message = json.loads(body.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ServiceError(f"malformed frame body: {exc}") from None
    if not isinstance(message, dict):
        raise ServiceError(
            f"frame body must be a JSON object, not {type(message).__name__}"
        )
    return message


def write_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    sock.sendall(encode_frame(payload))


def read_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """One decoded frame, or None on clean EOF before any byte."""
    header = _read_exact(sock, HEADER_BYTES, eof_ok=True)
    if header is None:
        return None
    return decode_body(_read_exact(sock, frame_length(header), eof_ok=False))


def _read_exact(
    sock: socket.socket, n: int, *, eof_ok: bool
) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if eof_ok and remaining == n:
                return None
            raise ServiceError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# Array / graph codec
# ----------------------------------------------------------------------
def _encode_i64(arr: np.ndarray) -> str:
    buf = np.ascontiguousarray(arr, dtype="<i8").tobytes()
    return base64.b64encode(buf).decode("ascii")


def _decode_i64(text: str) -> np.ndarray:
    raw = base64.b64decode(text.encode("ascii"))
    return np.frombuffer(raw, dtype="<i8").astype(np.int64, copy=True)


def encode_graph(graph: CSRGraph) -> Dict[str, Any]:
    """JSON-safe rendering of a CSR graph (structure + name only)."""
    return {
        "n": int(graph.num_vertices),
        "offsets": _encode_i64(graph.offsets),
        "edges": _encode_i64(graph.edges),
        "name": graph.name,
    }


def decode_graph(data: Dict[str, Any]) -> CSRGraph:
    offsets = _decode_i64(data["offsets"])
    if offsets.size != int(data["n"]) + 1:
        raise ServiceError(
            f"graph frame inconsistent: n={data['n']} but "
            f"{offsets.size} offsets"
        )
    return CSRGraph(
        offsets=offsets,
        edges=_decode_i64(data["edges"]),
        name=str(data.get("name", "")),
    )


def encode_colors(colors: np.ndarray) -> str:
    return _encode_i64(colors)


def decode_colors(text: str) -> np.ndarray:
    return _decode_i64(text)


# ----------------------------------------------------------------------
# Results and errors
# ----------------------------------------------------------------------
def result_to_wire(result: JobResult) -> Dict[str, Any]:
    payload = result.as_dict()
    # Replace the int-list rendering with the compact binary form.
    payload.pop("colors")
    payload["colors_i64"] = encode_colors(result.colors)
    return payload


def result_from_wire(payload: Dict[str, Any]) -> JobResult:
    return JobResult(
        colors=decode_colors(payload["colors_i64"]),
        n_colors=int(payload["n_colors"]),
        algorithm=payload["algorithm"],
        backend=payload.get("backend"),
        engine=payload.get("engine"),
        route=payload.get("route", ""),
        cache_hit=bool(payload.get("cache_hit", False)),
        batched=int(payload.get("batched", 0)),
        attempts=int(payload.get("attempts", 1)),
        timings=dict(payload.get("timings", {})),
    )


_ERROR_TYPES = {
    "RetryAfter": RetryAfter,
    "JobTimeout": JobTimeout,
    "JobFailed": JobFailed,
    "ServiceClosed": ServiceClosed,
    "ServiceError": ServiceError,
    "SessionError": SessionError,
    "SessionNotFound": SessionNotFound,
}

_ERROR_CODES = {cls.code: cls for cls in _ERROR_TYPES.values()}
"""Stable machine-readable ``code`` → exception class.  The code is the
protocol's primary key for error identity; the type name rides along for
humans and for frames from servers predating codes."""


def error_to_wire(exc: BaseException) -> Dict[str, Any]:
    kind = type(exc) if type(exc).__name__ in _ERROR_TYPES else ServiceError
    wire: Dict[str, Any] = {
        "code": getattr(exc, "code", None) or kind.code,
        "type": kind.__name__,
        "message": str(exc),
    }
    if isinstance(exc, RetryAfter):
        wire["retry_after_s"] = exc.retry_after_s
    return wire


def error_reply(exc: BaseException) -> Dict[str, Any]:
    """The ``ok: false`` response frame carrying ``exc``."""
    return {"ok": False, "error": error_to_wire(exc)}


def wire_to_error(wire: Dict[str, Any]) -> ServiceError:
    kind = _ERROR_CODES.get(wire.get("code", ""))
    if kind is None:  # pre-code servers: fall back to the type name
        kind = _ERROR_TYPES.get(wire.get("type", ""), ServiceError)
    message = wire.get("message", "service error")
    if kind is RetryAfter:
        return RetryAfter(message, float(wire.get("retry_after_s", 0.05)))
    return kind(message)


# ----------------------------------------------------------------------
# Requests (the shared builder behind client and server)
# ----------------------------------------------------------------------
def request_to_wire(request: JobRequest) -> Dict[str, Any]:
    """The ``op="color"`` message body for one validated request."""
    message: Dict[str, Any] = {
        "op": "color",
        "algorithm": request.algorithm,
        "backend": request.backend,
        "engine": request.engine,
        "opts": dict(request.opts),
        "priority": request.priority,
        "client_id": request.client_id,
        "timeout_s": request.timeout_s,
    }
    if request.graph is not None:
        message["graph"] = encode_graph(request.graph)
    if request.dataset is not None:
        message["dataset"] = request.dataset
    return message


def request_from_wire(message: Dict[str, Any]) -> JobRequest:
    """Decode and re-validate an ``op="color"`` message server-side."""
    graph = None
    if message.get("graph") is not None:
        graph = decode_graph(message["graph"])
    return build_request(
        graph=graph,
        dataset=message.get("dataset"),
        algorithm=message.get("algorithm", "bitwise"),
        backend=message.get("backend"),
        engine=message.get("engine"),
        opts=dict(message.get("opts") or {}),
        priority=int(message.get("priority", 0)),
        client_id=str(message.get("client_id", "socket")),
        timeout_s=message.get("timeout_s"),
    )


# ----------------------------------------------------------------------
# Session lane
# ----------------------------------------------------------------------
def session_info_to_wire(info) -> Dict[str, Any]:
    return {
        "session_id": info.session_id,
        "fingerprint": info.fingerprint,
        "colors_i64": encode_colors(info.colors),
        "n_colors": int(info.n_colors),
        "algorithm": info.algorithm,
        "backend": info.backend,
        "num_vertices": int(info.num_vertices),
        "num_edges": int(info.num_edges),
        "graph_reused": bool(info.graph_reused),
    }


def session_info_from_wire(payload: Dict[str, Any]):
    from .sessions import SessionInfo

    return SessionInfo(
        session_id=payload["session_id"],
        fingerprint=payload["fingerprint"],
        colors=decode_colors(payload["colors_i64"]),
        n_colors=int(payload["n_colors"]),
        algorithm=payload["algorithm"],
        backend=payload.get("backend"),
        num_vertices=int(payload["num_vertices"]),
        num_edges=int(payload["num_edges"]),
        graph_reused=bool(payload.get("graph_reused", False)),
    )


def encode_edge_pairs(pairs) -> str:
    """Edge list → one flattened base64 ``int64`` buffer."""
    arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs,
                     dtype=np.int64)
    if arr.size and (arr.ndim != 2 or arr.shape[1] != 2):
        raise ServiceError("edge batch must contain (u, v) pairs")
    return _encode_i64(arr.reshape(-1))


def decode_edge_pairs(text: str) -> np.ndarray:
    flat = _decode_i64(text)
    if flat.size % 2:
        raise ServiceError("edge buffer has an odd number of endpoints")
    return flat.reshape(-1, 2)


def apply_outcome_to_wire(outcome) -> Dict[str, Any]:
    """Sparse diff of one delta batch — only recolored vertices ride."""
    return {
        "epoch": int(outcome.epoch),
        "mode": outcome.mode,
        "changed_i64": _encode_i64(outcome.changed),
        "colors_i64": _encode_i64(outcome.colors),
        "n_colors": int(outcome.n_colors),
        "num_vertices": int(outcome.num_vertices),
        "edges_added": int(outcome.edges_added),
        "edges_removed": int(outcome.edges_removed),
        "conflicts": int(outcome.conflicts),
        "repair_rounds": int(outcome.repair_rounds),
        "churn": float(outcome.churn),
        "cache_invalidated": int(outcome.cache_invalidated),
    }


def apply_outcome_from_wire(payload: Dict[str, Any]):
    from .sessions import ApplyOutcome

    return ApplyOutcome(
        epoch=int(payload["epoch"]),
        mode=payload["mode"],
        changed=_decode_i64(payload["changed_i64"]),
        colors=_decode_i64(payload["colors_i64"]),
        n_colors=int(payload["n_colors"]),
        num_vertices=int(payload["num_vertices"]),
        edges_added=int(payload.get("edges_added", 0)),
        edges_removed=int(payload.get("edges_removed", 0)),
        conflicts=int(payload.get("conflicts", 0)),
        repair_rounds=int(payload.get("repair_rounds", 0)),
        churn=float(payload.get("churn", 0.0)),
        cache_invalidated=int(payload.get("cache_invalidated", 0)),
    )
