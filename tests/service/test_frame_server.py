"""Malformed frames on both socket front-ends end in a typed reply.

``ServiceServer`` and ``MeshServer`` share one frame server, so each
case runs against both: a bad body is answered with a ``service_error``
frame and the connection keeps serving; an oversized length prefix is
answered once and then the connection closes.
"""

from __future__ import annotations

import logging
import socket
import struct

import pytest

from repro.obs import Registry
from repro.service import (
    ColoringMesh,
    ColoringService,
    MeshConfig,
    MeshServer,
    ServiceConfig,
    ServiceError,
    ServiceServer,
)
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    read_frame,
    wire_to_error,
    write_frame,
)


def _config() -> ServiceConfig:
    return ServiceConfig(executors=1, registry=Registry(enabled=False))


@pytest.fixture(scope="module", params=["service", "mesh"])
def socket_path(request, tmp_path_factory):
    """A running front-end of each kind; yields its socket path."""
    path = tmp_path_factory.mktemp(request.param) / "f.sock"
    if request.param == "service":
        server = ServiceServer(
            ColoringService(_config()), path, owns_service=True
        )
    else:
        mesh = ColoringMesh(MeshConfig(workers=1, service=_config()))
        server = MeshServer(mesh, path, owns_mesh=True)
    server.run_in_thread()
    yield path
    server.shutdown()


def _connect(path) -> socket.socket:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(30)
    sock.connect(str(path))
    return sock


def _unhandled(caplog) -> list:
    return [
        r
        for r in caplog.records
        if r.name == "asyncio" and "Unhandled exception" in r.getMessage()
    ]


@pytest.mark.parametrize(
    "body", [b"\xff", b"{oops", b"[1,2]"], ids=["utf8", "json", "array"]
)
def test_bad_body_gets_typed_reply_and_connection_survives(
    socket_path, body, caplog
):
    caplog.set_level(logging.ERROR, logger="asyncio")
    with _connect(socket_path) as sock:
        sock.sendall(struct.pack(">I", len(body)) + body)
        reply = read_frame(sock)
        assert reply is not None, "connection dropped instead of replying"
        assert reply["ok"] is False
        assert reply["error"]["code"] == "service_error"
        assert type(wire_to_error(reply["error"])) is ServiceError
        # The length prefix kept the stream in sync: the next frame works.
        write_frame(sock, {"op": "ping"})
        assert read_frame(sock) == {"ok": True, "pong": True}
    assert _unhandled(caplog) == []


def test_oversized_prefix_gets_one_typed_reply_then_closes(
    socket_path, caplog
):
    caplog.set_level(logging.ERROR, logger="asyncio")
    with _connect(socket_path) as sock:
        sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
        reply = read_frame(sock)
        assert reply is not None and reply["ok"] is False
        assert reply["error"]["code"] == "service_error"
        assert "cap" in reply["error"]["message"]
        assert read_frame(sock) is None  # the server hung up
    assert _unhandled(caplog) == []
