"""HTTP framing the service and the shard router refuse: each gets one typed
answer and a closed connection, and the front-end serves on.

Both front-ends share one request reader
(:func:`repro.service.server.read_request`), so every case runs against a
live :class:`~repro.service.ITSPQService` and a live one-shard
:class:`~repro.service.shard.ShardRouter`.  After the answer the connection
must be closed, because the body's extent is unknown and any bytes left
behind would be read as the next request.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.engine import ITSPQEngine
from repro.io.compiled_codec import compiled_graph_to_bytes
from repro.service import ITSPQService, ServiceConfig
from repro.service.shard import ShardRouter, ShardRouterConfig, ShardSpec

from tests._service_http import get


@pytest.fixture(scope="module")
def payload_file(example_itgraph, tmp_path_factory):
    path = tmp_path_factory.mktemp("framing") / "example.bin"
    path.write_bytes(compiled_graph_to_bytes(example_itgraph.compiled()))
    return path


@pytest.fixture(params=["server", "router"])
def serve(request, example_itgraph, payload_file):
    """``serve(body)`` runs ``await body(host, port)`` against a started
    front-end of the parametrised kind, then drains and closes it."""

    def run(body) -> None:
        if request.param == "server":
            frontend = ITSPQService({"example": ITSPQEngine(example_itgraph)}, ServiceConfig())
        else:
            frontend = ShardRouter(
                [ShardSpec("shard-0", (f"example={payload_file}",))],
                ShardRouterConfig(startup_timeout_seconds=60.0),
            )

        async def scenario():
            await frontend.start()
            try:
                await body(frontend.host, frontend.port)
            finally:
                await frontend.aclose()

        asyncio.run(scenario())

    return run


async def exchange(host: str, port: int, raw: bytes):
    """Send ``raw`` bytes; return ``(status, json_payload, closed)``, where
    ``closed`` says the server closed the connection after its answer."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(raw)
        await writer.drain()
        head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=10.0)
        status = int(head.split(b" ")[1])
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length"):
                length = int(line.split(b":")[1])
        payload = json.loads(await reader.readexactly(length))
        closed = await asyncio.wait_for(reader.read(1), timeout=10.0) == b""
        return status, payload, closed
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass


def assert_refused(serve, raw: bytes, status: int, type_name: str, mention: str) -> None:
    async def body(host, port):
        answer_status, payload, closed = await exchange(host, port, raw)
        assert answer_status == status
        assert payload["type"] == type_name
        assert mention in payload["error"]
        assert closed
        health_status, _ = await get(host, port, "/healthz")
        assert health_status == 200

    serve(body)


def test_negative_content_length_answers_400(serve):
    raw = b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
    assert_refused(serve, raw, 400, "BadRequest", "Content-Length")


def test_non_integer_content_length_answers_400(serve):
    raw = b"POST /query HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n"
    assert_refused(serve, raw, 400, "BadRequest", "Content-Length")


def test_header_line_without_colon_answers_400(serve):
    raw = b"POST /query HTTP/1.1\r\nContent-Length 2\r\n\r\n{}"
    assert_refused(serve, raw, 400, "BadRequest", "colon")


def test_transfer_encoding_answers_501(serve):
    raw = (
        b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"2\r\n{}\r\n0\r\n\r\n"
    )
    assert_refused(serve, raw, 501, "NotImplemented", "Transfer-Encoding")


def test_oversized_content_length_answers_400(serve):
    raw = b"POST /query HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"
    assert_refused(serve, raw, 400, "BadRequest", "Content-Length")


def test_conflicting_content_lengths_answer_400(serve):
    # RFC 9112 §6.3: differing Content-Length values are an unrecoverable
    # framing error, not a choice between them.
    raw = b"POST /query HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\n{}"
    assert_refused(serve, raw, 400, "BadRequest", "Content-Length")


def test_content_length_too_long_to_convert_answers_400(serve):
    # More digits than int() converts must still be a typed answer, not an
    # unhandled ValueError and a silent close.
    raw = b"POST /query HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n"
    assert_refused(serve, raw, 400, "BadRequest", "Content-Length")
