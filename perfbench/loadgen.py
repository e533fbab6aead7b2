"""Keep-alive HTTP load generator: open-loop schedule, closed-loop saturation.

At most two persistent connections, so the generator never out-numbers
the cores of a two-CPU host; no connection is opened per request.

* :func:`open_loop` sends request ``i`` at ``start + i / rate`` on whichever
  connection is free.  Latency runs from the *due* time, so a request that
  waits for a free connection (a stall upstream) is charged that wait.  The
  generator's own lateness — send time minus the later of the due time and
  the moment a connection was free — is kept per request as ``lag``.
* :func:`closed_loop` keeps every connection busy back to back for a fixed
  time: the highest rate two callers that wait for replies can offer.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from tracing import Tracer


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * fraction))
    return ordered[rank - 1]


@dataclass
class Sample:
    """One request as the generator saw it (``perf_counter`` seconds)."""

    body: bytes
    due: float
    sent: float
    done: float
    status: int
    payload: bytes
    lag: float = 0.0

    @property
    def latency(self) -> float:
        """Due-to-response seconds (the open-loop latency)."""
        return self.done - self.due

    @property
    def service_time(self) -> float:
        """Send-to-response seconds (what the server and network took)."""
        return self.done - self.sent


class Connection:
    """One keep-alive HTTP/1.1 connection with strictly serial requests."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.free_at = 0.0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        self.free_at = time.perf_counter()
        return self

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        """Send one request and read its whole response; ``(status, body)``."""
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\nContent-Length: {len(body)}\r\n\r\n"
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        header = await self._reader.readuntil(b"\r\n\r\n")
        lines = header.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = await self._reader.readexactly(length) if length else b""
        return status, payload

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None


async def timed_request(
    connection: Connection,
    body: bytes,
    due: float,
    tracer: Optional[Tracer],
    layer: str,
    lag: float = 0.0,
) -> Sample:
    """POST ``body`` to ``/query``; spans ``loadgen.request`` (due → done)
    around ``<layer>.http`` (send → done) share one request id."""
    sent = time.perf_counter()
    status, payload = await connection.request("POST", "/query", body)
    done = time.perf_counter()
    connection.free_at = done
    if tracer is not None:
        request_id = tracer.new_request()
        parent = tracer.record("loadgen.request", due, done, request_id=request_id)
        tracer.record(f"{layer}.http", sent, done, parent=parent, request_id=request_id)
    return Sample(body, due, sent, done, status, payload, lag)


async def open_loop(
    connections: Sequence[Connection],
    bodies: Sequence[bytes],
    rate: float,
    tracer: Optional[Tracer] = None,
    layer: str = "server",
    route=None,
) -> List[Sample]:
    """Send ``bodies`` on a fixed ``rate`` schedule over ``connections``.

    ``route(body)``, when given, names the index of the only connection a
    body may use (direct-to-shard traffic); otherwise any free one serves.
    """
    free: List[asyncio.Queue] = []
    if route is None:
        shared: asyncio.Queue = asyncio.Queue()
        for connection in connections:
            shared.put_nowait(connection)
        free = [shared] * len(connections)
    else:
        for connection in connections:
            queue: asyncio.Queue = asyncio.Queue()
            queue.put_nowait(connection)
            free.append(queue)

    async def fire(queue: asyncio.Queue, connection: Connection, body: bytes, due: float, lag: float):
        try:
            return await timed_request(connection, body, due, tracer, layer, lag)
        finally:
            queue.put_nowait(connection)

    tasks = []
    start = time.perf_counter() + 0.05
    for index, body in enumerate(bodies):
        due = start + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        queue = free[route(body) if route is not None else 0]
        connection = await queue.get()
        sent = time.perf_counter()
        lag = sent - max(due, connection.free_at)
        tasks.append(asyncio.ensure_future(fire(queue, connection, body, due, lag)))
    return list(await asyncio.gather(*tasks))


async def closed_loop(
    connections: Sequence[Connection],
    bodies: Iterator[bytes],
    seconds: float,
    tracer: Optional[Tracer] = None,
    layer: str = "server",
) -> Tuple[List[Sample], float]:
    """Every connection sends back to back until ``seconds`` pass or
    ``bodies`` runs out; returns the samples and the phase's wall time."""
    start = time.perf_counter()
    end = start + seconds
    samples: List[Sample] = []

    async def worker(connection: Connection) -> None:
        while time.perf_counter() < end:
            body = next(bodies, None)
            if body is None:
                return
            now = time.perf_counter()
            samples.append(await timed_request(connection, body, now, tracer, layer))

    await asyncio.gather(*(worker(connection) for connection in connections))
    return samples, time.perf_counter() - start


async def connect(host: str, port: int, count: int) -> List[Connection]:
    return [await Connection(host, port).open() for _ in range(count)]
