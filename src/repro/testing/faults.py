"""Seeded fault injection for the supervised parallel executor.

The chaos parity suite (``tests/test_fault_injection.py``) must prove a hard
guarantee: whatever the worker pool does — workers SIGKILLed mid-chunk,
exceptions thrown from chunk code, chunks delayed past their timeout,
payloads corrupted at rehydration, initializers that refuse to come up —
``run_batch`` still returns results bit-identical to the sequential oracle.
Random chaos cannot anchor such an assertion (an unreproducible failure is
an undebuggable failure), so injection here is **deterministic by
construction**:

* chunk faults key on ``(chunk_id, attempt)`` — both assigned
  deterministically by the executor — and fire while ``attempt`` is below
  the spec's budget, so a fault "happens" on the first dispatch and
  "resolves" on the retry without any cross-process state;
* initializer faults key on the pool *generation* (0 for the first pool,
  incremented per respawn), which the executor passes into every worker's
  initargs, so "the first pool is broken, the respawned pool is healthy" is
  expressible without coordination;
* payload corruption flips one seeded bit inside a seeded payload section,
  so the codec's CRC taxonomy is exercised on a reproducible byte.

The hooks at the bottom (:func:`prepare_worker_payload`,
:func:`fire_chunk_fault`) are called by ``repro.core.parallel`` inside the
worker process — only when a plan was explicitly supplied, so production
pools never import this module.
"""

from __future__ import annotations

import os
import random
import signal
import threading as _threading
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Fault kinds a :class:`FaultSpec` can name.
CRASH = "crash"  #: SIGKILL the worker process mid-chunk (no cleanup, no goodbye).
EXCEPTION = "exception"  #: raise :class:`InjectedWorkerError` from chunk code.
DELAY = "delay"  #: sleep ``delay_seconds`` before answering (timeout bait).
CORRUPT_PAYLOAD = "corrupt-payload"  #: flip one payload bit before rehydration.
INIT_FAIL = "init-fail"  #: raise from the worker initializer itself.

_CHUNK_KINDS = (CRASH, EXCEPTION, DELAY)
_INIT_KINDS = (CORRUPT_PAYLOAD, INIT_FAIL)


class InjectedWorkerError(RuntimeError):
    """The deliberate failure raised by exception/init-fail faults.

    A distinct type so chaos tests (and log readers) can tell injected
    failures from real bugs; pickles cleanly across the process boundary.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One injection point of a :class:`FaultPlan`.

    Parameters
    ----------
    kind:
        One of :data:`CRASH`, :data:`EXCEPTION`, :data:`DELAY`,
        :data:`CORRUPT_PAYLOAD`, :data:`INIT_FAIL`.
    chunk_id:
        For chunk faults: the dispatched chunk to hit (``None`` hits every
        chunk).  Ignored by initializer faults.
    attempts_below:
        Chunk faults fire while the chunk's attempt number is below this —
        ``1`` (default) sabotages only the first dispatch, a large value
        defeats every pool retry and forces the in-process fallback rung.
    generations_below:
        Initializer faults fire while the pool generation is below this —
        ``1`` (default) breaks only the first pool, so the supervised
        respawn recovers.
    delay_seconds:
        Sleep length for :data:`DELAY` faults.
    """

    kind: str
    chunk_id: Optional[int] = None
    attempts_below: int = 1
    generations_below: int = 1
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _CHUNK_KINDS + _INIT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def matches_chunk(self, chunk_id: int, attempt: int) -> bool:
        """Whether this (chunk) fault fires for ``chunk_id`` on ``attempt``."""
        if self.kind not in _CHUNK_KINDS:
            return False
        if self.chunk_id is not None and self.chunk_id != chunk_id:
            return False
        return attempt < self.attempts_below

    def matches_generation(self, generation: int) -> bool:
        """Whether this (initializer) fault fires for pool ``generation``."""
        return self.kind in _INIT_KINDS and generation < self.generations_below


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible schedule of failures for one supervised executor.

    The plan is immutable and fully determined by its fields, so a chaos
    test that constructs the same plan replays the same failures; ``seed``
    only parameterises the *choice* of corrupted byte (and the
    :meth:`scatter` convenience), never whether a fault fires.
    """

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    @classmethod
    def scatter(
        cls,
        seed: int,
        chunk_count: int,
        crash_every: int = 0,
        exception_every: int = 0,
        delay_every: int = 0,
        delay_seconds: float = 0.0,
    ) -> "FaultPlan":
        """A seeded mixed-fault plan over ``chunk_count`` chunks.

        Each ``*_every = n`` (n > 0) picks roughly ``chunk_count / n``
        distinct chunks for that fault kind via ``random.Random(seed)``, so
        the same arguments always sabotage the same chunks — randomised
        coverage, reproducible schedule.
        """
        rng = random.Random(seed)
        chunk_ids = list(range(chunk_count))
        faults = []
        for kind, every in (
            (CRASH, crash_every),
            (EXCEPTION, exception_every),
            (DELAY, delay_every),
        ):
            if every <= 0 or not chunk_ids:
                continue
            count = max(1, chunk_count // every)
            for chunk_id in sorted(rng.sample(chunk_ids, min(count, len(chunk_ids)))):
                faults.append(
                    FaultSpec(kind, chunk_id=chunk_id, delay_seconds=delay_seconds)
                )
        return cls(seed=seed, faults=tuple(faults))

    def chunk_fault(self, chunk_id: int, attempt: int) -> Optional[FaultSpec]:
        """The first chunk fault firing for ``(chunk_id, attempt)``, if any."""
        for spec in self.faults:
            if spec.matches_chunk(chunk_id, attempt):
                return spec
        return None

    def init_faults(self, generation: int) -> Tuple[FaultSpec, ...]:
        """Every initializer fault firing for pool ``generation``."""
        return tuple(spec for spec in self.faults if spec.matches_generation(generation))


def corrupt_payload(plan: FaultPlan, payload: bytes, generation: int) -> bytes:
    """Flip one seeded bit inside a seeded *section* of ``payload``.

    The flipped byte always lands inside section data (never the framing
    words), so rehydration fails with the codec's
    :class:`~repro.exceptions.CorruptPayloadError` — the exact error class a
    bit-flipped blob produces in the wild — rather than a framing error.
    """
    from repro.io.compiled_codec import payload_section_spans

    # Integer-only seed derivation: string hashing is salted per process, so
    # mixing in a str would pick different bytes in parent and worker.
    rng = random.Random((plan.seed + 1) * 1_000_003 + generation)
    spans = [span for span in payload_section_spans(payload) if span[2] > span[1]]
    _name, start, end = spans[rng.randrange(len(spans))]
    offset = rng.randrange(start, end)
    damaged = bytearray(payload)
    damaged[offset] ^= 1 << rng.randrange(8)
    return bytes(damaged)


def prepare_worker_payload(plan: FaultPlan, payload: bytes, generation: int) -> bytes:
    """Apply the plan's initializer faults inside a starting worker.

    Called by the pool initializer before the payload is rehydrated: an
    :data:`INIT_FAIL` fault raises immediately (the pool never comes up), a
    :data:`CORRUPT_PAYLOAD` fault hands back a damaged payload whose decode
    will raise :class:`~repro.exceptions.CorruptPayloadError`.
    """
    for spec in plan.init_faults(generation):
        if spec.kind == INIT_FAIL:
            raise InjectedWorkerError(
                f"injected initializer failure (pool generation {generation})"
            )
        payload = corrupt_payload(plan, payload, generation)
    return payload


def fire_chunk_fault(spec: FaultSpec, chunk_id: int, attempt: int) -> None:
    """Execute one chunk fault inside the worker that pulled the chunk."""
    if spec.kind == CRASH:
        os.kill(os.getpid(), signal.SIGKILL)
    elif spec.kind == EXCEPTION:
        raise InjectedWorkerError(
            f"injected worker exception (chunk {chunk_id}, attempt {attempt})"
        )
    elif spec.kind == DELAY:
        time.sleep(spec.delay_seconds)


# -- service-level fault specs --------------------------------------------------
#
# The serving layer (:mod:`repro.service`) has failure surfaces the worker
# pool alone cannot express: clients that stall mid-request, offered load
# past the admission budget, and rungs of the degradation ladder failing in
# sequence.  The helpers below give the service chaos suite the same
# property the pool plan gives the executor suite — deterministic,
# replayable sabotage.


class FlakyRung:
    """A ``rung_fault_hook`` that fails one named ladder rung a set number
    of times, then heals — the deterministic driver for circuit-breaker
    open/half-open/re-close tests.

    Thread-safe (the hook runs on the service's worker threads); counts
    every *offered* batch per rung so tests can assert both the failures
    and the recovery probe schedule.
    """

    def __init__(self, rung: str, failures: int, error: type = RuntimeError):
        self.rung = rung
        self.failures = int(failures)
        self.error = error
        self.offered: dict = {}
        self._lock = _threading.Lock()

    def __call__(self, rung: str, venue: str) -> None:
        with self._lock:
            self.offered[rung] = self.offered.get(rung, 0) + 1
            if rung == self.rung and self.failures > 0:
                self.failures -= 1
                raise self.error(
                    f"injected rung failure ({rung} on {venue}, {self.failures} left)"
                )


async def drip_feed_request(
    host: str,
    port: int,
    body: bytes = b"{}",
    first_bytes: int = 4,
    hold_seconds: float = 30.0,
):
    """The slow-client fault: open a connection, send only the first few
    bytes of a request, then stall.  Returns ``(status, payload_bytes)``
    once the server gives up on us (the 408 path) or ``(None, b"")`` if the
    server just closes the socket.  ``hold_seconds`` bounds the stall so a
    misbehaving server cannot hang the test."""
    import asyncio

    request = (
        b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body)
    ) + body
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(request[:first_bytes])
        await writer.drain()
        try:
            head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), timeout=hold_seconds)
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError):
            return None, b""
        status = int(head.split(b" ")[1])
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length"):
                length = int(line.split(b":")[1])
        payload = await reader.readexactly(length) if length else b""
        return status, payload
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass


def shard_owning(shards_snapshot: dict, venue: str) -> Tuple[str, dict]:
    """The ``(shard_name, shard_entry)`` owning ``venue`` inside a router's
    ``/readyz`` or ``/metrics`` ``shards`` section.  Raises ``KeyError``
    when no shard owns the venue — a chaos test aiming at a venue that is
    not actually deployed should fail loudly, not kill a random shard."""
    for name, entry in shards_snapshot.items():
        if venue in entry.get("venues", ()):
            return name, entry
    raise KeyError(f"no shard owns venue {venue!r} (shards: {sorted(shards_snapshot)})")


def sigkill_shard(shard_entry: dict) -> int:
    """SIGKILL the worker process behind one router shard entry (as found
    by :func:`shard_owning`) and return its pid — the sharded analogue of
    the pool's :data:`CRASH` fault: no cleanup, no goodbye, the supervisor
    must notice the death and respawn."""
    pid = shard_entry.get("pid")
    if not isinstance(pid, int):
        raise ValueError(f"shard entry carries no pid: {shard_entry!r}")
    os.kill(pid, signal.SIGKILL)
    return pid


async def await_router_ready(
    host: str, port: int, timeout: float = 30.0, interval: float = 0.1
) -> dict:
    """Poll a router's ``/readyz`` until it answers 200 (every shard up) and
    return the final readiness payload — the recovery barrier after
    :func:`sigkill_shard`.  Raises ``TimeoutError`` if readiness never
    returns within ``timeout`` (a respawn that never lands is a supervisor
    bug, not a reason to wait forever)."""
    import asyncio
    import json

    deadline = time.monotonic() + timeout
    last: dict = {}
    while time.monotonic() < deadline:
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except (ConnectionError, OSError):
            await asyncio.sleep(interval)
            continue
        try:
            writer.write(b"GET /readyz HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            status = int(head.split(b" ")[1])
            length = 0
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length"):
                    length = int(line.split(b":")[1])
            payload = await reader.readexactly(length) if length else b"{}"
            last = json.loads(payload)
            if status == 200:
                return last
        except (ConnectionError, asyncio.IncompleteReadError, ValueError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass
        await asyncio.sleep(interval)
    raise TimeoutError(f"router at {host}:{port} not ready within {timeout}s; last: {last}")


async def flood_requests(host: str, port: int, bodies, concurrency: Optional[int] = None):
    """The queue-overflow fault: fire every request in ``bodies`` at once
    (or ``concurrency`` at a time) and return the list of ``(status,
    payload_dict)`` outcomes in input order.  The chaos suite asserts the
    outcome *set* — every request either answered 200 (bit-identically) or
    was shed with a typed 429 — rather than any particular split."""
    import asyncio
    import json

    semaphore = asyncio.Semaphore(concurrency) if concurrency else None

    async def one(body: dict):
        if semaphore is not None:
            await semaphore.acquire()
        try:
            payload = json.dumps(body).encode()
            reader, writer = await asyncio.open_connection(host, port)
            try:
                writer.write(
                    (b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(payload))
                    + payload
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                status = int(head.split(b" ")[1])
                length = 0
                for line in head.split(b"\r\n"):
                    if line.lower().startswith(b"content-length"):
                        length = int(line.split(b":")[1])
                raw = await reader.readexactly(length) if length else b"{}"
                return status, json.loads(raw)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except Exception:
                    pass
        finally:
            if semaphore is not None:
                semaphore.release()

    return await asyncio.gather(*(one(body) for body in bodies))
