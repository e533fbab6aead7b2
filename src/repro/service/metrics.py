"""Service counters and latency percentiles for ``/metrics``.

Deliberately dependency-free: a bounded reservoir of recent request
latencies (newest-wins ring buffer, so percentiles reflect the current
regime rather than the whole process lifetime) plus plain counters keyed by
outcome and by degradation rung.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Optional

#: Why a micro-batch left its buffer: its key was idle (next loop tick), the
#: window of a buffer behind a busy key expired, the buffer reached
#: ``max_batch``, or the service is draining.
FLUSH_TRIGGERS = ("idle", "window", "size", "drain")


class ServiceMetrics:
    """Counters + a bounded latency reservoir (single event-loop use)."""

    def __init__(self, reservoir_size: int = 8192):
        if reservoir_size < 1:
            raise ValueError(f"reservoir_size must be positive, got {reservoir_size}")
        self.received = 0
        self.answered = 0
        self.shed = 0  # 429s: admission + cache-replay misses
        self.deadline_exceeded = 0  # 504s
        self.bad_requests = 0  # 400s, and 501s for a transfer coding
        self.client_timeouts = 0  # 408s: slow clients
        self.unavailable = 0  # 503s: draining / not ready
        self.internal_errors = 0  # 500s
        self.batches = 0
        self.flushes: Dict[str, int] = dict.fromkeys(FLUSH_TRIGGERS, 0)
        self.answered_by_rung: Dict[str, int] = {}
        self._latencies: Deque[float] = deque(maxlen=reservoir_size)

    def observe_outcome(self, status: int) -> None:
        """Count one finished request by its HTTP status."""
        if status == 200:
            self.answered += 1
        elif status == 429:
            self.shed += 1
        elif status == 504:
            self.deadline_exceeded += 1
        elif status in (400, 501):
            self.bad_requests += 1
        elif status == 408:
            self.client_timeouts += 1
        elif status == 503:
            self.unavailable += 1
        else:
            self.internal_errors += 1

    def observe_flush(self, trigger: str) -> None:
        """Count one micro-batch flushed by ``trigger`` (a :data:`FLUSH_TRIGGERS` name)."""
        self.batches += 1
        self.flushes[trigger] += 1

    def observe_rung(self, rung: str, count: int = 1) -> None:
        """Count ``count`` queries answered on ``rung``."""
        self.answered_by_rung[rung] = self.answered_by_rung.get(rung, 0) + count

    def observe_latency(self, seconds: float) -> None:
        """Record one request's service-side latency (admit → response)."""
        self._latencies.append(seconds)

    def percentile(self, fraction: float) -> Optional[float]:
        """The ``fraction`` (0..1) percentile of the reservoir, or ``None``
        when empty.  Nearest-rank on a sorted copy — the reservoir is small
        and ``/metrics`` is not a hot path."""
        if not self._latencies:
            return None
        ordered = sorted(self._latencies)
        rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
        return ordered[rank]

    def snapshot(self) -> Dict[str, object]:
        """The ``/metrics`` payload's request section."""
        return {
            "received": self.received,
            "answered": self.answered,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "bad_requests": self.bad_requests,
            "client_timeouts": self.client_timeouts,
            "unavailable": self.unavailable,
            "internal_errors": self.internal_errors,
            "batches": self.batches,
            "flushes": dict(self.flushes),
            "answered_by_rung": dict(self.answered_by_rung),
            "latency_samples": len(self._latencies),
            "latency_p50_seconds": self.percentile(0.50),
            "latency_p99_seconds": self.percentile(0.99),
        }


def aggregate_request_snapshots(snapshots: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """The cross-shard ``aggregate`` section of a router's ``/metrics``.

    ``snapshots`` are the per-shard ``requests`` sections (the shape
    :meth:`ServiceMetrics.snapshot` emits).  Counters sum; the per-rung and
    per-flush-trigger splits merge by summation; ``latency_samples`` sums.
    Percentiles do **not** compose across processes (a p99 of p99s is not the
    deployment's p99), so the aggregate reports the *worst shard's* p50/p99 —
    the conservative number an operator should alert on — and keeps the exact
    per-shard values available next to it in the ``shards`` section.

    ``shards_reporting`` counts the snapshots that actually contributed:
    during a shard death it is smaller than the shard count, which is
    itself a signal (the aggregate silently covering fewer shards would
    read as "traffic dropped" when it did not).
    """
    summed = {
        "received": 0,
        "answered": 0,
        "shed": 0,
        "deadline_exceeded": 0,
        "bad_requests": 0,
        "client_timeouts": 0,
        "unavailable": 0,
        "internal_errors": 0,
        "batches": 0,
        "latency_samples": 0,
    }
    answered_by_rung: Dict[str, int] = {}
    flushes: Dict[str, int] = dict.fromkeys(FLUSH_TRIGGERS, 0)
    worst: Dict[str, Optional[float]] = {
        "latency_p50_seconds": None,
        "latency_p99_seconds": None,
    }
    reporting = 0
    for snapshot in snapshots:
        reporting += 1
        for key in summed:
            value = snapshot.get(key)
            if isinstance(value, (int, float)):
                summed[key] += int(value)
        rungs = snapshot.get("answered_by_rung")
        if isinstance(rungs, dict):
            for rung, count in rungs.items():
                answered_by_rung[rung] = answered_by_rung.get(rung, 0) + int(count)
        triggers = snapshot.get("flushes")
        if isinstance(triggers, dict):
            for trigger in flushes:
                count = triggers.get(trigger)
                if isinstance(count, (int, float)):
                    flushes[trigger] += int(count)
        for field in worst:
            value = snapshot.get(field)
            if isinstance(value, (int, float)) and (worst[field] is None or value > worst[field]):
                worst[field] = float(value)
    return {
        **summed,
        "flushes": flushes,
        "answered_by_rung": answered_by_rung,
        **worst,
        "shards_reporting": reporting,
    }
