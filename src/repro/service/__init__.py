"""``repro.service`` — a resilient localhost query service over the engine.

The serving layer the ROADMAP's north star calls for: one asyncio process
owns one or more compiled venues (engines built normally or rehydrated from
:mod:`repro.io.compiled_codec` payloads), collects incoming single queries
into micro-batches for the :class:`~repro.core.batch.BatchPlanner` (a query
flushes at once when its venue is idle and queues only behind work in
flight), and wraps the whole request path in
robustness machinery:

* **cooperative deadlines** — every admitted request may carry a
  :class:`~repro.core.deadline.SearchDeadline`; expiry raises the typed
  :class:`~repro.exceptions.DeadlineExceededError` (HTTP 504), never a
  partial result;
* **admission control** — a bounded pending-request budget sheds load with
  :class:`~repro.exceptions.ServiceOverloadedError` (HTTP 429) and a
  semaphore caps in-flight batches (:mod:`repro.service.admission`);
* **a circuit-breaker degradation ladder** — in-process batch →
  sequential compiled → cache-replay-only, each rung guarded by a breaker
  scored from outcomes, with bounded-backoff recovery probes
  (:mod:`repro.service.degradation`);
* **graceful lifecycle** — ``/healthz`` / ``/readyz`` / ``/metrics``
  endpoints and drain-then-close shutdown reusing the engines' idempotent
  ``close()`` contract (:mod:`repro.service.server`);
* **sharded serving** — a :class:`~repro.service.shard.ShardRouter`
  front-end over N supervised service subprocesses (one venue subset each,
  static venue→shard map, pooled proxying, bounded-backoff respawn,
  aggregated health/metrics), the ``--shards`` mode of
  ``python -m repro.service`` (:mod:`repro.service.shard`), and the
  service's only process-level parallelism.

Every rung answers **bit-identically** to the sequential oracle (the
repository's standing parity invariant); degradation changes latency and
availability, never answers.  ``python -m repro.service`` runs a server;
``perfbench/run.py`` drives it with open-loop load.
"""

from repro.service.admission import AdmissionController
from repro.service.degradation import CircuitBreaker, DegradationLadder
from repro.service.metrics import ServiceMetrics, aggregate_request_snapshots
from repro.service.server import ITSPQService, ServiceConfig
from repro.service.shard import ShardRouter, ShardRouterConfig, ShardSpec, plan_shards

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "DegradationLadder",
    "ServiceMetrics",
    "ITSPQService",
    "ServiceConfig",
    "ShardRouter",
    "ShardRouterConfig",
    "ShardSpec",
    "aggregate_request_snapshots",
    "plan_shards",
]
