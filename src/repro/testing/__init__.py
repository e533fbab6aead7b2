"""Deterministic chaos tooling for the execution tiers.

:mod:`repro.testing.faults` is the fault-injection harness behind the chaos
parity suite: a seeded :class:`~repro.testing.faults.FaultPlan` describes
exactly which worker-pool events to sabotage (worker death mid-chunk, an
injected exception, a chunk delayed past its timeout, a payload corrupted at
rehydration, an initializer failure), and the supervised
:class:`~repro.core.parallel.ParallelBatchExecutor` threads the plan through
its worker initializer so every run of a chaos test replays the identical
failure schedule.

Nothing in here runs in production: the executor only imports this package
when a plan is explicitly supplied.
"""

from repro.testing.faults import (
    FaultPlan,
    FaultSpec,
    FlakyRung,
    InjectedWorkerError,
    drip_feed_request,
    flood_requests,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "FlakyRung",
    "InjectedWorkerError",
    "drip_feed_request",
    "flood_requests",
]
