"""Shared environment helpers for the pytest-benchmark suite.

The venue scale is controlled with the ``REPRO_BENCH_SCALE`` environment
variable (``tiny`` / ``small`` / ``paper``; default ``small``) — the
``paper`` scale reproduces the full Table II setting (five 1368 m floors,
δs2t up to 1900 m) and takes correspondingly longer.

Environments (venue + schedule + IT-Graph + workload) are cached per
parameter combination so that pytest-benchmark timings measure query
processing only, never data generation.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

from repro.bench.experiments import (
    BenchmarkEnvironment,
    ExperimentScale,
    build_environment,
)


def bench_scale() -> ExperimentScale:
    """The venue scale selected through the environment."""
    return ExperimentScale(os.environ.get("REPRO_BENCH_SCALE", "small"))


_ENVIRONMENTS: Dict[Tuple, BenchmarkEnvironment] = {}


def cached_environment(
    checkpoint_count: Optional[int] = None,
    s2t_distance: Optional[float] = None,
    query_time: Optional[str] = None,
) -> BenchmarkEnvironment:
    """Build (once) and return the environment for one parameter setting."""
    scale = bench_scale()
    key = (scale, checkpoint_count, s2t_distance, query_time)
    if key not in _ENVIRONMENTS:
        _ENVIRONMENTS[key] = build_environment(
            scale,
            checkpoint_count=checkpoint_count,
            s2t_distance=s2t_distance,
            query_time=query_time,
        )
    return _ENVIRONMENTS[key]


def run_workload(environment: BenchmarkEnvironment, method: str) -> int:
    """Answer the environment's whole query set once; returns #found (so the
    work cannot be optimised away)."""
    found = 0
    for query in environment.queries:
        result = environment.engine.run(query, method=method)
        found += int(result.found)
    return found
