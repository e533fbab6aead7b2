"""Measurement harness: repeated query execution, averaging, result tables.

The paper runs every query instance ten times and reports the average running
time and memory cost per parameter setting.  ``run_query_set`` reproduces
that protocol for one (query set, method) combination;
``ExperimentResult`` collects the series of one figure.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.bench.memory import bytes_to_kb, measure_peak_memory
from repro.core.engine import ITSPQEngine, MethodLike
from repro.core.query import ITSPQuery


@dataclass
class QuerySetMeasurement:
    """Aggregated measurements of one query set under one method."""

    method: str
    queries: int
    repetitions: int
    mean_time_us: float
    p50_time_us: float
    max_time_us: float
    mean_memory_kb: float = 0.0
    found_fraction: float = 1.0
    mean_doors_settled: float = 0.0
    mean_relaxations: float = 0.0
    mean_ati_probes: float = 0.0
    mean_snapshot_refreshes: float = 0.0
    mean_membership_checks: float = 0.0

    def as_row(self, **extra) -> Dict[str, object]:
        """Flatten into a result-table row, merged with experiment parameters.

        Keys supplied in ``extra`` win over the measurement's own fields, so
        experiments can relabel the method (e.g. ``ITG/S(t=8:00)`` in the
        Figure 4 series).
        """
        row: Dict[str, object] = {
            "method": self.method,
            "mean_time_us": round(self.mean_time_us, 1),
            "p50_time_us": round(self.p50_time_us, 1),
            "mean_memory_kb": round(self.mean_memory_kb, 1),
            "found_fraction": round(self.found_fraction, 3),
            "doors_settled": round(self.mean_doors_settled, 1),
            "relaxations": round(self.mean_relaxations, 1),
            "ati_probes": round(self.mean_ati_probes, 1),
            "snapshot_refreshes": round(self.mean_snapshot_refreshes, 2),
            "membership_checks": round(self.mean_membership_checks, 1),
        }
        row.update(extra)
        return row


def run_query_set(
    engine: ITSPQEngine,
    queries: Sequence[ITSPQuery],
    method: MethodLike,
    repetitions: int = 10,
    measure_memory: bool = False,
) -> QuerySetMeasurement:
    """Run every query ``repetitions`` times and aggregate the measurements.

    Timing uses the engine's own per-query ``perf_counter`` measurement so
    the numbers include the temporal-check work but exclude workload set-up.
    Memory (when requested) is the tracemalloc peak of a single additional
    run per query, mirroring the paper's per-query memory cost.
    """
    if not queries:
        raise ValueError("query set must not be empty")
    times_us: List[float] = []
    memories_kb: List[float] = []
    found: List[bool] = []
    doors_settled: List[float] = []
    relaxations: List[float] = []
    ati_probes: List[float] = []
    snapshot_refreshes: List[float] = []
    membership_checks: List[float] = []

    method_label: Optional[str] = None
    for query in queries:
        for _ in range(repetitions):
            result = engine.run(query, method=method)
            times_us.append(result.statistics.runtime_seconds * 1e6)
            found.append(result.found)
            doors_settled.append(result.statistics.doors_settled)
            relaxations.append(result.statistics.relaxations)
            ati_probes.append(result.statistics.ati_probes)
            snapshot_refreshes.append(result.statistics.snapshot_refreshes)
            membership_checks.append(result.statistics.membership_checks)
            method_label = result.method_label
        if measure_memory:
            _, peak = measure_peak_memory(lambda q=query: engine.run(q, method=method))
            memories_kb.append(bytes_to_kb(peak))

    return QuerySetMeasurement(
        method=method_label or str(method),
        queries=len(queries),
        repetitions=repetitions,
        mean_time_us=statistics.fmean(times_us),
        p50_time_us=statistics.median(times_us),
        max_time_us=max(times_us),
        mean_memory_kb=statistics.fmean(memories_kb) if memories_kb else 0.0,
        found_fraction=sum(found) / len(found),
        mean_doors_settled=statistics.fmean(doors_settled),
        mean_relaxations=statistics.fmean(relaxations),
        mean_ati_probes=statistics.fmean(ati_probes),
        mean_snapshot_refreshes=statistics.fmean(snapshot_refreshes),
        mean_membership_checks=statistics.fmean(membership_checks),
    )


@dataclass
class ExperimentResult:
    """Result of one experiment (one paper figure): parameters and series rows."""

    name: str
    description: str
    parameters: Dict[str, object] = field(default_factory=dict)
    rows: List[Dict[str, object]] = field(default_factory=list)
    started_at: float = field(default_factory=time.time)

    def add_row(self, row: Dict[str, object]) -> None:
        """Append one series point."""
        self.rows.append(row)

    def series(self, method: str, x_key: str, y_key: str) -> List[Dict[str, object]]:
        """Extract one method's series as ``[{x_key:…, y_key:…}, …]``."""
        return [
            {x_key: row[x_key], y_key: row[y_key]}
            for row in self.rows
            if row.get("method") == method
        ]

    def methods(self) -> List[str]:
        """Distinct method labels present in the rows, in first-seen order."""
        seen: List[str] = []
        for row in self.rows:
            method = str(row.get("method"))
            if method not in seen:
                seen.append(method)
        return seen
