"""In-process per-layer probes of the traced run.

Each probe times calls into one layer's public functions on engines
rehydrated from the workload's own payload, with the workload's own queries.
Every call is wrapped in a span of the layer it enters.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence, Tuple

from repro.core.cache import CacheConfig
from repro.core.engine import ITSPQEngine
from repro.io.compiled_codec import compiled_graph_from_bytes
from loadgen import percentile
from tracing import Tracer
from verify import Reference
from workloads import document_query

#: Queries per in-process batch when a serving workload's queries are batched.
BATCH_SIZE = 64
MAX_BATCHES = 8
#: Distinct cache keys recorded by the cache probe.
CACHE_KEYS = 24
CACHE_REPLAYS = 20
ENGINE_SAMPLES = 1000
POOL_WORKERS = 2


def timed(tracer: Tracer, name: str, call, *args, **kwargs):
    started = time.perf_counter()
    value = call(*args, **kwargs)
    done = time.perf_counter()
    tracer.record(name, started, done)
    return value, done - started


def codec(payload: bytes, tracer: Tracer, repeats: int = 5) -> Dict[str, float]:
    seconds = [timed(tracer, "codec.load", compiled_graph_from_bytes, payload)[1] for _ in range(repeats)]
    return {"codec.load_ms": statistics.median(seconds) * 1000.0, "codec.payload_kb": len(payload) / 1024.0}


def engine(reference: Reference, documents: Sequence[Tuple[str, dict]]) -> Dict[str, float]:
    """Uncached ``ITSPQEngine.run`` times: the reference searches the answer
    check already ran, topped up by cycling the queries to ``ENGINE_SAMPLES``."""
    index = 0
    while len(reference.search_seconds) < ENGINE_SAMPLES:
        method, document = documents[index % len(documents)]
        reference.run(document, method)
        index += 1
    samples = [seconds * 1e6 for seconds in reference.search_seconds]
    return {
        "engine.search_us_p50": percentile(samples, 0.50),
        "engine.search_us_p99": percentile(samples, 0.99),
    }


def cache(payload: bytes, documents: Sequence[Tuple[str, dict]], tracer: Tracer) -> Dict[str, float]:
    """Record one tree for each of ``CACHE_KEYS`` queries with distinct
    (source, time, method) — an eager cache's first miss — and replay each
    with ``ITSPQEngine.answer_from_cache``."""
    cached = ITSPQEngine.from_compiled_payload(payload, cache=CacheConfig(mode="eager"))
    keys = {}
    for method, document in documents:
        keys.setdefault((tuple(document["source"]), document["time"], method), (method, document))
    record, replay = [], []
    for method, document in list(keys.values())[:CACHE_KEYS]:
        query = document_query(document)
        record.append(timed(tracer, "cache.record", cached.run, query, method=method)[1])
        for _ in range(CACHE_REPLAYS):
            result, seconds = timed(tracer, "cache.replay", cached.answer_from_cache, query, method=method)
            if result is None:
                raise RuntimeError("cache probe: a recorded key missed on replay")
            replay.append(seconds)
    return {
        "cache.record_ms_p50": statistics.median(record) * 1000.0,
        "cache.replay_us_p50": statistics.median(replay) * 1e6,
    }


def serving_batches(documents: Sequence[Tuple[str, dict]]) -> List[Tuple[str, List[dict]]]:
    """A serving workload's queries cut into in-process batches of one method."""
    batches = []
    for start in range(0, len(documents), BATCH_SIZE):
        chunk = documents[start:start + BATCH_SIZE]
        batches.append((chunk[0][0], [document for _method, document in chunk]))
    return batches[:MAX_BATCHES]


def batch_and_parallel(
    payload: bytes, batches: Sequence[Tuple[str, List[dict]]], tracer: Tracer
) -> Dict[str, float]:
    """``BatchPlanner.plan`` and ``BatchExecutor.run_planned`` timed per batch;
    then the same batches through ``run_batch`` in-process and on a
    ``POOL_WORKERS``-process pool (``parallel.speedup`` = pool throughput ÷
    in-process throughput on identical batches)."""
    planned = [(method, [document_query(d) for d in documents]) for method, documents in batches]
    queries = sum(len(batch) for _method, batch in planned)
    local = ITSPQEngine.from_compiled_payload(payload)
    executor = local.batch_executor()
    for method, batch in planned:
        local.run_batch(batch, method=method)  # lazy set-up, untimed
    plan_seconds = execute_seconds = inprocess_seconds = 0.0
    groups = 0
    for method, batch in planned:
        plan, seconds = timed(tracer, "batch.plan", executor.planner.plan, batch, method)
        plan_seconds += seconds
        execute_seconds += timed(tracer, "batch.execute", executor.run_planned, plan)[1]
        inprocess_seconds += timed(tracer, "batch.run_batch", local.run_batch, batch, method=method)[1]
        groups += local.last_execution_report.groups
    pool_seconds = total_seconds = pool_wall = 0.0
    retries_fallbacks = 0
    try:
        local.run_batch(planned[0][1], method=planned[0][0], workers=POOL_WORKERS)  # pool start, untimed
        for method, batch in planned:
            pool_wall += timed(
                tracer, "parallel.run_batch", local.run_batch, batch, method=method, workers=POOL_WORKERS
            )[1]
            report = local.last_execution_report
            pool_seconds += report.pool_seconds
            total_seconds += report.total_seconds
            retries_fallbacks += report.chunks_retried + report.chunks_fallback
    finally:
        local.close()
    return {
        "batch.plan_us_per_query": plan_seconds / queries * 1e6,
        "batch.execute_ms_per_batch": execute_seconds / len(planned) * 1000.0,
        "batch.mean_group_size": queries / groups,
        "parallel.speedup": inprocess_seconds / pool_wall,
        "parallel.pool_share": pool_seconds / total_seconds if total_seconds else 0.0,
        "parallel.retries_fallbacks": retries_fallbacks,
    }
