"""The serving workloads: ``example-routed``, ``paper-cold`` and ``paper-hot``.

One measuring pass:

1. **Set-up**, ``SETUPS`` times: spawn ``python -m repro.service``, wait for
   its ``listening on`` line and send the set-up query until a 200 arrives.
   ``setup_s`` is the median of the spawn-to-answer times (the answer is
   checked afterwards with the rest).  The last deployment stays up.
2. **Warm-up** (``paper-hot`` only): every kiosk query once, untimed.
3. **Open loop** at the workload's rate, at least 1,000 requests, timed from
   each request's due time: ``latency_p50_ms``, ``latency_p99_ms``.
4. **Saturation**: two connections back to back.  ``throughput_qps`` counts
   correct answers that took at most ``LATENCY_LIMIT_S`` per ``WINDOW_S``
   window and reports the mean of the middle half of the windows, so a
   stall outside the program that hits a few windows does not move it.
5. ``peak_rss_mb``: summed ``VmHWM`` of the server, or router plus shards.

The traced pass adds ``/metrics`` scrapes around the phases and, for the
routed workload, replays the open-loop requests directly to the owning
shards at the same rate.
"""

from __future__ import annotations

import asyncio
import gc
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from deploy import Deployment
from loadgen import Connection, Sample, closed_loop, connect, open_loop, percentile
from tracing import Tracer
from workloads import WorkloadInputs

#: Latency limit a saturation-phase answer must meet to count as throughput.
LATENCY_LIMIT_S = 0.100
#: The open loop must hold enough requests that 10 lie beyond p99.
MIN_OPEN_LOOP = 1000
SETUPS = 9
CONNECTIONS = 2
#: Share of ``--seconds`` given to the open loop; saturation gets the rest.
OPEN_SHARE = 0.5
#: Width of the saturation windows ``throughput_qps`` is taken over.
WINDOW_S = 1.0


@dataclass(frozen=True)
class ServingSpec:
    rate: float  #: open-loop requests per second
    shards: int  #: ``--shards`` (0: one server process)


SPECS = {
    "example-routed": ServingSpec(rate=100.0, shards=2),
    "paper-cold": ServingSpec(rate=40.0, shards=0),
    "paper-hot": ServingSpec(rate=100.0, shards=0),
}


def open_loop_count(spec: ServingSpec, seconds: float) -> int:
    return max(MIN_OPEN_LOOP, round(spec.rate * OPEN_SHARE * seconds))


def saturation_seconds(seconds: float) -> float:
    return max(3.0, (1.0 - OPEN_SHARE) * seconds)


def request_budget(name: str, seconds: float) -> int:
    """Request bodies a run can use: the open loop plus a saturation phase
    at up to 500 answers per second."""
    return open_loop_count(SPECS[name], seconds) + int(500 * saturation_seconds(seconds))


@dataclass
class Pass:
    """Everything one measuring pass observed."""

    setup_seconds: List[float] = field(default_factory=list)
    setup: List[Sample] = field(default_factory=list)
    warmup: List[Sample] = field(default_factory=list)
    open: List[Sample] = field(default_factory=list)
    saturation: List[Sample] = field(default_factory=list)
    saturation_start: float = 0.0
    saturation_seconds: float = 0.0
    direct: List[Sample] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    metrics_before: Optional[dict] = None
    metrics_after: Optional[dict] = None

    def phases(self) -> Dict[str, List[Sample]]:
        return {
            "setup": self.setup,
            "warmup": self.warmup,
            "open": self.open,
            "saturation": self.saturation,
            "direct": self.direct,
        }


async def first_answer(connection: Connection, body: bytes, timeout: float = 60.0) -> Sample:
    """The first 200 for ``body`` (a router answers 503 until its shards are up)."""
    deadline = time.perf_counter() + timeout
    while True:
        sent = time.perf_counter()
        status, payload = await connection.request("POST", "/query", body)
        if status == 200 or time.perf_counter() > deadline:
            return Sample(body, sent, sent, time.perf_counter(), status, payload)
        await asyncio.sleep(0.005)


async def get(connection: Connection, path: str, tracer: Optional[Tracer] = None, layer: str = "") -> bytes:
    """``GET path``; a traced scrape is a ``<layer>.scrape`` span."""
    started = time.perf_counter()
    status, payload = await connection.request("GET", path)
    if tracer is not None:
        tracer.record(f"{layer}.scrape", started, time.perf_counter())
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return payload


async def measure_pass(
    name: str,
    inputs: WorkloadInputs,
    seconds: float,
    root: Path,
    run_dir: Path,
    tracer: Optional[Tracer],
) -> Pass:
    spec = SPECS[name]
    venue_args = []
    for venue, payload in inputs.payloads.items():
        path = run_dir / f"{venue}.bin"
        path.write_bytes(payload)
        venue_args.append(f"{venue}={path}")
    layer = "shard" if spec.shards else "server"
    result = Pass()
    deployment = None
    try:
        for _ in range(SETUPS):
            if deployment is not None:
                deployment.stop(graceful=False)
            deployment = Deployment(root, venue_args, spec.shards, run_dir / "service.log")
            started = time.perf_counter()
            deployment.spawn()
            deployment.wait_listening()
            connection = await Connection(deployment.host, deployment.port).open()
            try:
                sample = await first_answer(connection, inputs.setup)
                result.setup_seconds.append(sample.done - started)
                result.setup.append(sample)
                if spec.shards:
                    deployment.learn_shards(await get(connection, "/readyz"))
            finally:
                await connection.close()
        connections = await connect(deployment.host, deployment.port, CONNECTIONS)
        try:
            if tracer is not None:
                result.metrics_before = json.loads(await get(connections[0], "/metrics", tracer, layer))
            if inputs.warmup:
                result.warmup, _ = await closed_loop(
                    connections, iter(inputs.warmup), float("inf"), None, layer
                )
            count = open_loop_count(spec, seconds)
            # A collection in the generator would stall it mid-phase and charge
            # the pause to the server; one phase allocates little.
            gc.collect()
            gc.disable()
            try:
                result.open = await open_loop(
                    connections, inputs.requests[:count], spec.rate, tracer, layer
                )
                result.saturation_start = time.perf_counter()
                result.saturation, result.saturation_seconds = await closed_loop(
                    connections, iter(inputs.requests[count:]), saturation_seconds(seconds), tracer, layer
                )
            finally:
                gc.enable()
            if tracer is not None:
                result.metrics_after = json.loads(await get(connections[0], "/metrics", tracer, layer))
                if spec.shards:
                    result.direct = await direct_to_shards(
                        deployment, inputs.requests[:count], spec.rate, tracer
                    )
            result.peak_rss_mb = deployment.peak_rss_mb()
        finally:
            for connection in connections:
                await connection.close()
    finally:
        if deployment is not None:
            deployment.stop()
    return result


async def direct_to_shards(
    deployment: Deployment, bodies: List[bytes], rate: float, tracer: Tracer
) -> List[Sample]:
    """The open-loop requests again, each sent straight to its venue's shard."""
    ports = sorted(set(deployment.shard_ports.values()))
    connections = [await Connection(deployment.host, port).open() for port in ports]
    index_of = {venue: ports.index(port) for venue, port in deployment.shard_ports.items()}
    try:
        return await open_loop(
            connections,
            bodies,
            rate,
            tracer,
            "server",
            route=lambda body: index_of[json.loads(body)["venue"]],
        )
    finally:
        for connection in connections:
            await connection.close()


def throughput(result: Pass, correct: Dict[int, bool]) -> float:
    """Correct answers within the latency limit per second: the mean of the
    middle half of the saturation phase's whole ``WINDOW_S`` windows, sorted
    by count.  An answer counts in the window it arrived in."""
    windows = [0] * max(1, int(result.saturation_seconds / WINDOW_S))
    for sample in result.saturation:
        index = int((sample.done - result.saturation_start) / WINDOW_S)
        if index < len(windows) and correct[id(sample)] and sample.service_time <= LATENCY_LIMIT_S:
            windows[index] += 1
    windows.sort()
    quarter = len(windows) // 4
    return statistics.fmean(windows[quarter:len(windows) - quarter]) / WINDOW_S


def end_to_end(result: Pass, correct: Dict[int, bool]) -> Dict[str, float]:
    latencies = [sample.latency for sample in result.open]
    return {
        "setup_s": statistics.median(result.setup_seconds),
        "latency_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "latency_p99_ms": percentile(latencies, 0.99) * 1000.0,
        "throughput_qps": throughput(result, correct),
        "peak_rss_mb": result.peak_rss_mb,
    }


def _requests_section(metrics: dict, routed: bool) -> dict:
    return metrics["aggregate"] if routed else metrics["requests"]


def _cache_totals(metrics: dict, routed: bool) -> Dict[str, float]:
    services = (
        [shard["metrics"] for shard in metrics["shards"].values() if shard.get("metrics")]
        if routed
        else [metrics]
    )
    totals = {"hits": 0, "misses": 0, "trees_built": 0, "memory_bytes": 0}
    for service in services:
        for venue in service["venues"].values():
            cache = venue.get("cache") or {}
            for key in totals:
                totals[key] += cache.get(key, 0)
    return totals


def per_layer(name: str, result: Pass) -> Dict[str, float]:
    """The per-layer metrics a traced pass measures from outside the server."""
    routed = SPECS[name].shards > 0
    before, after = result.metrics_before, result.metrics_after
    requests_before = _requests_section(before, routed)
    requests_after = _requests_section(after, routed)
    answered = requests_after["answered"] - requests_before["answered"]
    batches = requests_after["batches"] - requests_before["batches"]
    cache_before, cache_after = _cache_totals(before, routed), _cache_totals(after, routed)
    hits = cache_after["hits"] - cache_before["hits"]
    lookups = hits + cache_after["misses"] - cache_before["misses"]
    direct = result.direct if routed else result.open
    outside = []
    for sample in direct:
        if sample.status == 200:
            runtime = json.loads(sample.payload)["statistics"]["runtime_seconds"]
            outside.append((sample.service_time - runtime) * 1000.0)
    answers = [
        json.loads(sample.payload)["statistics"]
        for sample in result.open + result.saturation
        if sample.status == 200
    ]
    layer = {
        "shard.proxy_ms_p50": 0.0,
        "shard.errors": 0,
        "server.outside_engine_ms_p50": percentile(outside, 0.50),
        "server.outside_engine_ms_p99": percentile(outside, 0.99),
        "server.admit_to_response_ms_p50": (requests_after["latency_p50_seconds"] or 0.0) * 1000.0,
        "server.mean_batch_size": answered / batches if batches else 0.0,
        "server.shed": requests_after["shed"] - requests_before["shed"],
        "engine.heap_pops_per_query": statistics.fmean(a["heap_pops"] for a in answers),
        "engine.relaxations_per_query": statistics.fmean(a["relaxations"] for a in answers),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.trees_built": cache_after["trees_built"],
        "cache.memory_mb": cache_after["memory_bytes"] / (1024.0 * 1024.0),
        "loadgen.send_lag_ms_p99": percentile([s.lag for s in result.open], 0.99) * 1000.0,
    }
    if routed:
        routed_p50 = percentile([s.latency for s in result.open], 0.50)
        direct_p50 = percentile([s.latency for s in result.direct], 0.50)
        layer["shard.proxy_ms_p50"] = (routed_p50 - direct_p50) * 1000.0
        errors = ("shed", "shard_unavailable", "proxy_failures", "proxy_timeouts")
        layer["shard.errors"] = sum(after["router"][k] - before["router"][k] for k in errors)
    return layer


def distinct_documents(inputs: WorkloadInputs) -> List[dict]:
    """The workload's distinct query documents, in first-seen order."""
    seen = {}
    for body in [inputs.setup] + inputs.warmup + inputs.requests:
        if body not in seen:
            seen[body] = json.loads(body)
    return list(seen.values())
