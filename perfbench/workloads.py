"""Seeded workload generator: venues, codec payloads and request bodies.

Every input of the benchmark is derived here from two things only: a venue
built by the repository's own generators, and the run seed.  The program
under test receives nothing else — the codec payload of each venue and the
JSON request bodies (or, for ``batch-paper``, the same query documents as a
file).  The same seed gives byte-identical payloads and bodies; the
benchmark's own test (``test_perfbench.py``) checks that across processes
with different hash seeds.

Query endpoints come from :func:`repro.synthetic.queries.generate_query_instances`
(the paper's δs2t-controlled generator).  ``paper-cold`` needs more distinct
sources than that generator can produce in a run's budget (each instance
costs one venue-wide Dijkstra, ~20 ms at paper scale), so its requests take
a generated (source, target) pair and redraw the source uniformly inside the
generated source's partition: every request has its own source point, and
δs2t stays within a partition's width of the generated distance.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.experiments import ExperimentScale, default_grid
from repro.core.itgraph import ITGraph, build_itgraph
from repro.core.query import ITSPQuery
from repro.datasets.example_floorplan import build_example_itgraph
from repro.geometry.point import IndoorPoint, Point2D
from repro.io.compiled_codec import compiled_graph_to_bytes
from repro.synthetic.multifloor import generate_mall_venue
from repro.synthetic.queries import QueryWorkloadConfig, generate_query_instances
from repro.synthetic.schedules import ScheduleConfig, generate_schedule

WORKLOADS = ("example-routed", "paper-cold", "paper-hot", "batch-paper")

#: Method every serving request names (the service default, ITG/S).
SERVING_METHOD = "synchronous"
#: The two methods of the paper's evaluation, run by ``batch-paper``.
BATCH_METHODS = ("synchronous", "asynchronous")
#: Figure 6 query times of day (Table II sweep), used by ``batch-paper``.
FIG6_TIMES = tuple(f"{hour}:00" for hour in range(0, 24, 2))

DAY_START = 7 * 3600
DAY_END = 22 * 3600


@dataclass
class WorkloadInputs:
    """Everything one workload sends to the program under test."""

    name: str
    #: venue name -> compiled-codec payload bytes.
    payloads: Dict[str, bytes]
    #: Request bodies of the timed phases, in send order (open loop first,
    #: then saturation; ``paper-cold`` never repeats one).
    requests: List[bytes] = field(default_factory=list)
    #: Bodies sent once, untimed, before the timed phases (``paper-hot``).
    warmup: List[bytes] = field(default_factory=list)
    #: The body whose first correct answer ends a set-up (serving workloads);
    #: for ``paper-cold`` it is one more distinct query, so no timed request
    #: repeats a key the server has seen.
    setup: bytes = b""
    #: ``batch-paper``: ``(method, [query document, ...])`` per batch.
    batches: List[Tuple[str, List[dict]]] = field(default_factory=list)

    def digest(self) -> str:
        """SHA-256 over every byte the program receives."""
        digest = hashlib.sha256()
        for name in sorted(self.payloads):
            digest.update(name.encode() + b"\0" + self.payloads[name])
        for body in [self.setup] + self.warmup + self.requests:
            digest.update(body + b"\n")
        digest.update(json.dumps(self.batches, sort_keys=True).encode())
        return digest.hexdigest()


def paper_venue() -> ITGraph:
    """The Table II venue: five 1368 m floors, |T| = 8 checkpoints."""
    grid = default_grid(ExperimentScale.PAPER)
    venue = generate_mall_venue(grid.venue_config, seed=grid.venue_seed)
    schedule, _ = generate_schedule(
        venue.space,
        ScheduleConfig(checkpoint_count=grid.default_checkpoints, seed=grid.schedule_seed),
    )
    return build_itgraph(venue.space, schedule, validate=False)


def payload_of(itgraph: ITGraph) -> bytes:
    """The compiled-codec payload a shard or batch process loads."""
    return compiled_graph_to_bytes(itgraph.compiled())


def clock(seconds: int) -> str:
    """``H:MM:SS`` for a second of the day (the service's time format)."""
    return f"{seconds // 3600}:{seconds // 60 % 60:02d}:{seconds % 60:02d}"


def query_document(query: ITSPQuery, time_text: str, venue: Optional[str] = None) -> dict:
    """The JSON document of one query, as the service's ``POST /query`` reads it."""
    document = {}
    if venue is not None:
        document["venue"] = venue
    document["source"] = [query.source.x, query.source.y, query.source.floor]
    document["target"] = [query.target.x, query.target.y, query.target.floor]
    document["time"] = time_text
    return document


def body_of(document: dict, method: str = SERVING_METHOD) -> bytes:
    return json.dumps({**document, "method": method}, separators=(",", ":")).encode()


def document_query(document: dict) -> ITSPQuery:
    """Parse a query document exactly as ``repro.service.server`` does."""

    def point(raw) -> IndoorPoint:
        floor = int(raw[2]) if len(raw) == 3 else 0
        return IndoorPoint(float(raw[0]), float(raw[1]), floor)

    return ITSPQuery(point(document["source"]), point(document["target"]), document["time"])


def generated_pairs(
    itgraph: ITGraph, distances, pairs_each: int, rng: random.Random
) -> List[ITSPQuery]:
    """``pairs_each`` generated instances per δs2t value (query time unused)."""
    queries = []
    for distance in distances:
        config = QueryWorkloadConfig(
            s2t_distance=float(distance), pairs=pairs_each, seed=rng.randrange(1 << 30)
        )
        queries.extend(item.query for item in generate_query_instances(itgraph, config))
    return queries


def redraw_source(itgraph: ITGraph, query: ITSPQuery, rng: random.Random) -> IndoorPoint:
    """A fresh uniform point in the partition of ``query.source`` that point
    location resolves back to that partition."""
    partition = itgraph.covering_partition(query.source)
    box = partition.polygon.bounding_box
    for _ in range(256):
        x = rng.uniform(box.min_x, box.max_x)
        y = rng.uniform(box.min_y, box.max_y)
        if not partition.polygon.contains(Point2D(x, y)):
            continue
        point = IndoorPoint(x, y, partition.floor)
        located = itgraph.space.try_locate(point)
        if located is not None and located.partition_id == partition.partition_id:
            return point
    raise ValueError(f"no point found inside partition {partition.partition_id}")


def example_routed(seed: int, count: int) -> WorkloadInputs:
    """Two example-venue shards; requests alternate venues ``a``/``b``."""
    rng = random.Random(seed)
    itgraph = build_example_itgraph()
    payload = payload_of(itgraph)
    pairs = generated_pairs(itgraph, (10, 20, 30, 40), 4, rng)
    documents = [
        query_document(query, clock(rng.randrange(DAY_START, DAY_END))) for query in pairs
    ]
    requests = []
    for index in range(count):
        document = documents[(index // 2) % len(documents)]
        requests.append(body_of({"venue": "ab"[index % 2], **document}))
    return WorkloadInputs("example-routed", {"a": payload, "b": payload}, requests, setup=requests[0])


def paper_cold(seed: int, count: int, itgraph: Optional[ITGraph] = None) -> WorkloadInputs:
    """Distinct source and distinct second of day per request, δs2t 300–1900 m."""
    rng = random.Random(seed)
    itgraph = itgraph or paper_venue()
    pairs = generated_pairs(itgraph, range(300, 2000, 200), 8, rng)
    rng.shuffle(pairs)
    seconds = rng.sample(range(DAY_START, DAY_END + 1), count + 1)
    requests = []
    for index in range(count + 1):
        base = pairs[index % len(pairs)]
        query = ITSPQuery(redraw_source(itgraph, base, rng), base.target, base.query_time)
        requests.append(body_of(query_document(query, clock(seconds[index]))))
    if len({tuple(json.loads(body)["source"]) for body in requests}) != len(requests):
        raise ValueError("paper-cold drew a source point twice")
    setup = requests.pop()
    return WorkloadInputs("paper-cold", {"mall": payload_of(itgraph)}, requests, setup=setup)


def kiosk_times(itgraph: ITGraph, rng: random.Random, count: int = 3) -> List[int]:
    """``count`` seconds of the day in pairwise distinct checkpoint intervals."""
    bitsets = itgraph.compiled().interval_bitsets
    chosen: Dict[int, int] = {}
    while len(chosen) < count:
        second = rng.randrange(DAY_START, DAY_END)
        chosen.setdefault(bitsets.index_at(second), second)
    return sorted(chosen.values())


def paper_hot(seed: int, count: int, itgraph: Optional[ITGraph] = None) -> WorkloadInputs:
    """Kiosk traffic: 8 sources x 40 targets x 3 times = 24 cache keys."""
    rng = random.Random(seed)
    itgraph = itgraph or paper_venue()
    pairs = generated_pairs(itgraph, range(300, 2000, 200), 5, rng)[:40]
    sources = [query.source for query in rng.sample(pairs, 8)]
    targets = [query.target for query in pairs]
    documents = [
        query_document(ITSPQuery(source, target, "12:00"), clock(second))
        for second in kiosk_times(itgraph, rng)
        for source in sources
        for target in targets
    ]
    warmup = [body_of(document) for document in documents]
    order = list(range(len(documents)))
    requests = []
    while len(requests) < count:
        rng.shuffle(order)
        requests.extend(warmup[index] for index in order)
    return WorkloadInputs(
        "paper-hot", {"mall": payload_of(itgraph)}, requests[:count], warmup, setup=warmup[0]
    )


#: Independent 8 x 8 fan-outs per time of day and method in ``batch-paper``.
FANOUTS_PER_TIME = 2


def batch_paper(seed: int, itgraph: Optional[ITGraph] = None) -> WorkloadInputs:
    """Figure 6 fan-out batches: 8 generated sources x their 8 targets, for
    12 times of day, ITG/S and ITG/A.  Every batch has its own 8 pairs, and
    each time of day has ``FANOUTS_PER_TIME`` batches: search cost varies a
    lot from source to source, and 192 sources per run keep the totals and
    the median batch comparable between seeds."""
    rng = random.Random(seed)
    itgraph = itgraph or paper_venue()
    per_method = FANOUTS_PER_TIME * len(FIG6_TIMES)
    pairs = generated_pairs(itgraph, (1500,), 8 * per_method, rng)
    batches = []
    for method in BATCH_METHODS:
        for index in range(per_method):
            fan = pairs[8 * index:8 * index + 8]
            documents = [
                query_document(
                    ITSPQuery(source.source, target.target, "12:00"),
                    FIG6_TIMES[index % len(FIG6_TIMES)],
                )
                for source in fan
                for target in fan
            ]
            batches.append((method, documents))
    return WorkloadInputs("batch-paper", {"mall": payload_of(itgraph)}, batches=batches)


def build_inputs(name: str, seed: int, count: int = 0) -> WorkloadInputs:
    """The inputs of workload ``name``; ``count`` sizes the request list."""
    if name == "example-routed":
        return example_routed(seed, count)
    if name == "paper-cold":
        return paper_cold(seed, count)
    if name == "paper-hot":
        return paper_hot(seed, count)
    if name == "batch-paper":
        return batch_paper(seed)
    raise ValueError(f"unknown workload {name!r} (have {', '.join(WORKLOADS)})")
