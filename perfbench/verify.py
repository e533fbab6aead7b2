"""Answer checking against engines rehydrated in-process from the same payload bytes.

An answer is correct when it matches the reference engine's result for the
same query in reachability, exact length, door sequence, and the
deterministic search counters ``doors_settled``, ``relaxations``,
``heap_pushes`` and ``heap_pops``.  Checking runs after the timed phases.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Tuple

from repro.core.engine import ITSPQEngine
from tracing import Tracer
from workloads import SERVING_METHOD, document_query

Answer = Tuple[bool, Optional[float], Tuple[str, ...], int, int, int, int]


def answer_of_result(result) -> Answer:
    stats = result.statistics
    return (
        result.found,
        result.length if result.found else None,
        tuple(result.path.door_sequence) if result.path is not None else (),
        stats.doors_settled,
        stats.relaxations,
        stats.heap_pushes,
        stats.heap_pops,
    )


def answer_of_json(values: list) -> Answer:
    """An :data:`Answer` that went through JSON (lists for tuples)."""
    found, length, doors, *counters = values
    return (found, length, tuple(doors), *counters)


def answer_of_response(document: dict) -> Answer:
    stats = document["statistics"]
    return (
        document["found"],
        document["length"],
        tuple(document["doors"]),
        stats["doors_settled"],
        stats["relaxations"],
        stats["heap_pushes"],
        stats["heap_pops"],
    )


class Reference:
    """One uncached engine per distinct payload; expected answers memoised
    per request body.  ``search_seconds`` keeps the wall time of every
    reference search (the traced run's ``engine.search_us`` samples), and a
    ``tracer`` gets an ``engine.run`` span per search."""

    def __init__(self, payloads: Dict[str, bytes], tracer: Optional[Tracer] = None):
        engines: Dict[bytes, ITSPQEngine] = {}
        self.engines = {}
        for venue, payload in payloads.items():
            if payload not in engines:
                engines[payload] = ITSPQEngine.from_compiled_payload(payload)
            self.engines[venue] = engines[payload]
        self._expected: Dict[bytes, Answer] = {}
        self.search_seconds: List[float] = []
        self.tracer = tracer

    def run(self, document: dict, method: str):
        engine = self.engines[document.get("venue", next(iter(self.engines)))]
        query = document_query(document)
        started = time.perf_counter()
        result = engine.run(query, method=method)
        done = time.perf_counter()
        self.search_seconds.append(done - started)
        if self.tracer is not None:
            self.tracer.record("engine.run", started, done)
        return result

    def expected(self, body: bytes) -> Answer:
        answer = self._expected.get(body)
        if answer is None:
            document = json.loads(body)
            answer = answer_of_result(self.run(document, document.get("method", SERVING_METHOD)))
            self._expected[body] = answer
        return answer

    def check(self, body: bytes, status: int, payload: bytes) -> bool:
        """Whether a ``/query`` response is a 200 with the correct answer."""
        if status != 200:
            return False
        return answer_of_response(json.loads(payload)) == self.expected(body)
