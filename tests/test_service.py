"""The serving layer's happy paths: parity with the engine, micro-batching,
the HTTP surface (health/readiness/metrics), per-request deadlines and
admission-control shedding.

Every test drives a real :class:`ITSPQService` bound to an ephemeral
localhost port through real sockets — no mocked transports — inside a plain
``asyncio.run`` (the environment has no async test plugin).
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.core.cache import CacheConfig
from repro.core.engine import ITSPQEngine
from repro.service import ITSPQService, ServiceConfig

from tests._service_http import (
    BatchGate,
    assert_matches_oracle,
    get,
    post_behind_held_batch,
    post_query,
    query_body,
    raw_request,
)


def run_service_test(service: ITSPQService, test_coro_factory) -> None:
    """Start ``service``, run the test body, always drain-and-close."""

    async def scenario():
        await service.start()
        try:
            await test_coro_factory(service)
        finally:
            await service.aclose()

    asyncio.run(scenario())


def example_service(example_itgraph, **config_kwargs) -> ITSPQService:
    config_kwargs.setdefault("batch_window_ms", 1.0)
    engine = ITSPQEngine(example_itgraph, cache=CacheConfig(mode="eager"))
    return ITSPQService({"example": engine}, ServiceConfig(**config_kwargs))


class TestQueryParity:
    def test_every_pair_and_method_matches_the_engine(self, example_itgraph, example_points):
        oracle_engine = ITSPQEngine(example_itgraph)
        points = example_points
        cases = [
            (points["p3"], points["p4"], "9:00", "synchronous"),
            (points["p3"], points["p4"], "9:00", "asynchronous"),
            (points["p4"], points["p3"], "14:00", "synchronous"),
            (points["p1"], points["p2"], "10:30", "static"),
            (points["p2"], points["p1"], "18:00", "query-time"),
        ]
        oracles = [
            oracle_engine.query(source, target, when, method=method)
            for source, target, when, method in cases
        ]

        async def body(service):
            for (source, target, when, method), oracle in zip(cases, oracles):
                status, payload = await post_query(
                    service.host, service.port, query_body(source, target, when, method=method)
                )
                assert status == 200
                assert payload["venue"] == "example"
                assert_matches_oracle(payload, oracle)

        run_service_test(example_service(example_itgraph), body)

    def test_unreachable_target_is_a_200_not_found(self, example_itgraph, example_points):
        # 23:30 is past every closing time in Table I: nothing is reachable.
        oracle = ITSPQEngine(example_itgraph).query(
            example_points["p3"], example_points["p4"], "23:30"
        )

        async def body(service):
            status, payload = await post_query(
                service.host,
                service.port,
                query_body(example_points["p3"], example_points["p4"], "23:30"),
            )
            assert status == 200
            assert payload["found"] == oracle.found
            assert_matches_oracle(payload, oracle)

        run_service_test(example_service(example_itgraph), body)


class TestMicroBatching:
    def test_concurrent_queries_share_batches(self, example_itgraph, example_points):
        points = list(example_points.values())
        bodies = [
            query_body(source, target)
            for source in points
            for target in points
            if source is not target
        ]

        async def body(service):
            outcomes = await asyncio.gather(
                *(post_query(service.host, service.port, document) for document in bodies)
            )
            assert all(status == 200 for status, _ in outcomes)
            # 12 concurrent same-(venue, method) queries coalesced into
            # fewer flushes than requests: those arriving while a batch
            # runs queue behind it and leave together.
            assert 1 <= service.metrics.batches < len(bodies)
            assert service.metrics.answered == len(bodies)

        run_service_test(example_service(example_itgraph, batch_window_ms=25.0), body)

    def test_max_batch_flushes_early(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]
        gate = BatchGate()

        async def body(service):
            started = time.perf_counter()
            # The four queue behind a held batch, where the window applies.
            (status, _), outcomes = await post_behind_held_batch(
                service, gate, query_body(p3, p4), [query_body(p3, p4) for _ in range(4)]
            )
            elapsed = time.perf_counter() - started
            assert status == 200
            assert all(status == 200 for status, _ in outcomes)
            # The window is absurdly long; only the size trigger can have
            # flushed within the test budget.
            assert elapsed < 5.0
            assert service.metrics.flushes["size"] == 1

        run_service_test(
            example_service(
                example_itgraph, batch_window_ms=30_000.0, max_batch=4, rung_fault_hook=gate
            ),
            body,
        )

    def test_lone_query_is_not_held_by_the_window(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]

        async def body(service):
            started = time.perf_counter()
            status, _ = await post_query(service.host, service.port, query_body(p3, p4))
            assert status == 200
            # Nothing was in flight, so the window never applied.
            assert time.perf_counter() - started < 5.0
            assert service.metrics.flushes["idle"] == 1

        run_service_test(example_service(example_itgraph, batch_window_ms=30_000.0), body)

    def test_queries_behind_a_batch_in_flight_share_one_batch(
        self, example_itgraph, example_points
    ):
        # Queries that arrive behind a batch in flight wait out the window
        # together, even though the batch ahead of them completes first.
        points = example_points
        pairs = [
            (points["p1"], points["p2"]),
            (points["p2"], points["p1"]),
            (points["p3"], points["p4"]),
            (points["p4"], points["p3"]),
            (points["p1"], points["p4"]),
        ]
        oracle_engine = ITSPQEngine(example_itgraph)
        oracles = [oracle_engine.query(source, target, "9:00") for source, target in pairs]
        gate = BatchGate()

        async def body(service):
            (status, _), outcomes = await asyncio.wait_for(
                post_behind_held_batch(
                    service,
                    gate,
                    query_body(points["p3"], points["p4"]),
                    [query_body(source, target) for source, target in pairs],
                ),
                timeout=30.0,
            )
            assert status == 200
            for (status, payload), oracle in zip(outcomes, oracles):
                assert status == 200
                assert_matches_oracle(payload, oracle)
            # The held batch, then everything that queued behind it as one
            # batch released by the window.
            assert service.metrics.batches == 2
            assert service.metrics.flushes["idle"] == 1
            assert service.metrics.flushes["window"] == 1

        run_service_test(
            example_service(example_itgraph, batch_window_ms=2_000.0, rung_fault_hook=gate),
            body,
        )


class TestHttpSurface:
    def test_health_ready_metrics_and_errors(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]

        async def body(service):
            status, payload = await get(service.host, service.port, "/healthz")
            assert status == 200 and payload["status"] == "alive"

            status, payload = await get(service.host, service.port, "/readyz")
            assert status == 200 and payload["status"] == "ready"
            assert payload["venues"] == ["example"]
            assert "batch" in payload["ladder"]["rungs"]

            status, _ = await post_query(service.host, service.port, query_body(p3, p4))
            assert status == 200

            status, payload = await get(service.host, service.port, "/metrics")
            assert status == 200
            assert payload["requests"]["answered"] == 1
            assert payload["requests"]["answered_by_rung"].get("batch") == 1
            assert payload["venues"]["example"]["cache"]["entries"] >= 1

            status, _ = await get(service.host, service.port, "/nope")
            assert status == 404
            status, _ = await raw_request(service.host, service.port, "DELETE", "/query")
            assert status == 405
            status, _ = await raw_request(service.host, service.port, "POST", "/metrics")
            assert status == 405

        run_service_test(example_service(example_itgraph), body)

    def test_keep_alive_serves_multiple_requests(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]

        async def body(service):
            reader, writer = await asyncio.open_connection(service.host, service.port)
            try:
                for _ in range(3):
                    status, _ = await raw_request(
                        service.host,
                        service.port,
                        "POST",
                        "/query",
                        json.dumps(query_body(p3, p4)).encode(),
                        reader=reader,
                        writer=writer,
                    )
                    assert status == 200
            finally:
                writer.close()
                await writer.wait_closed()

        run_service_test(example_service(example_itgraph), body)

    @pytest.mark.parametrize(
        "document",
        [
            {"source": [26, 5], "time": "9:00"},  # no target
            {"source": "here", "target": [9, 10], "time": "9:00"},
            {"source": [26, 5], "target": [9, 10], "time": "9:00", "method": "bogus"},
            {"source": [26, 5], "target": [9, 10], "time": "9:00", "venue": "atlantis"},
            {"source": [26, 5], "target": [9, 10], "time": "9:00", "deadline_ms": -5},
            [1, 2, 3],  # not an object
            # Values int() or float() cannot convert: they raise OverflowError.
            {"source": [1, 1, float("inf")], "target": [9, 10], "time": "9:00"},
            {"source": [1, 10**400, 0], "target": [9, 10], "time": "9:00"},
            {"source": [26, 5], "target": [9, 10], "time": "9:00", "deadline_ms": 10**400},
            {"source": [26, 5], "target": [9, 10], "time": 10**400},
        ],
    )
    def test_malformed_queries_answer_400(self, example_itgraph, example_points, document):
        p3, p4 = example_points["p3"], example_points["p4"]
        oracle = ITSPQEngine(example_itgraph).query(p3, p4, "9:00")

        async def body(service):
            reader, writer = await asyncio.open_connection(service.host, service.port)
            try:
                status, payload = await raw_request(
                    service.host, service.port, "POST", "/query",
                    json.dumps(document).encode(), reader=reader, writer=writer,
                )
                assert status == 400
                assert payload["type"]
                assert service.metrics.bad_requests >= 1
                # The same keep-alive connection serves the next query.
                status, payload = await raw_request(
                    service.host, service.port, "POST", "/query",
                    json.dumps(query_body(p3, p4)).encode(), reader=reader, writer=writer,
                )
                assert status == 200, payload
                assert_matches_oracle(payload, oracle)
            finally:
                writer.close()
                await writer.wait_closed()

        run_service_test(example_service(example_itgraph), body)

    def test_non_json_body_answers_400(self, example_itgraph):
        async def body(service):
            status, payload = await raw_request(
                service.host, service.port, "POST", "/query", b"this is not json"
            )
            assert status == 400
            assert payload["type"] == "JSONDecodeError"

        run_service_test(example_service(example_itgraph), body)

    def test_deeply_nested_body_answers_400(self, example_itgraph, example_points):
        async def body(service):
            status, payload = await raw_request(
                service.host, service.port, "POST", "/query", b"[" * 100_000
            )
            assert status == 400
            assert payload["type"] == "ValueError"
            assert "nests too deeply" in payload["error"]
            # The connection was answered, not dropped, and the service serves on.
            status, _ = await post_query(
                service.host, service.port, query_body(example_points["p3"], example_points["p4"])
            )
            assert status == 200

        run_service_test(example_service(example_itgraph), body)

    @pytest.mark.parametrize("field", ["source", "target", "time"])
    def test_missing_field_answers_400_naming_it(self, example_itgraph, example_points, field):
        document = query_body(example_points["p3"], example_points["p4"])
        del document[field]

        async def body(service):
            status, payload = await post_query(service.host, service.port, document)
            assert status == 400
            assert payload["type"] == "ValueError"
            assert repr(field) in payload["error"]

        run_service_test(example_service(example_itgraph), body)


class TestDeadlines:
    def test_tiny_deadline_answers_504(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]

        async def body(service):
            status, payload = await post_query(
                service.host,
                service.port,
                query_body(p3, p4, deadline_ms=0.0001),
            )
            assert status == 504
            assert payload["type"] == "DeadlineExceededError"
            assert service.metrics.deadline_exceeded == 1
            # The service is not poisoned: the same query unbounded answers.
            status, _ = await post_query(service.host, service.port, query_body(p3, p4))
            assert status == 200

        run_service_test(example_service(example_itgraph), body)

    def test_generous_default_deadline_is_invisible(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]
        oracle = ITSPQEngine(example_itgraph).query(p3, p4, "9:00")

        async def body(service):
            status, payload = await post_query(service.host, service.port, query_body(p3, p4))
            assert status == 200
            assert_matches_oracle(payload, oracle)

        run_service_test(
            example_service(example_itgraph, default_deadline_ms=60_000.0), body
        )


class TestAdmissionControl:
    def test_queue_overflow_sheds_429(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]
        stall = 0.3

        def slow_rung(rung, venue):  # holds the only batch slot on a worker thread
            time.sleep(stall)

        engine = ITSPQEngine(example_itgraph)
        service = ITSPQService(
            {"example": engine},
            ServiceConfig(
                batch_window_ms=0.0,
                max_batch=1,
                max_pending=2,
                max_inflight_batches=1,
                rung_fault_hook=slow_rung,
            ),
        )

        async def body(service):
            outcomes = await asyncio.gather(
                *(post_query(service.host, service.port, query_body(p3, p4)) for _ in range(12))
            )
            statuses = [status for status, _ in outcomes]
            assert statuses.count(429) >= 1, statuses
            assert statuses.count(200) >= 1, statuses
            assert set(statuses) <= {200, 429}
            for status, payload in outcomes:
                if status == 429:
                    assert payload["type"] == "ServiceOverloadedError"
            assert service.metrics.shed == statuses.count(429)
            assert service.admission.shed == statuses.count(429)

        run_service_test(service, body)
