"""Graceful lifecycle: drain-then-close semantics, idempotent shutdown, and
the ``python -m repro.service`` entry point's SIGINT drain.

The drain contract: queries admitted before ``aclose`` are answered, not
dropped — the buffers are flushed, in-flight batches finish, and only then
does the socket close.  ``aclose`` is idempotent like the engine/executor
``close()`` it reuses.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core.engine import ITSPQEngine
from repro.service import ITSPQService, ServiceConfig

from tests._service_http import assert_matches_oracle, post_query, query_body


class TestDrain:
    def test_queries_admitted_before_drain_are_answered(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]
        oracle = ITSPQEngine(example_itgraph).query(p3, p4, "9:00")

        def slow_rung(rung, venue):  # the batch is mid-flight when drain starts
            time.sleep(0.1)

        engine = ITSPQEngine(example_itgraph)
        service = ITSPQService(
            {"example": engine},
            ServiceConfig(batch_window_ms=200.0, rung_fault_hook=slow_rung),
        )

        async def scenario():
            await service.start()
            inflight = [
                asyncio.ensure_future(
                    post_query(service.host, service.port, query_body(p3, p4))
                )
                for _ in range(6)
            ]
            await asyncio.sleep(0.05)  # enqueued, but the 200ms window has not fired
            await service.aclose()
            outcomes = await asyncio.gather(*inflight)
            for status, payload in outcomes:
                assert status == 200
                assert_matches_oracle(payload, oracle)
            assert service.metrics.answered == len(inflight)
            # The socket really is closed afterwards.
            with pytest.raises(ConnectionError):
                await post_query(service.host, service.port, query_body(p3, p4))

        asyncio.run(scenario())

    def test_queries_arriving_during_drain_get_503(self, example_itgraph, example_points):
        p3, p4 = example_points["p3"], example_points["p4"]
        engine = ITSPQEngine(example_itgraph)
        service = ITSPQService({"example": engine}, ServiceConfig(batch_window_ms=1.0))

        async def scenario():
            await service.start()
            reader, writer = await asyncio.open_connection(service.host, service.port)
            try:
                service._draining = True  # drain begins; the connection is still open
                import json

                from tests._service_http import raw_request

                status, payload = await raw_request(
                    service.host,
                    service.port,
                    "POST",
                    "/query",
                    json.dumps(query_body(p3, p4)).encode(),
                    reader=reader,
                    writer=writer,
                )
                assert status == 503
                assert payload["type"] == "ServiceUnavailableError"
            finally:
                writer.close()
                service._draining = False
                await service.aclose()

        asyncio.run(scenario())


class TestIdempotence:
    def test_double_aclose_is_a_no_op(self, example_itgraph, example_points):
        engine = ITSPQEngine(example_itgraph)
        service = ITSPQService({"example": engine}, ServiceConfig(batch_window_ms=1.0))

        async def scenario():
            await service.start()
            status, _ = await post_query(
                service.host,
                service.port,
                query_body(example_points["p3"], example_points["p4"]),
            )
            assert status == 200
            await service.aclose()
            await service.aclose()  # second close: nothing to do, nothing raised
            engine.close()  # and the engine's own close stays idempotent too

        asyncio.run(scenario())

    def test_aclose_without_start(self, example_itgraph):
        engine = ITSPQEngine(example_itgraph)
        service = ITSPQService({"example": engine}, ServiceConfig())

        async def scenario():
            await service.aclose()  # never started: still clean

        asyncio.run(scenario())


class TestEntryPoint:
    """``python -m repro.service`` end to end: it answers a query, and on
    SIGINT it drains, prints ``drained and closed`` last and exits 0."""

    @pytest.mark.parametrize(
        "args",
        [
            ("--venue", "a=example"),
            ("--shards", "2", "--venue", "a=example", "--venue", "b=example"),
        ],
        ids=["single", "shards-2"],
    )
    def test_sigint_drains_and_exits_zero(self, example_itgraph, example_points, args):
        p3, p4 = example_points["p3"], example_points["p4"]
        oracle = ITSPQEngine(example_itgraph).query(p3, p4, "9:00")
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))

        async def scenario():
            process = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro.service", "--port", "0", *args,
                stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.PIPE, env=env,
            )
            try:
                line = (await asyncio.wait_for(process.stdout.readline(), 60.0)).decode()
                assert line.startswith("listening on "), line
                host, _, port = line.split()[-1].rpartition(":")
                # post_query closes its connection, so the drain below does
                # not wait on an idle keep-alive read.
                status, payload = await post_query(host, int(port), query_body(p3, p4, venue="a"))
                assert status == 200, payload
                assert_matches_oracle(payload, oracle)
                process.send_signal(signal.SIGINT)
                started = time.monotonic()
                stdout, stderr = await asyncio.wait_for(process.communicate(), 60.0)
                return process.returncode, stdout.decode(), stderr.decode(), time.monotonic() - started
            finally:
                if process.returncode is None:
                    process.kill()
                    await process.wait()

        returncode, stdout, stderr, drain_seconds = asyncio.run(scenario())
        assert returncode == 0, stderr[-2000:]
        assert stdout.splitlines()[-1] == "drained and closed", stdout
        # No process in the chain waits out a client read timeout on an idle
        # connection: the router closes its pooled shard connections first.
        assert drain_seconds < ServiceConfig().client_timeout_seconds
