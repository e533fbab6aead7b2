"""Parallel-vs-sequential parity: the multiprocess execution contract.

``ITSPQEngine.run_batch(workers=N)`` fans planned batch groups out over a
pool of worker processes; every merged result — found flag, path, length
and all :class:`~repro.core.query.SearchStatistics` counters — must be
bit-identical to sequential ``engine.run`` calls for the same queries, in
the same input order, across all four TV-check methods, and identically on
every rerun regardless of how chunks get scheduled.  The oracle is the
reference engine (``compiled=False``).
"""

import pytest

from test_compiled_parity import METHODS, assert_parity

from repro.core.engine import ITSPQEngine
from repro.core.parallel import ParallelBatchExecutor, _close_live_executors, default_worker_count
from repro.core.query import ITSPQuery
from repro.datasets.simple_venues import build_corridor_venue
from repro.exceptions import QueryError
from repro.geometry.point import IndoorPoint


@pytest.fixture(scope="module")
def parallel_engine(example_itgraph):
    """One engine whose 2-worker pool is shared by the whole module (pool
    startup is the expensive part; the contract is per-call regardless)."""
    engine = ITSPQEngine(example_itgraph)
    yield engine
    engine.close()


def example_workload(example_points, times):
    names = sorted(example_points)
    queries = [
        ITSPQuery(example_points[a], example_points[b], t)
        for a in names
        for b in names
        if a != b
        for t in times
    ]
    # Adversarial extras: duplicates and same-partition direct paths.
    queries += queries[:7]
    queries += [ITSPQuery(example_points[a], example_points[a], times[0]) for a in names]
    return queries


class TestExampleVenueParallelParity:
    def test_all_methods_bit_identical(self, parallel_engine, example_itgraph, example_points):
        queries = example_workload(example_points, ["6:30", "9:00", "12:00", "15:55", "23:30"])
        for method in METHODS:
            oracle = ITSPQEngine(example_itgraph, compiled=False)
            expected = [oracle.run(query, method=method) for query in queries]
            actual = parallel_engine.run_batch(queries, method=method, workers=2)
            assert len(actual) == len(expected)
            for reference_result, parallel_result in zip(expected, actual):
                assert_parity(reference_result, parallel_result)

    def test_results_keep_input_order(self, parallel_engine, example_points):
        queries = example_workload(example_points, ["12:00", "9:00"])
        results = parallel_engine.run_batch(queries, method="synchronous", workers=2)
        for query, result in zip(queries, results):
            # Results cross a process boundary, so identity is lost but the
            # (frozen, value-equal) query survives in input order.
            assert result.query == query

    def test_reruns_are_deterministic(self, parallel_engine, example_points):
        queries = example_workload(example_points, ["6:30", "21:00"])
        first = parallel_engine.run_batch(queries, method="asynchronous", workers=2)
        second = parallel_engine.run_batch(queries, method="asynchronous", workers=2)
        for result_a, result_b in zip(first, second):
            assert_parity(result_a, result_b)

    def test_empty_batch(self, parallel_engine):
        assert parallel_engine.run_batch([], method="synchronous", workers=2) == []

    def test_matches_single_process_batch(self, parallel_engine, example_points):
        queries = example_workload(example_points, ["9:00", "12:00"])
        for method in METHODS:
            batched = parallel_engine.run_batch(queries, method=method)
            parallel = parallel_engine.run_batch(queries, method=method, workers=2)
            for batch_result, parallel_result in zip(batched, parallel):
                assert_parity(batch_result, parallel_result)

    def test_outside_endpoint_raises_in_parent(self, parallel_engine, example_points):
        bad = [
            ITSPQuery(example_points["p1"], example_points["p3"], "12:00"),
            ITSPQuery(example_points["p1"], IndoorPoint(1e6, 1e6, 0), "12:00"),
        ]
        with pytest.raises(QueryError):
            parallel_engine.run_batch(bad, method="synchronous", workers=2)


class TestPrivateAndScheduleMixes:
    def test_corridor_private_rooms(self):
        itgraph, points = build_corridor_venue(
            {"s12": [("9:00", "11:00"), ("20:00", "22:00")]},
            private_rooms=("room2", "room3"),
        )
        names = sorted(points)
        queries = [
            ITSPQuery(points[a], points[b], t)
            for a in names
            for b in names
            for t in ("8:59", "9:00", "10:30", "21:59", "22:00")
        ]
        engine = ITSPQEngine(itgraph)
        try:
            for method in METHODS:
                oracle = ITSPQEngine(itgraph, compiled=False)
                expected = [oracle.run(query, method=method) for query in queries]
                actual = engine.run_batch(queries, method=method, workers=2)
                for reference_result, parallel_result in zip(expected, actual):
                    assert_parity(reference_result, parallel_result)
        finally:
            engine.close()


class TestExecutorMechanics:
    def test_single_worker_stays_in_process(self, example_itgraph, example_points):
        executor = ParallelBatchExecutor(example_itgraph.compiled(), workers=1)
        queries = example_workload(example_points, ["12:00"])
        oracle = ITSPQEngine(example_itgraph, compiled=False)
        expected = [oracle.run(query, method="synchronous") for query in queries]
        actual = executor.run_batch(queries, "synchronous")
        for reference_result, parallel_result in zip(expected, actual):
            assert_parity(reference_result, parallel_result)
        assert executor._pool is None  # never paid for a pool

    def test_single_group_plan_stays_in_process(self, example_itgraph, example_points):
        executor = ParallelBatchExecutor(example_itgraph.compiled(), workers=2)
        queries = [
            ITSPQuery(example_points["p1"], example_points["p3"], "12:00"),
            ITSPQuery(example_points["p1"], example_points["p4"], "12:00"),
        ]
        plan = executor.planner.plan(queries, "static")
        results = executor.run_batch(queries, "static")
        if len(plan) <= 1:
            assert executor._pool is None
        assert all(result is not None for result in results)
        executor.close()

    def test_chunking_is_balanced_and_deterministic(self, example_itgraph, example_points):
        executor = ParallelBatchExecutor(example_itgraph.compiled(), workers=2)
        queries = example_workload(example_points, ["6:30", "9:00", "12:00", "15:55"])
        groups = executor.planner.plan(queries, "synchronous")
        chunks = executor._chunk(groups)
        assert sum(len(chunk) for chunk in chunks) == len(groups)
        flattened = {id(group) for chunk in chunks for group in chunk}
        assert len(flattened) == len(groups)  # every group exactly once
        weights = [sum(group.size + 1 for group in chunk) for chunk in chunks]
        assert weights == sorted(weights, reverse=True)  # heaviest first
        again = executor._chunk(groups)
        assert [[id(group) for group in chunk] for chunk in chunks] == [
            [id(group) for group in chunk] for chunk in again
        ]

    def test_close_is_idempotent_and_pool_restarts(self, example_itgraph, example_points):
        engine = ITSPQEngine(example_itgraph)
        queries = example_workload(example_points, ["9:00", "12:00"])
        first = engine.run_batch(queries, method="synchronous", workers=2)
        engine.close()
        engine.close()
        second = engine.run_batch(queries, method="synchronous", workers=2)
        for result_a, result_b in zip(first, second):
            assert_parity(result_a, result_b)
        engine.close()

    def test_executor_cached_per_worker_count(self, example_itgraph):
        engine = ITSPQEngine(example_itgraph)
        try:
            assert engine.parallel_executor(2) is engine.parallel_executor(2)
            assert engine.parallel_executor(2) is not engine.parallel_executor(3)
            # All executors share one serialised payload.
            assert (
                engine.parallel_executor(2).payload_bytes()
                is engine.parallel_executor(3).payload_bytes()
            )
        finally:
            engine.close()

    def test_worker_count_validation(self, example_itgraph, example_points):
        with pytest.raises(ValueError):
            ParallelBatchExecutor(example_itgraph.compiled(), workers=0)
        with pytest.raises(ValueError):
            ITSPQEngine(example_itgraph).parallel_executor(0)
        queries = [ITSPQuery(example_points["p1"], example_points["p3"], "12:00")]
        for bad in (0, -2):
            with pytest.raises(ValueError):
                ITSPQEngine(example_itgraph).run_batch(queries, method="synchronous", workers=bad)
        assert default_worker_count() >= 1

    def test_workers_one_runs_in_process(self, example_itgraph, example_points):
        engine = ITSPQEngine(example_itgraph)
        queries = [ITSPQuery(example_points["p1"], example_points["p3"], "12:00")]
        results = engine.run_batch(queries, method="synchronous", workers=1)
        assert results[0].found
        assert not engine._parallel_executors  # never built a pool

    def test_requires_compiled_engine(self, example_itgraph, example_points):
        engine = ITSPQEngine(example_itgraph, compiled=False)
        queries = [ITSPQuery(example_points["p1"], example_points["p3"], "12:00")]
        with pytest.raises(QueryError):
            engine.run_batch(queries, method="synchronous", workers=2)

    def test_workers_require_batch_mode(self, example_itgraph, example_points):
        engine = ITSPQEngine(example_itgraph)
        queries = [ITSPQuery(example_points["p1"], example_points["p3"], "12:00")]
        with pytest.raises(QueryError):
            engine.run_batch(queries, method="synchronous", batch=False, workers=2)

    def test_context_manager_closes_pool(self, example_itgraph, example_points):
        queries = example_workload(example_points, ["9:00", "12:00", "15:55"])
        with ParallelBatchExecutor(example_itgraph.compiled(), workers=2) as executor:
            results = executor.run_batch(queries, "synchronous")
            assert all(result is not None for result in results)
        assert executor._pool is None


class TestAtexitGuard:
    def test_guard_sweep_leaves_the_engine_usable(self, example_itgraph, example_points):
        """The executors' ``atexit`` guard may fire at any time in an
        embedding process; the engine must survive the sweep — its pool
        restarts lazily on the next parallel batch."""
        engine = ITSPQEngine(example_itgraph)
        queries = example_workload(example_points, ["9:00", "14:00"])
        try:
            first = engine.run_batch(queries, method="synchronous", workers=2)
            assert engine.last_execution_report.mode == "pool"
            _close_live_executors()
            assert engine.parallel_executor(2)._pool is None
            second = engine.run_batch(queries, method="synchronous", workers=2)
            assert engine.last_execution_report.mode == "pool"
            for result_a, result_b in zip(first, second):
                assert_parity(result_a, result_b)
        finally:
            engine.close()
