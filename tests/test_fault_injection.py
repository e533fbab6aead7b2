"""Chaos parity: the degradation ladder keeps parallel execution exact.

Every test here injects a deterministic failure schedule (a
:class:`repro.testing.faults.FaultPlan`) into the supervised
:class:`~repro.core.parallel.ParallelBatchExecutor` — workers SIGKILLed
mid-chunk, injected exceptions, chunks delayed past their timeout, payloads
corrupted at rehydration, initializers that refuse to come up — and then
asserts the two halves of the fault-tolerance contract:

1. **Parity**: the merged results are bit-identical to the reference
   engine (paths, lengths, every statistics counter) no matter which rung
   of the ladder — pool, retry on a respawned pool, in-process fallback —
   ultimately answered each chunk.
2. **Observability**: the run's :class:`~repro.core.parallel.ExecutionReport`
   records exactly the degradation that was injected, and a clean run
   records none.

Faults key on deterministic coordinates (chunk id, attempt number, pool
generation), so every test replays the identical failure schedule on every
run — there is no flaky-chaos mode here.
"""

import pytest

from test_compiled_parity import assert_parity

from repro.core.engine import ITSPQEngine
from repro.core.parallel import ParallelBatchExecutor
from repro.core.query import ITSPQuery
from repro.testing.faults import (
    CORRUPT_PAYLOAD,
    CRASH,
    DELAY,
    EXCEPTION,
    INIT_FAIL,
    FaultPlan,
    FaultSpec,
)

#: Supervision tuning shared by the chaos runs: fast backoff so retries and
#: respawns do not slow the suite down (determinism never depends on timing).
FAST = dict(backoff_base=0.01, backoff_cap=0.05)


def chaos_workload(example_points, times=("6:30", "9:00", "12:00", "15:55")):
    """A workload wide enough to plan into several chunks on 2 workers."""
    names = sorted(example_points)
    queries = [
        ITSPQuery(example_points[a], example_points[b], t)
        for a in names
        for b in names
        if a != b
        for t in times
    ]
    queries += queries[:5]  # duplicates ride along
    return queries


@pytest.fixture(scope="module")
def oracle_results(example_itgraph, example_points):
    """Reference-engine answers for the chaos workload (computed once)."""
    queries = chaos_workload(example_points)
    oracle = ITSPQEngine(example_itgraph, compiled=False)
    return queries, [oracle.run(query, method="synchronous") for query in queries]


def run_with_plan(example_itgraph, queries, plan, **options):
    """Run the chaos workload on a fresh 2-worker executor under ``plan``."""
    executor = ParallelBatchExecutor(
        example_itgraph.compiled(), workers=2, fault_plan=plan, **{**FAST, **options}
    )
    try:
        results = executor.run_batch(queries, "synchronous")
        return results, executor.last_report
    finally:
        executor.close()


def assert_oracle_parity(oracle, actual):
    assert len(actual) == len(oracle)
    for reference_result, chaos_result in zip(oracle, actual):
        assert_parity(reference_result, chaos_result)


class TestCleanRun:
    def test_clean_run_reports_zero_degradation(self, example_itgraph, oracle_results):
        queries, oracle = oracle_results
        results, report = run_with_plan(example_itgraph, queries, plan=None)
        assert_oracle_parity(oracle, results)
        assert report.mode == "pool"
        assert report.clean
        assert report.chunks_retried == 0
        assert report.chunks_fallback == 0
        assert report.pool_respawns == 0
        assert report.chunks_completed == report.chunks_total > 1
        assert report.chunks_dispatched == report.chunks_total
        assert report.workers == 2
        assert report.usable_cpus >= 1
        assert report.queries == len(queries)

    def test_engine_surfaces_last_execution_report(self, example_itgraph, example_points):
        queries = chaos_workload(example_points, times=("9:00", "12:00"))
        with ITSPQEngine(example_itgraph) as engine:
            assert engine.last_execution_report is None
            engine.run_batch(queries, method="synchronous", workers=2)
            pool_report = engine.last_execution_report
            assert pool_report.mode == "pool" and pool_report.clean
            engine.run_batch(queries, method="synchronous")
            assert engine.last_execution_report.mode == "batched"
            assert engine.last_execution_report.groups >= 1
            engine.run_batch(queries, method="synchronous", batch=False)
            assert engine.last_execution_report.mode == "sequential"


class TestWorkerCrash:
    def test_sigkill_mid_chunk_recovers(self, example_itgraph, oracle_results):
        queries, oracle = oracle_results
        plan = FaultPlan(seed=1, faults=(FaultSpec(CRASH, chunk_id=0),))
        results, report = run_with_plan(example_itgraph, queries, plan)
        assert_oracle_parity(oracle, results)
        assert not report.clean
        assert report.worker_crashes >= 1
        assert report.pool_respawns >= 1
        assert report.chunks_retried >= 1
        assert report.chunks_fallback == 0  # the retry rung was enough

    def test_scattered_crashes_recover(self, example_itgraph, oracle_results):
        queries, oracle = oracle_results
        plan = FaultPlan.scatter(seed=7, chunk_count=8, crash_every=4)
        results, report = run_with_plan(example_itgraph, queries, plan)
        assert_oracle_parity(oracle, results)
        assert report.worker_crashes >= 1
        assert report.chunks_fallback == 0

    def test_persistent_crash_falls_back_in_process(self, example_itgraph, oracle_results):
        queries, oracle = oracle_results
        # Chunk 0 crashes its worker on every pool attempt: the ladder must
        # descend to the in-process rung for exactly that chunk.
        plan = FaultPlan(seed=2, faults=(FaultSpec(CRASH, chunk_id=0, attempts_below=99),))
        results, report = run_with_plan(
            example_itgraph, queries, plan, max_chunk_retries=1
        )
        assert_oracle_parity(oracle, results)
        assert report.chunks_fallback == 1
        assert report.worker_crashes >= 2  # initial dispatch + every retry


class TestWorkerException:
    def test_exception_retries_without_respawn(self, example_itgraph, oracle_results):
        queries, oracle = oracle_results
        plan = FaultPlan(seed=3, faults=(FaultSpec(EXCEPTION, chunk_id=1),))
        results, report = run_with_plan(example_itgraph, queries, plan)
        assert_oracle_parity(oracle, results)
        assert report.chunk_failures == 1
        assert report.chunks_retried == 1
        # A clean exception does not kill the worker: same pool throughout.
        assert report.pool_respawns == 0
        assert report.worker_crashes == 0

    def test_exception_on_every_chunk_recovers(self, example_itgraph, oracle_results):
        queries, oracle = oracle_results
        plan = FaultPlan(seed=4, faults=(FaultSpec(EXCEPTION),))  # chunk_id=None: all
        results, report = run_with_plan(example_itgraph, queries, plan)
        assert_oracle_parity(oracle, results)
        assert report.chunk_failures == report.chunks_total
        assert report.chunks_retried == report.chunks_total
        assert report.chunks_fallback == 0


class TestChunkTimeout:
    def test_delayed_chunk_times_out_and_recovers(self, example_itgraph, oracle_results):
        queries, oracle = oracle_results
        plan = FaultPlan(
            seed=5, faults=(FaultSpec(DELAY, chunk_id=0, delay_seconds=5.0),)
        )
        results, report = run_with_plan(
            example_itgraph, queries, plan, chunk_timeout=0.25
        )
        assert_oracle_parity(oracle, results)
        assert report.chunk_timeouts >= 1
        assert report.pool_respawns >= 1  # a stuck worker costs the pool
        assert report.chunks_fallback == 0

    def test_timeout_disabled_waits_out_the_delay(self, example_itgraph, oracle_results):
        queries, oracle = oracle_results
        plan = FaultPlan(
            seed=6, faults=(FaultSpec(DELAY, chunk_id=0, delay_seconds=0.3),)
        )
        results, report = run_with_plan(
            example_itgraph, queries, plan, chunk_timeout=None
        )
        assert_oracle_parity(oracle, results)
        assert report.chunk_timeouts == 0
        assert report.chunks_retried == 0  # slow is not failed


class TestBrokenStartup:
    def test_init_failure_recovers_on_respawn(self, example_itgraph, oracle_results):
        queries, oracle = oracle_results
        # Generation 0 never comes up; the respawned generation 1 is healthy.
        plan = FaultPlan(seed=8, faults=(FaultSpec(INIT_FAIL),))
        results, report = run_with_plan(example_itgraph, queries, plan)
        assert_oracle_parity(oracle, results)
        assert report.pool_respawns >= 1
        assert report.worker_crashes >= 1
        assert report.chunks_fallback == 0

    def test_corrupt_payload_at_rehydration_recovers(self, example_itgraph, oracle_results):
        queries, oracle = oracle_results
        # Generation 0 rehydrates a bit-flipped payload: the codec's CRC
        # check kills the initializer (CorruptPayloadError), the supervisor
        # respawns, and generation 1 decodes the pristine payload.
        plan = FaultPlan(seed=9, faults=(FaultSpec(CORRUPT_PAYLOAD),))
        results, report = run_with_plan(example_itgraph, queries, plan)
        assert_oracle_parity(oracle, results)
        assert report.pool_respawns >= 1
        assert report.chunks_fallback == 0

    def test_unrecoverable_pool_drains_to_fallback(self, example_itgraph, oracle_results):
        queries, oracle = oracle_results
        # Every generation fails its initializer: the pool is unsalvageable
        # and the whole workload must drain to the in-process rung — slower,
        # but still complete and still exact.
        plan = FaultPlan(
            seed=10, faults=(FaultSpec(INIT_FAIL, generations_below=99),)
        )
        results, report = run_with_plan(
            example_itgraph, queries, plan, max_chunk_retries=1
        )
        assert_oracle_parity(oracle, results)
        assert report.chunks_fallback == report.chunks_total
        assert report.chunks_completed == 0


class TestDeterminism:
    def test_chaos_reruns_are_bit_identical(self, example_itgraph, oracle_results):
        queries, oracle = oracle_results
        plan = FaultPlan.scatter(
            seed=14, chunk_count=8, crash_every=5, exception_every=3
        )
        first, _ = run_with_plan(example_itgraph, queries, plan)
        second, _ = run_with_plan(example_itgraph, queries, plan)
        assert_oracle_parity(oracle, first)
        for result_a, result_b in zip(first, second):
            assert_parity(result_a, result_b)

    def test_mixed_fault_storm_stays_exact(self, example_itgraph, oracle_results):
        queries, oracle = oracle_results
        # Crashes, exceptions and a broken first pool generation at once.
        plan = FaultPlan(
            seed=15,
            faults=(
                FaultSpec(CORRUPT_PAYLOAD),
                FaultSpec(CRASH, chunk_id=2),
                FaultSpec(EXCEPTION, chunk_id=4),
                FaultSpec(CRASH, chunk_id=5, attempts_below=99),
            ),
        )
        results, report = run_with_plan(
            example_itgraph, queries, plan, max_chunk_retries=1
        )
        assert_oracle_parity(oracle, results)
        assert not report.clean
        assert report.chunks_fallback >= 1  # the persistent crasher
        assert report.fault_plan is not None  # the report names the plan

    def test_engine_level_chaos_via_run_batch(self, example_itgraph, oracle_results):
        queries, oracle = oracle_results
        plan = FaultPlan(seed=16, faults=(FaultSpec(CRASH, chunk_id=1),))
        with ITSPQEngine(example_itgraph) as engine:
            engine.parallel_executor(2, fault_plan=plan, **FAST)
            results = engine.run_batch(queries, method="synchronous", workers=2)
            assert_oracle_parity(oracle, results)
            report = engine.last_execution_report
            assert report.worker_crashes >= 1
            assert "respawn" in report.summary()
            record = report.as_dict()
            assert record["clean"] is False
            assert record["fault_plan"]
            # Retuning with plain options replaces the sabotaged executor.
            engine.parallel_executor(2, fault_plan=None, **FAST)
            results = engine.run_batch(queries, method="synchronous", workers=2)
            assert_oracle_parity(oracle, results)
            assert engine.last_execution_report.clean
