"""Construction-time validation: every numeric knob rejects bad values with a
``ValueError`` that names the offending field.

Covers :class:`CacheConfig`, :class:`ParallelBatchExecutor`,
:class:`ServiceConfig`, :class:`AdmissionController` and
:class:`CircuitBreaker` — misconfiguration must fail at construction, not as
a confusing runtime error deep inside a search.
"""

from __future__ import annotations

import pytest

from repro.core.cache import CacheConfig
from repro.core.parallel import ParallelBatchExecutor
from repro.service.admission import AdmissionController
from repro.service.degradation import CircuitBreaker
from repro.service.server import ServiceConfig


class TestCacheConfig:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"max_entries": 0}, "max_entries"),
            ({"max_entries": -3}, "max_entries"),
            ({"max_entries": 2.5}, "max_entries"),
            ({"max_entries": True}, "max_entries"),
            ({"promote_after": 0}, "promote_after"),
            ({"promote_after": -1}, "promote_after"),
            ({"promote_after": 1.5}, "promote_after"),
        ],
    )
    def test_rejects_bad_numbers_naming_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            CacheConfig(**kwargs)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            CacheConfig(mode="speculative")

    def test_accepts_defaults(self):
        config = CacheConfig()
        assert config.max_entries >= 1 and config.promote_after >= 1


@pytest.fixture(scope="module")
def compiled_graph(example_itgraph):
    return example_itgraph.compiled()


class TestParallelExecutorOptions:
    """The pool is created lazily, so bad options fail before any process
    spawns — both through the direct constructor and through the engine's
    ``parallel_executor`` seam."""

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"workers": 0}, "workers"),
            ({"workers": -2}, "workers"),
            ({"max_chunk_retries": -1}, "max_chunk_retries"),
            ({"chunk_timeout": 0.0}, "chunk_timeout"),
            ({"chunk_timeout": -5.0}, "chunk_timeout"),
            ({"backoff_base": -0.1}, "backoff_base"),
            ({"backoff_cap": -1.0}, "backoff_cap"),
            ({"walking_speed": 0.0}, "walking_speed"),
            ({"walking_speed": -1.0}, "walking_speed"),
        ],
    )
    def test_rejects_bad_numbers_naming_the_field(self, compiled_graph, kwargs, field):
        options = {"workers": 1, **kwargs}
        workers = options.pop("workers")
        with pytest.raises(ValueError, match=field):
            ParallelBatchExecutor(compiled_graph, workers, **options)

    def test_engine_seam_names_the_field_too(self, example_itgraph):
        from repro.core.engine import ITSPQEngine

        engine = ITSPQEngine(example_itgraph)
        try:
            with pytest.raises(ValueError, match="workers"):
                engine.parallel_executor(workers=0)
            with pytest.raises(ValueError, match="chunk_timeout"):
                engine.parallel_executor(workers=1, chunk_timeout=-1.0)
        finally:
            engine.close()

    def test_chunk_timeout_none_is_allowed(self, compiled_graph):
        executor = ParallelBatchExecutor(compiled_graph, 1, chunk_timeout=None)
        executor.close()


class TestServiceConfig:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"batch_window_ms": -1.0}, "batch_window_ms"),
            ({"max_batch": 0}, "max_batch"),
            ({"max_pending": 0}, "max_pending"),
            ({"max_inflight_batches": 0}, "max_inflight_batches"),
            ({"default_deadline_ms": 0.0}, "default_deadline_ms"),
            ({"default_deadline_ms": -10.0}, "default_deadline_ms"),
            ({"client_timeout_seconds": 0.0}, "client_timeout_seconds"),
            ({"drain_timeout_seconds": -1.0}, "drain_timeout_seconds"),
            ({"client_timeout_seconds": float("nan")}, "client_timeout_seconds"),
            ({"breaker_failure_threshold": 0}, "breaker_failure_threshold"),
            ({"breaker_backoff_base": -0.5}, "breaker_backoff_base"),
            ({"breaker_backoff_cap": -1.0}, "breaker_backoff_cap"),
            ({"max_body_bytes": 0}, "max_body_bytes"),
            ({"batch_window_ms": float("nan")}, "batch_window_ms"),
            ({"drain_timeout_seconds": float("nan")}, "drain_timeout_seconds"),
            ({"drain_timeout_seconds": float("inf")}, "drain_timeout_seconds"),
            ({"breaker_backoff_base": float("nan")}, "breaker_backoff_base"),
            ({"breaker_backoff_cap": float("nan")}, "breaker_backoff_cap"),
        ],
    )
    def test_rejects_bad_numbers_naming_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**kwargs)

    def test_defaults_are_valid(self):
        config = ServiceConfig()
        assert config.port == 0 and config.host == "127.0.0.1"


class TestAdmissionController:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"max_pending": 0}, "max_pending"),
            ({"max_pending": -1}, "max_pending"),
            ({"max_inflight_batches": 0}, "max_inflight_batches"),
        ],
    )
    def test_rejects_bad_numbers_naming_the_field(self, kwargs, field):
        defaults = {"max_pending": 8, "max_inflight_batches": 2}
        with pytest.raises(ValueError, match=field):
            AdmissionController(**{**defaults, **kwargs})


class TestCircuitBreaker:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"failure_threshold": 0}, "failure_threshold"),
            ({"backoff_base": -1.0}, "backoff_base"),
            ({"backoff_cap": -1.0}, "backoff_cap"),
            ({"backoff_base": float("nan")}, "backoff_base"),
            ({"backoff_cap": float("nan")}, "backoff_cap"),
            ({"backoff_cap": float("-inf")}, "backoff_cap"),
        ],
    )
    def test_rejects_bad_numbers_naming_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            CircuitBreaker(**kwargs)
