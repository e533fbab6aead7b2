"""Supervised multiprocess parallel batch execution over a serialisable
compiled graph.

The :class:`~repro.core.batch.BatchExecutor` makes batch groups independent
by construction — every group is one self-contained multi-target search —
but still answers them on a single core.  This module dispatches the groups
of one plan across a pool of worker processes **and supervises the pool**:
workers can crash, hang or fail to come up without poisoning the answer.

Process model
-------------
* **Plan in the parent, search in the workers.**  The parent owns the real
  :class:`~repro.core.compiled.CompiledITGraph` and runs the
  :class:`~repro.core.batch.BatchPlanner` (endpoint location included), so
  malformed queries fail fast with :class:`~repro.exceptions.QueryError`
  before any work is shipped.  Each planned group carries its
  :class:`~repro.core.semantics.TemporalSemantics` — a frozen, picklable
  value object inside the pickled :class:`~repro.core.batch.BatchGroup` —
  so workers answer wait-tolerant, latest-departure and time-window queries
  without any semantics-specific plumbing in this module.
* **Arena per worker.**  Each worker process owns one
  :class:`~repro.core.batch.BatchExecutor` — and therefore one
  generation-stamped :class:`~repro.core.kernel.SearchArena` and one
  :class:`~repro.core.snapshot.CompiledSnapshotStore` — reused across every
  chunk and every ``run_batch`` call it serves.  Nothing is shared between
  workers at search time, so there are no locks on the hot path.
* **Serialised index hand-off.**  Workers rehydrate the compiled index from
  the :mod:`repro.io.compiled_codec` payload (one compact ``bytes`` blob)
  instead of recompiling the venue; since the codec grew CRC32 integrity
  sections, a payload damaged in flight fails the worker's initializer with
  :class:`~repro.exceptions.CorruptPayloadError` instead of decoding into a
  wrong index — the supervisor treats that like any other worker-startup
  death (see the failure model below).
* **Tracked, retryable chunks.**  The plan's groups are packed into roughly
  size-balanced chunks (heaviest first, a few chunks per worker); each
  chunk is dispatched as its own :class:`concurrent.futures.Future` with at
  most one in-flight chunk per worker, so an idle worker picks up the next
  chunk (work stealing) and the per-chunk timeout clock never runs on a
  chunk that is merely queued.
* **Deterministic merge.**  Every result carries its query's input-order
  index, each group's results are computed entirely within one worker, and
  chunk execution is a pure function of the chunk's groups — so the merged
  output (ordering, paths, lengths and every
  :class:`~repro.core.query.SearchStatistics` counter) is bit-identical to
  sequential execution no matter how chunks are scheduled, retried or
  recovered (``tests/test_parallel_parity.py`` and
  ``tests/test_fault_injection.py`` enforce this).  Only
  ``runtime_seconds`` keeps its batch semantics (group wall time amortised
  over members, measured wherever the group finally ran).

Failure model — the degradation ladder
--------------------------------------
``run_batch`` treats every chunk as a tracked unit of work and climbs the
following rungs until the chunk's results exist:

1. **Dispatch** on the pool.  A chunk whose worker answers normally is done.
2. **Retry.**  A chunk whose worker raised an exception is resubmitted to
   the (still healthy) pool.  A chunk whose worker died
   (:class:`~concurrent.futures.process.BrokenProcessPool` — SIGKILL, OOM,
   initializer failure, corrupt payload at rehydration) or blew through the
   per-chunk timeout costs the whole pool: the supervisor kills any stuck
   processes, sleeps a bounded exponential backoff, respawns the pool and
   resubmits.  A worker death fails every in-flight future alike, so a
   crash is charged only to a chunk that was alone in flight: when several
   were, they are requeued uncharged as suspects and re-dispatched one at a
   time until the culprit crashes alone.  Chunks that merely shared the
   doomed pool are never charged a retry.
3. **In-process fallback.**  A chunk that exhausts ``max_chunk_retries`` —
   or a pool that cannot survive ``max_chunk_retries + 1`` consecutive
   respawns with no chunk to blame (e.g. every initializer dies) — is
   executed in the parent via
   :meth:`~repro.core.batch.BatchExecutor.run_planned`, which cannot be
   killed by pool failures.  This rung is what makes the ladder total:
   ``run_batch`` always returns complete, bit-identical results, no matter
   what the pool does.

Every call produces an :class:`ExecutionReport` (``executor.last_report``,
also surfaced as ``ITSPQEngine.last_execution_report``) counting dispatches,
retries, timeouts, crashes, respawns, fallbacks and backoff time, so a
serving layer can observe degradation instead of guessing; a healthy run
reports ``clean`` with zero retries and zero fallbacks.

Fault injection for tests is threaded through the worker initializer: pass
a :class:`repro.testing.faults.FaultPlan` as ``fault_plan`` and workers
sabotage themselves on the planned (chunk, attempt) and pool-generation
coordinates — deterministically, so chaos runs replay exactly.  Production
pools (``fault_plan=None``) never import :mod:`repro.testing`.

On a single-core host the pool only adds IPC overhead; sizing the pool is
the caller's job (perfbench's traced run reports ``parallel.speedup``, a
2-worker pool over the in-process executor, next to the host's ``nproc``).
The query service does not use the pool: its micro-batches are too small to
pay for the hand-off, and its shard processes are its process-level
parallelism.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
import weakref
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.constants import WALKING_SPEED_MPS
from repro.core.batch import BatchExecutor, BatchGroup, BatchPlanner
from repro.core.compiled import CompiledITGraph
from repro.core.query import ITSPQuery, QueryResult
from repro.core.snapshot import CompiledSnapshotStore

#: Chunks the plan is packed into per worker: a few, so an idle worker can
#: steal the next one while a heavy chunk still runs elsewhere.
CHUNKS_PER_WORKER = 4
#: Workers fork where the platform can (they start in milliseconds), and
#: start the platform's default way elsewhere; the codec hand-off makes them
#: identical either way.
try:
    _POOL_CONTEXT = multiprocessing.get_context("fork")
except ValueError:  # pragma: no cover - platforms without fork
    _POOL_CONTEXT = multiprocessing.get_context()

#: The per-process executor over the rehydrated index (set by the pool
#: initializer; one per worker process, never shared).
_WORKER_EXECUTOR: Optional[BatchExecutor] = None
#: The fault plan threaded through the initializer (tests only; ``None`` in
#: every production pool).
_WORKER_FAULT_PLAN = None

#: Executors with a live pool; the atexit guard closes them so interpreter
#: shutdown never depends on best-effort ``__del__`` ordering.
_LIVE_EXECUTORS: "weakref.WeakSet[ParallelBatchExecutor]" = weakref.WeakSet()
_ATEXIT_REGISTERED = False


def _close_live_executors() -> None:
    """Atexit guard: tear down any pools still alive at interpreter exit."""
    for executor in list(_LIVE_EXECUTORS):
        try:
            executor.close()
        except Exception:
            pass


def _register_live_executor(executor: "ParallelBatchExecutor") -> None:
    global _ATEXIT_REGISTERED
    _LIVE_EXECUTORS.add(executor)
    if not _ATEXIT_REGISTERED:
        atexit.register(_close_live_executors)
        _ATEXIT_REGISTERED = True


def _init_worker(
    payload: bytes, walking_speed: float, fault_plan, generation: int, cache_config=None
) -> None:
    """Pool initializer: rehydrate the compiled index and build the arena.

    Runs once per worker process.  Workers never see IT-Graph objects — the
    codec payload is the only hand-off — so startup is one flat decode
    regardless of venue complexity and identical under every multiprocessing
    start method.  ``generation`` is the parent's pool-respawn counter;
    fault plans use it to sabotage only specific pool incarnations.

    ``cache_config`` (a picklable :class:`~repro.core.cache.CacheConfig`, or
    ``None``) gives each worker its own shortest-path-tree cache over the
    rehydrated graph; trees themselves never cross the process boundary.
    """
    global _WORKER_EXECUTOR, _WORKER_FAULT_PLAN
    from repro.io.compiled_codec import compiled_graph_from_bytes

    if fault_plan is not None:
        from repro.testing.faults import prepare_worker_payload

        payload = prepare_worker_payload(fault_plan, payload, generation)
    _WORKER_EXECUTOR = BatchExecutor(
        compiled_graph_from_bytes(payload), walking_speed=walking_speed, cache=cache_config
    )
    _WORKER_FAULT_PLAN = fault_plan


def _run_chunk(
    chunk_id: int, attempt: int, groups: List[BatchGroup]
) -> List[Tuple[int, QueryResult]]:
    """Execute one dispatched chunk on this worker's executor.

    A pure function of ``groups`` (the arena is generation-stamped, so prior
    chunks leave no trace): re-running a lost chunk — on any worker, any
    attempt — reproduces bit-identical results, which is what makes retries
    and duplicated deliveries harmless.
    """
    if _WORKER_FAULT_PLAN is not None:
        from repro.testing.faults import fire_chunk_fault

        spec = _WORKER_FAULT_PLAN.chunk_fault(chunk_id, attempt)
        if spec is not None:
            fire_chunk_fault(spec, chunk_id, attempt)
    return _WORKER_EXECUTOR.run_planned(groups)


def default_worker_count() -> int:
    """The host's *usable* CPU count (the pool size ``workers=None`` implies).

    Respects CPU affinity masks — container cpusets, ``taskset``, batch
    schedulers — via ``os.sched_getaffinity`` where available, so a pool
    sized by default never oversubscribes a limited allocation the way raw
    ``os.cpu_count()`` would; falls back to ``os.cpu_count()`` elsewhere.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux hosts
        return max(1, os.cpu_count() or 1)


@dataclass
class ExecutionReport:
    """Observability record of one ``run_batch`` call.

    Counters cover the supervised pool path; an in-process run (``workers=1``
    or a single-group plan) reports zeros with ``mode="in-process"``.  A
    healthy parallel run is :attr:`clean`: every chunk completed on its
    first dispatch, no retries, no respawns, no fallbacks.
    """

    mode: str  #: ``"pool"``, ``"in-process"``, ``"batched"`` or ``"sequential"``.
    workers: int  #: configured pool size (1 for in-process modes).
    usable_cpus: int  #: :func:`default_worker_count` at run time.
    queries: int  #: workload size.
    groups: int  #: planned batch groups.
    chunks_total: int = 0  #: chunks the plan was packed into.
    chunks_dispatched: int = 0  #: dispatch attempts, retries included.
    chunks_completed: int = 0  #: chunks that completed on the pool.
    chunks_retried: int = 0  #: chunk retries charged to a failed attempt.
    chunks_fallback: int = 0  #: chunks recovered by the in-process rung.
    worker_crashes: int = 0  #: chunk losses to a dead worker / broken pool.
    chunk_timeouts: int = 0  #: chunk losses to the per-chunk timeout.
    chunk_failures: int = 0  #: chunks whose worker raised an exception.
    pool_respawns: int = 0  #: pools torn down and restarted.
    backoff_seconds: float = 0.0  #: total backoff slept between respawns.
    elapsed_seconds: float = 0.0  #: wall time of the whole call.
    dispatch_unix: float = 0.0  #: ``time.time()`` when the call started.
    pool_seconds: float = 0.0  #: wall time of the supervised-pool rung.
    fallback_seconds: float = 0.0  #: wall time of the in-process fallback rung.
    fault_plan: Optional[str] = field(default=None, repr=False)  #: repr of an injected plan.

    @property
    def clean(self) -> bool:
        """True when nothing went wrong: no retries, losses, respawns or
        fallbacks (the acceptance criterion for a healthy pool)."""
        return (
            self.chunks_retried == 0
            and self.chunks_fallback == 0
            and self.worker_crashes == 0
            and self.chunk_timeouts == 0
            and self.chunk_failures == 0
            and self.pool_respawns == 0
        )

    @property
    def total_seconds(self) -> float:
        """Alias of :attr:`elapsed_seconds` under the service's metric name
        (``dispatch_unix + total_seconds`` brackets the call in wall-clock
        terms, which is what a reader of ``/metrics`` correlates across
        reports)."""
        return self.elapsed_seconds

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready dictionary (for bench records and gate summaries)."""
        record = {
            "mode": self.mode,
            "workers": self.workers,
            "usable_cpus": self.usable_cpus,
            "queries": self.queries,
            "groups": self.groups,
            "chunks_total": self.chunks_total,
            "chunks_dispatched": self.chunks_dispatched,
            "chunks_completed": self.chunks_completed,
            "chunks_retried": self.chunks_retried,
            "chunks_fallback": self.chunks_fallback,
            "worker_crashes": self.worker_crashes,
            "chunk_timeouts": self.chunk_timeouts,
            "chunk_failures": self.chunk_failures,
            "pool_respawns": self.pool_respawns,
            "backoff_seconds": self.backoff_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "dispatch_unix": self.dispatch_unix,
            "total_seconds": self.total_seconds,
            "pool_seconds": self.pool_seconds,
            "fallback_seconds": self.fallback_seconds,
            "clean": self.clean,
        }
        if self.fault_plan is not None:
            record["fault_plan"] = self.fault_plan
        return record

    def summary(self) -> str:
        """One line for logs and gate tables."""
        if self.mode != "pool":
            return (
                f"{self.mode}: {self.queries} queries in {self.groups} groups "
                f"({self.total_seconds:.3f}s)"
            )
        state = "clean" if self.clean else "degraded"
        return (
            f"pool({self.workers}): {self.chunks_completed}/{self.chunks_total} chunks "
            f"on-pool, {self.chunks_retried} retries, {self.chunk_timeouts} timeouts, "
            f"{self.worker_crashes} crashes, {self.pool_respawns} respawns, "
            f"{self.chunks_fallback} fallbacks [{state}] "
            f"({self.total_seconds:.3f}s: pool {self.pool_seconds:.3f}s, "
            f"fallback {self.fallback_seconds:.3f}s)"
        )


class _ChunkTask:
    """Supervision record of one dispatched chunk."""

    __slots__ = ("chunk_id", "groups", "attempt", "deadline")

    def __init__(self, chunk_id: int, groups: List[BatchGroup]):
        self.chunk_id = chunk_id
        self.groups = groups
        self.attempt = 0
        self.deadline: Optional[float] = None


class ParallelBatchExecutor:
    """Answers ITSPQ workloads by dispatching planned batch groups over a
    supervised pool of worker processes (see the module docstring for the
    process and failure model).

    The pool is created lazily on the first parallel ``run_batch`` and
    reused across calls; :meth:`close` (idempotent, also registered with
    ``atexit``) shuts it down.  With ``workers=1`` — or whenever a plan has
    too few groups to be worth shipping — execution stays in-process on the
    local executor, so small batches never pay IPC costs.

    Parameters
    ----------
    max_chunk_retries:
        Pool attempts charged to a chunk beyond the first before it drops to
        the in-process fallback rung (also the bound on *consecutive* pool
        respawns before the pool is declared dead for the call).
    chunk_timeout:
        Per-chunk wall-time budget in seconds, measured from dispatch to a
        worker (never while queued).  ``None`` disables the timeout rung.
    backoff_base / backoff_cap:
        Bounded exponential backoff between pool respawns: the n-th
        consecutive respawn sleeps ``min(cap, base * 2**(n-1))`` seconds.
    fault_plan:
        A :class:`repro.testing.faults.FaultPlan` for chaos tests; ``None``
        (production) never touches :mod:`repro.testing`.
    """

    def __init__(
        self,
        compiled_graph: CompiledITGraph,
        workers: int,
        store: Optional[CompiledSnapshotStore] = None,
        walking_speed: float = WALKING_SPEED_MPS,
        payload: Optional[bytes] = None,
        max_chunk_retries: int = 2,
        chunk_timeout: Optional[float] = 120.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        fault_plan=None,
        cache=None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_chunk_retries < 0:
            raise ValueError(f"max_chunk_retries must be non-negative, got {max_chunk_retries}")
        if chunk_timeout is not None and not chunk_timeout > 0:
            raise ValueError(f"chunk_timeout must be positive or None, got {chunk_timeout}")
        if backoff_base < 0:
            raise ValueError(f"backoff_base must be non-negative, got {backoff_base}")
        if backoff_cap < 0:
            raise ValueError(f"backoff_cap must be non-negative, got {backoff_cap}")
        if walking_speed <= 0:
            raise ValueError(f"walking_speed must be positive, got {walking_speed}")
        self._workers = int(workers)
        # The parent shares ``cache`` (an SPTreeCache or CacheConfig) with
        # its in-process fallback executor; workers get their own caches,
        # rebuilt from the *config* in the pool initializer — cached trees
        # are process-local by design.
        self._local = BatchExecutor(compiled_graph, store, walking_speed, cache=cache)
        local_cache = self._local.cache
        self._cache_config = local_cache.config if local_cache is not None else None
        self._speed = walking_speed
        self._payload = payload
        self._max_retries = int(max_chunk_retries)
        self._chunk_timeout = chunk_timeout
        self._backoff_base = float(backoff_base)
        self._backoff_cap = float(backoff_cap)
        self._fault_plan = fault_plan
        self._pool: Optional[ProcessPoolExecutor] = None
        #: Pools spawned over this executor's lifetime; doubles as the
        #: generation passed to worker initializers (0 = first pool).
        self._pools_spawned = 0
        #: The report of the most recent :meth:`run_batch` call.
        self.last_report: Optional[ExecutionReport] = None

    # -- introspection ------------------------------------------------------------

    @property
    def workers(self) -> int:
        """Size of the worker pool."""
        return self._workers

    @property
    def graph(self) -> CompiledITGraph:
        """The compiled graph the parent plans over."""
        return self._local.graph

    @property
    def planner(self) -> BatchPlanner:
        """The parent-side workload planner."""
        return self._local.planner

    def payload_bytes(self) -> bytes:
        """The serialised index workers rehydrate from (built lazily once)."""
        if self._payload is None:
            from repro.io.compiled_codec import compiled_graph_to_bytes

            self._payload = compiled_graph_to_bytes(self._local.graph)
        return self._payload

    # -- execution ----------------------------------------------------------------

    def run_batch(self, queries: Sequence[ITSPQuery], method_name: str) -> List[QueryResult]:
        """Answer ``queries`` (canonical ``method_name``); results in input
        order, bit-identical to :meth:`BatchExecutor.run_batch` no matter
        what the pool does.  The call's :class:`ExecutionReport` is left on
        :attr:`last_report`."""
        started = time.perf_counter()
        dispatch_unix = time.time()
        groups = self._local.planner.plan(queries, method_name)
        results: List[Optional[QueryResult]] = [None] * len(queries)
        if self._workers <= 1 or len(groups) <= 1:
            report = ExecutionReport(
                mode="in-process",
                workers=self._workers,
                usable_cpus=default_worker_count(),
                queries=len(queries),
                groups=len(groups),
                dispatch_unix=dispatch_unix,
            )
            for order, result in self._local.run_planned(groups):
                results[order] = result
        else:
            chunks = self._chunk(groups)
            report = ExecutionReport(
                mode="pool",
                workers=self._workers,
                usable_cpus=default_worker_count(),
                queries=len(queries),
                groups=len(groups),
                chunks_total=len(chunks),
                dispatch_unix=dispatch_unix,
                fault_plan=repr(self._fault_plan) if self._fault_plan is not None else None,
            )
            for order, result in self._run_supervised(chunks, report):
                results[order] = result
        report.elapsed_seconds = time.perf_counter() - started
        self.last_report = report
        return results  # type: ignore[return-value]

    def _chunk(self, groups: Sequence[BatchGroup]) -> List[List[BatchGroup]]:
        """Pack groups into size-balanced chunks for the dispatch queue.

        Groups are distributed greedily by descending member count into
        ``workers * CHUNKS_PER_WORKER`` chunks (ties broken by plan order,
        so chunking is deterministic), and the heaviest chunks are emitted
        first: a worker that finishes a light chunk picks up the next one
        while a heavy chunk is still running elsewhere.  The emitted
        position is the chunk's id — the coordinate retry bookkeeping (and
        fault plans) key on.
        """
        chunk_count = min(len(groups), self._workers * CHUNKS_PER_WORKER)
        order = sorted(range(len(groups)), key=lambda index: (-groups[index].size, index))
        chunks: List[List[BatchGroup]] = [[] for _ in range(chunk_count)]
        weights = [0] * chunk_count
        for index in order:
            lightest = min(range(chunk_count), key=weights.__getitem__)
            chunks[lightest].append(groups[index])
            # Every group pays one fixed search setup on top of its members.
            weights[lightest] += groups[index].size + 1
        emit = sorted(range(chunk_count), key=lambda chunk: (-weights[chunk], chunk))
        return [chunks[chunk] for chunk in emit]

    # -- the supervisor -----------------------------------------------------------

    def _run_supervised(
        self, chunks: List[List[BatchGroup]], report: ExecutionReport
    ) -> List[Tuple[int, QueryResult]]:
        """Climb the degradation ladder until every chunk's results exist.

        Dispatches at most one in-flight chunk per worker, watches futures
        for completion / worker death / timeout, retries lost chunks with
        bounded exponential backoff on a respawned pool, and finally runs
        anything unrecovered on the parent's in-process executor.  Returns
        the merged ``(order, result)`` pairs; duplicated deliveries (a chunk
        that completed in the same instant its pool was condemned) are
        harmless because chunk execution is deterministic and the merge is
        keyed by input order.
        """
        pending: Deque[_ChunkTask] = deque(
            _ChunkTask(chunk_id, chunk) for chunk_id, chunk in enumerate(chunks)
        )
        fallback: List[_ChunkTask] = []
        in_flight: Dict[Future, _ChunkTask] = {}
        pairs: List[Tuple[int, QueryResult]] = []
        #: Chunks that were in flight when a pool died with no chunk to blame;
        #: while any remain, chunks run one at a time, so the next death has
        #: exactly one suspect.
        suspects: Set[int] = set()
        #: Respawns since the last completed chunk (the backoff exponent), and
        #: the subset with nobody to blame (the drain guard).
        consecutive_respawns = 0
        unblamed_respawns = 0

        pool_started = time.perf_counter()

        def charge_failure(task: _ChunkTask) -> None:
            """Charge one failed attempt; route to retry or the last rung."""
            task.attempt += 1
            if task.attempt > self._max_retries:
                report.chunks_fallback += 1
                fallback.append(task)
            else:
                report.chunks_retried += 1
                pending.append(task)

        while pending or in_flight:
            broken = False
            blamed = False
            # Fill the pool: one in-flight chunk per worker, so the timeout
            # clock of a chunk starts only when a worker actually holds it.
            capacity = 1 if suspects else self._workers
            while pending and len(in_flight) < capacity and not broken:
                task = pending.popleft()
                try:
                    future = self._ensure_pool().submit(
                        _run_chunk, task.chunk_id, task.attempt, task.groups
                    )
                except BrokenProcessPool:
                    # The pool died before this chunk even left the parent —
                    # still evidence of worker death (e.g. an initializer
                    # failure noticed at submit time rather than via a
                    # future), so the crash counter reflects it.
                    pending.appendleft(task)
                    report.worker_crashes += 1
                    broken = True
                    break
                task.deadline = (
                    time.monotonic() + self._chunk_timeout
                    if self._chunk_timeout is not None
                    else None
                )
                in_flight[future] = task
                report.chunks_dispatched += 1

            if not broken and in_flight:
                timeout = None
                if self._chunk_timeout is not None:
                    next_deadline = min(task.deadline for task in in_flight.values())
                    timeout = max(0.0, next_deadline - time.monotonic())
                done, _ = wait(list(in_flight), timeout=timeout, return_when=FIRST_COMPLETED)
                crashed: List[_ChunkTask] = []
                for future in done:
                    task = in_flight.pop(future)
                    error = future.exception()
                    if error is None:
                        pairs.extend(future.result())
                        report.chunks_completed += 1
                        suspects.discard(task.chunk_id)
                        consecutive_respawns = unblamed_respawns = 0
                    elif isinstance(error, BrokenProcessPool):
                        report.worker_crashes += 1
                        broken = True
                        crashed.append(task)
                    else:
                        report.chunk_failures += 1
                        charge_failure(task)
                if len(crashed) == 1 and not in_flight:
                    # The chunk's worker died while no other chunk was left
                    # in flight: the crash is the chunk's own.
                    suspects.discard(crashed[0].chunk_id)
                    blamed = True
                    charge_failure(crashed[0])
                else:
                    # A death every in-flight future reports: requeue without
                    # charging anyone, and isolate the suspects.
                    for task in crashed:
                        suspects.add(task.chunk_id)
                        pending.appendleft(task)
                if self._chunk_timeout is not None:
                    now = time.monotonic()
                    for future, task in list(in_flight.items()):
                        if task.deadline is not None and task.deadline <= now and not future.done():
                            del in_flight[future]
                            report.chunk_timeouts += 1
                            # The worker still holds the chunk; reclaiming it
                            # means condemning the pool.
                            broken = True
                            blamed = True
                            charge_failure(task)

            if broken:
                # Salvage completed-but-uncollected chunks, requeue the rest
                # without charging them (they merely shared the doomed pool);
                # with nobody blamed, each of them is a suspect.
                for future, task in list(in_flight.items()):
                    if future.done() and future.exception() is None:
                        pairs.extend(future.result())
                        report.chunks_completed += 1
                        suspects.discard(task.chunk_id)
                    else:
                        pending.appendleft(task)
                        if not blamed:
                            suspects.add(task.chunk_id)
                in_flight.clear()
                consecutive_respawns += 1
                if not blamed:
                    unblamed_respawns += 1
                if unblamed_respawns > self._max_retries:
                    # The pool cannot be kept alive at all (e.g. every
                    # initializer dies): drain everything to the last rung.
                    self._close_pool()
                    report.chunks_fallback += len(pending)
                    fallback.extend(pending)
                    pending.clear()
                else:
                    self._respawn_pool(report, consecutive_respawns)

        report.pool_seconds = time.perf_counter() - pool_started

        # The ladder's last rung: whatever the pool could not answer runs on
        # the parent's executor, whose results are bit-identical by the batch
        # parity contract.  Chunk order is normalised for determinism.
        fallback_started = time.perf_counter()
        for task in sorted(fallback, key=lambda task: task.chunk_id):
            pairs.extend(self._local.run_planned(task.groups))
        report.fallback_seconds = time.perf_counter() - fallback_started
        return pairs

    # -- pool lifecycle -----------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            generation = self._pools_spawned
            self._pool = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=_POOL_CONTEXT,
                initializer=_init_worker,
                initargs=(
                    self.payload_bytes(),
                    self._speed,
                    self._fault_plan,
                    generation,
                    self._cache_config,
                ),
            )
            self._pools_spawned += 1
            _register_live_executor(self)
        return self._pool

    def _respawn_pool(self, report: ExecutionReport, consecutive: int) -> None:
        """Tear the pool down, back off, and let the next dispatch respawn it."""
        self._close_pool()
        delay = min(self._backoff_cap, self._backoff_base * (2 ** (consecutive - 1)))
        if delay > 0:
            time.sleep(delay)
            report.backoff_seconds += delay
        report.pool_respawns += 1

    def _close_pool(self) -> None:
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        # Kill worker processes first: a stuck or sleeping worker would make
        # a graceful shutdown hang, and workers are stateless by design.
        for process in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                process.kill()
            except Exception:
                pass
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:
            pass

    def close(self) -> None:
        """Shut down the worker pool (idempotent; the executor stays usable —
        the next parallel call starts a fresh pool).  Also invoked by the
        module's ``atexit`` guard, so interpreter shutdown never depends on
        ``__del__`` ordering."""
        self._close_pool()

    def __enter__(self) -> "ParallelBatchExecutor":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - redundant with the atexit guard
        try:
            self.close()
        except Exception:
            pass
