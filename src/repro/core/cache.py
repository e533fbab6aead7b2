"""Interval-keyed shortest-path-tree cache for the compiled ITSPQ core.

Within one checkpoint interval the open-door bitset — and therefore the
whole door-level search graph — is frozen, so ITSPQ is really answered
against a small family of static graphs indexed by
:meth:`~repro.core.snapshot.IntervalBitsets.index_at`.  Service workloads
cluster heavily inside that family: query times land in a few intervals and
sources (entrances, concierge desks) repeat.  Yet every execution tier built
so far — compiled, batch, parallel — re-runs Dijkstra from scratch for each
``(source, interval, method)`` even when it just computed that exact tree.

:class:`SPTreeCache` closes that gap.  It memoises **recorded shortest-path
trees**: one zero-target, full-exhaustion run of the shared compiled kernel
(:func:`repro.core.kernel.search`) per ``(method kind, anchor point,
effective-time key, privacy context, temporal semantics)`` — the same key
the :class:`~repro.core.batch.BatchPlanner` groups by — storing the final
label arrays *plus* the run's :class:`~repro.core.kernel.EventLog` (pop
order, push counter, cumulative statistics, heap-occupancy trajectory and
the per-door "target relax opportunity" rows).  A repeat query is then
answered without any search: an O(rows-until-settle) scan picks the winning
door, a binary search over the event log finds the exact moment the member's
target would have settled, and the member's
:class:`~repro.core.query.SearchStatistics` are reconstructed
**bit-identically** to what a fresh
``ITSPQEngine._search_compiled`` run would report (the repository's standing
parity invariant; ``tests/test_cache_parity.py`` enforces it counter for
counter).

Why exact reconstruction is possible (the kernel's argument for multi-target
runs, taken one step further): target entries never relax doors, so a
member query's door-level event sequence is a prefix of the zero-target
run's event sequence.  Heap pops occur in globally sorted ``(distance,
tie)`` order — every push's priority is ≥ the priority being popped, and
ties increase monotonically — so the prefix length is a binary search over
the recorded ``(pop distance, push index)`` pairs, stale pops included.
Target-entry bookkeeping (pushes, the settling pop, peak-heap contribution)
is replayed from the opportunity rows: candidate distances strictly improve
at each target push, so the rows that would have pushed are exactly the
strictly-improving ones, and the peak decomposes into a prefix maximum
before the first target push plus per-segment range maxima (block-max
lookups) afterwards.

Admission and invalidation:

* keys follow the batch planner exactly, so the engine's single-query path,
  the in-process batch path and every parallel worker address the same tree
  space;
* ``mode="promote"`` (default) records a tree only after a key misses
  ``promote_after`` times — one-off queries never pay the full-exhaustion
  recording run; ``mode="eager"`` records on first miss (bench/warm-up);
* entries are LRU-evicted beyond ``max_entries`` and stamped with a
  **generation**: :meth:`SPTreeCache.invalidate` bumps it, instantly
  orphaning every cached tree (the hook a future graph-update path uses on
  recompilation).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import OrderedDict
from math import hypot, inf
from typing import Dict, List, Optional, Tuple

from repro.constants import WALKING_SPEED_MPS
from repro.core.compiled import CompiledITGraph
from repro.core.deadline import SearchDeadline
from repro.core.kernel import (
    EventLog,
    SearchArena,
    finish_result,
    graph_probe,
    rebuild_path,
    search,
    statistics,
)
from repro.core.query import ITSPQuery, QueryResult
from repro.core.semantics import NO_WAIT, TemporalSemantics
from repro.core.snapshot import CompiledSnapshotStore

_INFINITY = inf
#: Block width of the occupancy range-max index (power of two for shifts).
_BLOCK = 64
_BLOCK_SHIFT = 6

_MODES = ("off", "promote", "eager")


class CacheConfig:
    """Configuration of one :class:`SPTreeCache` (picklable, so it travels
    through the parallel executor's worker initializer).

    Parameters
    ----------
    max_entries:
        LRU capacity in cached trees.
    mode:
        ``"promote"`` (default) records a tree after ``promote_after``
        misses of the same key; ``"eager"`` records on first miss;
        ``"off"`` disables recording (lookups still count misses).
    promote_after:
        Miss count that promotes a key to a recorded tree in promote mode.
    """

    __slots__ = ("max_entries", "mode", "promote_after")

    def __init__(
        self,
        max_entries: int = 256,
        mode: str = "promote",
        promote_after: int = 2,
    ):
        if not isinstance(max_entries, int) or isinstance(max_entries, bool):
            raise ValueError(f"max_entries must be an integer, got {max_entries!r}")
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if mode not in _MODES:
            raise ValueError(f"unknown cache mode {mode!r} (expected one of {_MODES})")
        if not isinstance(promote_after, int) or isinstance(promote_after, bool):
            raise ValueError(f"promote_after must be an integer, got {promote_after!r}")
        if promote_after < 1:
            raise ValueError(f"promote_after must be positive, got {promote_after}")
        self.max_entries = int(max_entries)
        self.mode = mode
        self.promote_after = int(promote_after)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CacheConfig(max_entries={self.max_entries}, mode={self.mode!r}, "
            f"promote_after={self.promote_after})"
        )


class TimeKeyResolver:
    """Canonical effective-time key shared by the batch planner and the cache.

    Two queries with the same key provably share their entire door-level
    trajectory (method and source/privacy context being equal):

    * ``static`` (kind 2) never reads the clock — one bucket;
    * ``query-time`` (kind 3) probes every door at the query instant, so the
      checkpoint-interval index is the natural bucket — **when** every door
      ATI boundary is itself an interval start (true whenever the bitsets
      were built from the schedule's own checkpoints).  When a thinned
      checkpoint set leaves door boundaries strictly inside an interval,
      bucketing by interval would merge queries with different probe
      outcomes, so the resolver falls back to the merged-boundary bisection
      the planner always used;
    * the arrival-time methods (kinds 0 and 1) probe doors at per-door
      arrival instants that move continuously with the query second, so any
      time coarsening is unsound — they keep the exact second.
    """

    __slots__ = ("_graph", "_bitsets", "_index_sound", "_fallback")

    def __init__(self, graph: CompiledITGraph):
        self._graph = graph
        self._bitsets = graph.interval_bitsets
        self._index_sound: Optional[bool] = None
        self._fallback: Optional[Tuple[float, ...]] = None

    def interval_indexing_sound(self) -> bool:
        """Whether grouping kind-3 queries by interval index is lossless."""
        if self._index_sound is None:
            starts = set(self._bitsets.starts)
            self._index_sound = all(
                boundary in starts
                for bounds in self._graph.ati_bounds
                for boundary in bounds
            )
        return self._index_sound

    def _fallback_bounds(self) -> Tuple[float, ...]:
        if self._fallback is None:
            merged = set()
            for bounds in self._graph.ati_bounds:
                merged.update(bounds)
            self._fallback = tuple(sorted(merged))
        return self._fallback

    def key(self, kind: int, query_seconds: float) -> float:
        """The effective-time component of a group/cache key."""
        if kind == 2:
            return 0.0
        if kind == 3:
            if self.interval_indexing_sound():
                return float(self._bitsets.index_at(query_seconds))
            return float(bisect_right(self._fallback_bounds(), query_seconds))
        return query_seconds


class CachedTree(EventLog):
    """One recorded zero-target run: the :class:`~repro.core.kernel.EventLog`
    that makes exact per-member statistics reconstruction possible (see the
    module docstring) plus the run's final labels.

    ``dist`` / ``prev_node`` / ``prev_part`` are indexed per node (door
    indices plus the source sentinel at ``door_count``); ``block_max`` is the
    per-block maximum of the per-push ``occ_after`` trajectory.
    """

    __slots__ = (
        "kind",
        "method_label",
        "semantics",
        "source_pidx",
        "source_x",
        "source_y",
        "source_floor",
        "rep_seconds",
        "generation",
        "dist",
        "prev_node",
        "prev_part",
        "block_max",
        "total_pushes",
        "total_events",
    )

    def memory_bytes(self) -> int:
        """Approximate footprint of the recorded arrays (for reports)."""
        per_event = 8 + 8 + 9 * 8
        per_push = 3 * 8
        row_bytes = sum(len(rows) * 48 for rows in self.rows_by_partition.values())
        node_bytes = 3 * 8 * len(self.dist)
        return self.total_events * per_event + self.total_pushes * per_push + row_bytes + node_bytes


class SPTreeCache:
    """Generation-stamped LRU cache of recorded shortest-path trees.

    One instance serves an engine (and its in-process batch executor);
    parallel workers build their own from the :class:`CacheConfig` threaded
    through the worker initializer, over the graph they rehydrated from the
    codec payload.
    """

    def __init__(
        self,
        graph: CompiledITGraph,
        store: Optional[CompiledSnapshotStore] = None,
        walking_speed: float = WALKING_SPEED_MPS,
        config: Optional[CacheConfig] = None,
    ):
        if walking_speed <= 0:
            raise ValueError(f"walking speed must be positive, got {walking_speed}")
        self._graph = graph
        self._store = store if store is not None else graph.interval_bitsets.store()
        self._speed = walking_speed
        self.config = config if config is not None else CacheConfig()
        self.resolver = TimeKeyResolver(graph)
        self.generation = 1
        self._entries: "OrderedDict[tuple, CachedTree]" = OrderedDict()
        self._miss_tally: "OrderedDict[tuple, int]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.trees_built = 0
        self.evictions = 0

    # -- keys -----------------------------------------------------------------

    def plan_key(
        self,
        kind: int,
        source,
        query_seconds: float,
        source_pidx: int,
        target_pidx: int,
        semantics: TemporalSemantics = NO_WAIT,
    ) -> Tuple[tuple, frozenset]:
        """The batch planner's group key (and allowed-private set) for one
        located query — the cache's address space and the planner's are the
        same by construction.  ``source`` is the *anchor* of the search
        (``semantics.search_endpoints``), so latest-departure trees are
        addressed by the point the backward search grows from."""
        private = self._graph.partition_private
        privacy_key = (
            target_pidx if private[target_pidx] and target_pidx != source_pidx else -1
        )
        key = (
            kind,
            source.x,
            source.y,
            source.floor,
            self.resolver.key(kind, query_seconds),
            privacy_key,
            semantics,
        )
        allowed = (
            frozenset((source_pidx,))
            if privacy_key < 0
            else frozenset((source_pidx, target_pidx))
        )
        return key, allowed

    # -- admission / eviction --------------------------------------------------

    def lookup(self, key: tuple) -> Optional[CachedTree]:
        """The cached tree for ``key``, or ``None`` (counts a hit or miss);
        stale-generation entries are dropped on contact."""
        tree = self._entries.get(key)
        if tree is not None:
            if tree.generation == self.generation:
                self._entries.move_to_end(key)
                self.hits += 1
                return tree
            del self._entries[key]
        self.misses += 1
        return None

    def peek(self, key: tuple) -> Optional[CachedTree]:
        """Like :meth:`lookup` but without touching counters or LRU order
        (used by cache warming)."""
        tree = self._entries.get(key)
        if tree is not None and tree.generation == self.generation:
            return tree
        return None

    def should_build(self, key: tuple) -> bool:
        """Whether a missed ``key`` has earned a recording run under the
        configured admission mode."""
        mode = self.config.mode
        if mode == "off":
            return False
        if mode == "eager":
            return True
        tally = self._miss_tally
        count = tally.get(key, 0) + 1
        if count >= self.config.promote_after:
            tally.pop(key, None)
            return True
        tally[key] = count
        tally.move_to_end(key)
        # The tally is bounded like the cache itself, so a stream of one-off
        # keys cannot grow it without limit.
        limit = 4 * self.config.max_entries
        while len(tally) > limit:
            tally.popitem(last=False)
        return False

    def store_tree(self, key: tuple, tree: CachedTree) -> None:
        """Insert a tree, evicting least-recently-used entries past capacity."""
        tree.generation = self.generation
        self._entries[key] = tree
        self._entries.move_to_end(key)
        while len(self._entries) > self.config.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def invalidate(self) -> None:
        """Bump the generation: every cached tree becomes stale at once (the
        recompile / graph-update hook)."""
        self.generation += 1
        self._entries.clear()
        self._miss_tally.clear()

    def stats(self) -> Dict[str, object]:
        """Counter snapshot (what ``engine.cache_stats`` surfaces)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "trees_built": self.trees_built,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "generation": self.generation,
            "max_entries": self.config.max_entries,
            "mode": self.config.mode,
            "memory_bytes": sum(tree.memory_bytes() for tree in self._entries.values()),
        }

    # -- recording -------------------------------------------------------------

    def build(
        self,
        key: tuple,
        kind: int,
        method_label: str,
        source,
        source_pidx: int,
        allowed_private,
        rep_seconds: float,
        semantics: TemporalSemantics = NO_WAIT,
        deadline: Optional[SearchDeadline] = None,
    ) -> CachedTree:
        """Record the tree for ``key`` and cache it: a zero-target,
        full-exhaustion run of the shared kernel
        (:func:`repro.core.kernel.search`) with its event log.  With no
        target entries in the heap, the source/door event sequence is the
        common supersequence every member query's own search is a prefix of.

        An armed ``deadline`` is checked before the recording run starts and
        polled inside it; expiry raises before anything is cached, so the
        cache never holds a tree from an interrupted run."""
        graph = self._graph
        if deadline is not None:
            # A recording run is a full-exhaustion search: refuse to start
            # one on an already-spent budget rather than discover it mid-run.
            deadline.check_now()
        tree = CachedTree()
        arena = SearchArena(graph.door_count + 1)
        probe, probe_counters = graph_probe(graph, self._store, semantics, kind, rep_seconds, self._speed)
        search(
            graph,
            arena,
            source,
            source_pidx,
            allowed_private,
            probe,
            probe_counters,
            log=tree,
            deadline=deadline,
        )
        occ_after = tree.occ_after
        block_max = tree.block_max = array("l")
        for start in range(0, len(occ_after), _BLOCK):
            block_max.append(max(occ_after[start : start + _BLOCK]))
        tree.rows_by_partition = {pidx: tuple(rows) for pidx, rows in tree.rows_by_partition.items()}
        tree.kind = kind
        tree.method_label = method_label
        tree.semantics = semantics
        tree.source_pidx = source_pidx
        tree.source_x = source.x
        tree.source_y = source.y
        tree.source_floor = source.floor
        tree.rep_seconds = rep_seconds
        tree.dist = array("d", arena.dist)
        tree.prev_node = array("l", arena.prev_node)
        tree.prev_part = array("l", arena.prev_part)
        tree.total_pushes = len(occ_after)
        tree.total_events = len(tree.pop_dist)
        self.store_tree(key, tree)
        self.trees_built += 1
        return tree

    def build_for_group(self, group, deadline: Optional[SearchDeadline] = None) -> CachedTree:
        """Record and cache the tree of one planned batch group."""
        return self.build(
            group.cache_key,
            group.kind,
            group.method_label,
            group.source,
            group.source_pidx,
            group.allowed_private,
            group.rep_seconds,
            group.semantics,
            deadline=deadline,
        )

    # -- answering -------------------------------------------------------------

    def answer(self, tree: CachedTree, query: ITSPQuery, target_pidx: int) -> QueryResult:
        """Answer one member query from a recorded tree — O(path length +
        rows until settle), no Dijkstra, bit-identical result and statistics
        (``runtime_seconds`` is the caller's to fill in).  ``target_pidx`` is
        the partition of the search *goal* — under latest-departure semantics
        that is the query's source, matching the tree's backward anchor."""
        graph = self._graph
        kind = tree.kind
        goal_point = tree.semantics.search_endpoints(query)[1]
        tx, ty, tfloor = goal_point.x, goal_point.y, goal_point.floor

        # -- replay the member's target pushes from the opportunity rows -----
        best = _INFINITY
        t_count = 0
        push_points: List[Tuple[int, int]] = []
        win_node = -1
        win_part = -1
        source_node = graph.door_count
        if target_pidx == tree.source_pidx and tfloor == tree.source_floor:
            best = hypot(tree.source_x - tx, tree.source_y - ty)
            t_count = 1
            push_points.append((1, 1))
            win_node = source_node
            win_part = tree.source_pidx
        rows = tree.rows_by_partition.get(target_pidx)
        if rows is not None:
            door_floor = graph.door_floor
            door_x = graph.door_x
            door_y = graph.door_y
            for node, door_distance, push_count, occupancy in rows:
                if door_distance >= best:
                    # Rows are chronological, hence nondecreasing in door
                    # distance: nothing further can improve the candidate.
                    break
                if door_floor[node] != tfloor:
                    continue
                candidate = door_distance + hypot(tx - door_x[node], ty - door_y[node])
                if candidate < best:
                    best = candidate
                    t_count += 1
                    push_points.append((push_count, occupancy))
                    win_node = node
                    win_part = target_pidx

        if t_count == 0:
            # The member's target never enters the heap: its private search
            # runs the identical full trajectory and exhausts the heap.
            stats = statistics(
                tree.sample(tree.total_events - 1),
                tree.total_pushes,
                tree.total_events,
                tree.prefix_peak[tree.total_pushes - 1],
            )
            return finish_result(query, tree.method_label, kind, self._speed, stats)

        # -- settle position: binary search over the sorted event log --------
        best_push = push_points[-1][0]
        pop_dist = tree.pop_dist
        pop_push = tree.pop_push
        lo, hi = 0, tree.total_events
        while lo < hi:
            mid = (lo + hi) >> 1
            event_dist = pop_dist[mid]
            if event_dist < best or (event_dist == best and pop_push[mid] < best_push):
                lo = mid + 1
            else:
                hi = mid
        settle = lo  # events completed before the target's settling pop; >= 1
        sample = tree.sample(settle - 1)

        # -- peak heap size: prefix max before the first target push, then ---
        # per-segment range maxima with the member's live-target count added.
        first_push, first_occ = push_points[0]
        peak = tree.prefix_peak[first_push - 1]
        if first_occ + 1 > peak:
            peak = first_occ + 1
        for index in range(1, t_count):
            candidate_peak = push_points[index][1] + index + 1
            if candidate_peak > peak:
                peak = candidate_peak
        shared_pushes = sample[2]
        occ_after = tree.occ_after
        block_max = tree.block_max
        for index in range(t_count):
            lo_push = push_points[index][0]
            hi_push = (push_points[index + 1][0] if index + 1 < t_count else shared_pushes) - 1
            if lo_push > hi_push:
                continue
            lo_block = lo_push >> _BLOCK_SHIFT
            hi_block = hi_push >> _BLOCK_SHIFT
            if lo_block == hi_block:
                segment_max = max(occ_after[lo_push : hi_push + 1])
            else:
                segment_max = max(occ_after[lo_push : (lo_block + 1) << _BLOCK_SHIFT])
                tail_max = max(occ_after[hi_block << _BLOCK_SHIFT : hi_push + 1])
                if tail_max > segment_max:
                    segment_max = tail_max
                if hi_block > lo_block + 1:
                    middle = max(block_max[lo_block + 1 : hi_block])
                    if middle > segment_max:
                        segment_max = middle
            candidate_peak = segment_max + index + 1
            if candidate_peak > peak:
                peak = candidate_peak

        stats = statistics(sample, shared_pushes + t_count, settle + 1, peak)
        path = rebuild_path(
            graph,
            tree.dist,
            tree.prev_node,
            tree.prev_part,
            win_node,
            win_part,
            best,
            query,
            tree.method_label,
            self._speed,
        )
        return finish_result(query, tree.method_label, kind, self._speed, stats, best, path)

    # -- warming ---------------------------------------------------------------

    def warm(self, groups) -> int:
        """Record trees for every planned group not already cached; returns
        the number of trees built (the compile-time warm-up pass)."""
        built = 0
        for group in groups:
            key = getattr(group, "cache_key", None)
            if key is None or self.peek(key) is not None:
                continue
            self.build_for_group(group)
            built += 1
        return built
