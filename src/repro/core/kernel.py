"""The one compiled door-level Dijkstra behind every compiled execution tier.

Algorithm 1 runs here once, over a :class:`~repro.core.compiled.CompiledITGraph`,
for three callers that differ only in what they ask of the run:

* ``ITSPQEngine`` answers one query with a one-target run on per-call state
  (a fresh :class:`SearchArena`), so ``engine.run`` stays reentrant;
* ``BatchExecutor`` answers a planned group with a multi-target run on its
  reused arena, ending once every member's target has settled;
* ``SPTreeCache`` records a tree with a zero-target, full-exhaustion run that
  fills an :class:`EventLog`.

Temporal feasibility and pricing come from the probe closure of
:func:`repro.core.semantics.make_edge_probe`, called before each relaxation's
distance test (Algorithm 1's check-before-relax order).  Adjacency iteration
follows the reference search's order, so the run is the reference
``ITSPQEngine._search`` relaxation for relaxation.

Why one run can answer many targets with exact per-query statistics: target
nodes never relax anything, so the source/door event sequence (settles,
relaxations, probes, pushes and pops of door entries) is the same with any
set of targets, and a one-target search is that sequence cut at the moment
its target settles.  The kernel counts the door events once and snapshots them
at each target's settling pop, adding the target's own bookkeeping: its pushes,
the settling pop and its heap entries' share of the peak.  For a target with
``k`` entries in the heap the heap size is ``D + k``, where ``D`` is the
source/door occupancy, so the peak is the prefix maximum of ``D`` until the
target is first pushed, then the maximum of ``D + k`` while it waits to settle.
A zero-target run is the whole sequence, which is what the cache replays.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from math import hypot, inf
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.compiled import CompiledITGraph
from repro.core.deadline import SearchDeadline
from repro.core.path import IndoorPath, PathHop
from repro.core.query import ITSPQuery, QueryResult, SearchStatistics
from repro.core.semantics import TemporalSemantics, derive_counters, make_edge_probe
from repro.core.snapshot import CompiledSnapshotStore
from repro.temporal.timeofday import TimeOfDay


class SearchArena:
    """Reusable, generation-stamped search state for compiled Dijkstra runs.

    One arena serves any number of consecutive searches over graphs with up
    to :attr:`capacity` nodes.  All arrays are preallocated and grown
    geometrically; :meth:`begin_run` makes every label instantly stale by
    bumping :attr:`generation`, so per-query setup cost is independent of
    venue size (the O(1) "generation stamp" reset).

    Slot ``i`` of :attr:`dist` / :attr:`prev_node` / :attr:`prev_part` is
    meaningful only while ``label_stamp[i] == generation``; a node is settled
    only while ``settled_stamp[i] == generation``.  Slots never labelled hold
    ``inf`` and ``-1``.
    """

    __slots__ = (
        "capacity",
        "generation",
        "dist",
        "prev_node",
        "prev_part",
        "label_stamp",
        "settled_stamp",
        "heap",
    )

    def __init__(self, capacity: int = 0):
        self.capacity = 0
        # Generation 0 is never used for a run, so freshly grown stamp slots
        # (initialised to 0) are always stale.
        self.generation = 0
        # Plain lists, not ``array``: these are the search's hottest reads
        # and list indexing avoids the boxing cost of ``array`` element access.
        self.dist: List[float] = []
        self.prev_node: List[int] = []
        self.prev_part: List[int] = []
        self.label_stamp: List[int] = []
        self.settled_stamp: List[int] = []
        self.heap: List[Tuple[float, int, int]] = []
        if capacity:
            self.reserve(capacity)

    def reserve(self, node_count: int) -> None:
        """Grow the arrays to hold at least ``node_count`` node slots."""
        if node_count <= self.capacity:
            return
        new_capacity = max(node_count, 2 * self.capacity)
        grow = new_capacity - self.capacity
        self.dist.extend([inf] * grow)
        self.prev_node.extend([-1] * grow)
        self.prev_part.extend([-1] * grow)
        self.label_stamp.extend([0] * grow)
        self.settled_stamp.extend([0] * grow)
        self.capacity = new_capacity

    def begin_run(self, node_count: int) -> int:
        """Start a fresh search over ``node_count`` nodes; returns the new
        generation stamp.  Leftover heap entries of an early-terminated
        previous run are discarded."""
        self.reserve(node_count)
        self.generation += 1
        del self.heap[:]
        return self.generation


class SearchTarget:
    """One goal point of a kernel run and, after the run, its outcome.

    ``stats`` is the target's own search's counters (probe counters that
    :func:`~repro.core.semantics.derive_counters` fills in still missing) and
    ``length`` its distance, ``inf`` unless ``settled``.  The target's label
    chain stays readable in the arena until the next run on it.
    """

    __slots__ = ("pidx", "x", "y", "floor", "node", "settled", "t_count", "peak", "stats", "length")

    def __init__(self, pidx: int, point):
        self.pidx = pidx
        self.x = point.x
        self.y = point.y
        self.floor = point.floor
        self.node = -1
        self.settled = False
        #: Entries this target has pushed so far; nonzero means it is in the
        #: heap and waiting to settle.
        self.t_count = 0
        self.peak = 0
        self.stats: Optional[SearchStatistics] = None
        self.length = inf


#: Length of a counter sample: ``(doors_settled, relaxations, pushes,
#: partitions_expanded, private_pruned, temporally_pruned, ati_probes,
#: snapshot_refreshes, membership_checks)``, counting source/door events only.
SAMPLE_WIDTH = 9


def statistics(sample, heap_pushes: int, heap_pops: int, peak_heap_size: int) -> SearchStatistics:
    """One search's statistics from a counter sample (its ``pushes`` is
    replaced by ``heap_pushes``, which counts target entries too)."""
    settled, relaxations, _pushes, expanded, private, pruned, probes, refreshes, checks = sample
    return SearchStatistics(
        doors_settled=settled,
        relaxations=relaxations,
        heap_pushes=heap_pushes,
        heap_pops=heap_pops,
        partitions_expanded=expanded,
        private_partitions_pruned=private,
        temporally_pruned_doors=pruned,
        ati_probes=probes,
        snapshot_refreshes=refreshes,
        membership_checks=checks,
        peak_heap_size=peak_heap_size,
    )


class EventLog:
    """What a zero-target run records so that any target's search can later
    be replayed from it (see :mod:`repro.core.cache`).

    *Per event*, i.e. per heap pop of a source/door entry, stale pops
    included: ``pop_dist`` / ``pop_push`` (the entry's distance and push
    index) and, in ``samples``, the counter sample after the event
    (:data:`SAMPLE_WIDTH` values per event).  *Per push* (the initial source
    push included): ``occ_after``, the source/door heap occupancy after it,
    and ``prefix_peak``, that occupancy's running maximum.
    ``rows_by_partition`` holds, per partition, the chronological target-relax
    opportunities ``(door, door_distance, pushes_before, occupancy)``.
    """

    __slots__ = ("pop_dist", "pop_push", "samples", "occ_after", "prefix_peak", "rows_by_partition")

    def __init__(self) -> None:
        self.pop_dist = array("d")
        self.pop_push = array("l")
        self.samples = array("l")
        self.occ_after = array("l")
        self.prefix_peak = array("l")
        self.rows_by_partition: Dict[int, List[Tuple[int, float, int, int]]] = {}

    def sample(self, event: int) -> array:
        """The counter sample after ``event``."""
        start = event * SAMPLE_WIDTH
        return self.samples[start : start + SAMPLE_WIDTH]


def graph_probe(
    graph: CompiledITGraph,
    store: CompiledSnapshotStore,
    semantics: TemporalSemantics,
    kind: int,
    query_seconds: float,
    speed: float,
):
    """:func:`~repro.core.semantics.make_edge_probe` over a compiled graph:
    returns ``(probe, counters)``."""
    return make_edge_probe(
        semantics,
        kind,
        graph.ati_bounds,
        query_seconds,
        speed,
        interval_at=store.interval_at if kind == 1 else None,
    )


def search(
    graph: CompiledITGraph,
    arena: SearchArena,
    anchor,
    source_pidx: int,
    allowed_private,
    probe,
    probe_counters: List[int],
    targets: Sequence[SearchTarget] = (),
    partition_once: bool = False,
    log: Optional[EventLog] = None,
    deadline: Optional[SearchDeadline] = None,
) -> None:
    """Run Algorithm 1 from ``anchor`` (inside partition ``source_pidx``)
    until every target has settled or the heap is exhausted.

    ``allowed_private`` is the set of private partitions the search may
    enter; ``probe`` / ``probe_counters`` come from :func:`graph_probe`.
    Each target gets its outcome in place.  ``partition_once`` is the
    literal-Algorithm-1 study mode (a partition is expanded only from the
    first door settling into it, and a door adjacent to the target partition
    relaxes only the target); it needs exactly one target.  ``log`` records
    the run's events.  An armed ``deadline`` is polled once per heap pop and
    raises out of the run; the arena's next run is unaffected.
    """
    if partition_once and len(targets) != 1:
        raise ValueError("partition_once needs exactly one target")
    door_count = graph.door_count
    source_node = door_count
    gen = arena.begin_run(door_count + 1 + len(targets))
    dist = arena.dist
    prev_node = arena.prev_node
    prev_part = arena.prev_part
    label_stamp = arena.label_stamp
    settled_stamp = arena.settled_stamp
    heap = arena.heap

    adjacency = graph.adjacency
    door_x = graph.door_x
    door_y = graph.door_y
    door_floor = graph.door_floor
    source_x, source_y, source_floor = anchor.x, anchor.y, anchor.floor
    visited = bytearray(graph.partition_count) if partition_once else None

    #: Per partition, the targets inside it (``None`` for most partitions).
    targets_in: List[Optional[List[SearchTarget]]] = [None] * graph.partition_count
    for offset, target in enumerate(targets):
        target.node = source_node + 1 + offset
        if targets_in[target.pidx] is None:
            targets_in[target.pidx] = []
        targets_in[target.pidx].append(target)

    # -- counters of source/door events only ---------------------------------
    # ``occupancy`` is the number of source/door entries in the heap and
    # ``prefix_peak`` its running maximum: the peak heap size of any target
    # not yet pushed.
    pushes = 1  # the initial SOURCE push
    pops = 0
    occupancy = 1
    prefix_peak = 1
    doors_settled = 0
    relaxations = 0
    partitions_expanded = 0
    private_pruned = 0
    temporally_pruned = 0
    #: Targets in the heap and not yet settled; only these need per-push peak
    #: updates (a pushed target settles as soon as no closer door entry remains).
    hot: List[SearchTarget] = []

    recording = log is not None
    if recording:
        pop_dist = log.pop_dist.append
        pop_push = log.pop_push.append
        add_sample = log.samples.extend
        occ_after = log.occ_after.append
        peak_after = log.prefix_peak.append
        rows_by_partition = log.rows_by_partition
        occ_after(1)
        peak_after(1)

    heap.append((0.0, 0, source_node))
    dist[source_node] = 0.0
    label_stamp[source_node] = gen
    tie = 1

    # A door-free direct leg for each target sharing the anchor's partition.
    for target in targets:
        if target.pidx == source_pidx and target.floor == source_floor:
            direct = hypot(source_x - target.x, source_y - target.y)
            tnode = target.node
            dist[tnode] = direct
            label_stamp[tnode] = gen
            prev_node[tnode] = source_node
            prev_part[tnode] = source_pidx
            heappush(heap, (direct, tie, tnode))
            tie += 1
            target.t_count = 1
            target.peak = max(prefix_peak, occupancy + 1)
            hot.append(target)

    remaining = len(targets)
    while heap:
        if deadline is not None:
            deadline.tick()
        distance, entry_tie, node = heappop(heap)
        if node > source_node:
            # A target entry.  Stale entries (superseded pushes, or entries of
            # an already-settled target) are in no target's own search.
            target = targets[node - source_node - 1]
            if target.settled or distance > dist[node]:
                continue
            target.settled = True
            target.length = distance
            hot.remove(target)
            remaining -= 1
            sample = (
                doors_settled,
                relaxations,
                pushes,
                partitions_expanded,
                private_pruned,
                temporally_pruned,
                *probe_counters,
            )
            target.stats = statistics(sample, pushes + target.t_count, pops + 1, target.peak)
            if remaining == 0:
                break
            continue

        pops += 1
        occupancy -= 1
        if settled_stamp[node] != gen and distance <= dist[node]:
            settled_stamp[node] = gen
            if node == source_node:
                partitions_expanded += 1
                for door_idx in graph.leaveable_by_partition[source_pidx]:
                    if door_floor[door_idx] != source_floor:
                        continue
                    leg = hypot(source_x - door_x[door_idx], source_y - door_y[door_idx])
                    relaxations += 1
                    leg = probe(door_idx, leg)
                    if leg is None:
                        temporally_pruned += 1
                        continue
                    if label_stamp[door_idx] != gen or leg < dist[door_idx]:
                        dist[door_idx] = leg
                        label_stamp[door_idx] = gen
                        prev_node[door_idx] = source_node
                        prev_part[door_idx] = source_pidx
                        heappush(heap, (leg, tie, door_idx))
                        tie += 1
                        pushes += 1
                        occupancy += 1
                        if occupancy > prefix_peak:
                            prefix_peak = occupancy
                        for target in hot:
                            peak = occupancy + target.t_count
                            if peak > target.peak:
                                target.peak = peak
                        if recording:
                            occ_after(occupancy)
                            peak_after(prefix_peak)
            else:
                # ``node`` is a door with a settled (shortest) distance label.
                doors_settled += 1
                door_distance = dist[node]
                dx = door_x[node]
                dy = door_y[node]
                dfloor = door_floor[node]
                for partition_idx, is_private, edges in adjacency[node]:
                    if partition_once and visited[partition_idx]:
                        continue
                    if is_private and partition_idx not in allowed_private:
                        private_pruned += 1
                        continue
                    if partition_once:
                        visited[partition_idx] = 1
                    partitions_expanded += 1
                    if recording:
                        rows = rows_by_partition.get(partition_idx)
                        if rows is None:
                            rows = rows_by_partition[partition_idx] = []
                        rows.append((node, door_distance, pushes, occupancy))

                    tlist = targets_in[partition_idx]
                    if tlist is not None:
                        for target in tlist:
                            if target.settled or dfloor != target.floor:
                                continue
                            candidate = door_distance + hypot(target.x - dx, target.y - dy)
                            tnode = target.node
                            if label_stamp[tnode] != gen or candidate < dist[tnode]:
                                dist[tnode] = candidate
                                label_stamp[tnode] = gen
                                prev_node[tnode] = node
                                prev_part[tnode] = partition_idx
                                heappush(heap, (candidate, tie, tnode))
                                tie += 1
                                if target.t_count:
                                    target.t_count += 1
                                    peak = occupancy + target.t_count
                                    if peak > target.peak:
                                        target.peak = peak
                                else:
                                    target.t_count = 1
                                    target.peak = max(prefix_peak, occupancy + 1)
                                    hot.append(target)
                        if partition_once:
                            # Lines 20-24: a door adjacent to the target
                            # partition only relaxes p_t in the literal algorithm.
                            continue

                    for next_idx, leg in edges:
                        if settled_stamp[next_idx] == gen:
                            continue
                        candidate = door_distance + leg
                        relaxations += 1
                        candidate = probe(next_idx, candidate)
                        if candidate is None:
                            temporally_pruned += 1
                            continue
                        if label_stamp[next_idx] != gen or candidate < dist[next_idx]:
                            dist[next_idx] = candidate
                            label_stamp[next_idx] = gen
                            prev_node[next_idx] = node
                            prev_part[next_idx] = partition_idx
                            heappush(heap, (candidate, tie, next_idx))
                            tie += 1
                            pushes += 1
                            occupancy += 1
                            if occupancy > prefix_peak:
                                prefix_peak = occupancy
                            for target in hot:
                                peak = occupancy + target.t_count
                                if peak > target.peak:
                                    target.peak = peak
                            if recording:
                                occ_after(occupancy)
                                peak_after(prefix_peak)

        if recording:
            # Stale pops are events too: a target's search counts them in
            # ``heap_pops``, with no other counter moving.
            pop_dist(distance)
            pop_push(entry_tie)
            add_sample(
                (
                    doors_settled,
                    relaxations,
                    pushes,
                    partitions_expanded,
                    private_pruned,
                    temporally_pruned,
                    *probe_counters,
                )
            )

    # Heap exhausted without settling these targets: each one's own search
    # would have run the identical full trajectory.
    sample = (
        doors_settled,
        relaxations,
        pushes,
        partitions_expanded,
        private_pruned,
        temporally_pruned,
        *probe_counters,
    )
    for target in targets:
        if not target.settled:
            target.stats = statistics(sample, pushes, pops, prefix_peak)


def rebuild_path(
    graph: CompiledITGraph,
    dist,
    prev_node,
    prev_part,
    win_node: int,
    win_part: int,
    length: float,
    query: ITSPQuery,
    method_label: str,
    speed: float,
) -> IndoorPath:
    """Rebuild a found path from predecessor labels (Algorithm 1, lines 11-17).

    ``win_node`` is the last node before the target (the anchor's node
    ``door_count`` for a door-free path) and ``win_part`` the partition the
    target is reached through.  Arrival times use ``query``'s own second.
    The path is anchor-rooted; ``semantics.finalise_result`` re-orients it.
    """
    semantics = query.semantics
    anchor_point, goal_point = semantics.search_endpoints(query)
    source_node = graph.door_count
    chain: List[Tuple[int, int]] = []
    node = win_node
    while node != source_node:
        chain.append((node, prev_part[node]))
        node = prev_node[node]
    chain.reverse()

    door_ids = graph.door_ids
    partition_ids = graph.partition_ids
    forward = semantics.forward
    query_seconds = query.query_time.seconds
    from_seconds = TimeOfDay._from_seconds_unchecked
    last_index = len(chain) - 1
    hops: List[PathHop] = []
    for index, (node, via_partition) in enumerate(chain):
        next_via = chain[index + 1][1] if index < last_index else win_part
        offset = dist[node] / speed
        arrival = from_seconds(query_seconds + offset if forward else query_seconds - offset)
        hops.append(
            PathHop(
                door_ids[node],
                partition_ids[via_partition],
                partition_ids[next_via],
                dist[node],
                arrival,
            )
        )

    return IndoorPath(
        source=anchor_point,
        target=goal_point,
        query_time=query.query_time,
        hops=hops,
        total_length=length,
        method_label=method_label,
    )


def finish_result(
    query: ITSPQuery,
    method_label: str,
    kind: int,
    speed: float,
    stats: SearchStatistics,
    length: float = inf,
    path: Optional[IndoorPath] = None,
) -> QueryResult:
    """The user-facing result of one query: derived probe counters filled
    in, then the semantics' finalise hook.  Found iff ``path`` is given."""
    semantics = query.semantics
    derive_counters(semantics, kind, stats)
    result = QueryResult(
        query=query,
        method_label=method_label,
        found=path is not None,
        path=path,
        length=length,
        statistics=stats,
    )
    return semantics.finalise_result(result, speed)


def target_result(
    graph: CompiledITGraph,
    arena: SearchArena,
    target: SearchTarget,
    query: ITSPQuery,
    method_label: str,
    kind: int,
    speed: float,
) -> QueryResult:
    """:func:`finish_result` for a target of the arena's last run."""
    if not target.settled:
        return finish_result(query, method_label, kind, speed, target.stats)
    tnode = target.node
    path = rebuild_path(
        graph,
        arena.dist,
        arena.prev_node,
        arena.prev_part,
        arena.prev_node[tnode],
        arena.prev_part[tnode],
        target.length,
        query,
        method_label,
        speed,
    )
    return finish_result(query, method_label, kind, speed, target.stats, target.length, path)
