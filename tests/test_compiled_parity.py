"""Compiled-vs-reference engine parity: the dual-engine contract.

The compiled integer-indexed fast path (``ITSPQEngine(compiled=True)``, the
default) must be *bit-identical* to the object-level reference search
(``compiled=False``) — same found flag, same door sequence, same total length
(exactly, not just to tolerance), same per-hop arrival times and the same
search statistics, for all four TV-check methods.  The reference engine is
the oracle; these tests are what allows every other test in the suite to run
against the compiled path.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import WALKING_SPEED_MPS
from repro.core.batch import BatchExecutor, BatchPlanner
from repro.core.compiled import COMPILED_KINDS, CompiledITGraph
from repro.core.engine import ITSPQEngine
from repro.core.query import ITSPQuery, SearchStatistics
from repro.core.semantics import NO_WAIT, derive_counters, make_edge_probe
from repro.core.tvcheck import make_strategy
from repro.datasets.simple_venues import build_corridor_venue, build_two_room_venue
from repro.exceptions import QueryError, UnknownEntityError
from repro.core.itgraph import build_itgraph
from repro.geometry.point import IndoorPoint
from repro.indoor.builder import IndoorSpaceBuilder
from repro.synthetic.queries import QueryWorkloadConfig, generate_query_instances
from repro.temporal.schedule import DoorSchedule
from repro.temporal.timeofday import TimeOfDay

METHODS = ("synchronous", "asynchronous", "static", "query-time")

#: Statistics fields that must match exactly between the two engines
#: (runtime obviously differs — that is the whole point).
_STAT_KEYS = (
    "doors_settled",
    "relaxations",
    "heap_pushes",
    "heap_pops",
    "partitions_expanded",
    "private_partitions_pruned",
    "temporally_pruned_doors",
    "ati_probes",
    "snapshot_refreshes",
    "membership_checks",
    "peak_heap_size",
)


def assert_parity(reference_result, compiled_result):
    """Assert two results are indistinguishable (modulo runtime)."""
    assert compiled_result.found == reference_result.found
    assert compiled_result.method_label == reference_result.method_label
    if reference_result.found:
        assert compiled_result.length == reference_result.length  # bit-identical
        ref_path, cmp_path = reference_result.path, compiled_result.path
        assert cmp_path.door_sequence == ref_path.door_sequence
        assert cmp_path.partition_sequence == ref_path.partition_sequence
        assert cmp_path.total_length == ref_path.total_length
        for ref_hop, cmp_hop in zip(ref_path.hops, cmp_path.hops):
            assert cmp_hop.distance_from_source == ref_hop.distance_from_source
            assert cmp_hop.arrival_time.seconds == ref_hop.arrival_time.seconds
    else:
        assert compiled_result.path is None and reference_result.path is None
        assert math.isinf(compiled_result.length)
    ref_stats = reference_result.statistics
    cmp_stats = compiled_result.statistics
    for key in _STAT_KEYS:
        assert getattr(cmp_stats, key) == getattr(ref_stats, key), key


def sweep_parity(itgraph, point_pairs, query_times, methods=METHODS):
    """Run identical query sequences through both engines and compare."""
    reference = ITSPQEngine(itgraph, compiled=False)
    fast = ITSPQEngine(itgraph, compiled=True)
    assert fast.compiled and not reference.compiled
    for method in methods:
        for source, target in point_pairs:
            for query_time in query_times:
                ref = reference.query(source, target, query_time, method)
                cmp = fast.query(source, target, query_time, method)
                assert_parity(ref, cmp)


class TestExampleVenueParity:
    """Full sweep over the paper's running example."""

    def test_all_methods_all_hours(self, example_itgraph, example_points):
        points = sorted(example_points)
        pairs = [
            (example_points[a], example_points[b]) for a in points for b in points if a != b
        ]
        times = [f"{hour}:00" for hour in range(0, 24, 3)] + ["23:30", "5:59"]
        sweep_parity(example_itgraph, pairs, times)


class TestSimpleVenueParity:
    def test_two_room_with_window_schedule(self):
        itgraph, points = build_two_room_venue({"d1": [("8:00", "16:00")]})
        sweep_parity(
            itgraph,
            [(points["a"], points["b"]), (points["b"], points["a"])],
            ["7:00", "8:00", "12:00", "15:59:55", "16:00", "23:00"],
        )

    def test_corridor_with_shortcut_schedule(self):
        itgraph, points = build_corridor_venue({"s12": [("9:00", "11:00"), ("20:00", "22:00")]})
        names = sorted(points)
        pairs = [(points[a], points[b]) for a in names for b in names]
        sweep_parity(itgraph, pairs, ["8:59", "9:00", "10:30", "12:00", "21:59", "22:00"])

    def test_private_rooms(self):
        itgraph, points = build_corridor_venue(private_rooms=("room2", "room3"))
        names = sorted(points)
        pairs = [(points[a], points[b]) for a in names for b in names if a != b]
        sweep_parity(itgraph, pairs, ["12:00"])

    def test_never_open_door(self):
        itgraph, points = build_two_room_venue({"d1": []})
        sweep_parity(itgraph, [(points["a"], points["b"])], ["12:00"])


class TestSyntheticVenueParity:
    """The tiny synthetic mall: staircases, private shops, generated schedule."""

    def test_generated_workload_all_methods(self, tiny_mall_itgraph):
        workload = generate_query_instances(
            tiny_mall_itgraph,
            QueryWorkloadConfig(s2t_distance=180.0, pairs=4, query_time="12:00", seed=17),
        )
        reference = ITSPQEngine(tiny_mall_itgraph, compiled=False)
        fast = ITSPQEngine(tiny_mall_itgraph, compiled=True)
        for method in METHODS:
            for generated in workload:
                for query_time in ("6:30", "12:00", "21:45"):
                    query = generated.query.at_time(query_time)
                    assert_parity(
                        reference.run(query, method=method), fast.run(query, method=method)
                    )

    def test_compiled_engine_rejects_outside_points(self, tiny_mall_itgraph):
        fast = ITSPQEngine(tiny_mall_itgraph, compiled=True)
        inside = generate_query_instances(
            tiny_mall_itgraph,
            QueryWorkloadConfig(s2t_distance=100.0, pairs=1, query_time="12:00", seed=2),
        )[0].query
        with pytest.raises(QueryError):
            fast.query(inside.source, IndoorPoint(1e6, 1e6, 0), "12:00")


class TestHypothesisParity:
    """Property-style sweep: random schedules, endpoints and fractional times."""

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=22),
        st.integers(min_value=1, max_value=12),
        st.sampled_from(["room1", "room2", "room3", "room4", "corridor"]),
        st.sampled_from(["room1", "room2", "room3", "room4", "corridor"]),
        st.floats(min_value=0.0, max_value=86399.0, allow_nan=False),
        st.sampled_from(METHODS),
    )
    def test_random_schedule_parity(self, open_hour, duration, source, target, query_seconds, method):
        close_hour = min(24, open_hour + duration)
        itgraph, points = build_corridor_venue(
            {"s12": [(f"{open_hour}:00", f"{close_hour}:00")], "c2": [("6:00", "22:00")]}
        )
        reference = ITSPQEngine(itgraph, compiled=False)
        fast = ITSPQEngine(itgraph, compiled=True)
        query_time = TimeOfDay(query_seconds)
        ref = reference.query(points[source], points[target], query_time, method)
        cmp = fast.query(points[source], points[target], query_time, method)
        assert_parity(ref, cmp)


def build_late_door_venue():
    """A venue whose target is first pushed while the door occupancy of the
    heap is at its running maximum, and settles before the next door push.

    Layout (floor 0)::

        +-------+---------------------+-------+
        | start |                     |  far  |
        |   s   |                     |   t   |
        +---f---+       hallway       +---d---+
        |                                     |
        +---e---+-----------------------------+
        | annex |
        +-------+

    From ``s`` at 9:00: ``f`` is pushed and settled, pushing ``d``; ``e``,
    4 m past ``f``, is still closed (it opens at 9:00:20).  Settling ``d``
    expands the hallway first, pushing ``e`` (now open, ~64 m out) so the
    door occupancy is back at its maximum of 1, and then pushes the target,
    2 m past ``d``: the heap peaks at 2.  The target then settles before any
    other door push.

    The search expands a door's partitions in ``frozenset`` order, which
    varies with the string hash seed, so the far room takes the first of
    a few names for which ``d`` leads into the hallway first.

    Returns the IT-Graph and the points ``s`` and ``t``.
    """
    for attempt in range(64):
        far = f"far{attempt}"
        builder = IndoorSpaceBuilder("late-door-venue")
        builder.add_rectangle_partition("hallway", 0, 0, 40, 4)
        builder.add_rectangle_partition("start", 0, 4, 10, 12)
        builder.add_rectangle_partition(far, 30, 4, 40, 12)
        builder.add_rectangle_partition("annex", 0, -8, 10, 0)
        builder.add_door("f", IndoorPoint(5, 4, 0), between=("start", "hallway"))
        builder.add_door("d", IndoorPoint(35, 4, 0), between=("hallway", far))
        builder.add_door("e", IndoorPoint(5, 0, 0), between=("hallway", "annex"))
        space = builder.build()
        if next(iter(space.topology.enterable_partitions("d"))) != "hallway":
            continue
        schedule = DoorSchedule.from_pairs({"e": [("9:00:20", "23:00")]})
        points = {"s": IndoorPoint(5, 8, 0), "t": IndoorPoint(35, 6, 0)}
        return build_itgraph(space, schedule), points
    raise AssertionError("no far-room name puts the hallway first")


class TestPeakAtRunningMaximum:
    """The target's share of the peak heap size when it is first pushed at
    the running maximum of the door occupancy (``occupancy + 1``, not
    ``occupancy``) — a case no other venue here reaches."""

    def test_the_venue_reaches_the_case(self):
        itgraph, points = build_late_door_venue()
        result = ITSPQEngine(itgraph, compiled=False).query(points["s"], points["t"], "9:00")
        assert result.found and list(result.path.door_sequence) == ["f", "d"]
        assert result.statistics.peak_heap_size == 2

    def test_compiled_and_batch_match_the_reference(self):
        itgraph, points = build_late_door_venue()
        times = ["8:59", "9:00", "9:00:10", "9:00:30", "12:00"]
        pairs = [(points["s"], points["t"]), (points["t"], points["s"])]
        sweep_parity(itgraph, pairs, times)
        reference = ITSPQEngine(itgraph, compiled=False)
        batch = BatchExecutor(itgraph.compiled())
        for method in METHODS:
            queries = [
                ITSPQuery(source, target, when) for source, target in pairs for when in times
            ]
            for query, result in zip(queries, batch.run_batch(queries, method)):
                assert_parity(reference.run(query, method=method), result)


class TestCompiledStructures:
    """The compiled index faithfully mirrors the object-level IT-Graph."""

    def test_interning_round_trip(self, example_itgraph):
        compiled = example_itgraph.compiled()
        assert isinstance(compiled, CompiledITGraph)
        assert example_itgraph.compiled() is compiled  # cached on the graph
        assert compiled.door_count == example_itgraph.door_count()
        assert compiled.partition_count == example_itgraph.partition_count()
        for door_id, index in compiled.door_index.items():
            assert compiled.door_ids[index] == door_id

    def test_dense_dm_matches_reference(self, example_itgraph):
        compiled = example_itgraph.compiled()
        for pid in example_itgraph.partition_ids():
            pidx = compiled.partition_index[pid]
            matrix = example_itgraph.partition_record(pid).distance_matrix
            for door_a in matrix.doors:
                for door_b in matrix.doors:
                    expected = matrix.distance(door_a, door_b)
                    got = compiled.intra_distance_idx(
                        pidx, compiled.door_index[door_a], compiled.door_index[door_b]
                    )
                    assert got == expected

    def test_dense_dm_unknown_door_raises(self, example_itgraph):
        compiled = example_itgraph.compiled()
        pidx = compiled.partition_index["v1"]
        foreign = next(
            index
            for door_id, index in compiled.door_index.items()
            if index not in compiled.dm_locals[pidx]
        )
        with pytest.raises(UnknownEntityError):
            compiled.intra_distance_idx(pidx, foreign, foreign)

    def test_ati_probe_matches_door_records(self, example_itgraph):
        compiled = example_itgraph.compiled()
        for door_id, index in compiled.door_index.items():
            atis = example_itgraph.door_record(door_id).atis
            for step in range(0, 25 * 3600, 1800):
                assert compiled.door_open_at_seconds(index, float(step)) == atis.contains_seconds(
                    float(step)
                ), (door_id, step)

    def test_interval_bitsets_match_snapshots(self, example_itgraph):
        compiled = example_itgraph.compiled()
        bitsets = compiled.interval_bitsets
        for start in bitsets.starts:
            bits = bitsets.bitset_at(start)
            open_doors = {
                door_id
                for door_id, index in compiled.door_index.items()
                if bits[index]
            }
            if start < 86400.0:
                assert open_doors == set(example_itgraph.doors_open_at(start))

    def test_locate_index_matches_space_locate(self, example_itgraph, example_points):
        compiled = example_itgraph.compiled()
        for point in example_points.values():
            expected = example_itgraph.covering_partition(point).partition_id
            assert compiled.partition_ids[compiled.locate_index(point)] == expected
        with pytest.raises(UnknownEntityError):
            compiled.locate_index(IndoorPoint(9999.0, 9999.0, 0))


class TestCompiledCheckClasses:
    """The compiled tiers' no-wait probe kernel answers every TV-check like
    the reference strategy, counters included."""

    @pytest.mark.parametrize("method", METHODS)
    def test_checks_agree_with_strategies(self, example_itgraph, method):
        compiled = example_itgraph.compiled()
        store = compiled.interval_bitsets.store()
        kind, _label = COMPILED_KINDS[method]
        strategy = make_strategy(method, example_itgraph)
        for query_time in ("5:00", "12:00", "15:55", "22:30"):
            t = TimeOfDay(query_time)
            probe, counters = make_edge_probe(
                NO_WAIT,
                kind,
                compiled.ati_bounds,
                t.seconds,
                WALKING_SPEED_MPS,
                interval_at=store.interval_at if kind == 1 else None,
            )
            strategy.begin_query(t)
            probes = 0
            for door_id, index in compiled.door_index.items():
                for distance in (0.0, 40.0, 400.0, 4000.0):
                    probes += 1
                    assert (probe(index, distance) is not None) == strategy.is_passable(
                        door_id, distance, t
                    ), (method, query_time, door_id, distance)
            stats = SearchStatistics(
                relaxations=probes,
                ati_probes=counters[0],
                snapshot_refreshes=counters[1],
                membership_checks=counters[2],
            )
            derive_counters(NO_WAIT, kind, stats)
            assert {
                "ati_probes": stats.ati_probes,
                "snapshot_refreshes": stats.snapshot_refreshes,
                "membership_checks": stats.membership_checks,
            } == strategy.counters()

    def test_factory_labels_and_rejection(self, example_itgraph):
        labels = {
            "synchronous": "ITG/S",
            "asynchronous": "ITG/A",
            "static": "static",
            "query-time": "query-time-snapshot",
        }
        assert set(COMPILED_KINDS) == set(METHODS)
        assert sorted(kind for kind, _label in COMPILED_KINDS.values()) == [0, 1, 2, 3]
        for method in METHODS:
            assert COMPILED_KINDS[method][1] == labels[method]
            assert make_strategy(method, example_itgraph).method_label == labels[method]
        with pytest.raises(ValueError):
            BatchPlanner(example_itgraph.compiled()).plan([], "teleport")


class TestDispatchModes:
    def test_partition_once_keeps_compiled_enabled(self, example_itgraph):
        engine = ITSPQEngine(example_itgraph, partition_once=True)
        assert engine.compiled
        assert engine.partition_once

    def test_explicit_strategy_uses_reference_search(self, example_itgraph, example_points):
        engine = ITSPQEngine(example_itgraph, compiled=True)
        strategy = make_strategy("synchronous", example_itgraph)
        result = engine.query(
            example_points["p3"], example_points["p4"], "9:00", strategy=strategy
        )
        assert result.found
        assert result.path.door_sequence == ["d18"]

    def test_unknown_method_rejected_by_both(self, example_itgraph, example_points):
        for compiled in (True, False):
            engine = ITSPQEngine(example_itgraph, compiled=compiled)
            with pytest.raises(ValueError):
                engine.query(example_points["p1"], example_points["p2"], "12:00", "teleport")
