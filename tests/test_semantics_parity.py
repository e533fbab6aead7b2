"""Cross-tier parity and properties of the pluggable temporal semantics.

One probe kernel (:mod:`repro.core.semantics`) serves every execution tier —
reference, compiled, batch, parallel workers and the SP-tree cache — so each
semantics must produce *bit-identical* results (paths, lengths, arrival
times and every deterministic counter) no matter which tier answered it.
The no-wait default is covered by the pre-existing parity suites; this
module sweeps the three additional semantics across all five tiers and pins
down their defining properties:

* wait-tolerant answers dominate no-wait answers (waiting only helps);
* latest-departure is the inverse of earliest arrival on fixed intervals;
* time-window degenerates to no-wait as the window shrinks and only ever
  loses routes as it grows.

Also here: the ``partition_once`` study mode on the compiled path (new in
this refactor — it used to force the reference engine) and the probe-kernel
edge cases around half-open ATIs, never-reopening doors and midnight.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import WALKING_SPEED_MPS
from repro.core.cache import CacheConfig
from repro.core.engine import ITSPQEngine
from repro.core.query import ITSPQuery, SearchStatistics
from repro.core.semantics import (
    NO_WAIT,
    LatestDeparture,
    TimeWindow,
    WaitTolerant,
    canonical_semantics,
    make_edge_probe,
)
from repro.core.tvcheck import make_strategy
from repro.datasets.simple_venues import build_corridor_venue, build_two_room_venue
from repro.exceptions import QueryError
from repro.geometry.point import IndoorPoint
from repro.temporal.timeofday import TimeOfDay

SEMANTICS = (
    NO_WAIT,
    WaitTolerant(),
    LatestDeparture(),
    TimeWindow(window_seconds=600.0),
)

SEMANTICS_IDS = tuple(
    s.name if not isinstance(s, TimeWindow) else "time-window-600" for s in SEMANTICS
)


def assert_same_result(expected, actual):
    """Assert two results are bit-identical (modulo runtime_seconds)."""
    assert actual.found == expected.found
    assert actual.method_label == expected.method_label
    if expected.found:
        assert actual.length == expected.length
        exp_path, act_path = expected.path, actual.path
        assert act_path.door_sequence == exp_path.door_sequence
        assert act_path.partition_sequence == exp_path.partition_sequence
        assert act_path.total_length == exp_path.total_length
        for exp_hop, act_hop in zip(exp_path.hops, act_path.hops):
            assert act_hop.distance_from_source == exp_hop.distance_from_source
            assert act_hop.arrival_time.seconds == exp_hop.arrival_time.seconds
    else:
        assert actual.path is None and expected.path is None
        assert math.isinf(actual.length)
    for key in SearchStatistics.COUNTER_FIELDS:
        assert getattr(actual.statistics, key) == getattr(expected.statistics, key), key


def corridor_workload(semantics):
    """All ordered point pairs of the scheduled corridor venue at times that
    exercise waiting, window pruning and the pre-midnight deadline clamp."""
    itgraph, points = build_corridor_venue(
        {"s12": [("9:00", "11:00"), ("20:00", "22:00")], "c2": [("6:00", "22:00")]}
    )
    names = sorted(points)
    times = ["0:10", "5:30", "8:59", "10:30", "12:00", "21:59", "23:40"]
    queries = [
        ITSPQuery(points[a], points[b], when, semantics=semantics)
        for a in names
        for b in names
        if a != b
        for when in times
    ]
    return itgraph, queries


@pytest.mark.parametrize("semantics", SEMANTICS, ids=SEMANTICS_IDS)
class TestCrossTierParity:
    """Reference vs compiled vs batch vs parallel vs cache, per semantics."""

    def test_reference_vs_compiled(self, semantics):
        itgraph, queries = corridor_workload(semantics)
        reference = ITSPQEngine(itgraph, compiled=False)
        fast = ITSPQEngine(itgraph, compiled=True)
        found = 0
        for query in queries:
            expected = reference.run(query)
            actual = fast.run(query)
            assert_same_result(expected, actual)
            found += expected.found
        assert found  # the sweep must exercise real routes, not only misses

    def test_compiled_vs_batch(self, semantics):
        itgraph, queries = corridor_workload(semantics)
        fast = ITSPQEngine(itgraph, compiled=True)
        expected = [fast.run(query) for query in queries]
        for exp, act in zip(expected, fast.run_batch(queries)):
            assert_same_result(exp, act)

    def test_batch_vs_parallel_workers(self, semantics):
        itgraph, queries = corridor_workload(semantics)
        with ITSPQEngine(itgraph, compiled=True) as engine:
            batched = engine.run_batch(queries)
            parallel = engine.run_batch(queries, workers=2)
        for exp, act in zip(batched, parallel):
            assert_same_result(exp, act)

    def test_cache_replay_vs_fresh_search(self, semantics):
        itgraph, queries = corridor_workload(semantics)
        oracle = ITSPQEngine(itgraph, compiled=False)
        cached = ITSPQEngine(itgraph, cache=CacheConfig(mode="eager"))
        expected = [oracle.run(query) for query in queries]
        for round_index in range(2):  # round 1 records trees, round 2 replays
            for exp, query in zip(expected, queries):
                assert_same_result(exp, cached.run(query))
        stats = cached.cache_stats
        assert stats["trees_built"] > 0
        assert stats["hits"] > 0


class TestMixedSemanticsBatch:
    """One batch may mix semantics: the planner keys groups by semantics, so
    members under different semantics never share a tree."""

    def test_mixed_batch_matches_sequential(self):
        itgraph, points = build_corridor_venue(
            {"s12": [("9:00", "11:00")], "c2": [("6:00", "22:00")]}
        )
        queries = [
            ITSPQuery(points["room1"], points["room4"], "10:30", semantics=semantics)
            for semantics in SEMANTICS
        ] + [
            ITSPQuery(points["room4"], points["room1"], "8:30", semantics=semantics)
            for semantics in SEMANTICS
        ]
        engine = ITSPQEngine(itgraph)
        expected = [engine.run(query) for query in queries]
        for exp, act in zip(expected, engine.run_batch(queries)):
            assert_same_result(exp, act)

    def test_groups_split_by_semantics(self):
        itgraph, points = build_corridor_venue()
        engine = ITSPQEngine(itgraph)
        planner = engine.batch_executor().planner
        queries = [
            ITSPQuery(points["room1"], points["room4"], "12:00", semantics=semantics)
            for semantics in SEMANTICS
        ]
        groups = planner.plan(queries, "synchronous")
        assert len(groups) == len(SEMANTICS)
        assert {group.semantics for group in groups} == set(SEMANTICS)


class TestWaitTolerantProperties:
    def test_dominates_no_wait(self):
        itgraph, queries = corridor_workload(NO_WAIT)
        engine = ITSPQEngine(itgraph)
        for query in queries:
            no_wait = engine.run(query)
            tolerant = engine.run(query.with_semantics("wait-tolerant"))
            if no_wait.found:
                # Waiting is optional, so every no-wait route stays feasible
                # and the optimum can only improve.
                assert tolerant.found
                assert tolerant.length <= no_wait.length

    def test_waits_out_a_closed_door(self):
        itgraph, points = build_two_room_venue({"d1": [("8:00", "9:00"), ("10:00", "11:00")]})
        engine = ITSPQEngine(itgraph)
        query = ITSPQuery(points["a"], points["b"], "9:30")
        assert not engine.run(query).found
        tolerant = engine.run(query.with_semantics("wait-tolerant"))
        assert tolerant.found
        # The walker waits at the door until the 10:00 reopening, so the
        # equivalent length is at least the full wait charged at full speed.
        wait_seconds = 10 * 3600 - 9.5 * 3600
        assert tolerant.length >= wait_seconds * WALKING_SPEED_MPS
        arrival = query.query_time.seconds + tolerant.length / WALKING_SPEED_MPS
        assert arrival >= 10 * 3600

    def test_never_reopening_door_is_pruned(self):
        itgraph, points = build_two_room_venue({"d1": [("8:00", "9:00")]})
        engine = ITSPQEngine(itgraph)
        query = ITSPQuery(points["a"], points["b"], "10:00", semantics=WaitTolerant())
        assert not engine.run(query).found

    def test_no_wait_past_midnight(self):
        itgraph, points = build_two_room_venue({"d1": [("8:00", "9:00")]})
        engine = ITSPQEngine(itgraph)
        query = ITSPQuery(points["a"], points["b"], "23:50", semantics=WaitTolerant())
        # The day is a hard horizon: waiting never wraps into tomorrow.
        assert not engine.run(query).found

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=22),
        st.integers(min_value=1, max_value=12),
        st.sampled_from(["room1", "room2", "room3", "room4", "corridor"]),
        st.sampled_from(["room1", "room2", "room3", "room4", "corridor"]),
        st.floats(min_value=0.0, max_value=86399.0, allow_nan=False),
    )
    def test_random_schedule_dominance_and_parity(
        self, open_hour, duration, source, target, query_seconds
    ):
        close_hour = min(24, open_hour + duration)
        itgraph, points = build_corridor_venue(
            {"s12": [(f"{open_hour}:00", f"{close_hour}:00")], "c2": [("6:00", "22:00")]}
        )
        reference = ITSPQEngine(itgraph, compiled=False)
        fast = ITSPQEngine(itgraph, compiled=True)
        query = ITSPQuery(
            points[source], points[target], TimeOfDay(query_seconds), semantics=WaitTolerant()
        )
        expected = reference.run(query)
        assert_same_result(expected, fast.run(query))
        no_wait = fast.run(query.with_semantics(NO_WAIT))
        if no_wait.found:
            assert expected.found
            assert expected.length <= no_wait.length


class TestLatestDepartureProperties:
    def test_inverse_of_earliest_arrival_on_fixed_intervals(self):
        itgraph, points = build_corridor_venue()  # every door always open
        engine = ITSPQEngine(itgraph)
        names = sorted(points)
        for a in names:
            for b in names:
                if a == b:
                    continue
                earliest = engine.run(ITSPQuery(points[a], points[b], "9:00"))
                latest = engine.run(
                    ITSPQuery(points[a], points[b], "18:00", semantics=LatestDeparture())
                )
                assert latest.found == earliest.found
                if earliest.found:
                    # Fixed intervals: same optimum in both directions, and
                    # the departure instant is the deadline minus travel time.
                    assert latest.length == pytest.approx(earliest.length)
                    departure = 18 * 3600 - latest.length / WALKING_SPEED_MPS
                    assert 0.0 <= departure < 18 * 3600

    def test_path_is_reoriented_source_to_target(self):
        itgraph, points = build_corridor_venue()
        engine = ITSPQEngine(itgraph)
        result = engine.run(
            ITSPQuery(points["room1"], points["room4"], "18:00", semantics=LatestDeparture())
        )
        assert result.found
        path = result.path
        assert path.source == points["room1"]
        assert path.target == points["room4"]
        distances = [hop.distance_from_source for hop in path.hops]
        assert distances == sorted(distances)
        assert all(0.0 <= d <= path.total_length for d in distances)
        arrivals = [hop.arrival_time.seconds for hop in path.hops]
        assert arrivals == sorted(arrivals)

    def test_departure_before_midnight_is_no_route(self):
        itgraph, points = build_two_room_venue()
        engine = ITSPQEngine(itgraph)
        query = ITSPQuery(
            points["a"], points["b"], TimeOfDay(1.0), semantics=LatestDeparture()
        )
        # Arriving by 00:00:01 would require leaving yesterday.
        assert not engine.run(query).found

    def test_deadline_before_doors_open(self):
        itgraph, points = build_two_room_venue({"d1": [("8:00", "16:00")]})
        engine = ITSPQEngine(itgraph)
        query = ITSPQuery(points["a"], points["b"], "7:00", semantics=LatestDeparture())
        assert not engine.run(query).found
        late = engine.run(query.at_time("12:00"))
        assert late.found


class TestTimeWindowProperties:
    def test_tiny_window_matches_no_wait_on_open_doors(self):
        itgraph, points = build_corridor_venue()  # always-open doors
        engine = ITSPQEngine(itgraph)
        names = sorted(points)
        for a in names:
            for b in names:
                if a == b:
                    continue
                no_wait = engine.run(ITSPQuery(points[a], points[b], "12:00"))
                windowed = engine.run(
                    ITSPQuery(
                        points[a],
                        points[b],
                        "12:00",
                        semantics=TimeWindow(window_seconds=1.0),
                    )
                )
                assert_same_result(no_wait, windowed)

    def test_window_prunes_closing_door(self):
        itgraph, points = build_two_room_venue({"d1": [("8:00", "16:00")]})
        engine = ITSPQEngine(itgraph)
        query = ITSPQuery(points["a"], points["b"], "15:59")
        assert engine.run(query).found  # no-wait squeezes through
        windowed = engine.run(query.with_semantics(TimeWindow(window_seconds=600.0)))
        assert not windowed.found  # the door shuts within the window

    def test_monotone_in_window_size(self):
        itgraph, queries = corridor_workload(NO_WAIT)
        engine = ITSPQEngine(itgraph)
        for query in queries:
            narrow = engine.run(query.with_semantics(TimeWindow(window_seconds=60.0)))
            wide = engine.run(query.with_semantics(TimeWindow(window_seconds=3600.0)))
            if wide.found:
                # Growing the window only removes feasible doors.
                assert narrow.found
                assert narrow.length <= wide.length


class TestProbeKernelEdgeCases:
    """Direct unit probes of :func:`make_edge_probe` — exact boundary
    behaviour that venue-level sweeps cannot pin to the float."""

    BOUNDS = {0: (3600.0, 7200.0), 1: (3600.0, 7200.0, 28800.0, 36000.0)}

    def test_wait_tolerant_charges_the_wait(self):
        probe, counters = make_edge_probe(WaitTolerant(), 0, self.BOUNDS, 0.0, 1.0)
        assert probe(0, 5000.0) == 5000.0  # already open: cost unchanged
        assert probe(0, 1000.0) == 3600.0  # closed: pay until the opening
        assert counters[0] == 3  # one probe open, two for the closed case

    def test_wait_tolerant_close_exactly_at_arrival(self):
        probe, _ = make_edge_probe(WaitTolerant(), 0, self.BOUNDS, 0.0, 1.0)
        # Half-open [start, end): arriving exactly at the close is closed.
        assert probe(0, 7200.0) is None  # no later interval: never reopens
        assert probe(1, 7200.0) == 28800.0  # later interval: wait for it

    def test_wait_tolerant_midnight_horizon(self):
        probe, _ = make_edge_probe(WaitTolerant(), 0, self.BOUNDS, 86000.0, 1.0)
        assert probe(1, 500.0) is None  # arrival past the last boundary

    def test_time_window_half_open_boundary(self):
        probe, _ = make_edge_probe(
            TimeWindow(window_seconds=600.0), 0, self.BOUNDS, 0.0, 1.0
        )
        assert probe(0, 6600.0) == 6600.0  # window ends exactly at the close
        assert probe(0, 6600.5) is None  # one half-second too late
        assert probe(0, 1000.0) is None  # closed on arrival

    def test_latest_departure_probes_backwards(self):
        probe, _ = make_edge_probe(LatestDeparture(), 0, self.BOUNDS, 7000.0, 1.0)
        assert probe(0, 1000.0) == 1000.0  # crossed at 6000, inside the ATI
        assert probe(0, 5000.0) is None  # crossed at 2000, before opening
        assert probe(0, 8000.0) is None  # crossing would precede midnight

    def test_non_default_semantics_reject_other_kinds(self):
        for semantics in (WaitTolerant(), LatestDeparture(), TimeWindow(window_seconds=1.0)):
            for kind in (1, 2, 3):
                with pytest.raises(QueryError):
                    make_edge_probe(semantics, kind, self.BOUNDS, 0.0, 1.0)


class TestValidationAndQueryAPI:
    def test_canonical_names(self):
        assert canonical_semantics("no-wait") is NO_WAIT
        assert canonical_semantics("no_wait") is NO_WAIT
        assert canonical_semantics(" Wait-Tolerant ") == WaitTolerant()
        assert canonical_semantics("latest_departure") == LatestDeparture()
        instance = TimeWindow(window_seconds=30.0)
        assert canonical_semantics(instance) is instance

    def test_time_window_needs_an_instance(self):
        with pytest.raises(QueryError):
            canonical_semantics("time-window")

    def test_unknown_semantics_rejected(self):
        with pytest.raises(QueryError):
            canonical_semantics("teleport")
        with pytest.raises(QueryError):
            canonical_semantics(42)

    def test_time_window_requires_positive_window(self):
        with pytest.raises(QueryError):
            TimeWindow(window_seconds=0.0)
        with pytest.raises(QueryError):
            TimeWindow(window_seconds=-60.0)

    def test_query_defaults_to_no_wait(self, example_points):
        query = ITSPQuery(example_points["p1"], example_points["p2"], "12:00")
        assert query.semantics is NO_WAIT

    def test_with_semantics_and_at_time_compose(self, example_points):
        query = ITSPQuery(example_points["p1"], example_points["p2"], "12:00")
        tolerant = query.with_semantics("wait-tolerant")
        assert tolerant.semantics == WaitTolerant()
        assert tolerant.source == query.source and tolerant.target == query.target
        assert tolerant.at_time("14:00").semantics == WaitTolerant()
        assert query.semantics is NO_WAIT  # original untouched (frozen)

    def test_non_default_semantics_require_synchronous(self, example_itgraph, example_points):
        engine = ITSPQEngine(example_itgraph)
        query = ITSPQuery(
            example_points["p1"], example_points["p2"], "12:00", semantics=WaitTolerant()
        )
        for method in ("asynchronous", "static", "query-time"):
            with pytest.raises(QueryError):
                engine.run(query, method=method)
            with pytest.raises(QueryError):
                engine.run_batch([query], method=method)

    def test_explicit_strategy_is_no_wait_only(self, example_itgraph, example_points):
        engine = ITSPQEngine(example_itgraph, compiled=False)
        strategy = make_strategy(
            "synchronous", example_itgraph, engine.updater, WALKING_SPEED_MPS
        )
        query = ITSPQuery(
            example_points["p1"], example_points["p2"], "12:00", semantics=LatestDeparture()
        )
        with pytest.raises(QueryError):
            engine.run(query, strategy=strategy)

    def test_result_exposes_semantics(self, example_itgraph, example_points):
        engine = ITSPQEngine(example_itgraph)
        semantics = WaitTolerant()
        result = engine.run(
            ITSPQuery(example_points["p1"], example_points["p2"], "12:00", semantics=semantics)
        )
        assert result.semantics == semantics


class TestPartitionOnceCompiled:
    """The literal-Algorithm-1 study mode now runs on the compiled path too,
    bit-identically to the reference engine's partition_once search."""

    METHODS = ("synchronous", "asynchronous", "static", "query-time")

    def sweep(self, itgraph, pairs, times):
        reference = ITSPQEngine(itgraph, compiled=False, partition_once=True)
        fast = ITSPQEngine(itgraph, compiled=True, partition_once=True)
        assert fast.partition_once and fast.compiled
        for method in self.METHODS:
            for source, target in pairs:
                for when in times:
                    expected = reference.query(source, target, when, method)
                    assert_same_result(expected, fast.query(source, target, when, method))

    def test_corridor_with_shortcut(self):
        itgraph, points = build_corridor_venue(
            {"s12": [("9:00", "11:00"), ("20:00", "22:00")]}
        )
        names = sorted(points)
        pairs = [(points[a], points[b]) for a in names for b in names if a != b]
        self.sweep(itgraph, pairs, ["8:59", "10:30", "12:00", "21:30"])

    def test_private_rooms(self):
        itgraph, points = build_corridor_venue(private_rooms=("room2", "room3"))
        names = sorted(points)
        pairs = [(points[a], points[b]) for a in names for b in names if a != b]
        self.sweep(itgraph, pairs, ["12:00"])

    def test_example_venue(self, example_itgraph, example_points):
        names = sorted(example_points)
        pairs = [
            (example_points[a], example_points[b]) for a in names for b in names if a != b
        ]
        self.sweep(example_itgraph, pairs, ["9:00", "17:30", "23:30"])

    def test_two_floor_mall(self, tiny_mall_itgraph):
        # Three partition centres per floor, so half the pairs climb stairs.
        points = {0: [], 1: []}
        for partition in tiny_mall_itgraph.space.iter_partitions():
            record = tiny_mall_itgraph.partition_record(partition.partition_id)
            if record.is_outdoor or partition.polygon is None or partition.floor not in points:
                continue
            center = partition.polygon.bounding_box.center
            candidate = IndoorPoint(center.x, center.y, partition.floor)
            if partition.contains_point(candidate) and len(points[partition.floor]) < 3:
                points[partition.floor].append(candidate)
        chosen = points[0] + points[1]
        assert len(chosen) == 6
        pairs = [(a, b) for a in chosen for b in chosen if a is not b]
        self.sweep(tiny_mall_itgraph, pairs, ["6:30", "12:00", "21:45"])

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=22),
        st.integers(min_value=1, max_value=12),
        st.sampled_from(["room1", "room2", "room3", "room4", "corridor"]),
        st.sampled_from(["room1", "room2", "room3", "room4", "corridor"]),
        st.floats(min_value=0.0, max_value=86399.0, allow_nan=False),
        st.sampled_from(METHODS),
    )
    def test_random_schedule_parity(
        self, open_hour, duration, source, target, query_seconds, method
    ):
        close_hour = min(24, open_hour + duration)
        itgraph, points = build_corridor_venue(
            {"s12": [(f"{open_hour}:00", f"{close_hour}:00")], "c2": [("6:00", "22:00")]}
        )
        reference = ITSPQEngine(itgraph, compiled=False, partition_once=True)
        fast = ITSPQEngine(itgraph, compiled=True, partition_once=True)
        when = TimeOfDay(query_seconds)
        expected = reference.query(points[source], points[target], when, method)
        assert_same_result(expected, fast.query(points[source], points[target], when, method))

    def test_run_batch_falls_back_to_sequential(self):
        itgraph, points = build_corridor_venue()
        engine = ITSPQEngine(itgraph, partition_once=True)
        queries = [
            ITSPQuery(points["room1"], points["room4"], "12:00"),
            ITSPQuery(points["room4"], points["corridor"], "9:00"),
        ]
        expected = [engine.run(query) for query in queries]
        for exp, act in zip(expected, engine.run_batch(queries)):
            assert_same_result(exp, act)
        assert engine.last_execution_report.mode == "sequential"

    def test_incompatible_tiers_are_rejected(self):
        itgraph, _ = build_corridor_venue()
        engine = ITSPQEngine(itgraph, partition_once=True)
        with pytest.raises(QueryError):
            engine.batch_executor()
        with pytest.raises(QueryError):
            engine.parallel_executor(2)
        with pytest.raises(QueryError):
            ITSPQEngine(itgraph, partition_once=True, cache=True)
