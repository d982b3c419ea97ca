"""Explore (Lemma 1): coverage completeness and time bound."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    SQRT2,
    ExplorationReport,
    exploration_stops,
    exploration_time_bound,
    explore_rect,
    explore_rect_team,
)
from repro.geometry import Point, Rect, distance, frontier_for
from repro.sim import Engine, Look, SOURCE_ID, Sweep, World

dims = st.floats(0.5, 20.0)


class TestStops:
    @given(dims, dims)
    def test_lattice_covers_rectangle(self, w, h):
        rect = Rect(0, 0, w, h)
        stops = exploration_stops(rect)
        # Sample a grid of probe points; each must be within 1 of a stop.
        probes = [
            Point(rect.xmin + fx * w, rect.ymin + fy * h)
            for fx in (0.0, 0.17, 0.5, 0.93, 1.0)
            for fy in (0.0, 0.31, 0.5, 0.77, 1.0)
        ]
        for p in probes:
            assert min(distance(p, s) for s in stops) <= 1.0 + 1e-9

    @given(dims, dims)
    def test_stops_inside_rect(self, w, h):
        rect = Rect(0, 0, w, h)
        assert all(rect.contains(s) for s in exploration_stops(rect))

    @given(dims, dims)
    def test_consecutive_stops_close(self, w, h):
        stops = exploration_stops(Rect(0, 0, w, h))
        for a, b in zip(stops, stops[1:]):
            assert distance(a, b) <= math.hypot(w, SQRT2) + 1e-9

    def test_tiny_rect_single_stop(self):
        stops = exploration_stops(Rect(0, 0, 1, 1))
        assert stops == [Point(0.5, 0.5)]


class TestSingleRobot:
    def _run(self, rect, sleepers, budget_check=None):
        world = World(source=Point(rect.xmin, rect.ymin), positions=sleepers)
        engine = Engine(world)
        reports = []

        def program(proc):
            report = yield from explore_rect(proc, rect)
            reports.append(report)

        engine.spawn(program, [SOURCE_ID])
        result = engine.run()
        return reports[0], result

    def test_finds_every_sleeper(self):
        rng = random.Random(3)
        rect = Rect(0, 0, 12, 7)
        sleepers = [
            Point(rng.uniform(0, 12), rng.uniform(0, 7)) for _ in range(30)
        ]
        report, _ = self._run(rect, sleepers)
        assert sorted(report.sleeping) == list(range(1, 31))
        # Observed positions are the true homes (sleepers do not move).
        for rid, pos in report.sleeping.items():
            assert pos == sleepers[rid - 1]

    def test_time_within_lemma1_bound(self):
        rect = Rect(0, 0, 10, 10)
        _, result = self._run(rect, [])
        assert result.termination_time <= exploration_time_bound(10, 10, 1)

    def test_arrive_at(self):
        rect = Rect(0, 0, 4, 4)
        world = World(source=Point(0, 0), positions=[])
        engine = Engine(world)

        def program(proc):
            yield from explore_rect(proc, rect, arrive_at=Point(2, 2))

        engine.spawn(program, [SOURCE_ID])
        engine.run()
        assert world.source.position == Point(2, 2)

    def test_report_counts_snapshots(self):
        rect = Rect(0, 0, 5, 5)
        report, result = self._run(rect, [])
        assert report.snapshots == len(exploration_stops(rect))
        assert result.snapshots == report.snapshots


class TestTeam:
    def _run_team(self, rect, k, sleepers):
        world = World(source=Point(rect.xmin, rect.ymin), positions=list(sleepers) + [Point(rect.xmin, rect.ymin)] * (k - 1))
        for rid in range(len(sleepers) + 1, len(sleepers) + k):
            world.mark_awake(rid, 0.0, waker_id=SOURCE_ID)
        engine = Engine(world)
        reports = []

        def program(proc):
            report = yield from explore_rect_team(
                proc, rect, meet_at=rect.center, barrier_key=("t", k)
            )
            reports.append(report)

        team = [SOURCE_ID] + list(range(len(sleepers) + 1, len(sleepers) + k))
        engine.spawn(program, team)
        result = engine.run()
        return reports[0], result, world

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_team_finds_everything_and_regroups(self, k):
        rng = random.Random(k)
        rect = Rect(0, 0, 10, 8)
        sleepers = [
            Point(rng.uniform(0, 10), rng.uniform(0, 8)) for _ in range(15)
        ]
        report, result, world = self._run_team(rect, k, sleepers)
        assert sorted(report.sleeping) == list(range(1, 16))
        # Whole team regrouped at the meet point and is owned again.
        for rid in [SOURCE_ID] + list(range(16, 15 + k)):
            assert world.robots[rid].position == rect.center

    def test_team_speedup(self):
        rect = Rect(0, 0, 16, 16)
        _, solo, _ = self._run_team(rect, 1, [])
        _, team4, _ = self._run_team(rect, 4, [])
        # Lemma 1: wh/k term shrinks; demand a real speedup.
        assert team4.termination_time < 0.55 * solo.termination_time

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_team_time_within_bound(self, k):
        rect = Rect(0, 0, 12, 12)
        _, result, _ = self._run_team(rect, k, [])
        assert result.termination_time <= exploration_time_bound(12, 12, k)


class TestBatchedWalk:
    """The frontier-batched walk describes the per-stop walk by lattice runs."""

    @staticmethod
    def _actions(rect, sleepers, arrive_at):
        world = World(source=Point(rect.xmin - 1.0, rect.ymin), positions=sleepers)
        engine = Engine(world)
        frontier = frontier_for(sleepers, world.visibility_radius)
        actions = []

        def recording(proc):
            walk = explore_rect(proc, rect, arrive_at=arrive_at, frontier=frontier)
            value = None
            while True:
                try:
                    action = walk.send(value)
                except StopIteration as done:
                    actions.append(done.value)
                    return
                actions.append(action)
                value = yield action

        engine.spawn(recording, [SOURCE_ID])
        engine.run()
        return actions

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.5, 9.0),
        st.floats(0.5, 9.0),
        st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=4),
        st.booleans(),
    )
    def test_runs_partition_the_lattice(self, w, h, spots, arrive):
        rect = Rect(0, 0, w, h)
        sleepers = [Point(fx * w, fy * h) for fx, fy in spots]
        arrive_at = Point(w / 2, h + 1.0) if arrive else None
        *actions, report = self._actions(rect, sleepers, arrive_at)
        stops = exploration_stops(rect)
        walked, looked_at = [], []
        for action in actions:
            if isinstance(action, Sweep):
                walked += [action.waypoint(i) for i in range(len(action))]
            else:
                assert isinstance(action, Look)
                looked_at.append(len(walked) - 1)
        expected = stops + ([arrive_at] if arrive_at is not None else [])
        assert [Point(*p) for p in walked] == expected
        # Snapshots are taken exactly at the stops that can see a sleeper.
        frontier = frontier_for(sleepers, 1.0)
        assert looked_at == [k for k, hot in enumerate(frontier.hot_stops(stops)) if hot]
        assert report.snapshots == len(stops)
        if not sleepers:
            assert len(actions) == 1  # an entirely cold rectangle is one run


class TestReportMerge:
    @pytest.mark.parametrize("awake_first", [True, False])
    def test_awake_sighting_wins_in_either_order(self, awake_first):
        awake = ExplorationReport(awake={1: Point(2.0, 0.0)}, snapshots=1)
        sleeping = ExplorationReport(
            sleeping={1: Point(0.0, 0.0), 2: Point(5.0, 5.0)}, snapshots=2
        )
        merged = ExplorationReport()
        for part in (awake, sleeping) if awake_first else (sleeping, awake):
            merged.merge(part)
        assert merged.awake == {1: Point(2.0, 0.0)}
        assert merged.sleeping == {2: Point(5.0, 5.0)}
        assert merged.snapshots == 3

    @given(
        st.lists(
            st.tuples(
                st.sets(st.integers(0, 6), max_size=4),
                st.sets(st.integers(0, 6), max_size=4),
            ),
            max_size=5,
        ),
        st.randoms(use_true_random=False),
    )
    def test_merge_keeps_sleeping_and_awake_disjoint(self, sightings, rng):
        parts = [
            ExplorationReport(
                sleeping={rid: Point(rid, 0.0) for rid in asleep - awake},
                awake={rid: Point(rid, 1.0) for rid in awake},
            )
            for asleep, awake in sightings
        ]
        rng.shuffle(parts)
        merged = ExplorationReport()
        for part in parts:
            merged.merge(part)
        every_awake = set().union(*(awake for _, awake in sightings))
        every_asleep = set().union(*(asleep for asleep, _ in sightings))
        assert set(merged.awake) == every_awake
        assert set(merged.sleeping) == every_asleep - every_awake
