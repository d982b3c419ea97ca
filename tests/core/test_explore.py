"""Explore (Lemma 1): coverage completeness and time bound."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    SQRT2,
    ExplorationReport,
    exploration_stops,
    exploration_time_bound,
    explore_rect,
    explore_rect_team,
)
from repro.core.explore import _explore_rect_team_forked
from repro.geometry import EPS, Point, Rect, distance, frontier_for
from repro.sim import (
    Engine,
    EnergyBudgetExceeded,
    Look,
    SOURCE_ID,
    Sweep,
    Trace,
    Wait,
    WaitUntil,
    World,
)

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
        _, result = self._run(rect, [])
        assert result.snapshots == len(exploration_stops(rect))

    def test_sleepers_only_looks_report_the_same_sleepers(self):
        """With sleepers-only Looks the report finds the same sleepers,
        no awake robot (the explorer and a robot waiting in the
        rectangle), and counts the same snapshots; the batched walk
        refuses them."""
        rect = Rect(0, 0, 6, 4)
        homes = [Point(1.0, 1.0), Point(5.0, 3.0), Point(3.0, 2.0)]
        reports = {}

        def waiting(proc):
            yield WaitUntil(100.0)

        for sleepers_only in (False, True):
            world = World(source=Point(0, 0), positions=homes)
            world.mark_awake(3, 0.0, None)
            engine = Engine(world)
            engine.spawn(waiting, [3])

            def program(proc, sleepers_only=sleepers_only):
                reports[sleepers_only] = yield from explore_rect(
                    proc, rect, sleepers_only=sleepers_only
                )

            engine.spawn(program, [SOURCE_ID])
            assert engine.run().snapshots == len(exploration_stops(rect))
        full, sleepers = reports[False], reports[True]
        assert sleepers.sleeping == full.sleeping == {1: homes[0], 2: homes[1]}
        assert set(full.awake) == {SOURCE_ID, 3} and not sleepers.awake

        def batched(proc):
            yield from explore_rect(
                proc, rect, frontier=frontier_for(homes, 1.0), sleepers_only=True
            )

        engine = Engine(World(source=Point(0, 0), positions=homes))
        engine.spawn(batched, [SOURCE_ID])
        with pytest.raises(ValueError, match="full Looks"):
            engine.run()


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
        *actions, _ = self._actions(rect, sleepers, arrive_at)
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
        assert looked_at == [k for k, stop in enumerate(stops) if frontier.any_within(stop)]
        if not sleepers:
            assert len(actions) == 1  # an entirely cold rectangle is one run


class TestReportMerge:
    @pytest.mark.parametrize("awake_first", [True, False])
    def test_awake_sighting_wins_in_either_order(self, awake_first):
        awake = ExplorationReport(awake={1: Point(2.0, 0.0)})
        sleeping = ExplorationReport(sleeping={1: Point(0.0, 0.0), 2: Point(5.0, 5.0)})
        merged = ExplorationReport()
        for part in (awake, sleeping) if awake_first else (sleeping, awake):
            merged.merge(part)
        assert merged.awake == {1: Point(2.0, 0.0)}
        assert merged.sleeping == {2: Point(5.0, 5.0)}

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


def strip_walks(rect, origin, meet_at, speeds):
    """Per strip: the walker's arrival time and distance, Move by Move."""
    walks = []
    for strip, speed in zip(rect.split_rows(len(speeds)), speeds):
        t, total, prev = 0.0, 0.0, origin
        for waypoint in exploration_stops(strip) + [meet_at]:
            length = math.hypot(prev[0] - waypoint[0], prev[1] - waypoint[1])
            total += length
            if length > EPS:
                t = t + length / speed
            prev = waypoint
        walks.append((t, total))
    return walks


def observed(snapshot):
    return snapshot.time.hex(), [
        (v.robot_id, v.awake, v.position[0].hex(), v.position[1].hex())
        for v in snapshot.robots
    ]


@st.composite
def team_cases(draw):
    """A rectangle, a team of 2..12 around it and the meeting point."""
    w, h = draw(st.floats(0.5, 12.0)), draw(st.floats(0.5, 12.0))
    k = draw(st.integers(2, 12))
    near = st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5))
    (ox, oy), (mx, my) = draw(near), draw(near)
    speeds = draw(st.lists(st.sampled_from([1.0, 1.0, 0.7, 0.3]), min_size=k, max_size=k))
    # None: an unbounded robot; a float: a budget this far above the
    # longest strip walk, so the whole team clears it.
    margins = draw(
        st.lists(st.one_of(st.none(), st.floats(0.01, 5.0)), min_size=k, max_size=k)
    )
    return Rect(0, 0, w, h), Point(ox * w, oy * h), Point(mx * w, my * h), speeds, margins


class TestTeamSweep:
    """A cold team exploration is one ``TeamSweep``, observably its fork path."""

    @staticmethod
    def _explore(explore, rect, origin, meet_at, speeds, margins, sleepers, fractions):
        """Run ``explore`` beside two observers; return what everyone saw.

        One observer stands by the meeting point and Looks at every
        member's arrival, then three times at the release instant across
        its same-instant hops; the other stands in the rectangle and Looks
        mid-flight.
        """
        k = len(speeds)
        team = list(range(k))
        by_meet, inside = k, k + 1
        world = World(
            source=origin,
            positions=[origin] * (k - 1)
            + [Point(meet_at[0] + 0.3, meet_at[1] - 0.4), rect.center]
            + list(sleepers),
        )
        for rid in team[1:] + [by_meet, inside]:
            world.mark_awake(rid, 0.0, None)
        walks = strip_walks(rect, origin, meet_at, speeds)
        longest = max(total for _, total in walks)
        for rid, speed, margin in zip(team, speeds, margins):
            world.robots[rid].speed = speed
            if margin is not None:
                world.robots[rid].budget = longest + margin
        arrivals = sorted({t for t, _ in walks})
        release = arrivals[-1]
        frontier = frontier_for(list(sleepers), world.visibility_radius)
        trace = Trace()
        engine = Engine(world, trace=trace)
        out = {"seen": []}
        seen = out["seen"]

        def leader(proc):
            report = yield from explore(proc, rect, meet_at, ("team", 0), frontier)
            out.update(
                time=proc.time.hex(), report=report, robots=proc.robot_ids,
                position=proc.position,
            )
            seen.append(("leader", observed((yield Look()).value)))

        def watch(name, times, repeat):
            def program(proc):
                for t in times:
                    yield WaitUntil(t)
                    seen.append((name, observed((yield Look()).value)))
                for _ in range(repeat):
                    yield Wait(0.0)
                    seen.append((name, observed((yield Look()).value)))

            return program

        engine.spawn(leader, team)
        engine.spawn(watch("meet", arrivals, 2), [by_meet])
        engine.spawn(watch("inside", sorted({f * release for f in fractions}), 0), [inside])
        result = engine.run()
        out.update(
            odometers=[world.robots[rid].odometer.hex() for rid in team],
            positions=[world.robots[rid].position for rid in team],
            events=result.events_processed,
            forks=len(trace.of_kind("fork")),
            zero_walk=any(t == 0.0 for t, _ in walks),
        )
        return out

    def _assert_same(self, collapsed, forked):
        for key in ("odometers", "positions", "report", "time", "robots", "position", "seen"):
            assert collapsed[key] == forked[key], key
        assert forked["forks"] == 1

    @settings(max_examples=100, deadline=None)
    @given(
        case=team_cases(),
        fractions=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4),
    )
    @example(  # the middle strip is one stop where the team stands and meets
        case=(Rect(0, 0, 1.0, 1.0), Point(0.5, 0.5), Point(0.5, 0.5), [1.0] * 3, [None] * 3),
        fractions=[0.5],
    )
    @example(  # slow robots, mixed budgets, a meeting point off the rectangle
        case=(
            Rect(0, 0, 9.0, 7.0), Point(0.0, 0.0), Point(10.0, 3.0),
            [1.0, 0.3, 0.7, 1.0, 0.3], [None, 0.01, 2.0, None, 0.5],
        ),
        fractions=[0.2, 0.6],
    )
    @example(  # the child arrives last: the leader resumes after the observer's Looks
        case=(Rect(0, 0, 1.0, 1.0), Point(0.0, 0.0), Point(0.0, 1.0), [1.0, 1.0], [None, None]),
        fractions=[0.5],
    )
    def test_cold_team_is_one_event_with_fork_path_observables(self, case, fractions):
        rect, origin, meet_at, speeds, margins = case
        # A sleeper far from every strip: the frontier is not empty, just cold.
        sleepers = [Point(rect.xmax + 40.0, rect.ymax + 40.0)]
        args = (rect, origin, meet_at, speeds, margins, sleepers, fractions)
        collapsed = self._explore(explore_rect_team, *args)
        forked = self._explore(_explore_rect_team_forked, *args)
        self._assert_same(collapsed, forked)
        # A strip walked in zero time would end at the issue instant, so
        # such a team keeps the fork path; every other cold team collapses.
        assert collapsed["forks"] == int(forked["zero_walk"])
        if not forked["zero_walk"]:
            assert collapsed["events"] < forked["events"]

    @staticmethod
    def _overrun(explore):
        """The top strip's robot cannot finish its walk, though the team
        minimum clears the bottom strip; returns where the run aborts."""
        rect, origin = Rect(0, 0, 8.0, 6.0), Point(0.0, 0.0)
        walks = strip_walks(rect, origin, rect.center, [1.0, 1.0, 1.0])
        world = World(source=origin, positions=[origin, origin])
        for rid in (1, 2):
            world.mark_awake(rid, 0.0, None)
        world.robots[2].budget = walks[2][1] - 1.0
        assert walks[0][1] < world.robots[2].budget
        trace = Trace()
        engine = Engine(world, trace=trace)

        def leader(proc):
            yield from explore(proc, rect, rect.center, ("team", 0), frontier_for([], 1.0))

        engine.spawn(leader, [0, 1, 2])
        with pytest.raises(EnergyBudgetExceeded) as err:
            engine.run()
        error = err.value
        return (
            error.robot_id, error.attempted.hex(), error.budget.hex(),
            engine.now.hex(), len(trace.of_kind("fork")),
        )

    def test_budget_that_runs_out_keeps_the_fork_path(self):
        """The overrun aborts mid-walk, where the fork path's per-stop
        fallback aborts, not at the issue instant."""
        collapsed = self._overrun(explore_rect_team)
        assert collapsed == self._overrun(_explore_rect_team_forked)
        assert collapsed[0] == 2 and collapsed[-1] == 1
        assert float.fromhex(collapsed[3]) > 0.0

    def test_sleeper_beside_one_strip_keeps_the_fork_path(self):
        rect = Rect(0, 0, 8.0, 6.0)
        # Within sight of the top strip's stop at (2, 5.5) only.
        sleepers = [Point(2.0, 6.2)]
        args = (rect, Point(0.0, 0.0), rect.center, [1.0, 0.7, 1.0], [None] * 3, sleepers, [0.5])
        collapsed = self._explore(explore_rect_team, *args)
        forked = self._explore(_explore_rect_team_forked, *args)
        self._assert_same(collapsed, forked)
        assert collapsed["forks"] == 1
        assert collapsed["events"] == forked["events"]
        # Ids: the team 0..2, the two observers, then the sleeper.
        assert list(collapsed["report"].sleeping) == [5]
