"""Engine edge cases: visibility boundaries, barrier reuse, mid-flight
interpolation, spawn validation, unknown actions."""

import pytest

from repro.geometry import Point
from repro.sim import (
    Barrier,
    CoLocationError,
    Engine,
    Fork,
    Look,
    Move,
    ProtocolError,
    SOURCE_ID,
    Wait,
    Wake,
    World,
)


def make_team_world(k, positions=()):
    world = World(
        source=Point(0, 0), positions=[Point(0, 0)] * (k - 1) + list(positions)
    )
    for rid in range(1, k):
        world.mark_awake(rid, 0.0, waker_id=SOURCE_ID)
    return world


class TestVisibilityBoundary:
    def test_exactly_distance_one_is_visible(self):
        world = World(source=Point(0, 0), positions=[Point(1.0, 0.0)])
        engine = Engine(world)
        seen = []

        def program(proc):
            snap = (yield Look()).value
            seen.extend(v.robot_id for v in snap.sleeping())

        engine.spawn(program, [SOURCE_ID])
        engine.run()
        assert seen == [1]

    def test_observing_a_mover_mid_flight(self):
        """A stationary observer sees a moving process at its interpolated
        position, not its origin or destination."""
        world = make_team_world(2)
        engine = Engine(world)
        sightings = []

        def mover(proc):
            yield Move(Point(10.0, 0.5))

        def observer(proc):
            yield Move(Point(5.0, 0.0))   # arrives at t=5
            snap = (yield Look()).value   # mover is near (5, 0.25) now
            sightings.extend(v for v in snap.robots if v.robot_id == 1)

        def parent(proc):
            yield Fork([((1,), mover)])
            yield from observer(proc)

        engine.spawn(parent, [0, 1])
        engine.run()
        assert sightings, "mid-flight robot not seen"
        pos = sightings[0].position
        assert 4.0 < pos.x < 6.0
        assert sightings[0].awake

    def test_mover_out_of_range_not_seen(self):
        world = make_team_world(2)
        engine = Engine(world)
        seen = []

        def mover(proc):
            yield Move(Point(0.0, 50.0))

        def parent(proc):
            yield Fork([((1,), mover)])
            yield Move(Point(20.0, 0.0))   # far from the mover's segment
            snap = (yield Look()).value
            seen.extend(v.robot_id for v in snap.robots if v.robot_id == 1)

        engine.spawn(parent, [0, 1])
        engine.run()
        assert seen == []


class TestBarrierReuse:
    def test_key_reusable_after_release(self):
        """A released barrier key can host a fresh rendezvous."""
        world = make_team_world(2)
        engine = Engine(world)
        meetings = []

        def partner(proc):
            yield Barrier("k", 2, payload="p1")
            yield Barrier("k", 2, payload="p2")

        def parent(proc):
            yield Fork([((1,), partner)])
            first = (yield Barrier("k", 2, payload="q1")).value
            second = (yield Barrier("k", 2, payload="q2")).value
            meetings.append((sorted(first), sorted(second)))

        engine.spawn(parent, [0, 1])
        engine.run()
        assert meetings == [((["p1", "q1"]), (["p2", "q2"]))]


class TestSpawnValidation:
    def test_spawn_requires_awake(self):
        world = World(source=Point(0, 0), positions=[Point(0, 0)])
        engine = Engine(world)
        with pytest.raises(ProtocolError, match="asleep"):
            engine.spawn(lambda p: iter(()), [1])

    def test_spawn_rejects_double_ownership(self):
        world = make_team_world(2)
        engine = Engine(world)
        engine.spawn(lambda p: iter(()), [0, 1])
        with pytest.raises(ProtocolError, match="already owned"):
            engine.spawn(lambda p: iter(()), [1])

    def test_spawn_requires_colocation(self):
        world = World(source=Point(0, 0), positions=[Point(5, 0)])
        world.mark_awake(1, 0.0, waker_id=SOURCE_ID)
        engine = Engine(world)
        with pytest.raises(CoLocationError):
            engine.spawn(lambda p: iter(()), [0, 1])

    def test_spawn_requires_robots(self):
        world = World(source=Point(0, 0), positions=[])
        engine = Engine(world)
        with pytest.raises(ProtocolError):
            engine.spawn(lambda p: iter(()), [])


class _Detour(Move):
    """A subclass of a shipped action: the engine dispatches on exact types."""


class TestUnknownActions:
    @pytest.mark.parametrize(
        "action", [object(), _Detour(Point(1, 0))], ids=["object", "move_subclass"]
    )
    def test_unknown_action_raises(self, action):
        world = World(source=Point(0, 0), positions=[])
        engine = Engine(world)

        def program(proc):
            yield action

        engine.spawn(program, [SOURCE_ID])
        with pytest.raises(ProtocolError, match="unknown action"):
            engine.run()


class TestIdleRobots:
    def test_finished_process_robot_visible_and_absorbable(self):
        world = make_team_world(2, positions=[Point(3.0, 0.5)])
        engine = Engine(world)
        observed = []

        def short_lived(proc):
            yield Move(Point(3.0, 0.0))
            # returns: robot 1 idles at (3, 0)

        def parent(proc):
            yield Fork([((1,), short_lived)])
            yield Wait(10.0)
            yield Move(Point(3.0, 0.0))
            snap = (yield Look()).value
            observed.extend(sorted(v.robot_id for v in snap.robots))

        engine.spawn(parent, [0, 1])
        engine.run()
        # Sees itself, the idle robot 1, and the sleeping robot at (3, .5).
        assert observed == [0, 1, 2]

    def test_wake_during_another_processes_flight(self):
        """Wakes only depend on co-location with the waking process."""
        world = make_team_world(2, positions=[Point(1.0, 0.0)])
        engine = Engine(world)

        def wanderer(proc):
            yield Move(Point(-20.0, 0.0))

        def parent(proc):
            yield Fork([((1,), wanderer)])
            yield Move(Point(1.0, 0.0))
            yield Wake(2)

        engine.spawn(parent, [0, 1])
        result = engine.run()
        assert world.robots[2].awake
        assert result.makespan == pytest.approx(1.0)
