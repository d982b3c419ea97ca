"""Engine fundamentals: motion, time, snapshots, waking."""

import pytest

from repro.geometry import Point
from repro.sim import (
    CoLocationError,
    Engine,
    Look,
    Move,
    ProtocolError,
    SOURCE_ID,
    Wait,
    WaitUntil,
    Wake,
    WakeError,
    World,
)


def run_world(positions, program, **world_kwargs):
    world = World(source=Point(0, 0), positions=positions, **world_kwargs)
    engine = Engine(world)
    engine.spawn(program, robot_ids=[SOURCE_ID])
    result = engine.run()
    return world, result


class TestMotion:
    def test_move_takes_distance_time(self):
        def program(proc):
            r = yield Move(Point(3, 4))
            assert r.time == pytest.approx(5.0)

        world, result = run_world([], program)
        assert result.termination_time == pytest.approx(5.0)
        assert world.source.position == Point(3, 4)
        assert world.source.odometer == pytest.approx(5.0)

    def test_zero_length_move(self):
        def program(proc):
            yield Move(Point(0, 0))
            yield Move(Point(0, 0))

        _, result = run_world([], program)
        assert result.termination_time == 0.0

    def test_wait_and_wait_until(self):
        def program(proc):
            r1 = yield Wait(2.5)
            assert r1.time == pytest.approx(2.5)
            r2 = yield WaitUntil(10.0)
            assert r2.time == pytest.approx(10.0)
            r3 = yield WaitUntil(1.0)  # in the past: no-op
            assert r3.time == pytest.approx(10.0)

        _, result = run_world([], program)
        assert result.termination_time == pytest.approx(10.0)

    def test_negative_wait_rejected(self):
        def program(proc):
            yield Wait(-1.0)

        with pytest.raises(ProtocolError):
            run_world([], program)


class TestLook:
    def test_sees_sleeping_within_radius_one(self):
        def program(proc):
            snap = (yield Look()).value
            ids = sorted(v.robot_id for v in snap.sleeping())
            assert ids == [1, 2]  # 0.5 and exactly 1.0 away; 1.5 is hidden

        run_world([Point(0.5, 0), Point(1.0, 0), Point(1.5, 0)], program)

    def test_sees_own_process_robots(self):
        def program(proc):
            snap = (yield Look()).value
            assert any(v.robot_id == SOURCE_ID and v.awake for v in snap.robots)

        run_world([], program)

    def test_visibility_moves_with_robot(self):
        def program(proc):
            yield Move(Point(5, 0))
            snap = (yield Look()).value
            assert [v.robot_id for v in snap.sleeping()] == [1]

        run_world([Point(5.4, 0)], program)

    def test_snapshot_is_instantaneous(self):
        def program(proc):
            t0 = proc.time
            yield Look()
            assert proc.time == t0

        run_world([Point(0.5, 0)], program)


class TestWake:
    def test_wake_joins_team(self):
        def program(proc):
            yield Move(Point(1, 0))
            yield Wake(1)
            assert proc.robot_ids == (SOURCE_ID, 1)
            yield Move(Point(2, 0))

        world, result = run_world([Point(1, 0)], program)
        assert world.robots[1].awake
        assert world.robots[1].wake_time == pytest.approx(1.0)
        assert world.robots[1].waker_id == SOURCE_ID
        assert world.robots[1].position == Point(2, 0)
        assert world.robots[1].odometer == pytest.approx(1.0)
        assert result.makespan == pytest.approx(1.0)

    def test_wake_spawns_process(self):
        log = []

        def child(proc):
            yield Move(Point(5, 5))
            log.append(proc.position)

        def program(proc):
            yield Move(Point(1, 0))
            yield Wake(1, program=lambda p: child(p))

        world, _ = run_world([Point(1, 0)], program)
        assert log == [Point(5, 5)]
        assert world.robots[1].position == Point(5, 5)

    def test_wake_requires_co_location(self):
        def program(proc):
            yield Wake(1)

        with pytest.raises(CoLocationError):
            run_world([Point(2, 0)], program)

    def test_wake_unknown_robot(self):
        def program(proc):
            yield Wake(99)

        with pytest.raises(WakeError):
            run_world([], program)

    def test_double_wake_rejected(self):
        def program(proc):
            yield Move(Point(1, 0))
            yield Wake(1)
            yield Wake(1)

        with pytest.raises(WakeError):
            run_world([Point(1, 0)], program)

    def test_makespan_is_last_wake(self):
        def program(proc):
            yield Move(Point(1, 0))
            yield Wake(1)
            yield Move(Point(2, 0))
            yield Wake(2)
            yield Move(Point(50, 0))  # long tail after the last wake

        _, result = run_world([Point(1, 0), Point(2, 0)], program)
        assert result.makespan == pytest.approx(2.0)
        assert result.termination_time == pytest.approx(50.0)
        assert result.woke_all

    def test_wake_times_keep_wake_order(self):
        """``wake_times`` lists the source, then the robots as they woke
        (here 3, 1, 2), not in id order."""

        def program(proc):
            for stop, rid in ((1, 3), (2, 1), (3, 2)):
                yield Move(Point(stop, 0))
                yield Wake(rid)

        _, result = run_world([Point(2, 0), Point(3, 0), Point(1, 0)], program)
        assert list(result.wake_times) == [SOURCE_ID, 3, 1, 2]
        assert result.wake_times[SOURCE_ID] == 0.0
        assert result.wake_times[3] == pytest.approx(1.0)
        assert result.wake_times[1] == pytest.approx(2.0)
        assert result.wake_times[2] == pytest.approx(3.0)


class TestResultRecord:
    def test_counts(self):
        def program(proc):
            yield Move(Point(1, 0))
            yield Wake(1)

        _, result = run_world([Point(1, 0), Point(9, 9)], program)
        assert result.n == 2
        assert result.awake_count == 2  # source + one woken
        assert not result.woke_all
        assert "awake" in result.summary()
