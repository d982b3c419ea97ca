"""Property-based engine invariants: conservation laws of the model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, distance
from repro.sim import (
    Engine,
    Look,
    Move,
    SOURCE_ID,
    Wake,
    World,
)

coords = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
swarm = st.lists(st.tuples(coords, coords), min_size=1, max_size=10)


class TestGreedyChaseInvariants:
    """A nearest-first chase program exercised over random swarms."""

    @staticmethod
    def _chase(proc):
        while True:
            snap = (yield Look()).value
            sleeping = snap.sleeping()
            if not sleeping:
                # Scan outward in a square spiral until something appears
                # or we give up (bounded by the swarm diameter here).
                found = False
                for radius in range(1, 40):
                    for corner in (
                        Point(radius, 0), Point(0, radius),
                        Point(-radius, 0), Point(0, -radius),
                    ):
                        yield Move(corner)
                        snap = (yield Look()).value
                        if snap.sleeping():
                            found = True
                            break
                    if found:
                        break
                if not found:
                    return
                continue
            target = min(sleeping, key=lambda v: distance(v.position, snap.observer))
            yield Move(target.position)
            yield Wake(target.robot_id)

    @given(swarm)
    @settings(max_examples=25)
    def test_chase_conserves_model_invariants(self, raw):
        positions = [Point(x, y) for x, y in raw]
        world = World(source=Point(0, 0), positions=positions)
        engine = Engine(world)
        engine.spawn(self._chase, [SOURCE_ID])
        result = engine.run()

        # 1. Wake times are non-decreasing along the waker chain.
        for robot in world.robots.values():
            if robot.waker_id is not None:
                waker = world.robots[robot.waker_id]
                assert waker.wake_time <= robot.wake_time + 1e-9

        # 2. Sleeping robots never move: their position equals their home.
        for robot in world.robots.values():
            if not robot.awake:
                assert robot.position == robot.home
                assert robot.odometer == 0.0

        # 3. Odometers are bounded by active time (unit speed).
        for robot in world.robots.values():
            if robot.awake:
                active = result.termination_time - (robot.wake_time or 0.0)
                assert robot.odometer <= active + 1e-6

        # 4. Makespan equals the max wake time.
        wake_times = [
            r.wake_time for r in world.robots.values() if r.wake_time is not None
        ]
        assert result.makespan == pytest.approx(max(wake_times))

        # 5. The total odometer equals the robot-weighted trace moves (a
        # team move charges every member once).
        weighted = sum(
            e.data["length"] * e.data["robots"]
            for e in result.trace.of_kind("move")
        )
        assert result.total_energy == pytest.approx(weighted, rel=1e-9)

    @given(swarm)
    @settings(max_examples=15)
    def test_rerun_is_deterministic(self, raw):
        positions = [Point(x, y) for x, y in raw]

        def execute():
            world = World(source=Point(0, 0), positions=positions)
            engine = Engine(world)
            engine.spawn(self._chase, [SOURCE_ID])
            result = engine.run()
            return (
                result.makespan,
                result.termination_time,
                tuple(sorted(result.wake_times.items())),
            )

        assert execute() == execute()
