"""World models: speeds, visibility, heterogeneous budgets, crash-on-wake."""

import math

import pytest

from repro.geometry import Point
from repro.sim import (
    AbsorbError,
    Absorb,
    Engine,
    Look,
    Move,
    SOURCE_ID,
    Wake,
    World,
    WorldConfig,
)


def run_world(world, program):
    engine = Engine(world)
    engine.spawn(program, [SOURCE_ID])
    return engine.run()


class TestConfigValidation:
    def test_default_is_the_paper_world(self):
        config = WorldConfig()
        assert config.is_default()
        assert config.min_speed() == 1.0
        assert config.describe() == "default"

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError, match="visibility_radius"):
            WorldConfig(visibility_radius=0.0)
        with pytest.raises(ValueError, match="speeds must be positive"):
            WorldConfig(speed=-1.0)
        with pytest.raises(ValueError, match="slow_fraction"):
            WorldConfig(slow_fraction=1.5)
        with pytest.raises(ValueError, match="crash_on_wake"):
            WorldConfig(crash_on_wake=-0.1)
        with pytest.raises(ValueError, match="budgets must be positive"):
            WorldConfig(budget=0.0)

    def test_override_validation(self):
        config = WorldConfig()
        assert config.replace(slow_fraction=0.5).slow_fraction == 0.5
        with pytest.raises(ValueError, match="unknown world parameter"):
            config.replace(gravity=9.8)
        with pytest.raises(ValueError, match="expects a number"):
            config.replace(speed="fast")
        with pytest.raises(ValueError, match="expects a number"):
            config.replace(failure_seed=1.5)

    def test_budget_cap_composition(self):
        config = WorldConfig(budget=10.0, low_battery_budget=3.0)
        capped = config.with_budget_cap(5.0)
        assert capped.budget == 5.0
        assert capped.low_battery_budget == 3.0
        assert config.with_budget_cap(math.inf) is config

    def test_min_speed_ignores_inactive_slow_cohort(self):
        assert WorldConfig(slow_speed=0.1).min_speed() == 1.0
        assert WorldConfig(slow_fraction=0.5, slow_speed=0.25).min_speed() == 0.25
        assert WorldConfig(speed=2.0).min_speed() == 2.0


class TestSpeeds:
    def test_travel_time_is_distance_over_speed(self):
        world = World(
            source=Point(0, 0), positions=[], config=WorldConfig(speed=2.0)
        )

        def program(proc):
            yield Move(Point(10, 0))

        result = run_world(world, program)
        assert result.termination_time == pytest.approx(5.0)
        assert world.source.odometer == pytest.approx(10.0)  # energy = distance

    def test_team_moves_at_slowest_member(self):
        config = WorldConfig(slow_fraction=1.0, slow_speed=0.5)
        world = World(source=Point(0, 0), positions=[Point(1, 0)], config=config)
        assert world.robots[1].speed == 0.5

        def program(proc):
            yield Move(Point(1, 0))       # source alone: unit speed, 1s
            yield Wake(1)                 # slow robot joins the team
            yield Move(Point(3, 0))       # 2 units at speed 0.5: 4s

        result = run_world(world, program)
        assert result.makespan == pytest.approx(1.0)
        assert result.termination_time == pytest.approx(5.0)

    def test_slow_assignment_deterministic(self):
        config = WorldConfig(slow_fraction=0.5, slow_speed=0.25, failure_seed=9)
        positions = [Point(i, 0) for i in range(1, 9)]
        speeds = lambda: [  # noqa: E731 - tiny test helper
            World(source=Point(0, 0), positions=positions, config=config)
            .robots[i].speed
            for i in range(1, 9)
        ]
        assert speeds() == speeds()
        assert speeds().count(0.25) == 4  # round(0.5 * 8)


class TestVisibility:
    def test_radius_controls_look(self):
        positions = [Point(1.5, 0)]

        def program(proc):
            snap = (yield Look()).value
            seen.append([v.robot_id for v in snap.sleeping()])

        for radius, expected in ((1.0, []), (2.0, [1])):
            seen = []
            world = World(
                source=Point(0, 0), positions=positions,
                config=WorldConfig(visibility_radius=radius),
            )
            run_world(world, program)
            assert seen == [expected]


class TestHeterogeneousBudgets:
    def test_low_battery_cohort_assigned(self):
        config = WorldConfig(
            budget=100.0, low_battery_fraction=0.5, low_battery_budget=2.0,
            failure_seed=3,
        )
        world = World(
            source=Point(0, 0),
            positions=[Point(i, 0) for i in range(1, 7)],
            config=config,
        )
        budgets = [world.robots[i].budget for i in range(1, 7)]
        assert budgets.count(2.0) == 3
        assert budgets.count(100.0) == 3
        assert world.source.budget == 100.0


class TestCrashOnWake:
    def crash_world(self):
        # crash_on_wake=1.0: every woken robot crashes, deterministically.
        return World(
            source=Point(0, 0),
            positions=[Point(1, 0), Point(2, 0)],
            config=WorldConfig(crash_on_wake=1.0),
        )

    def test_crashed_robot_counts_awake_but_never_joins(self):
        world = self.crash_world()

        def child(proc):  # pragma: no cover - must never run
            raise AssertionError("crashed robot ran its program")
            yield

        def program(proc):
            yield Move(Point(1, 0))
            outcome = yield Wake(1, program=child)
            outcomes.append(outcome.value)
            yield Move(Point(2, 0))
            outcome = yield Wake(2)  # team-join flavor
            outcomes.append(outcome.value)
            assert proc.robot_ids == (0,)  # nobody joined

        outcomes = []
        result = run_world(world, program)
        assert outcomes == [None, None]
        assert result.woke_all
        assert result.makespan == pytest.approx(2.0)
        assert world.robots[1].awake and world.robots[1].crashed
        assert [r for r in world.crashed_robots()] == [1, 2]

    def test_crashed_robot_visible_but_not_absorbable(self):
        world = self.crash_world()

        def program(proc):
            yield Move(Point(1, 0))
            yield Wake(1)
            snap = (yield Look()).value
            awake_ids = [v.robot_id for v in snap.awake()]
            assert 1 in awake_ids  # parked in place, still visible
            yield Absorb([1])  # engine must refuse: crashed robots are gone

        with pytest.raises(AbsorbError, match="crashed"):
            run_world(world, program)

    def test_crash_assignment_independent_of_instance_seed(self):
        # Same failure_seed, different robot layout: same crash pattern
        # length-wise; draws depend only on (config, n).
        config = WorldConfig(crash_on_wake=0.5, failure_seed=11)
        flags = [
            [
                World(
                    source=Point(0, 0),
                    positions=[Point(i + 1, dy) for i in range(10)],
                    config=config,
                ).robots[i + 1].crashed
                for i in range(10)
            ]
            for dy in (0.0, 1.0)
        ]
        assert flags[0] == flags[1]
