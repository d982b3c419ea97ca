"""Energy accounting and budget enforcement."""

import math

import pytest

from repro.geometry import Point
from repro.sim import (
    Engine,
    EnergyBudgetExceeded,
    Move,
    SOURCE_ID,
    Wake,
    World,
    WorldConfig,
)


class TestOdometer:
    def test_odometer_accumulates_exact_path_length(self):
        world = World(source=Point(0, 0), positions=[])
        engine = Engine(world)

        def program(proc):
            yield Move(Point(1, 0))
            yield Move(Point(1, 1))
            yield Move(Point(0, 1))
            yield Move(Point(0, 0))

        engine.spawn(program, [SOURCE_ID])
        engine.run()
        assert world.source.odometer == pytest.approx(4.0)

    def test_woken_robot_starts_at_zero(self):
        world = World(source=Point(0, 0), positions=[Point(1, 0)])
        engine = Engine(world)

        def program(proc):
            yield Move(Point(1, 0))
            yield Wake(1)

        engine.spawn(program, [SOURCE_ID])
        engine.run()
        assert world.robots[1].odometer == 0.0

    def test_total_and_max(self):
        world = World(source=Point(0, 0), positions=[Point(2, 0)])
        engine = Engine(world)

        def program(proc):
            yield Move(Point(2, 0))
            yield Wake(1)
            yield Move(Point(3, 0))

        engine.spawn(program, [SOURCE_ID])
        result = engine.run()
        assert result.max_energy == pytest.approx(3.0)   # source: 2 + 1
        assert result.total_energy == pytest.approx(4.0)  # + robot 1's 1


class TestBudgets:
    def test_budget_violation_raises_with_details(self):
        world = World(source=Point(0, 0), positions=[], config=WorldConfig(budget=5.0))
        engine = Engine(world)

        def program(proc):
            yield Move(Point(4, 0))
            yield Move(Point(8, 0))  # total 8 > 5

        engine.spawn(program, [SOURCE_ID])
        with pytest.raises(EnergyBudgetExceeded) as err:
            engine.run()
        assert err.value.robot_id == SOURCE_ID
        assert err.value.budget == pytest.approx(5.0)

    def test_budget_checked_before_moving(self):
        # The violating move must not partially execute.
        world = World(source=Point(0, 0), positions=[], config=WorldConfig(budget=1.0))
        engine = Engine(world)

        def program(proc):
            yield Move(Point(10, 0))

        engine.spawn(program, [SOURCE_ID])
        with pytest.raises(EnergyBudgetExceeded):
            engine.run()
        assert world.source.position == Point(0, 0)
        assert world.source.odometer == 0.0

    def test_exact_budget_is_allowed(self):
        world = World(source=Point(0, 0), positions=[], config=WorldConfig(budget=5.0))
        engine = Engine(world)

        def program(proc):
            yield Move(Point(5, 0))

        engine.spawn(program, [SOURCE_ID])
        engine.run()
        assert world.source.odometer == pytest.approx(5.0)

    def test_source_budget_override(self):
        world = World(
            source=Point(0, 0),
            positions=[Point(1, 0)],
            config=WorldConfig(budget=1.0, source_budget=math.inf),
        )
        engine = Engine(world)

        def program(proc):
            yield Move(Point(50, 0))

        engine.spawn(program, [SOURCE_ID])
        engine.run()
        assert world.source.odometer == pytest.approx(50.0)

    def test_remaining_budget_helper(self):
        world = World(source=Point(0, 0), positions=[], config=WorldConfig(budget=10.0))
        assert world.source.remaining_budget == 10.0
        assert world.source.can_move(10.0)
        assert not world.source.can_move(10.1)
