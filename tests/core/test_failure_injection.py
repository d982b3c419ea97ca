"""Failure injection: the system fails loudly, never silently.

The reproduction's correctness story leans on hard failure modes: energy
overruns raise, window miscalibrations raise, protocol violations raise,
runaway compute loops raise.  These tests inject each fault and assert the
loud failure (and that the world state remains diagnosable).
"""

import pytest

from repro.core.runner import run_agrid
from repro.geometry import Point
from repro.instances import beaded_path, uniform_disk
from repro.sim import (
    Annotate,
    Engine,
    EnergyBudgetExceeded,
    Move,
    ProtocolError,
    RunawayProcessError,
    SOURCE_ID,
    Wait,
    World,
    WorldConfig,
)


class TestEnergyFaults:
    def test_aseparator_with_starved_budget_raises(self):
        """ASeparator assumes unconstrained energy; a tiny budget must
        surface as EnergyBudgetExceeded, not as robots quietly missing."""
        from repro.core.aseparator import aseparator_program

        inst = uniform_disk(n=30, rho=8.0, seed=1)
        ell, rho = inst.default_inputs()
        world = inst.world(config=WorldConfig(budget=5.0))
        engine = Engine(world)
        engine.spawn(aseparator_program(ell=ell, rho=float(rho)), [SOURCE_ID])
        with pytest.raises(EnergyBudgetExceeded) as err:
            engine.run()
        assert err.value.robot_id == SOURCE_ID
        # The world is inspectable post-mortem.
        assert world.source.odometer <= 5.0 + 1e-9

    def test_agrid_with_halved_budget_raises(self):
        """Enforcing half the certified budget must trip the engine check
        (the budget function is not grossly over-provisioned)."""
        from repro.core.agrid import agrid_energy_budget, agrid_program

        inst = beaded_path(n=20, spacing=1.0)
        world = inst.world(config=WorldConfig(budget=agrid_energy_budget(1) / 40.0))
        engine = Engine(world)
        engine.spawn(agrid_program(ell=1), [SOURCE_ID])
        with pytest.raises(EnergyBudgetExceeded):
            engine.run()


class TestWindowFaults:
    def test_agrid_window_miscalibration_raises(self, monkeypatch):
        """Shrinking the window arithmetic must trigger the loud overrun
        assertion, not silent wave corruption."""
        import repro.core.agrid as agrid_mod

        real_window = agrid_mod.agrid_window
        monkeypatch.setattr(
            agrid_mod, "agrid_window", lambda ell: real_window(ell) / 20.0
        )
        inst = beaded_path(n=10, spacing=1.0)
        with pytest.raises(ProtocolError, match="window calibration"):
            run_agrid(inst, ell=1)


class TestEngineFaults:
    def test_runaway_zero_time_loop_detected(self, monkeypatch):
        import repro.sim.engine as engine_mod

        monkeypatch.setattr(engine_mod, "_MAX_IMMEDIATE_ACTIONS", 50)
        world = World(source=Point(0, 0), positions=[])
        engine = Engine(world)

        def spinner(proc):
            while True:
                yield Annotate("spin")

        engine.spawn(spinner, [SOURCE_ID])
        with pytest.raises(RunawayProcessError):
            engine.run()

    def test_partial_progress_preserved_after_fault(self):
        """A fault mid-run leaves already-woken robots awake (post-mortem
        state is meaningful for debugging)."""
        world = World(
            source=Point(0, 0),
            positions=[Point(1, 0), Point(50, 0)],
            config=WorldConfig(budget=10.0),
        )
        engine = Engine(world)

        def program(proc):
            from repro.sim import Wake

            yield Move(Point(1, 0))
            yield Wake(1)
            yield Move(Point(50, 0))  # blows the budget

        engine.spawn(program, [SOURCE_ID])
        with pytest.raises(EnergyBudgetExceeded):
            engine.run()
        assert world.robots[1].awake
        assert not world.robots[2].awake
        assert world.last_wake_time == pytest.approx(1.0)

    def test_engine_run_until_checkpointing(self):
        """run(until=...) pauses the world mid-flight and resumes exactly."""
        world = World(source=Point(0, 0), positions=[])
        engine = Engine(world)

        def program(proc):
            yield Move(Point(10, 0))
            yield Wait(5.0)

        engine.spawn(program, [SOURCE_ID])
        partial = engine.run(until=3.0)
        assert partial.termination_time <= 3.0
        final = engine.run()
        assert final.termination_time == pytest.approx(15.0)
        assert world.source.position == Point(10, 0)
