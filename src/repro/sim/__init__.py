"""Event-driven simulator of the paper's robot-swarm model.

The model mapping (robot capabilities to actions) is in the
:mod:`repro.sim.actions` module docstring.  Typical usage::

    from repro.sim import Engine, World, Move, Look, Wake

    world = World(source=Point(0, 0), positions=[Point(0.5, 0)])

    def program(proc):
        snap = (yield Look()).value
        target = snap.sleeping()[0]
        yield Move(target.position)
        yield Wake(target.robot_id)   # joins the team

    engine = Engine(world)
    engine.spawn(program, robot_ids=[0])
    result = engine.run()
"""

from .actions import (
    Absorb,
    Action,
    Annotate,
    Barrier,
    Fork,
    LatticeAxis,
    Look,
    Move,
    Program,
    Result,
    RobotView,
    Snapshot,
    Sweep,
    TeamSweep,
    Tour,
    Wait,
    WaitUntil,
    Wake,
)
from .engine import Engine, ProcessView, SimulationResult
from .errors import (
    AbsorbError,
    BarrierError,
    CoLocationError,
    EnergyBudgetExceeded,
    ForkError,
    ProtocolError,
    RunawayProcessError,
    SimulationDeadlock,
    SimulationError,
    WakeError,
)
from .robot import SOURCE_ID, Robot
from .trace import NullTrace, PhaseInterval, Trace, TraceEvent
from .world import CO_LOCATION_TOL, VISIBILITY_RADIUS, World, WorldConfig

__all__ = [
    "Absorb",
    "Action",
    "Annotate",
    "Barrier",
    "Fork",
    "Look",
    "Move",
    "LatticeAxis",
    "Sweep",
    "TeamSweep",
    "Tour",
    "Program",
    "Result",
    "RobotView",
    "Snapshot",
    "Wait",
    "WaitUntil",
    "Wake",
    "Engine",
    "ProcessView",
    "SimulationResult",
    "AbsorbError",
    "BarrierError",
    "CoLocationError",
    "EnergyBudgetExceeded",
    "ForkError",
    "ProtocolError",
    "RunawayProcessError",
    "SimulationDeadlock",
    "SimulationError",
    "WakeError",
    "SOURCE_ID",
    "Robot",
    "PhaseInterval",
    "NullTrace",
    "Trace",
    "TraceEvent",
    "CO_LOCATION_TOL",
    "VISIBILITY_RADIUS",
    "World",
    "WorldConfig",
]
