"""Robot state records.

A robot is pure state — identity, position, status, odometer; behaviour
lives in the *programs* run by engine processes.  The odometer tracks total
distance travelled (total time spent moving scales it by ``1/speed``); the
optional ``budget`` is the paper's energy budget ``B`` (Section 1.2):
"a robot can move for a total distance at most ``B``".  ``speed`` and
``crashed`` come from the world model (:class:`~repro.sim.WorldConfig`):
a process moves at the speed of its slowest member, and a crashed robot
parks the moment it is woken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..geometry import Point

__all__ = ["Robot", "SOURCE_ID"]

#: Conventional id of the source robot ``s`` (robot ids 1..n are the
#: initially-asleep robots, mirroring the paper's ``r_1 .. r_n``).
SOURCE_ID = 0


@dataclass(slots=True)
class Robot:
    """Mutable state of one robot.

    ``slots=True``: worlds allocate one record per robot and the engine
    reads/writes ``position``/``odometer`` in its hot loops — slotted
    attribute access is measurably faster and halves the per-robot
    memory footprint at 10^5-robot scale.
    """

    robot_id: int
    home: Point                      # initial position (the paper's p_i)
    position: Point                  # current position
    awake: bool = False
    wake_time: float | None = None   # simulation time it was woken (0 for s)
    waker_id: int | None = None      # robot that woke it (None for s)
    odometer: float = 0.0            # total distance travelled so far
    budget: float = math.inf         # energy budget B (inf = unconstrained)
    speed: float = 1.0               # movement speed (distance per unit time)
    crashed: bool = False            # fails the instant it is woken

    @property
    def remaining_budget(self) -> float:
        return self.budget - self.odometer

    def can_move(self, length: float) -> bool:
        """Whether a move of ``length`` fits in the remaining budget."""
        return self.odometer + length <= self.budget + 1e-9
