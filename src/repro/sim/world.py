"""The world: world model, robot table, visibility index, wake bookkeeping.

The world is engine-internal ground truth.  Distributed programs never read
it directly — they learn about other robots exclusively through ``Look``
snapshots and co-located exchanges, as the model prescribes.  Tests and
metrics, on the other hand, inspect the world freely (it plays the role of
the omniscient observer used in the paper's proofs).

The *world model* — visibility radius, per-robot speed profile, energy
budgets and failure injection — is a declarative :class:`WorldConfig`.
The paper's setting is the all-defaults config (unit speed, unit
visibility, unbounded uniform energy, no failures); scenario registrations
(:mod:`repro.instances.registry`) attach non-default configs to instance
families so robustness questions ("20% slow robots", "crash-on-wake")
become sweepable workloads.

Sleeping robots never move, so they are indexed once in a
visibility-radius-cell :class:`~repro.geometry.frozen.FrozenGridHash` keyed
for the snapshot queries; a robot is removed from the index the moment it
wakes.  Awake robots are tracked by the engine's processes (their
positions change with their process), plus a registry of *idle* awake
robots whose process has finished.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Sequence

from ..geometry import EPS, FrozenGridHash, Point
from .robot import SOURCE_ID, Robot

__all__ = ["World", "WorldConfig", "VISIBILITY_RADIUS", "CO_LOCATION_TOL"]

#: The paper's visibility radius: awake robots see robots "in its
#: distance-1 vicinity".
VISIBILITY_RADIUS = 1.0

#: Tolerance for co-location checks (wake, absorb, barrier exchange).
#: Positions are produced as exact move targets, so genuine rendezvous are
#: exact; the slack only forgives accumulated float error in computed
#: meeting points.
CO_LOCATION_TOL = 1e-6


@dataclass(frozen=True)
class WorldConfig:
    """Declarative world model for a simulation run.

    All fields default to the paper's setting, so ``WorldConfig()`` is the
    classic dFTP world.  The stochastic knobs (``slow_fraction``,
    ``low_battery_fraction``, ``crash_on_wake``) are resolved into concrete
    per-robot assignments by :class:`World` with a dedicated
    ``failure_seed`` rng, independent of instance generation — the same
    config on the same instance always produces the same world.
    """

    #: Radius of ``Look`` snapshots (the paper's distance-1 vicinity).
    visibility_radius: float = VISIBILITY_RADIUS
    #: Base movement speed of every robot (distance per unit time).
    speed: float = 1.0
    #: Fraction of the sleeping robots moving at ``slow_speed``.
    slow_fraction: float = 0.0
    #: Speed of the slow cohort (only used when ``slow_fraction > 0``).
    slow_speed: float = 0.5
    #: Uniform per-robot energy budget ``B`` (total travel distance).
    budget: float = math.inf
    #: Optional override of ``budget`` for the source robot.
    source_budget: float | None = None
    #: Fraction of the sleeping robots carrying ``low_battery_budget``.
    low_battery_fraction: float = 0.0
    #: Budget of the low-battery cohort.
    low_battery_budget: float = math.inf
    #: Probability that a robot crashes the instant it is woken: it counts
    #: as awake but never moves or computes (it parks at its position).
    crash_on_wake: float = 0.0
    #: Seed for the per-robot assignment of the stochastic knobs above.
    failure_seed: int = 0

    def __post_init__(self) -> None:
        if self.visibility_radius <= 0:
            raise ValueError("visibility_radius must be positive")
        if self.speed <= 0 or self.slow_speed <= 0:
            raise ValueError("robot speeds must be positive")
        for name in ("slow_fraction", "low_battery_fraction", "crash_on_wake"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.budget <= 0 or self.low_battery_budget <= 0:
            raise ValueError("energy budgets must be positive")
        if self.source_budget is not None and self.source_budget <= 0:
            raise ValueError("source_budget must be positive")

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """Config field names, the vocabulary of ``world_params`` overrides."""
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def validate_params(cls, params: Mapping[str, Any]) -> dict[str, Any]:
        """Check override names/types; returns a plain sorted-key dict.

        Every override must name a config field and carry a number (or an
        int seed / ``None`` for ``source_budget``); a bad override raises
        ``ValueError`` before any simulation starts.
        """
        known = cls.field_names()
        resolved: dict[str, Any] = {}
        for name in sorted(params):
            if name not in known:
                raise ValueError(
                    f"unknown world parameter {name!r}; choose from {sorted(known)}"
                )
            value = params[name]
            if name == "failure_seed":
                ok = isinstance(value, int) and not isinstance(value, bool)
            elif name == "source_budget":
                ok = value is None or (
                    isinstance(value, (int, float)) and not isinstance(value, bool)
                )
            else:
                ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            if not ok:
                raise ValueError(
                    f"world parameter {name!r} expects a number, got {value!r}"
                )
            resolved[name] = value
        return resolved

    def replace(self, **overrides: Any) -> "WorldConfig":
        """A copy with ``overrides`` applied (validated like construction)."""
        return dataclasses.replace(self, **self.validate_params(overrides))

    def min_speed(self) -> float:
        """Lower bound on any robot's speed (the window-calibration floor)."""
        if self.slow_fraction > 0.0:
            return min(self.speed, self.slow_speed)
        return self.speed

    def is_default(self) -> bool:
        """Whether this is the paper's world (all fields at their default)."""
        return self == WorldConfig()

    def with_budget_cap(self, cap: float) -> "WorldConfig":
        """A copy whose budgets are additionally capped at ``cap``.

        Used to combine a scenario's energy model with an algorithm's
        enforced theorem budget — both caps apply.
        """
        if cap == math.inf:
            return self
        return dataclasses.replace(
            self,
            budget=min(self.budget, cap),
            low_battery_budget=min(self.low_battery_budget, cap),
            source_budget=(
                None if self.source_budget is None else min(self.source_budget, cap)
            ),
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe field mapping (infinite budgets become ``None`` —
        JSON has no ``inf``; ``None`` reads as "unconstrained")."""
        payload: dict[str, Any] = {}
        for name in self.field_names():
            value = getattr(self, name)
            payload[name] = None if value == math.inf else value
        return payload

    def describe(self) -> str:
        """Compact ``name=value`` listing of the non-default fields."""
        deltas = [
            f"{f.name}={getattr(self, f.name)}"
            for f in dataclasses.fields(self)
            if getattr(self, f.name) != f.default
        ]
        return ",".join(deltas) if deltas else "default"


class World:
    """Ground-truth state of a simulation."""

    def __init__(
        self,
        source: Point,
        positions: Sequence[Point],
        config: WorldConfig | None = None,
    ) -> None:
        """Create a world with an awake source and ``len(positions)`` sleepers.

        ``config`` is the full world model, budgets included; when omitted
        it is the paper's world (``WorldConfig()``).  Every robot's record
        is built here, once: a run that wakes the whole swarm reads every
        record anyway.
        """
        if config is None:
            config = WorldConfig()
        self.config = config
        self.visibility_radius = config.visibility_radius
        points = list(positions)
        self._homes = points
        speeds, budgets, crashed = self._assign_profiles(config, len(points))
        source_budget = (
            config.budget if config.source_budget is None else config.source_budget
        )
        # Positional Robot(...) calls: constructing 10^5 records is a
        # measurable slice of setup; field order is pinned by the dataclass
        # definition in robot.py.
        robots: Dict[int, Robot] = {
            SOURCE_ID: Robot(SOURCE_ID, source, source, True, 0.0, None, 0.0,
                             source_budget, config.speed)
        }
        for i, (p, b, v, c) in enumerate(zip(points, budgets, speeds, crashed), 1):
            robots[i] = Robot(i, p, p, False, None, None, 0.0, b, v, c)
        self.robots = robots
        # Sleeping robots never move — only disappear as they wake — so the
        # index is packed once into a FrozenGridHash (wakes are O(1) flips).
        self._sleeping_index = FrozenGridHash(
            points, cell_size=self.visibility_radius,
            keys=range(1, len(points) + 1),
        )
        self.last_wake_time = 0.0
        self._wake_order: list[int] = [SOURCE_ID]

    @staticmethod
    def _assign_profiles(
        config: WorldConfig, n: int
    ) -> tuple[list[float], list[float], list[bool]]:
        """Resolve the stochastic knobs into per-sleeper assignments.

        Draws happen in a fixed order (slow sample, low-battery sample,
        crash coin flips) from ``random.Random(failure_seed)``, so the
        assignment depends only on ``(config, n)`` — a cache-stable,
        platform-independent function of the request.
        """
        speeds = [config.speed] * n
        budgets = [config.budget] * n
        crashed = [False] * n
        rng = random.Random(config.failure_seed)
        for i in rng.sample(range(n), round(config.slow_fraction * n)):
            speeds[i] = config.slow_speed
        for i in rng.sample(range(n), round(config.low_battery_fraction * n)):
            budgets[i] = config.low_battery_budget
        if config.crash_on_wake > 0.0:
            crashed = [rng.random() < config.crash_on_wake for _ in range(n)]
        return speeds, budgets, crashed

    # -- queries -------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of initially-asleep robots (the paper's ``n``)."""
        return len(self.robots) - 1

    @property
    def source(self) -> Robot:
        return self.robots[SOURCE_ID]

    def sleeping_items(
        self, center: Point, radius: float
    ) -> list[tuple[int, Point]]:
        """``(robot_id, position)`` pairs of sleeping robots in the ball.

        The engine's snapshot hot path: positions come straight from the
        index (a sleeping robot's indexed position *is* its position), so
        no :class:`Robot` lookups are needed.
        """
        return self._sleeping_index.query_ball(center, radius, tol=EPS)

    def sleeping_count(self) -> int:
        return len(self._sleeping_index)

    def all_awake(self) -> bool:
        return len(self._sleeping_index) == 0

    def awake_count(self) -> int:
        """Number of awake robots (the source plus every wake so far)."""
        return len(self._wake_order)

    def wake_order(self) -> list[int]:
        """Robot ids in wake order (source first)."""
        return list(self._wake_order)

    def wake_times(self) -> dict[int, float]:
        """Wake time per awake robot id, in wake order (source first)."""
        robots = self.robots
        return {rid: robots[rid].wake_time for rid in self._wake_order}

    def crashed_robots(self) -> list[int]:
        """Ids of robots flagged to crash on wake (whether woken yet or not)."""
        return [r.robot_id for r in self.robots.values() if r.crashed]

    def max_odometer(self) -> float:
        """Largest per-robot travelled distance (energy usage)."""
        return max(r.odometer for r in self.robots.values())

    def total_odometer(self) -> float:
        """Total distance travelled by the swarm.

        Summed in robot-id order (the table's insertion order); summation
        order is part of the byte-identical results contract.
        """
        return sum(r.odometer for r in self.robots.values())

    # -- mutation (engine only) ------------------------------------------
    def mark_awake(self, robot_id: int, time: float, waker_id: int | None) -> Robot:
        """Flip a sleeping robot to awake (engine-internal)."""
        robot = self.robots[robot_id]
        if robot.awake:
            raise ValueError(f"robot {robot_id} is already awake")
        robot.awake = True
        robot.wake_time = time
        robot.waker_id = waker_id
        self._sleeping_index.remove(robot_id)
        self.last_wake_time = max(self.last_wake_time, time)
        self._wake_order.append(robot_id)
        return robot

    # -- convenience ---------------------------------------------------------
    def homes(self) -> list[Point]:
        """Initial positions of the initially-asleep robots, in id order."""
        return list(self._homes)

    def describe(self) -> str:
        awake = self.awake_count()
        return (
            f"World(n={self.n}, awake={awake}/{len(self.robots)}, "
            f"last_wake={self.last_wake_time:.3f})"
        )
