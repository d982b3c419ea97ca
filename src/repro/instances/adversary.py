"""Two-pass adversary realizing the lower-bound placements.

The proofs of Theorems 2 and 3 place each hidden robot at "the last
position of its disk to be explored" by the algorithm under attack.
Against a concrete implementation we realize this in two passes:

1. **Probe pass** — run the algorithm on a *decoy* instance (robots at the
   disk centers) while recording every snapshot position.  For each disk,
   lay a fine lattice of candidate points and compute when each candidate
   was first covered (within visibility radius 1 of some snapshot).
2. **Pin** — place each robot at its disk's latest-covered candidate (or
   at any never-covered candidate, which is a certified algorithm failure
   for the energy experiment), and re-run on the pinned instance.

This is not a fully-online adversary (the algorithm may behave differently
once placements change earlier discoveries), but it produces exactly the
hard instances the Ω-bounds describe for discovery-dominated algorithms,
and the FIG5 bench shows the measured makespans tracking
``ell^2 * log m``.

Coverage bookkeeping piggybacks on the trace: ``Look`` events store the
observer position when ``keep_looks`` is enabled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

from ..geometry import Point, distance
from ..sim import SOURCE_ID, Engine, Trace, WorldConfig
from ..sim.actions import Program
from .lower_bounds import GridOfDisks
from .spec import Instance

__all__ = [
    "CoverageMap",
    "record_look_positions",
    "disk_candidates",
    "latest_covered_point",
    "adversarial_grid_instance",
    "coverage_fraction",
]


@dataclass
class CoverageMap:
    """Snapshot positions with timestamps from one probe run."""

    looks: List[tuple[float, Point]]

    def first_cover_time(self, p: Point, radius: float = 1.0) -> float:
        """Time the point ``p`` was first within ``radius`` of a snapshot
        (``inf`` if never covered)."""
        for t, center in self.looks:
            if distance(center, p) <= radius + 1e-9:
                return t
        return math.inf


def record_look_positions(
    instance: Instance,
    program: Program,
    budget: float = math.inf,
) -> tuple[CoverageMap, float]:
    """Probe pass: run ``program`` on ``instance`` recording snapshots.

    Returns the coverage map and the run's makespan.  Energy overruns are
    tolerated here (the probe only measures what *could* be seen).
    """
    world = instance.world(WorldConfig(budget=budget))
    trace = Trace(keep_looks=True)
    engine = Engine(world, trace=trace)
    engine.spawn(program, robot_ids=[SOURCE_ID])
    try:
        result = engine.run()
        makespan = result.makespan
    except Exception:
        makespan = world.last_wake_time
    looks = [
        (e.time, e.data["at"])
        for e in trace.events
        if e.kind == "look" and "at" in e.data
    ]
    return CoverageMap(looks=looks), makespan


def disk_candidates(center: Point, radius: float, resolution: int = 5) -> list[Point]:
    """A lattice of candidate hiding spots inside ``B(center, radius)``."""
    pts: list[Point] = [center]
    for i in range(-resolution, resolution + 1):
        for j in range(-resolution, resolution + 1):
            p = Point(
                center[0] + i * radius / resolution,
                center[1] + j * radius / resolution,
            )
            if distance(p, center) <= radius + 1e-12 and (i, j) != (0, 0):
                pts.append(p)
    return pts


def latest_covered_point(
    coverage: CoverageMap,
    center: Point,
    radius: float,
    resolution: int = 5,
) -> Point:
    """The candidate of ``B(center, radius)`` covered last (never-covered
    candidates win outright)."""
    best_point = center
    best_time = -1.0
    for p in disk_candidates(center, radius, resolution):
        t = coverage.first_cover_time(p)
        if math.isinf(t):
            return p
        if t > best_time:
            best_time = t
            best_point = p
    return best_point


def adversarial_grid_instance(
    construction: GridOfDisks,
    program_factory: Callable[[Instance], Program],
    resolution: int = 4,
) -> Instance:
    """Run the two-pass adversary against the Thm 2 grid of disks.

    ``program_factory`` builds the algorithm's source program for a given
    instance (the probe and the pinned run may need different ``(ell,rho)``
    inputs, though the decoy and pinned instances share parameters by
    construction).
    """
    decoy = construction.instance()
    coverage, _ = record_look_positions(decoy, program_factory(decoy))
    placements = [
        latest_covered_point(coverage, c, construction.disk_radius, resolution)
        for c in construction.centers
    ]
    return construction.instance(placements)


def coverage_fraction(
    coverage: CoverageMap,
    center: Point,
    radius: float,
    resolution: int = 12,
) -> float:
    """Fraction of ``B(center, radius)`` candidates ever covered — the
    Thm 3 energy experiment's success measure."""
    candidates = disk_candidates(center, radius, resolution)
    covered = sum(
        1 for p in candidates if math.isfinite(coverage.first_cover_time(p))
    )
    return covered / len(candidates)
