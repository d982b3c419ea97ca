"""Actions a robot process may yield to the simulation engine.

The paper's robots follow the Look-Compute-Move model (Section 1.2): they
*look* (instantaneous snapshot of the distance-1 vicinity), *compute*
(free), and *move* at unit speed; they may also wait, wake a co-located
sleeping robot while handing it information, and exchange variables with
co-located robots.  Each of those capabilities maps to one action below.
Two further actions — :class:`Fork` and :class:`Absorb` — implement the
paper's team splits and rendezvous merges at the process granularity (see
DESIGN.md §3), and :class:`Barrier` realizes "wait until the four teams can
merge and share their variables".  :class:`TeamSweep` is the split, the
per-robot walks and the regroup in one action, for a team exploration
that needs no snapshot on the way.

A program is a generator yielding actions; every ``yield`` evaluates to a
:class:`Result` carrying the simulation time at completion plus the
action-specific value (e.g. a :class:`Snapshot` for :class:`Look`).

Time cost of each action:

========== =========================================
Move       Euclidean length of the segment
MovePath   total polyline length
Sweep      total lattice-run length (single engine event)
TeamSweep  the longest member's run at its robot's speed (one event)
Wait       the requested duration
WaitUntil  ``max(0, t - now)``
Look       0 (discrete snapshot)
Wake       0 (touch)
Fork       0
Barrier    until the last party arrives
Absorb     0
Annotate   0 (pure trace marker)
========== =========================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Generator, NamedTuple, Sequence, TYPE_CHECKING

from ..geometry import EPS, Point

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import ProcessView

__all__ = [
    "Action",
    "Move",
    "MovePath",
    "LatticeAxis",
    "Sweep",
    "TeamSweep",
    "Wait",
    "WaitUntil",
    "Look",
    "Wake",
    "Fork",
    "Barrier",
    "Absorb",
    "Annotate",
    "Result",
    "RobotView",
    "Snapshot",
    "Program",
]

#: A program is instantiated with the view of the process that runs it and
#: yields actions; ``yield`` evaluates to a :class:`Result`.
Program = Callable[["ProcessView"], Generator["Action", "Result", None]]


class Action:
    """Marker base class for everything a program may yield."""

    __slots__ = ()


@dataclass(frozen=True)
class Move(Action):
    """Move the whole process (all owned robots) straight to ``target``."""

    target: Point


@dataclass(frozen=True)
class MovePath(Action):
    """Move along a polyline of waypoints (visited in order)."""

    waypoints: tuple[Point, ...]

    def __init__(self, waypoints: Sequence[Point]) -> None:
        object.__setattr__(self, "waypoints", tuple(waypoints))


class LatticeAxis:
    """One axis of a snapshot lattice: its stops and the hops between them.

    ``stops`` must increase by more than ``EPS`` at every step, so within
    a :class:`Sweep` only the first and the tail hop can be the
    zero-length teleports of :class:`Move`.  ``hops[i]`` is
    ``math.hypot`` of the gap between stops ``i`` and ``i + 1`` — the
    exact length a Move between them is charged, whichever way it runs
    and whichever coordinate the gap lies on — and ``hops_reversed``
    lists the hops of a row walked right to left.
    """

    __slots__ = ("stops", "hops", "hops_reversed")

    def __init__(self, stops: Sequence[float]) -> None:
        stops = tuple(stops)
        if not stops:
            raise ValueError("a lattice axis needs at least one stop")
        gaps = [b - a for a, b in zip(stops, stops[1:])]
        if any(gap <= EPS for gap in gaps):
            raise ValueError("lattice stops must increase by more than EPS")
        self.stops = stops
        self.hops = tuple(math.hypot(gap, 0.0) for gap in gaps)
        self.hops_reversed = self.hops[::-1]

    def __len__(self) -> int:
        return len(self.stops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LatticeAxis({self.stops!r})"


@dataclass(frozen=True)
class Sweep(Action):
    """A boustrophedon run over a snapshot lattice as ONE engine event.

    The lattice has a row at each ``ys`` stop; row ``j`` visits the
    ``xs`` stops left to right when ``j`` is even and right to left when
    it is odd, so stop ``k`` is column ``k % len(xs)`` (in visiting order)
    of row ``k // len(xs)``.  The run visits stops ``start .. stop - 1``
    and then, when given, ``arrive_at``.  No per-stop object exists: the
    engine charges the run from the axes' memoized hops and locates a
    mover on it by index.

    Observationally equivalent to issuing one :class:`Move` per waypoint —
    identical per-segment energy accounting, identical sequential time
    accumulation, identical interpolated positions for observers — minus
    the per-waypoint queue events (and the per-waypoint snapshots the
    caller would have taken).  This is the engine half of the sparse wave
    frontier: a cohort that *knows* (from a
    :class:`~repro.geometry.FrontierIndex` oracle) that a stretch of its
    exploration lattice cannot reveal anything sweeps through it in one
    event instead of thousands.

    One deliberate asymmetry: because the whole run is validated up
    front, an :class:`~repro.sim.errors.EnergyBudgetExceeded` overrun on
    a later segment raises at *issue* time (process still at its origin,
    earlier segments already charged), not at the mid-walk simulation
    time a Move chain would reach first.  Budget-sensitive callers must
    pre-check the total against
    :attr:`~repro.sim.engine.ProcessView.min_remaining_budget` and fall
    back to per-stop Moves near the budget — exactly what
    :func:`repro.core.explore.explore_rect` does.

    Callers are responsible for only sweeping where the skipped snapshots
    cannot change their decisions (see
    :func:`repro.core.explore.explore_rect` for the contract the wave
    algorithms rely on); the engine itself treats this purely as batched
    motion.
    """

    xs: LatticeAxis
    ys: LatticeAxis
    start: int
    stop: int
    arrive_at: Point | None = None

    def __len__(self) -> int:
        """Number of waypoints: the run's stops plus the tail, if any."""
        return self.stop - self.start + (self.arrive_at is not None)

    def waypoint(self, i: int) -> tuple[float, float]:
        """Coordinates of waypoint ``i`` (``0 <= i < len(self)``)."""
        k = self.start + i
        if k >= self.stop:
            return self.arrive_at
        cols = self.xs.stops
        row, col = divmod(k, len(cols))
        return (cols[col] if row % 2 == 0 else cols[-1 - col]), self.ys.stops[row]

    def segment_lengths(self, origin: Point) -> list[float]:
        """Length of every segment walked from ``origin``, in order.

        Each equals the ``math.hypot`` a :class:`Move` along that segment
        is charged: the first and tail hops are computed, the lattice
        hops come from the axes' memoized hops.
        """
        lengths: list[float] = []
        prev = origin
        start, stop = self.start, self.stop
        if start < stop:
            first = self.waypoint(0)
            lengths.append(math.hypot(origin[0] - first[0], origin[1] - first[1]))
            xs = self.xs
            forward, backward = xs.hops, xs.hops_reversed
            row_hops = self.ys.hops
            row, col = divmod(start, len(xs))
            last_row, last_col = divmod(stop - 1, len(xs))
            while row < last_row:
                lengths += (forward if row % 2 == 0 else backward)[col:]
                lengths.append(row_hops[row])
                row += 1
                col = 0
            lengths += (forward if row % 2 == 0 else backward)[col:last_col]
            prev = self.waypoint(stop - 1 - start)
        tail = self.arrive_at
        if tail is not None:
            lengths.append(math.hypot(prev[0] - tail[0], prev[1] - tail[1]))
        return lengths

    def bounds(self) -> tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` over the run's waypoints."""
        xmin = ymin = math.inf
        xmax = ymax = -math.inf
        if self.start < self.stop:
            cols, rows = self.xs.stops, self.ys.stops
            first_row = self.start // len(cols)
            last_row = (self.stop - 1) // len(cols)
            if last_row - first_row >= 2:
                # A whole row lies inside the run.
                xmin, xmax = cols[0], cols[-1]
            else:
                x0 = self.waypoint(0)[0]
                x1 = self.waypoint(self.stop - 1 - self.start)[0]
                xmin, xmax = min(x0, x1), max(x0, x1)
                if last_row > first_row:
                    # The run turns at the end of its first row.
                    edge = cols[-1] if first_row % 2 == 0 else cols[0]
                    xmin, xmax = min(xmin, edge), max(xmax, edge)
            ymin, ymax = rows[first_row], rows[last_row]
        tail = self.arrive_at
        if tail is not None:
            xmin, ymin = min(xmin, tail[0]), min(ymin, tail[1])
            xmax, ymax = max(xmax, tail[0]), max(ymax, tail[1])
        return xmin, ymin, xmax, ymax


@dataclass(frozen=True)
class TeamSweep(Action):
    """Every owned robot walks its own lattice run; the team regroups where
    the runs end, as ONE engine event.

    ``runs`` holds one :class:`Sweep` per owned robot, in ``robot_ids``
    order, all walked from the process's position and all ending at the
    same point.  Each robot is charged its own run exactly as a lone
    :class:`Sweep` at its own speed would charge it, and observers see it
    where that sweep would put it.  The process resumes at the last
    arrival, at the meeting point, with every robot still owned.

    Observationally equivalent to forking one process per robot, sweeping
    each run, meeting at a :class:`Barrier`, waiting ``0`` and absorbing
    the team back — the fork path of
    :func:`repro.core.explore.explore_rect_team` — minus the process
    starts, barrier releases and absorbs.  It has the same issue-time
    budget asymmetry as :class:`Sweep`, so ``explore_rect_team`` only
    issues it for a team that clears its budget with every run.
    """

    runs: tuple[Sweep, ...]

    def __init__(self, runs: Sequence[Sweep]) -> None:
        object.__setattr__(self, "runs", tuple(runs))


@dataclass(frozen=True)
class Wait(Action):
    """Stay put for ``duration`` time units (must be non-negative)."""

    duration: float


@dataclass(frozen=True)
class WaitUntil(Action):
    """Stay put until absolute time ``time`` (no-op if already past)."""

    time: float


@dataclass(frozen=True)
class Look(Action):
    """Instantaneous snapshot of all robots within distance 1.

    The result value is a :class:`Snapshot`.  Own team members appear in the
    snapshot too (they are co-located, hence within distance 1); callers
    filter by the ids they already know.
    """


@dataclass(frozen=True)
class Wake(Action):
    """Wake the co-located sleeping robot ``robot_id``.

    ``program`` is the continuation handed to the woken robot — the paper's
    "share with it some information".  When ``program`` is ``None`` the
    robot *joins the waking team* (becomes owned by this process, moving
    with it from now on); otherwise a new process running ``program`` is
    spawned for it.  The result value is the new process id (or ``None``
    when joining).
    """

    robot_id: int
    program: Program | None = None


@dataclass(frozen=True)
class Fork(Action):
    """Split owned robots into new independent processes.

    ``assignments`` maps disjoint robot-id groups to programs; each group
    becomes a new process starting here and now.  Unassigned robots stay
    with the forking process (which must keep at least one robot — a team
    leader always continues inline).  The result value is the list of new
    process ids, in assignment order.
    """

    assignments: tuple[tuple[tuple[int, ...], Program], ...]

    def __init__(
        self, assignments: Sequence[tuple[Sequence[int], Program]]
    ) -> None:
        frozen = tuple(
            (tuple(ids), program) for ids, program in assignments
        )
        object.__setattr__(self, "assignments", frozen)


@dataclass(frozen=True)
class Barrier(Action):
    """Rendezvous with ``parties - 1`` other processes on ``key``.

    Blocks until ``parties`` processes have issued a barrier with the same
    key; all resume at the arrival time of the last one.  Each party
    contributes a ``payload`` (its shared variables); the result value is
    the list of all payloads in *arrival order* — this models co-located
    variable exchange, so the engine checks that all parties are at the
    same position when the barrier releases.
    """

    key: Any
    parties: int
    payload: Any = None


@dataclass(frozen=True)
class Absorb(Action):
    """Take ownership of idle, co-located robots.

    Robots released by a finished process park at their last position; a
    live process that reaches them may absorb them into its team.  Used by
    the barrier survivor during the Reorganization phase of ``ASeparator``.
    """

    robot_ids: tuple[int, ...]

    def __init__(self, robot_ids: Sequence[int]) -> None:
        object.__setattr__(self, "robot_ids", tuple(robot_ids))


@dataclass(frozen=True)
class Annotate(Action):
    """Zero-cost trace marker (phase labels for the FIG1/FIG2 benches)."""

    label: str
    data: Any = None


class RobotView(NamedTuple):
    """What a snapshot reveals about one robot: identity, position, status."""

    robot_id: int
    position: Point
    awake: bool


class Snapshot(NamedTuple):
    """Result of a :class:`Look`: observer state plus visible robots."""

    time: float
    observer: Point
    robots: tuple[RobotView, ...]

    def sleeping(self) -> list[RobotView]:
        return [r for r in self.robots if not r.awake]

    def awake(self) -> list[RobotView]:
        return [r for r in self.robots if r.awake]


class Result(NamedTuple):
    """Value of a ``yield``: completion time plus action-specific payload."""

    time: float
    value: Any
