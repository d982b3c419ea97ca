"""Actions a robot process may yield to the simulation engine.

The paper's robots follow the Look-Compute-Move model (Section 1.2): they
*look* (instantaneous snapshot of the distance-1 vicinity), *compute*
(free), and *move* at unit speed; they may also wait, wake a co-located
sleeping robot while handing it information, and exchange variables with
co-located robots.  Each of those capabilities maps to one action below.
Two further actions — :class:`Fork` and :class:`Absorb` — implement the
paper's team splits and rendezvous merges at the process granularity (a
process is a team of co-located robots moving as one), and
:class:`Barrier` realizes "wait until the four teams can merge and share
their variables".  :class:`TeamSweep` is the split, the per-robot walks and
the regroup in one action, for a team exploration that needs no snapshot
on the way; :class:`Tour` is a fixed walk of timed legs (move to a corner,
wait for a window) in one action, for a robot that only follows.

A program is a generator yielding actions; every ``yield`` evaluates to a
:class:`Result` carrying the simulation time at completion plus the
action-specific value (e.g. a :class:`Snapshot` for :class:`Look`).

Time cost of each action:

========== =========================================
Move       Euclidean length of the segment
Sweep      total lattice-run length (single engine event)
TeamSweep  the longest member's run at its robot's speed (one event)
Tour       each leg's length, then its wait (one event)
Wait       the requested duration
WaitUntil  ``max(0, t - now)``
Look       0 (discrete snapshot; sleepers-only too)
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
    "LatticeAxis",
    "Sweep",
    "TeamSweep",
    "Tour",
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
        return _run_lengths(
            self.xs, self.ys, self.start, self.stop, self.arrive_at, origin
        )

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
    """Every owned robot sweeps one strip of a lattice family; the team
    regroups where the runs end, as ONE engine event.

    The strips share the columns ``xs``; robot ``i`` (in ``robot_ids``
    order) sweeps the whole lattice ``xs`` x ``rows[i]`` from the process's
    position, then walks to ``arrive_at`` when given — the :class:`Sweep`
    :meth:`run` returns.  All runs must end at one point.  Each robot is
    charged its own run exactly as a
    lone :class:`Sweep` at its own speed would charge it, and observers
    see it where that sweep would put it.  The process resumes at the last
    arrival, at the meeting point, with every robot still owned.

    Observationally equivalent to forking one process per robot, sweeping
    each run, meeting at a :class:`Barrier`, waiting ``0`` and absorbing
    the team back — the fork path of
    :func:`repro.core.explore.explore_rect_team` — minus the process
    starts, barrier releases and absorbs.  It has the same issue-time
    budget asymmetry as :class:`Sweep`, so callers only issue it for a
    team that clears its budget with every run.
    """

    xs: LatticeAxis
    rows: tuple[LatticeAxis, ...]
    arrive_at: Point | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))

    def __len__(self) -> int:
        """Number of strips, one per robot."""
        return len(self.rows)

    def run(self, i: int) -> Sweep:
        """Robot ``i``'s run, as a lone :class:`Sweep`."""
        ys = self.rows[i]
        return Sweep(self.xs, ys, 0, len(self.xs) * len(ys), self.arrive_at)

    def strip_lengths(self, origin: Point) -> list[list[float]]:
        """``run(i).segment_lengths(origin)`` for every robot ``i``, without
        building the runs: one list per distinct row axis, shared by the
        robots on it (AWave's hand-back gives every robot the same
        one-stop axis).  Read-only."""
        xs, tail = self.xs, self.arrive_at
        built: dict[LatticeAxis, list[float]] = {}
        out = []
        for ys in self.rows:
            lengths = built.get(ys)
            if lengths is None:
                lengths = built[ys] = _run_lengths(
                    xs, ys, 0, len(xs) * len(ys), tail, origin
                )
            out.append(lengths)
        return out


def _run_lengths(
    xs: LatticeAxis,
    ys: LatticeAxis,
    start: int,
    stop: int,
    arrive_at: Point | None,
    origin: Point,
) -> list[float]:
    """Segment lengths of the boustrophedon run over stops ``start ..
    stop - 1`` of ``xs`` x ``ys`` (then ``arrive_at``) walked from
    ``origin``: the first and tail hops are computed, the lattice hops
    come from the axes' memoized hops."""
    lengths: list[float] = []
    prev = origin
    if start < stop:
        cols, rows = xs.stops, ys.stops
        row, col = divmod(start, len(cols))
        last_row, last_col = divmod(stop - 1, len(cols))
        x = cols[col] if row % 2 == 0 else cols[-1 - col]
        lengths.append(math.hypot(origin[0] - x, origin[1] - rows[row]))
        forward, backward = xs.hops, xs.hops_reversed
        row_hops = ys.hops
        while row < last_row:
            lengths += (forward if row % 2 == 0 else backward)[col:]
            lengths.append(row_hops[row])
            row += 1
            col = 0
        lengths += (forward if row % 2 == 0 else backward)[col:last_col]
        prev = (cols[last_col] if row % 2 == 0 else cols[-1 - last_col]), rows[row]
    if arrive_at is not None:
        lengths.append(math.hypot(prev[0] - arrive_at[0], prev[1] - arrive_at[1]))
    return lengths


@dataclass(frozen=True)
class Wait(Action):
    """Stay put for ``duration`` time units (must be non-negative)."""

    duration: float


@dataclass(frozen=True)
class WaitUntil(Action):
    """Stay put until absolute time ``time`` (no-op if already past)."""

    time: float


@dataclass(frozen=True, eq=False)
class Tour(Action):
    """A fixed walk of ``(Move, WaitUntil)`` legs as ONE engine event.

    Each leg moves the process straight to its corner, then waits there
    until the leg's time; the process resumes at the last leg's departure.
    Observationally equivalent to yielding each leg's Move and then its
    WaitUntil: the same ``math.hypot`` leg lengths, the same per-leg budget
    checks and odometer charges in the same float order, arrival at
    ``t + length / speed``, departure at ``max(arrival, wait.time)``, a leg
    of at most ``EPS`` a teleport as with :class:`Move`, and the same
    positions for observers (a waiting process is seen on its corner point
    itself) — minus two queue events per leg.

    A tour compares by identity: processes that issue the same tour object
    from the same point, at the same instant and speed, fly it as one
    convoy whose timetable the engine builds once, so a group of walkers
    (an AGrid cohort) should share one object.

    It has :class:`Sweep`'s issue-time asymmetry (the whole walk is charged
    when issued, so a budget overrun on a later leg raises at the issue
    instant) and checks no deadline.  A caller that relies on either must
    issue a tour only when the walk clears its budget and every leg is on
    time, and walk the legs one by one otherwise — exactly what
    :mod:`repro.core.agrid` does.
    """

    legs: tuple[tuple[Move, WaitUntil], ...]

    def __init__(self, legs: Sequence[tuple[Move, WaitUntil]]) -> None:
        legs = tuple((move, wait) for move, wait in legs)
        if not legs:
            raise ValueError("a tour needs at least one leg")
        for move, wait in legs:
            if not isinstance(move, Move) or not isinstance(wait, WaitUntil):
                raise TypeError("a tour leg is a (Move, WaitUntil) pair")
        object.__setattr__(self, "legs", legs)
        #: Leg ``j``'s corner, the end of path segments ``2j`` (the move)
        #: and ``2j + 1`` (the wait).
        object.__setattr__(self, "corners", tuple(move.target for move, _ in legs))

    def leg_lengths(self, origin: Point) -> list[float]:
        """Length of every leg walked from ``origin``, in order: the
        ``math.hypot`` each leg's :class:`Move` is charged."""
        lengths: list[float] = []
        prev = origin
        for corner in self.corners:
            lengths.append(math.hypot(prev[0] - corner[0], prev[1] - corner[1]))
            prev = corner
        return lengths

    def timetable(
        self, lengths: Sequence[float], start: float, speed: float
    ) -> list[float]:
        """``[arrival_0, departure_0, arrival_1, ...]`` of a walk begun at
        ``start`` at ``speed`` over legs of the given ``lengths``.

        The Move/WaitUntil chain's arithmetic, float op for float op: a leg
        longer than ``EPS`` arrives ``length / speed`` after the previous
        departure (a shorter one is a teleport), and departs at its wait's
        time or on arrival, whichever is later.
        """
        t = start
        times: list[float] = []
        for (_, wait), length in zip(self.legs, lengths):
            if length > EPS:
                t = t + length / speed
            times.append(t)
            if wait.time > t:
                t = wait.time
            times.append(t)
        return times

    def waypoint(self, i: int) -> Point:
        """End of path segment ``i`` (moves and waits interleaved): the
        corner of leg ``i // 2``."""
        return self.corners[i >> 1]

    def bounds(self) -> tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` over the corners."""
        xs = [corner[0] for corner in self.corners]
        ys = [corner[1] for corner in self.corners]
        return min(xs), min(ys), max(xs), max(ys)


@dataclass(frozen=True)
class Look(Action):
    """Instantaneous snapshot of all robots within distance 1.

    The result value is a :class:`Snapshot`.  Own team members appear in the
    snapshot too (they are co-located, hence within distance 1); callers
    filter by the ids they already know.

    A ``sleepers_only`` Look returns the snapshot a full Look would return
    minus its awake robots, and counts as one snapshot like any Look.  It
    is for a caller that acts only on the sleepers it finds (AGrid's cell
    explorations): the engine serves it from the sleeping index alone,
    without locating a single awake robot.
    """

    sleepers_only: bool = False


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
