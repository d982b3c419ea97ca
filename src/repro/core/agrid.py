"""``AGrid`` — dFTP with optimal ``Θ(ell^2)`` energy budget (Theorem 4).

The plane is partitioned into width-``2*ell`` cells anchored on the source
(the paper's ``{(2k*ell, 2k'*ell)}`` grid with the source at the center of
cell ``(0,0)``).  Round 0: the source explores and wakes its own cell
(Corollary 1).  Round ``k >= 1``: every robot woken in round ``k-1`` visits
the 8 adjacent cells of its cell in a fixed counter-clockwise order, one
per global time *window*; at each window exactly one robot — the minimum
id of the cell's wake *cohort* — explores the target cell and wakes its
sleepers through a centralized schedule (Lemma 2), handing each the
participant program for the next round.

Window arithmetic replaces the paper's ``t(ell)`` bound with this
implementation's own certified bounds (:func:`agrid_window`); programs
assert on window overruns, so a mis-calibration fails loudly instead of
silently corrupting the wave.  Because windows serialize all activity per
cell and wakes are owned by half-open cell membership, each cell is woken
exactly once and no two explorers ever conflict.

Every robot acts in at most two consecutive rounds and travels ``O(ell^2)``
— the energy optimality half of the theorem; :func:`agrid_energy_budget`
gives the enforceable per-robot bound.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Callable, Generator, NamedTuple

from ..centralized import QUADTREE_MAKESPAN_FACTOR, quadtree_schedule
from ..geometry import Point, Rect, close_to, square
from ..sim import CO_LOCATION_TOL, Annotate, Look, Move, Result, Tour, Wait, WaitUntil
from ..sim.actions import Action, Program
from ..sim.engine import ProcessView
from ..sim.errors import ProtocolError
from .explore import BUDGET_MARGIN, SQRT2, exploration_time_bound, explore_rect
from .wakeup import execute_wake_plan, plan_from_schedule

__all__ = [
    "Cell",
    "CellGrid",
    "NEIGHBOR_OFFSETS",
    "agrid_program",
    "agrid_window",
    "agrid_energy_budget",
]

#: The 8 adjacent cells in counter-clockwise order starting East.
NEIGHBOR_OFFSETS: tuple[tuple[int, int], ...] = (
    (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
)

Cell = tuple[int, int]


class CellGrid:
    """The axis-parallel cell lattice anchored at the source.

    Cell ``(i, j)`` is the half-open square
    ``[cx + (2i-1)*half, cx + (2i+1)*half) x [...)`` of width
    ``2*half`` centered at ``source + (2i*half, 2j*half)``; the source sits
    at the center of cell ``(0, 0)``.
    """

    def __init__(self, source: Point, width: float) -> None:
        if width <= 0:
            raise ValueError("cell width must be positive")
        self.source = source
        self.width = float(width)

    def cell_of(self, p: Point) -> Cell:
        half = self.width / 2.0
        return (
            int(math.floor((p[0] - self.source[0] + half) / self.width)),
            int(math.floor((p[1] - self.source[1] + half) / self.width)),
        )

    def rect(self, cell: Cell) -> Rect:
        half = self.width / 2.0
        lower_left = Point(
            self.source[0] + cell[0] * self.width - half,
            self.source[1] + cell[1] * self.width - half,
        )
        return square(lower_left, self.width)

    def owns(self, cell: Cell) -> Callable[[Point], bool]:
        """Half-open ownership predicate for ``cell``."""

        def predicate(p: Point) -> bool:
            return self.cell_of(p) == cell

        return predicate

    def neighbor(self, cell: Cell, i: int) -> Cell:
        """The ``i``-th (1-based) CCW neighbor of ``cell``."""
        di, dj = NEIGHBOR_OFFSETS[i - 1]
        return (cell[0] + di, cell[1] + dj)


# ---------------------------------------------------------------------------
# window arithmetic
# ---------------------------------------------------------------------------

def agrid_window(ell: int) -> float:
    """Length of one ``AGrid`` action window (the paper's ``t(ell) +
    sqrt(2)*R`` with this implementation's constants).

    Must upper-bound: the inter-corner move (``<= 4*sqrt(2)*ell``), the
    cell exploration (Lemma 1 bound for a ``2*ell`` square plus the move to
    the center), and the leader's share of the wake-up propagation (at most
    the quadtree makespan).  ``Θ(ell^2)``.
    """
    explore = exploration_time_bound(2.0 * ell, 2.0 * ell, k=1)
    propagate = QUADTREE_MAKESPAN_FACTOR * 2.0 * ell
    moves = 8.0 * SQRT2 * ell + 4.0 * ell
    return explore + propagate + moves + 4.0


def wave_round_start(window: float, k: int, speed_floor: float) -> float:
    """Absolute start time of wave round ``k >= 1`` for unit-speed windows
    of length ``window`` (round 0 fits in one window).

    The one clock of ``AGrid`` and ``AWave``, which differ only in the
    window.  Each round spans nine windows: participants gather during the
    first (the paper's "wait until ``t_k + (t(ell)+sqrt(2)R)*i``" places
    window ``i``'s action at ``t_k + i*W``), then act in windows 1..8.

    ``speed_floor`` is a lower bound on any robot's speed (the world
    model's :meth:`~repro.sim.WorldConfig.min_speed`): every activity in a
    window is a distance bound divided by a speed, so stretching the
    unit-speed window by ``1/speed_floor`` re-certifies the calibration
    for heterogeneous-speed worlds.
    """
    w = window / speed_floor
    return w + (k - 1) * 9.0 * w


def wave_window_start(window: float, k: int, i: int, speed_floor: float) -> float:
    """Start of the action in window ``i`` (1..8) of wave round ``k``."""
    return wave_round_start(window, k, speed_floor) + i * window / speed_floor


def agrid_round_start(ell: int, k: int, speed_floor: float = 1.0) -> float:
    """Absolute start time of ``AGrid`` round ``k >= 1``."""
    return wave_round_start(agrid_window(ell), k, speed_floor)


def agrid_window_start(
    ell: int, k: int, i: int, speed_floor: float = 1.0
) -> float:
    """Start of the action in window ``i`` (1..8) of ``AGrid`` round ``k``."""
    return wave_window_start(agrid_window(ell), k, i, speed_floor)


def agrid_energy_budget(ell: int) -> float:
    """Per-robot travel bound: two rounds of participation (``Θ(ell^2)``)."""
    return 2.0 * 9.0 * agrid_window(ell) + 8.0 * ell + 8.0


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------

def agrid_program(
    ell: int, speed_floor: float = 1.0, crash_aware: bool = False
) -> Program:
    """Source program for ``AGrid`` (only ``ell`` is required, Section 5).

    ``speed_floor`` stretches the window arithmetic for worlds whose
    robots move slower than unit speed (see :func:`wave_round_start`);
    ``crash_aware`` adds a snapshot-based leader election at each round
    start so a cohort survives crash-on-wake members (a crashed leader
    would otherwise silently strand its 8 neighbor cells).  Both default
    to the paper's world, where they change nothing.
    """
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    if speed_floor <= 0:
        raise ValueError("speed_floor must be positive")

    def program(proc: ProcessView) -> Generator[Action, Result, None]:
        grid = CellGrid(source=proc.position, width=2.0 * ell)
        cell = (0, 0)
        yield Annotate("agrid:round0", {"cell": cell})
        cohort = yield from _explore_and_wake_cell(
            proc, grid, ell, cell, next_round=1, extra_cohort=(proc.robot_ids[0],),
            speed_floor=speed_floor, crash_aware=crash_aware,
        )
        # The source joins round 1 as a participant of its own cell: this
        # closes the measure-zero gap where the nearest robot sits exactly
        # on the cell boundary and cell (0,0) is otherwise empty.
        yield from _participate(
            proc, grid, ell, k=1, tour=_cohort_tour(grid, ell, cell, 1, speed_floor),
            cohort=cohort, my_id=proc.robot_ids[0],
            speed_floor=speed_floor, crash_aware=crash_aware,
        )

    return program


class _CohortTour(NamedTuple):
    """One cohort's round, shared by every member's program."""

    #: The ``Move`` to the cell's corner, the round start, its ``WaitUntil``.
    gather: Move
    t_round: float
    wait_round: WaitUntil
    #: Per window: the target cell, the ``Move`` to its corner, the window
    #: start and its ``WaitUntil``.
    windows: tuple[tuple[Cell, Move, float, WaitUntil], ...]
    #: The windows' ``(Move, WaitUntil)`` legs as one action, for a member
    #: that only follows.
    walk: Tour
    #: Whether every leg of ``walk``, begun at the round start from the
    #: corner at ``speed_floor``, arrives by its window start.
    on_time: bool
    #: ``walk``'s sequential length from the corner.
    length: float


def _cohort_tour(
    grid: CellGrid, ell: int, cell: Cell, k: int, speed_floor: float
) -> _CohortTour:
    """The round-``k`` tour of ``cell``'s cohort, built once where the
    cohort forms and shared by every member's program (every member walks
    the same corners at the same window starts)."""
    t_round = agrid_round_start(ell, k, speed_floor)
    windows = []
    for i in range(1, 9):
        target = grid.neighbor(cell, i)
        start = agrid_window_start(ell, k, i, speed_floor)
        windows.append((target, Move(grid.rect(target).lower_left), start, WaitUntil(start)))
    gather = Move(grid.rect(cell).lower_left)
    walk = Tour([(move, wait) for _, move, _, wait in windows])
    lengths = walk.leg_lengths(gather.target)
    # The walk's timetable at the slowest speed bounds every member's own
    # (float addition, division and max are monotone), so one check
    # covers each window's deadline for the whole cohort.
    arrivals = walk.timetable(lengths, t_round, speed_floor)[::2]
    on_time = all(
        arrival <= start + 1e-6 for arrival, (_, _, start, _) in zip(arrivals, windows)
    )
    return _CohortTour(
        gather, t_round, WaitUntil(t_round), tuple(windows),
        walk, on_time, reduce(add, lengths, 0.0),
    )


def _participant_program(
    grid: CellGrid,
    ell: int,
    k: int,
    tour: _CohortTour,
    cohort: tuple[int, ...],
    my_id: int,
    speed_floor: float,
    crash_aware: bool,
) -> Program:
    def program(proc: ProcessView) -> Generator[Action, Result, None]:
        yield from _participate(
            proc, grid, ell, k, tour, cohort, my_id, speed_floor, crash_aware
        )

    return program


def _participate(
    proc: ProcessView,
    grid: CellGrid,
    ell: int,
    k: int,
    tour: _CohortTour,
    cohort: tuple[int, ...],
    my_id: int,
    speed_floor: float = 1.0,
    crash_aware: bool = False,
) -> Generator[Action, Result, None]:
    """Round-``k`` participation for a robot woken in round ``k-1``: walk
    the cohort's ``tour`` of the 8 adjacent cells; the cohort leader
    explores each.  A follower that only walks issues the whole walk as
    one action when :func:`_tour_admissible` allows it."""
    gather, t_round, wait_round, windows = tour[:4]
    yield gather
    _assert_on_time(proc, t_round, "agrid round start")
    yield wait_round
    if crash_aware:
        corner = gather.target
        # Leader election among the members actually standing at the
        # corner: the wake-time cohort may contain crashed robots (parked
        # at their wake positions, never gathering).  Every present member
        # snapshots the same co-located set at the round start, so the
        # minimum present id is a consistent choice.  The Wait(0.0) holds
        # each member at the corner until every member has looked: no
        # election Look finds a member in flight, and every one after the
        # first is served by the engine's (time, center) memo.
        snap = (yield Look()).value
        yield Wait(0.0)
        cohort_set = set(cohort)
        present = [
            view.robot_id
            for view in snap.robots
            if view.awake
            and view.robot_id in cohort_set
            and close_to(view.position, corner, CO_LOCATION_TOL)
        ]
        leader = my_id == min(present)
    else:
        leader = my_id == min(cohort)
    if not leader and _tour_admissible(proc, tour, speed_floor):
        yield tour.walk
        return
    for i, (target, move, start, wait) in enumerate(windows, 1):
        yield move
        _assert_on_time(proc, start, f"agrid window {i}")
        yield wait
        if leader:
            yield Annotate("agrid:window", {"cell": target, "round": k, "i": i})
            yield from _explore_and_wake_cell(
                proc, grid, ell, target, next_round=k + 1,
                speed_floor=speed_floor, crash_aware=crash_aware,
            )
    # Participation over; the robot parks where it stands.


def _explore_and_wake_cell(
    proc: ProcessView,
    grid: CellGrid,
    ell: int,
    cell: Cell,
    next_round: int,
    extra_cohort: tuple[int, ...] = (),
    speed_floor: float = 1.0,
    crash_aware: bool = False,
) -> Generator[Action, Result, tuple[int, ...]]:
    """Corollary 1 for one cell: explore it, then wake every sleeper found
    (scoped to the cell) with a centralized schedule; woken robots become
    the cell's cohort for ``next_round``.  Returns the cohort.

    The exploration only learns where the cell's sleepers are, so it takes
    sleepers-only Looks.  That is exact: awake sightings reach a report
    only to cancel a sleeping entry of the same exploration
    (:meth:`~repro.core.explore.ExplorationReport.note`), and an entry
    this cell ``owns`` is never cancelled.  A cell's sleepers are woken
    only by wake plans built from an exploration of that cell; each window
    has one explorer per cell, and :func:`agrid_window` bounds the plan's
    propagation inside its window, so no owned sleeper wakes while its
    cell is explored.  Entries the cell does not own are dropped either
    way.
    """
    rect = grid.rect(cell)
    owns = grid.owns(cell)
    report = yield from explore_rect(
        proc, rect, arrive_at=rect.center, sleepers_only=True
    )
    targets = {rid: pos for rid, pos in report.sleeping.items() if owns(pos)}
    if not targets:
        return tuple(extra_cohort)
    target_ids = sorted(targets)
    cohort = tuple(sorted([*target_ids, *extra_cohort]))
    positions = [targets[t] for t in target_ids]
    schedule = quadtree_schedule(proc.position, positions, region=rect)
    plan, posmap = plan_from_schedule(schedule, target_ids, root_id=-1)
    tour = _cohort_tour(grid, ell, cell, next_round, speed_floor)

    def after(rid: int) -> Program:
        return _participant_program(
            grid, ell, next_round, tour, cohort, rid, speed_floor, crash_aware
        )

    yield from execute_wake_plan(proc, plan, posmap, my_id=-1, after=after)
    return cohort


def _tour_admissible(proc: ProcessView, tour: _CohortTour, speed_floor: float) -> bool:
    """Whether a follower may walk its windows as the one ``tour.walk``.

    The per-leg loop is the reference: it raises on a late leg and on a
    budget overrun, where and when it happens.  The walk checks neither,
    so it is taken only when neither can happen.  It must start at the
    round start at no less than ``speed_floor``, so the cohort's on-time
    check covers it (a robot slower than a miscalibrated floor walks
    leg by leg).  Its length must clear the remaining budget with
    :data:`~repro.core.explore.BUDGET_MARGIN`, as a batched sweep must.
    """
    return (
        tour.on_time
        and proc.time <= tour.t_round
        and proc.speed >= speed_floor
        and tour.length < proc.min_remaining_budget - BUDGET_MARGIN
    )


def _assert_on_time(proc: ProcessView, deadline: float, label: str) -> None:
    """Fail loudly when the window arithmetic was violated."""
    if proc.time > deadline + 1e-6:
        raise ProtocolError(
            f"{label}: arrived at t={proc.time:.3f} after deadline "
            f"{deadline:.3f} — window calibration violated"
        )
