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
from typing import Callable, Generator

from ..centralized import QUADTREE_MAKESPAN_FACTOR, quadtree_schedule
from ..geometry import Point, Rect, close_to, square
from ..sim import CO_LOCATION_TOL, Annotate, Look, Move, Result, WaitUntil
from ..sim.actions import Action, Program
from ..sim.engine import ProcessView
from ..sim.errors import ProtocolError
from .explore import SQRT2, exploration_time_bound, explore_rect
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


def agrid_round_start(ell: int, k: int, speed_floor: float = 1.0) -> float:
    """Absolute start time of round ``k >= 1`` (round 0 fits in one window).

    Each round spans nine windows: participants gather during the first
    (the paper's "wait until ``t_k + (t(ell)+sqrt(2)R)*i``" places window
    ``i``'s action at ``t_k + i*W``), then act in windows 1..8.

    ``speed_floor`` is a lower bound on any robot's speed (the world
    model's :meth:`~repro.sim.WorldConfig.min_speed`): every activity in a
    window is a distance bound divided by a speed, so stretching the
    unit-speed window by ``1/speed_floor`` re-certifies the calibration
    for heterogeneous-speed worlds.
    """
    w = agrid_window(ell) / speed_floor
    return w + (k - 1) * 9.0 * w


def agrid_window_start(
    ell: int, k: int, i: int, speed_floor: float = 1.0
) -> float:
    """Start of the action in window ``i`` (1..8) of round ``k``."""
    return agrid_round_start(ell, k, speed_floor) + i * agrid_window(ell) / speed_floor


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
    robots move slower than unit speed (see :func:`agrid_round_start`);
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


#: One cohort's round: the gather ``Move`` to its cell's corner, the round
#: start and its ``WaitUntil``, then per window the target cell, the
#: ``Move`` to its corner, the window start and its ``WaitUntil``.
_Tour = tuple[Move, float, WaitUntil, tuple[tuple[Cell, Move, float, WaitUntil], ...]]


def _cohort_tour(
    grid: CellGrid, ell: int, cell: Cell, k: int, speed_floor: float
) -> _Tour:
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
    return gather, t_round, WaitUntil(t_round), tuple(windows)


def _participant_program(
    grid: CellGrid,
    ell: int,
    k: int,
    tour: _Tour,
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
    tour: _Tour,
    cohort: tuple[int, ...],
    my_id: int,
    speed_floor: float = 1.0,
    crash_aware: bool = False,
) -> Generator[Action, Result, None]:
    """Round-``k`` participation for a robot woken in round ``k-1``: walk
    the cohort's ``tour`` of the 8 adjacent cells; the cohort leader
    explores each."""
    gather, t_round, wait_round, windows = tour
    yield gather
    _assert_on_time(proc, t_round, "agrid round start")
    yield wait_round
    if crash_aware:
        corner = gather.target
        # Leader election among the members actually standing at the
        # corner: the wake-time cohort may contain crashed robots (parked
        # at their wake positions, never gathering).  Every present member
        # snapshots the same co-located set at the round start, so the
        # minimum present id is a consistent choice.
        snap = (yield Look()).value
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
    the cell's cohort for ``next_round``.  Returns the cohort."""
    rect = grid.rect(cell)
    owns = grid.owns(cell)
    report = yield from explore_rect(proc, rect, arrive_at=rect.center)
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


def _assert_on_time(proc: ProcessView, deadline: float, label: str) -> None:
    """Fail loudly when the window arithmetic was violated."""
    if proc.time > deadline + 1e-6:
        raise ProtocolError(
            f"{label}: arrived at t={proc.time:.3f} after deadline "
            f"{deadline:.3f} — window calibration violated"
        )
