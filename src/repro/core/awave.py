"""``AWave`` — dFTP with ``Θ(ell^2 log ell)`` energy budget (Theorem 5).

``AWave`` upgrades ``AGrid``'s wave in two ways (Section 8.2): cells have
width ``R = 8 * ell^2 * log2(ell)`` (with ``ell <- max(ell, 4)``), and each
cell is woken by an embedded ``ASeparator`` run instead of a brute-force
exploration — cutting the per-cell time from ``Θ(R^2)`` to
``Θ(R + ell^2 log ell)`` and hence the makespan to
``O(xi_ell + ell^2 log(xi_ell / ell))``.

Choreography per wave round ``r`` (global window arithmetic, as in
:mod:`repro.core.agrid`):

1. Every robot woken in round ``r-1`` gathers at the lower-left corner of
   *its own* cell at ``t_r`` and looks around: if fewer than ``4*ell``
   participants gathered, everyone parks (the wave dies here, as in the
   paper); otherwise the minimum id becomes leader and absorbs the team.
2. The team visits the 8 adjacent cells in CCW order, one per window.  At
   window ``i`` it runs an embedded ``ASeparator`` scoped to the target
   cell.  The run *consumes* the team: imported robots are handed back
   through ``on_release`` continuations that regroup them at the next
   window's corner (the minimum import id re-absorbs the others), while
   robots woken by the run get an ``after`` continuation enrolling them as
   round ``r+1`` participants of the cell they were woken in.
3. After window 8 the imports park in place.

Because wakes are scoped to the target cell and windows serialize all
activity per cell, the *first* run on a cell finds it fully asleep and —
by the separator-seed coverage argument of Lemma 5 — wakes it completely;
later runs on the same cell are cheap no-ops.  Round 0 is a full
``ASeparator`` (with its source-seeded Round 0) scoped to the source cell;
the source then joins round 1 as an ordinary participant (a deviation that
closes the boundary edge case where the source cell is otherwise empty,
as :func:`repro.core.agrid.agrid_program`'s source does).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Generator, Sequence

from ..geometry import EPS, Point, close_to
from ..sim import (
    Absorb,
    Annotate,
    Fork,
    LatticeAxis,
    Look,
    Move,
    Result,
    TeamSweep,
    Wait,
    WaitUntil,
)
from ..sim.actions import Action, Program
from ..sim.engine import ProcessView
from .agrid import (
    Cell,
    CellGrid,
    _assert_on_time,
    wave_round_start,
    wave_window_start,
)
from .aseparator import SeparatorContext, aseparator_program, embedded_entry, idle
from .explore import BUDGET_MARGIN, SQRT2

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..geometry import FrontierIndex

__all__ = [
    "awave_cell_width",
    "awave_window",
    "awave_round_start",
    "awave_window_start",
    "awave_energy_budget",
    "awave_program",
]

#: Tolerance for "standing exactly at the gather corner".
_CORNER_TOL = 1e-6


def effective_ell(ell: int) -> int:
    """The paper's Round 0 clamp: ``ell <- max(ell, 4)``."""
    return max(int(ell), 4)


def awave_cell_width(ell: int) -> float:
    """Cell width ``R = 8 * ell^2 * log2(ell)`` (with the clamp)."""
    e = effective_ell(ell)
    return 8.0 * e * e * math.log2(e)


def embedded_duration_bound(R: float, ell: int) -> float:
    """Upper bound on one embedded ``ASeparator`` run in a width-``R`` cell.

    Mirrors Lemma 8: a geometric sum of ``O(R)`` per-round travel plus
    ``O(ell^2)`` sampling work over ``O(log(R/ell))`` rounds, with the
    round-0 single-robot harmonic sampling charged ``O(ell^2 log ell)``.
    Constants are calibrated for *this* implementation with ample margin;
    the programs assert on every deadline, so miscalibration fails loudly.
    ``Θ(R + ell^2 log ell)``.
    """
    e = effective_ell(ell)
    rounds = math.log2(max(4.0, R / e)) + 2.0
    return 16.0 * R + 48.0 * e * e * (rounds + math.log2(4.0 * e)) + 240.0


def awave_window(ell: int) -> float:
    """One wave window: embedded run + inter-corner travel + margins.

    ``Θ(ell^2 log ell)`` — the quantity the makespan bound multiplies by
    the number of wave rounds.
    """
    R = awave_cell_width(ell)
    return embedded_duration_bound(R, ell) + 4.0 * SQRT2 * R + 16.0


def awave_round_start(ell: int, r: int, speed_floor: float = 1.0) -> float:
    """Gather time of wave round ``r >= 1`` (round 0 fits in one window):
    the clock :func:`~repro.core.agrid.wave_round_start` shared with
    ``AGrid``, run on ``AWave``'s window."""
    return wave_round_start(awave_window(ell), r, speed_floor)


def awave_window_start(
    ell: int, r: int, i: int, speed_floor: float = 1.0
) -> float:
    """Start of window ``i`` (1..8) of wave round ``r``."""
    return wave_window_start(awave_window(ell), r, i, speed_floor)


def awave_energy_budget(ell: int) -> float:
    """Per-robot travel bound.

    A robot is active for at most its waking round's tail, one full round
    of participation, and the release move — under unit speed its travel
    is at most its active time, i.e. ``<= 27` windows.  ``Θ(ell^2 log ell)``.
    """
    return 27.0 * awave_window(ell)


# ---------------------------------------------------------------------------
# programs
# ---------------------------------------------------------------------------

class _WavePlan:
    """Shared cohort plan: one object per ``AWave`` run.

    Every participant / regroup continuation of the wave closes over the
    *same* plan instead of re-deriving grid geometry per robot per window:
    the window length is computed once and read through the wave clock
    ``AWave`` shares with ``AGrid``
    (:func:`~repro.core.agrid.wave_window_start`), and the sparse frontier
    oracle — when enabled — is the single index the whole wave's
    explorations share.  ``frontier=None`` reproduces the legacy per-stop
    execution byte-for-byte (``legacy_awave``).
    """

    __slots__ = ("grid", "e", "speed_floor", "frontier", "window", "_teams")

    def __init__(
        self,
        grid: CellGrid,
        e: int,
        speed_floor: float,
        frontier: "FrontierIndex | None",
    ) -> None:
        self.grid = grid
        self.e = e
        self.speed_floor = speed_floor
        self.frontier = frontier
        self.window = awave_window(e)
        self._teams: dict[tuple[int, Cell], list[int]] = {}

    def round_start(self, r: int) -> float:
        return wave_round_start(self.window, r, self.speed_floor)

    def window_start(self, r: int, i: int) -> float:
        return wave_window_start(self.window, r, i, self.speed_floor)

    def occupied_cells(self) -> int:
        """How many wave cells hold at least one robot (0 w/o frontier)."""
        if self.frontier is None:
            return 0
        cell_of = self.grid.cell_of
        return len({cell_of(p) for p in self.frontier.points})

    def gather_team(self, r: int, cell: Cell, snap, corner) -> list[int]:
        """The round-``r`` cohort of ``cell``, filtered from the gather
        snapshot — computed once and shared.

        Every participant of ``(r, cell)`` looks at the same instant from
        the same corner and receives the identical (engine-memoized)
        snapshot, so the awake-and-at-the-corner filter is the same pure
        computation per participant; without the memo the gather costs
        O(cohort^2) ``close_to`` calls — the dominant term at n >= 10^4.
        """
        team = self._teams.get((r, cell))
        if team is None:
            team = self._teams[(r, cell)] = sorted(
                v.robot_id
                for v in snap.robots
                if v.awake and close_to(v.position, corner, _CORNER_TOL)
            )
        return team


def awave_program(
    ell: int,
    speed_floor: float = 1.0,
    frontier: "FrontierIndex | None" = None,
) -> Program:
    """Source program for ``AWave`` (only ``ell`` is required).

    ``speed_floor`` re-certifies the window arithmetic for worlds whose
    robots move slower than unit speed (see
    :func:`~repro.core.agrid.wave_round_start`).
    ``frontier`` enables the sparse-wave-frontier execution model: the
    same choreography — identical makespans, wake orders and per-robot
    energies, as pinned by ``tests/core/test_awave_differential.py`` —
    with cold exploration stretches batched into single engine events.
    ``None`` keeps the per-stop legacy execution (``legacy_awave``).
    """
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    if speed_floor <= 0:
        raise ValueError("speed_floor must be positive")
    e = effective_ell(ell)

    def program(proc: ProcessView) -> Generator[Action, Result, None]:
        R = awave_cell_width(ell)
        grid = CellGrid(source=proc.position, width=R)
        plan = _WavePlan(grid, e, speed_floor, frontier)
        cell0: Cell = (0, 0)
        if frontier is not None:
            yield Annotate(
                "awave:frontier",
                {"cells": plan.occupied_cells(), "robots": len(frontier)},
            )
        yield Annotate("awave:round0", {"cell": cell0, "R": R})
        inner = aseparator_program(
            ell=e,
            rho=R,  # unused when root_square is given
            after=_participant_factory(plan, 1),
            key_base=("awave", 0),
            root_square=grid.rect(cell0),
            owns=grid.owns(cell0),
            frontier=frontier,
        )
        # The run's dissolution routes every robot of the cell — including
        # the source — through the participant continuation for round 1.
        yield from inner(proc)

    return program


def _participant_factory(plan: _WavePlan, r: int):
    """``after`` continuation: a robot woken in round ``r-1`` becomes a
    round-``r`` participant of the cell it stands in."""

    def factory(rid: int) -> Program:
        def program(proc: ProcessView) -> Generator[Action, Result, None]:
            yield from _participate(proc, plan, rid, r)

        return program

    return factory


def _participate(
    proc: ProcessView,
    plan: _WavePlan,
    rid: int,
    r: int,
) -> Generator[Action, Result, None]:
    """Gather, elect, and (as leader) drive the window chain."""
    grid = plan.grid
    cell = grid.cell_of(proc.position)
    corner = grid.rect(cell).lower_left
    yield Move(corner)
    gather = plan.round_start(r)
    _assert_on_time(proc, gather, f"awave round {r} gather")
    yield WaitUntil(gather)
    snap = (yield Look()).value
    team = plan.gather_team(r, cell, snap, corner)
    if len(team) < 4 * plan.e:
        yield Annotate("awave:wave-dies", {"cell": cell, "round": r, "team": len(team)})
        return  # park in place: the wave does not proceed from this cell
    if rid != team[0]:
        return  # follower: park; the leader absorbs this robot next tick
    yield Annotate("awave:team", {"cell": cell, "round": r, "team": len(team)})
    yield Wait(0.0)
    yield Absorb([x for x in team if x != rid])
    yield from _window_step(proc, plan, r, cell, 1, tuple(team))


def _window_step(
    proc: ProcessView,
    plan: _WavePlan,
    r: int,
    cell: Cell,
    i: int,
    imports: tuple[int, ...],
) -> Generator[Action, Result, None]:
    """Window ``i``: move the team to neighbor ``i`` and run ``ASeparator``
    there.  The embedded run consumes the process; imports regroup through
    their release continuations."""
    grid = plan.grid
    target = grid.neighbor(cell, i)
    yield Move(grid.rect(target).lower_left)
    start = plan.window_start(r, i)
    _assert_on_time(proc, start, f"awave round {r} window {i}")
    yield WaitUntil(start)
    yield Annotate("awave:window", {"round": r, "cell": target, "i": i})
    regroup = _Regroup(plan, r, cell, i, imports)
    ctx = SeparatorContext(
        ell=plan.e,
        key_base=("awave", r, cell, i),
        imports=frozenset(imports),
        after=_participant_factory(plan, r + 1),
        on_release=regroup,
        on_release_team=regroup.team,
        frontier=plan.frontier,
    )
    yield from embedded_entry(ctx, grid.rect(target), grid.owns(target))(proc)
    # Whatever robots this process still owns were already routed through
    # their continuations inline; nothing more to do.


class _Regroup:
    """``on_release`` continuation for imports of window ``i``: walk to the
    next window's corner; the minimum import id re-absorbs the team.

    The corner, the leader and its absorb list are computed once per
    window.  A dissolving team made only of these imports may instead be
    handed back as one flight (:meth:`team`).
    """

    def __init__(
        self, plan: _WavePlan, r: int, cell: Cell, i: int, imports: tuple[int, ...]
    ) -> None:
        self.plan, self.r, self.cell, self.i, self.imports = plan, r, cell, i, imports
        self.leader = min(imports)
        self.rest = [x for x in imports if x != self.leader]
        self.corner = (
            plan.grid.rect(plan.grid.neighbor(cell, i + 1)).lower_left if i < 8 else None
        )

    def __call__(self, rid: int) -> Program | None:
        if self.i >= 8:
            return None  # tour over: park in place

        def program(proc: ProcessView) -> Generator[Action, Result, None]:
            yield Move(self.corner)
            if rid != self.leader:
                return  # idle at the corner until absorbed
            yield from self._next_window(proc, self.rest)

        return program

    def team(self, proc: ProcessView) -> Generator[Action, Result, bool]:
        """Hand a dissolving team made only of these imports back as one.

        Observably the per-import path: the team is reordered as the
        leader's absorb would order it (one idle-group ``Fork``,
        ``Wait(0.0)``, one ``Absorb``), then every import walks to the
        corner at its own speed in one :class:`~repro.sim.TeamSweep` of
        one-stop runs, and the leader carries on from the last arrival.
        After window 8 the team just parks: one idle-group ``Fork``.
        Taken only on the frontier execution and when
        :func:`_hand_back_admissible` holds, so that no budget overrun or
        late arrival moves; returns False otherwise, having done nothing.
        """
        ids = proc.robot_ids
        if self.plan.frontier is None or len(ids) != len(self.imports) or len(ids) < 2:
            return False
        corner = self.corner
        start = None if corner is None else self.plan.window_start(self.r, self.i + 1)
        if not _hand_back_admissible(proc, corner, start):
            return False
        if corner is None:
            yield Fork([(ids[1:], idle)])  # tour over: park in place
            return True
        yield Fork([([x for x in ids if x != self.leader], idle)])
        yield Wait(0.0)
        yield Absorb(self.rest)
        x, y = corner
        yield TeamSweep(LatticeAxis([x]), [LatticeAxis([y])] * len(ids))
        yield from self._next_window(proc, ())
        return True

    def _next_window(
        self, proc: ProcessView, absorb: Sequence[int]
    ) -> Generator[Action, Result, None]:
        """The leader at the corner: absorb the team when the window opens
        and run it."""
        r, i = self.r, self.i
        start = self.plan.window_start(r, i + 1)
        _assert_on_time(proc, start, f"awave regroup round {r} window {i + 1}")
        yield WaitUntil(start)
        yield Wait(0.0)
        if absorb:
            yield Absorb(absorb)
        yield from _window_step(proc, self.plan, r, self.cell, i + 1, self.imports)


def _hand_back_admissible(
    proc: ProcessView, corner: Point | None, start: float | None
) -> bool:
    """Whether the team at ``proc`` may be handed back as one: parked in
    place when the tour is over (no ``corner``), else walked to ``corner``
    as one team sweep — the walk takes time, every robot clears its
    remaining budget by ``BUDGET_MARGIN``, and the slowest arrives by
    ``start``."""
    if corner is None:
        return True
    here = proc.position
    length = math.hypot(here[0] - corner[0], here[1] - corner[1])
    return (
        length > EPS
        and length < proc.min_remaining_budget - BUDGET_MARGIN
        and proc.time + length / proc.speed <= start
    )

