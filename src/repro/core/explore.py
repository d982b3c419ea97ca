"""The ``Explore`` procedure (Lemma 1, Section 6.1).

A robot with distance-1 visibility explores a rectangle by zig-zagging rows
spaced ``sqrt(2)`` apart, taking a snapshot every ``sqrt(2)`` of travel: a
radius-1 disk contains the axis-parallel square of width ``sqrt(2)``
centered at the snapshot point, so the snapshot lattice covers the strip.
A team of ``k`` robots splits the rectangle into ``k`` horizontal strips
(Figure 4b), explores them in parallel, and regroups at a meeting point to
share findings — time ``O(w*h/k + w + h)``.

The lattice of a rectangle is the product of two memoized
:class:`~repro.sim.LatticeAxis` columns (stop coordinates plus the hop
between each pair of neighbours).  The per-stop walk materializes it as
points; the frontier-batched walk never does — it describes each
stretch between hot stops as a :class:`~repro.sim.Sweep` over an index
range of the lattice, which the engine charges from the memoized hops.
A team whose strips are all cold needs no snapshot at all: its whole
exploration is one :class:`~repro.sim.TeamSweep` of the strip family (the
shared columns and one row axis per strip).

Implemented as engine program fragments (``yield from``-able generators):

* :func:`exploration_stops` — the snapshot lattice for one rectangle, as
  points;
* :func:`explore_rect` — single-robot (or whole-process) exploration;
* :func:`explore_rect_team` — one team sweep for a cold team, else the
  fork / explore / barrier / absorb cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, Iterable, Iterator

from ..geometry import EPS, Point, Rect
from ..sim import (
    Absorb,
    Barrier,
    Fork,
    LatticeAxis,
    Look,
    Move,
    Result,
    Snapshot,
    Sweep,
    TeamSweep,
    Wait,
)
from ..sim.actions import Action
from ..sim.engine import ProcessView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..geometry import FrontierIndex

__all__ = [
    "BUDGET_MARGIN",
    "SQRT2",
    "ExplorationReport",
    "exploration_stops",
    "exploration_time_bound",
    "explore_rect",
    "explore_rect_team",
]

SQRT2 = math.sqrt(2.0)

#: How far under a team's remaining budget a batched walk (a sweep, a team
#: sweep, a tour) must stay before it is issued as one action: far more
#: than the rounding between its sequential length and the per-step
#: charges, so a walk that could overrun takes the per-step path.
BUDGET_MARGIN = 1e-6


@dataclass
class ExplorationReport:
    """Robots observed while exploring: id -> observed position."""

    sleeping: Dict[int, Point] = field(default_factory=dict)
    awake: Dict[int, Point] = field(default_factory=dict)
    snapshots: int = 0

    def note(self, snapshot: Snapshot) -> None:
        """Record every robot a snapshot shows."""
        for view in snapshot.robots:
            if view.awake:
                self.awake[view.robot_id] = view.position
                self.sleeping.pop(view.robot_id, None)
            elif view.robot_id not in self.awake:
                self.sleeping[view.robot_id] = view.position

    def merge(self, other: "ExplorationReport") -> None:
        # A robot seen awake anywhere overrides a sleeping sighting, in
        # whichever order the reports arrive: wakes are irreversible, so
        # the awake observation is the newer fact.  ``sleeping`` and
        # ``awake`` stay disjoint.
        awake = self.awake
        awake.update(other.awake)
        for rid in other.awake:
            self.sleeping.pop(rid, None)
        for rid, pos in other.sleeping.items():
            if rid not in awake:
                self.sleeping[rid] = pos
        self.snapshots += other.snapshots


def _axis_stops(lo: float, hi: float) -> LatticeAxis:
    """Snapshot coordinates covering the closed interval ``[lo, hi]``.

    Stops are spaced at most ``sqrt(2)`` apart with the first/last at most
    ``sqrt(2)/2`` from the ends, so every coordinate of the interval is
    within ``sqrt(2)/2`` of a stop.  The axis also carries the hop length
    between each pair of neighbouring stops, which the engine charges a
    :class:`~repro.sim.Sweep` from.

    Memoized: a team exploration splits a rectangle into one strip per
    robot, and every strip shares the parent's x-interval — at cohort
    sizes that is thousands of identical lattices per rectangle.
    """
    cached = _AXIS_STOPS_MEMO.get((lo, hi))
    if cached is not None:
        return cached
    span = hi - lo
    if span <= SQRT2:
        stops = [(lo + hi) / 2.0]
    else:
        count = math.ceil(span / SQRT2)
        # ``count`` intervals of width span/count <= sqrt(2); stops at
        # interval midpoints.
        step = span / count
        stops = [lo + (i + 0.5) * step for i in range(count)]
    axis = LatticeAxis(stops)
    if len(_AXIS_STOPS_MEMO) >= _AXIS_STOPS_MEMO_MAX:
        _AXIS_STOPS_MEMO.clear()
    _AXIS_STOPS_MEMO[(lo, hi)] = axis
    return axis


_AXIS_STOPS_MEMO: Dict[tuple, LatticeAxis] = {}
_AXIS_STOPS_MEMO_MAX = 4096


def exploration_stops(rect: Rect) -> list[Point]:
    """Boustrophedon snapshot lattice covering ``rect``.

    Every point of ``rect`` lies within Chebyshev distance ``sqrt(2)/2`` of
    some stop, hence within Euclidean distance 1 — the Lemma 1 coverage
    invariant.  Rows alternate direction so consecutive stops are adjacent.
    """
    ys = _axis_stops(rect.ymin, rect.ymax).stops
    xs = _axis_stops(rect.xmin, rect.xmax).stops
    xs_reversed = xs[::-1]
    # Only per-stop walks build every stop: legacy_awave, AGrid and
    # ASeparator (and a frontier walk too close to its budget to batch).
    # Skip the generated NamedTuple __new__ frame and build the Points
    # straight through tuple.__new__ — same objects, ~2x less constructor
    # overhead.
    tuple_new = tuple.__new__
    point = Point
    stops: list[Point] = []
    for j, y in enumerate(ys):
        row = xs if j % 2 == 0 else xs_reversed
        stops += [tuple_new(point, (x, y)) for x in row]
    return stops


def exploration_time_bound(width: float, height: float, k: int = 1) -> float:
    """Safe upper bound on the travel of :func:`explore_rect` over a
    ``width x height`` rectangle split across ``k`` robots.

    Accounts for the strip path (``<= w*h/(k*sqrt(2)) + w + h`` per strip
    plus slack), the entry move and the exit move.  Used by the fixed
    window arithmetic of ``AGrid``/``AWave``; the engine asserts the bound
    at runtime, so a violation fails loudly in tests.
    """
    w, h = width, height
    strip_h = h / k
    path = (w + SQRT2) * (strip_h / SQRT2 + 1.0) + strip_h
    entry_exit = 2.0 * (w + h) + 2.0 * SQRT2
    return path + entry_exit


def explore_rect(
    proc: ProcessView,
    rect: Rect,
    arrive_at: Point | None = None,
    frontier: "FrontierIndex | None" = None,
    sleepers_only: bool = False,
) -> Generator[Action, Result, ExplorationReport]:
    """Explore ``rect`` with the whole process moving as one unit.

    Returns an :class:`ExplorationReport` of everything seen.  When
    ``arrive_at`` is given, the process finishes there.

    With ``sleepers_only`` the per-stop walk takes a sleepers-only
    :class:`~repro.sim.Look` at each stop, so the report holds no awake
    robot and a sleeper is never cancelled by a later awake sighting: for
    a caller that keeps only sleepers no one else can wake meanwhile (see
    :func:`repro.core.agrid._explore_and_wake_cell`).  The batched walk
    keeps full Looks, so ``frontier`` and ``sleepers_only`` exclude each
    other.

    With a :class:`~repro.geometry.FrontierIndex` the walk is *batched*:
    stops whose snapshot provably contains no sleeping robot (no initial
    position within the closed visibility reach — sleeping robots never
    move, so the oracle is static) are swept through, and only *hot*
    stops take real snapshots.  Each stretch between hot stops is one
    :class:`~repro.sim.Sweep` over an index range of the rectangle's
    lattice (an entirely cold rectangle is a single run over all of it),
    so no per-stop point is built.  Travel path, per-segment energy
    accounting and arrival times are identical to the per-stop walk;
    what changes is the number of queue events and sleeper-free
    snapshots.  A skipped stop may miss an *awake transient* (a robot
    traveling far from every initial position); such sightings only ever
    cancel a same-report sleeping entry, and the differential suite pins
    that the omission never reaches a wake-time or energy observable on
    any tested instance.  Near an energy budget the batched path falls
    back to per-stop moves so an overrun aborts at exactly the legacy
    point.
    """
    report = ExplorationReport()
    if frontier is not None:
        if sleepers_only:
            raise ValueError("a frontier-batched walk takes full Looks")
        run = _lattice_run(rect, arrive_at)
        if _sweep_admissible(proc, lambda origin: [run.segment_lengths(origin)]):
            yield from _explore_batched(proc, run, frontier, report)
            return report
    look = Look(sleepers_only=sleepers_only)
    for stop in exploration_stops(rect):
        yield Move(stop)
        report.note((yield look).value)
        report.snapshots += 1
    if arrive_at is not None:
        yield Move(arrive_at)
    return report


def _lattice_run(rect: Rect, arrive_at: Point | None) -> Sweep:
    """One run over the whole snapshot lattice of ``rect``, then to
    ``arrive_at`` when given."""
    xs = _axis_stops(rect.xmin, rect.xmax)
    ys = _axis_stops(rect.ymin, rect.ymax)
    return Sweep(xs, ys, 0, len(xs) * len(ys), arrive_at)


def _sweep_admissible(
    proc: ProcessView, walks: Callable[[Point], Iterable[list[float]]]
) -> bool:
    """Whether each walk, from here, clears every robot's remaining budget;
    ``walks`` maps the origin to each walk's segment lengths, and is only
    called when the budget is finite.

    Sweeping must never move the point (or simulation time) at which an
    :class:`~repro.sim.errors.EnergyBudgetExceeded` fires; when the walk
    could plausibly hit a budget, take the per-stop path whose abort
    semantics are the reference.
    """
    remaining = proc.min_remaining_budget
    if remaining == math.inf:
        return True
    # Sequential sums, as the per-stop walk adds them (never fsum / sum).
    return all(
        reduce(add, lengths, 0.0) < remaining - BUDGET_MARGIN
        for lengths in walks(proc.position)
    )


def _explore_batched(
    proc: ProcessView,
    run: Sweep,
    frontier: "FrontierIndex",
    report: ExplorationReport,
) -> Generator[Action, Result, None]:
    """The frontier-batched walk: sweep cold runs, snapshot hot stops.

    ``run`` covers the whole lattice (plus the tail to ``arrive_at``).
    ``report.snapshots`` counts planned lattice stops (the legacy payload
    semantics), not materialized looks.  Distance travelled is charged by
    the engine odometer (the single authoritative energy record, on the
    per-stop and batched paths alike) — reports carry no travel tally.
    """
    xs, ys, count = run.xs, run.ys, run.stop
    report.snapshots += count
    start = 0
    for k in _hot_stops(frontier, xs, ys):
        yield Sweep(xs, ys, start, k + 1)
        start = k + 1
        report.note((yield Look()).value)
    if start < count or run.arrive_at is not None:
        yield Sweep(xs, ys, start, count, run.arrive_at) if start else run


def _hot_stops(
    frontier: "FrontierIndex", xs: LatticeAxis, ys: LatticeAxis
) -> Iterator[int]:
    """Visiting-order indices of the lattice stops that may see a sleeper.

    A lattice whose reach-padded bounds hold no initial position has
    none, without a per-stop test.
    """
    cols, rows = xs.stops, ys.stops
    if not frontier.rect_overlaps(cols[0], rows[0], cols[-1], rows[-1]):
        return
    any_within = frontier.any_within
    reversed_cols = cols[::-1]
    k = 0
    for j, y in enumerate(rows):
        for x in cols if j % 2 == 0 else reversed_cols:
            if any_within((x, y)):
                yield k
            k += 1


def explore_rect_team(
    proc: ProcessView,
    rect: Rect,
    meet_at: Point,
    barrier_key: Any,
    frontier: "FrontierIndex | None" = None,
) -> Generator[Action, Result, ExplorationReport]:
    """Team exploration: split rows, explore in parallel, regroup, merge.

    The calling process keeps the bottom strip and forks one process per
    additional robot; everyone regroups at ``meet_at`` through a barrier
    keyed by ``barrier_key`` (which must be globally unique per call) and
    the caller absorbs its teammates back.  Returns the merged report.
    ``frontier`` enables the batched walk on every strip (see
    :func:`explore_rect`).

    When no strip's lattice can see a sleeper and the whole team clears
    its budget with the longest strip, the forked walks would each be one
    cold :class:`~repro.sim.Sweep` and report nothing: the team then
    yields one :class:`~repro.sim.TeamSweep` of its strips instead, which
    the engine runs as the fork path observably (same odometers, arrival
    times, positions for observers and resume instant) in one event.
    """
    k = proc.team_size
    if k > 1 and frontier is not None:
        sweep = _cold_team_sweep(proc, rect, k, meet_at, frontier)
        if sweep is not None:
            yield sweep
            # The children's empty reports, merged: the planned stops.
            return ExplorationReport(
                snapshots=len(sweep.xs) * sum(len(ys) for ys in sweep.rows)
            )
    report = yield from _explore_rect_team_forked(
        proc, rect, meet_at, barrier_key, frontier
    )
    return report


def _cold_team_sweep(
    proc: ProcessView,
    rect: Rect,
    k: int,
    meet_at: Point,
    frontier: "FrontierIndex",
) -> TeamSweep | None:
    """The team sweep of ``rect``'s ``k`` strips to ``meet_at``, or None
    when a strip may need a Look or a forked walk could differ from its
    run.

    A strip needs no Look when its lattice bounds miss the frontier
    (:func:`_hot_stops`'s early exit); the whole family's bounds are
    tested first, and each strip's only when those hit.  A forked walk is
    exactly its run when the run clears the budget
    (:func:`_sweep_admissible`) and takes time: a zero-length run would
    complete at the issue instant.
    """
    xs = _axis_stops(rect.xmin, rect.xmax)
    rows = [_axis_stops(strip.ymin, strip.ymax) for strip in rect.split_rows(k)]
    cols = xs.stops
    overlaps = frontier.rect_overlaps
    if overlaps(cols[0], rows[0].stops[0], cols[-1], rows[-1].stops[-1]) and any(
        overlaps(cols[0], ys.stops[0], cols[-1], ys.stops[-1]) for ys in rows
    ):
        return None
    sweep = TeamSweep(xs, rows, meet_at)
    if len(cols) == 1 and any(
        # Only a one-stop lattice can be walked without moving.
        len(ys) == 1 and max(lengths) <= EPS
        for ys, lengths in zip(rows, sweep.strip_lengths(proc.position))
    ):
        return None
    return sweep if _sweep_admissible(proc, sweep.strip_lengths) else None


def _explore_rect_team_forked(
    proc: ProcessView,
    rect: Rect,
    meet_at: Point,
    barrier_key: Any,
    frontier: "FrontierIndex | None" = None,
) -> Generator[Action, Result, ExplorationReport]:
    """:func:`explore_rect_team` by fork, strip walks, barrier and absorb."""
    k = proc.team_size
    if k == 1:
        report = yield from explore_rect(
            proc, rect, arrive_at=meet_at, frontier=frontier
        )
        return report

    strips = rect.split_rows(k)
    my_ids = list(proc.robot_ids)
    parties = k

    def strip_program(strip: Rect):
        def program(child: ProcessView):
            child_report = yield from explore_rect(
                child, strip, arrive_at=meet_at, frontier=frontier
            )
            yield Barrier(barrier_key, parties, payload=child_report)
            # Child ends here; its robot becomes idle at meet_at and is
            # absorbed by the caller.

        return program

    assignments = [
        ((my_ids[i],), strip_program(strips[i])) for i in range(1, k)
    ]
    yield Fork(assignments)
    my_report = yield from explore_rect(
        proc, strips[0], arrive_at=meet_at, frontier=frontier
    )
    payloads = (yield Barrier(barrier_key, parties, payload=my_report)).value
    # Let the other parties' processes finish (they return right after the
    # barrier); the Wait(0) resume is ordered after their release events.
    yield Wait(0.0)
    yield Absorb(my_ids[1:])
    merged = ExplorationReport()
    for child_report in payloads:
        merged.merge(child_report)
    return merged
